"""Run one workload of the repository benchmark and report its metrics.

    python3 perfbench/run.py --workload query_bulk --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: it imports the library from ``src/``.
It prints a readable report, then, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``,
measured without tracing; with ``--trace 1`` they are the per-layer metrics
of a traced window (see ``perfbench/layers.py``).  Spans and the full report
are written under ``.perfbench/`` in the working directory.

Workloads, metrics and the predictions they serve are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

# One BLAS thread.  OpenBLAS's own pool would otherwise spin on the second
# core between calls, next to the engine's 2 execute workers: no pool is
# wider than the 2 cores the benchmark is sized for.  Set before numpy loads.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
#: Set-ups per untraced run; ``setup_s`` is their median.  The window is
#: measured in as many slices, one after each set-up.
SETUP_REPEATS = 3
OUTPUT = Path(".perfbench")

#: End-to-end metrics: name → unit (all lower-is-better except ops_per_s).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "ops/s",
    "latency_p75_ms": "ms",
    "qerror_p50": "ratio",
    "qerror_p95": "ratio",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workload(name: str, table, seed: int):
    from workloads import WORKLOADS, MixedReadWrite

    cls = WORKLOADS[name]
    if cls is MixedReadWrite:
        return cls(table, seed, checkpoint_dir=OUTPUT / f"checkpoint-{os.getpid()}")
    return cls(table, seed)


def describe_calls(window) -> List[str]:
    lines = []
    for kind, values in sorted(window.calls.items()):
        lines.append(
            f"  {kind:<20} n={len(values):<6} p50 {1e3 * percentile(values, 50):9.3f} ms"
            f"  p95 {1e3 * percentile(values, 95):9.3f} ms  p99 {1e3 * percentile(values, 99):9.3f} ms"
        )
    return lines


def run_untraced(
    args: argparse.Namespace, num_rows: Optional[int] = None, setup_repeats: int = SETUP_REPEATS
) -> Dict[str, Any]:
    from table import NUM_ROWS, timed_setup
    from workloads import Window

    rows = num_rows or NUM_ROWS
    table, first = timed_setup(rows)
    setups = [first]
    workload = make_workload(args.workload, table, args.seed)
    window = Window()
    slices: List[Window] = []
    try:
        workload.prepare()
        # One slice of the window after each set-up (the later tables are
        # discarded): a run then samples the machine's speed over its whole
        # length instead of over one stretch of it.
        for slice_index in range(setup_repeats):
            if slice_index:
                spare, seconds = timed_setup(rows)
                spare.engine.runtime.shutdown(wait=True)
                del spare
                setups.append(seconds)
            gc.collect()
            piece = workload.run(args.seconds / setup_repeats)
            slices.append(piece)
            window.extend(piece)
            if not slice_index:
                # One set-up plus serving; the set-ups repeated for timing
                # would only add their allocator leftovers.
                peak_rss = peak_rss_mb()
        workload.verify()
    finally:
        workload.finish()
    calls = [value for kind in workload.CALLS for value in window.calls.get(kind, [])]
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        # What the run sustained: its slowest slice, and the latency three
        # requests in four meet.  See "Noise" in README.md for why.
        "ops_per_s": min(piece.ops / piece.seconds for piece in slices),
        "latency_p75_ms": 1e3 * percentile(calls, 75),
        "qerror_p50": percentile(workload.q_errors, 50),
        "qerror_p95": percentile(workload.q_errors, 95),
    }
    samples = {
        "setup_s": len(setups),
        "ops_per_s": len(slices),
        "latency_p75_ms": len(calls),
        "qerror_p50": len(workload.q_errors),
        "qerror_p95": len(workload.q_errors),
    }
    lines = [
        f"{args.workload} seed {args.seed}: {window.ops} ops in {window.seconds:.3f} s, "
        f"{len(calls)} client calls ({'/'.join(workload.CALLS)})",
        f"  set-ups: {', '.join(f'{value:.3f}' for value in setups)} s",
        f"  window slices: {', '.join(f'{piece.ops / piece.seconds:.2f}' for piece in slices)} ops/s",
        f"  q-error sample: {len(workload.q_errors)} answers",
        *describe_calls(window),
        f"  failed_frac {workload.failed} / {workload.attempted}",
    ]
    return {
        "workload": workload, "metrics": metrics, "units": END_TO_END, "lines": lines,
        "samples": samples, "slices": [vars(piece) for piece in slices],
    }


def run_traced(args: argparse.Namespace, num_rows: Optional[int] = None) -> Dict[str, Any]:
    import layers
    from table import NUM_ROWS, build_table
    from tracing import Tracer, attribute_wall

    table = build_table(num_rows or NUM_ROWS)
    workload = make_workload(args.workload, table, args.seed)
    engine = table.engine
    tracer = Tracer()
    half = args.seconds / 2.0
    try:
        workload.prepare()
        gc.collect()
        plain = workload.run(half)
        layers.install(tracer, engine)
        before = layers.boundary_counters(engine)
        candidates, examined, survivors = workload.candidates, workload.examined, workload.survivors
        checkpoints = len(workload.checkpoint_bytes)
        gc.collect()
        tracer.start()
        window_start = time.perf_counter()
        traced = workload.run(half, on_call=tracer.set_request)
        window_end = time.perf_counter()
        tracer.stop()
        after = layers.boundary_counters(engine)
        workload.verify()
    finally:
        tracer.uninstall()
        workload.finish()
    spans = tracer.all_spans()
    self_seconds, unattributed = attribute_wall(spans, window_start, window_end, layers.WAITING)
    wall = window_end - window_start
    examined = workload.examined - examined
    saved = workload.checkpoint_bytes[checkpoints:]
    plain_rate = plain.ops / plain.seconds
    traced_rate = traced.ops / traced.seconds
    extra = {
        "engine.driver_candidates": float(workload.candidates - candidates),
        "engine.verify_examined": float(examined),
        "engine.verify_survivor_ratio": (workload.survivors - survivors) / examined if examined else 0.0,
        "store.bytes": statistics.mean(saved) if saved else 0.0,
        "python.gc_gen2": float(tracer.gc_gen2),
        "trace.ops_per_s": traced_rate,
        "trace.overhead_ratio": plain_rate / traced_rate,
    }
    metrics = layers.layer_metrics(spans, self_seconds, unattributed, wall, before, after, extra)
    OUTPUT.mkdir(exist_ok=True)
    trace_path = OUTPUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(trace_path, window_start)
    lines = [
        f"{args.workload} seed {args.seed}: untraced {plain.ops} ops in {plain.seconds:.3f} s, "
        f"traced {traced.ops} ops in {traced.seconds:.3f} s, {len(spans)} spans -> {trace_path}",
        "  self time per span (s): "
        + ", ".join(f"{name} {seconds:.4f}" for name, seconds in sorted(self_seconds.items())),
        f"  unattributed {unattributed:.4f} s of {wall:.4f} s",
        *describe_calls(traced),
        f"  failed_frac {workload.failed} / {workload.attempted}",
    ]
    return {"workload": workload, "metrics": metrics, "units": layers.METRICS, "lines": lines}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: the library sources ({SOURCE}) are missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from workloads import WORKLOADS, log_failures

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    outcome = run_traced(args) if args.trace else run_untraced(args)
    workload = outcome["workload"]
    log_failures(workload)
    metrics = {
        name: {"value": float(outcome["metrics"][name]), "unit": unit}
        for name, unit in outcome["units"].items()
    }
    for line in outcome["lines"]:
        print(line)
    samples = outcome.get("samples", {})
    for name, metric in metrics.items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}{count}")
    result = {
        "correct": workload.failed == 0,
        "attempted": int(workload.attempted),
        "failed": int(workload.failed),
        "metrics": metrics,
    }
    OUTPUT.mkdir(exist_ok=True)
    report = OUTPUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"lines": outcome["lines"], "slices": outcome.get("slices"), **result}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
