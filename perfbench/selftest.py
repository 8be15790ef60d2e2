"""Small-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload on a 600-row table for a short window, untraced and
traced, and checks that:

* every end-to-end and per-layer metric of ``BENCHMARK.json`` is emitted,
  with the unit ``BENCHMARK.json`` gives it, and nothing else is;
* the unmodified engine has no failed answer;
* the layers' self times plus ``unattributed_s`` add up to ``trace.wall_s``;
* a wrong answer injected into the engine's output raises ``failed``.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import run

ROWS = 600
SECONDS = 0.6


def expected_units(section: str) -> dict:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def check(condition: bool, message: str, problems: list) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        problems.append(message)


def inject_wrong_answer(problems: list) -> None:
    """Drop one row from one ``execute_many`` answer; the oracle must notice."""
    from table import build_table
    from workloads import QueryBulk

    table = build_table(ROWS)
    workload = QueryBulk(table, seed=1)
    workload.prepare()
    engine = table.engine
    honest = engine.execute_many
    corrupted = []

    def execute_many(queries, *args, **kwargs):
        results = honest(queries, *args, **kwargs)
        for result in results:
            if not corrupted and result.record_ids:
                result.record_ids = result.record_ids[:-1]
                corrupted.append(result)
        return results

    engine.execute_many = execute_many
    try:
        workload.run(SECONDS)
        workload.verify()
    finally:
        workload.finish()
    check(bool(corrupted), "a wrong answer was injected", problems)
    check(
        workload.failed >= 1 and workload.failed / workload.attempted > 0,
        f"injected wrong answer raises failed_frac ({workload.failed} / {workload.attempted})",
        problems,
    )


def main() -> int:
    sys.path.insert(0, str(run.SOURCE))
    import layers
    from workloads import WORKLOADS

    problems: list = []
    end_to_end = expected_units("end_to_end")
    per_layer = expected_units("per_layer")
    for name in WORKLOADS:
        args = argparse.Namespace(workload=name, seed=1, seconds=SECONDS, trace=0)
        plain = run.run_untraced(args, num_rows=ROWS, setup_repeats=1)
        check(plain["units"] == end_to_end, f"{name}: end-to-end metrics and units match BENCHMARK.json", problems)
        check(
            all(math.isfinite(plain["metrics"][metric]) and plain["metrics"][metric] > 0 for metric in end_to_end),
            f"{name}: every end-to-end metric is positive",
            problems,
        )
        check(plain["workload"].failed == 0, f"{name}: no failed answer untraced", problems)
        args.trace = 1
        traced = run.run_traced(args, num_rows=ROWS)
        check(traced["units"] == per_layer, f"{name}: per-layer metrics and units match BENCHMARK.json", problems)
        check(traced["workload"].failed == 0, f"{name}: no failed answer traced", problems)
        values = traced["metrics"]
        wall = values["trace.wall_s"]
        timed = {*layers.SELF_TIME.values(), "unattributed_s"}
        covered = sum(values[metric] for metric in timed)
        check(
            abs(covered - wall) < 1e-6 * wall,
            f"{name}: self times add up to the traced wall time ({covered:.6f} of {wall:.6f} s)",
            problems,
        )
    inject_wrong_answer(problems)
    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} check(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
