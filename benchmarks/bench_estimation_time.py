"""E2 — Table 6: average estimation time per query.

Paper shape: CardNet-A is faster than CardNet (the acceleration removes the
per-distance encoder passes), both are much faster than running the exact
similarity selection (SimSelect), and the sampling/KDE database methods are the
slowest of the estimators.

Writes ``BENCH_estimation_time.json``: ms/query and estimates/s per model and
for SimSelect, so Table 6 is part of the benchmark trajectory.  Each timing is
the best of a few passes over the same queries, which keeps one-off stalls of
a shared machine out of the committed numbers.
"""

from __future__ import annotations

import time

import pytest

from artifacts import emit_json
from repro.selection import default_selector

#: Timed passes over the query set; the fastest pass is reported.
PASSES = 5


def _best_mean_seconds(answer, examples) -> float:
    """Seconds per query of ``answer(record, theta)``, best of :data:`PASSES`."""
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        for example in examples:
            answer(example.record, example.theta)
        best = min(best, time.perf_counter() - start)
    return best / len(examples)


def test_table6_estimation_time(hm_estimators, hm_dataset, hm_workload, print_table, benchmark):
    examples = hm_workload.test[:40]
    rows = []
    timings = {}

    # SimSelect row: running the exact selection algorithm per query.
    selector = default_selector("hamming", hm_dataset.records)
    timings["SimSelect"] = _best_mean_seconds(selector.cardinality, examples)

    for name, estimator in hm_estimators.items():
        timings[name] = _best_mean_seconds(estimator.estimate, examples)

    for name, seconds in timings.items():
        rows.append([name, f"{seconds * 1e3:.3f}"])
    print_table("Table 6 — average estimation time", ["model", "ms/query"], rows)
    emit_json(
        "estimation_time",
        {
            "queries": len(examples),
            "passes": PASSES,
            "models": {
                name: {"ms_per_query": seconds * 1e3, "estimates_per_second": 1.0 / seconds}
                for name, seconds in timings.items()
            },
        },
    )

    # Shape check from the paper that holds at any scale: the accelerated model
    # is faster than CardNet (one encoder pass instead of τ+1).  The orderings
    # against SimSelect/DB-US depend on the dataset scale (millions of records
    # in the paper vs hundreds here) and are reported in the table only.
    assert timings["CardNet-A"] < timings["CardNet"]

    example = examples[0]
    benchmark(lambda: hm_estimators["CardNet-A"].estimate(example.record, example.theta))


@pytest.mark.parametrize("name", ["CardNet", "CardNet-A", "DL-DNN", "DB-US"])
def test_table6_per_model_latency(hm_estimators, hm_workload, name, benchmark):
    """Per-model single-query latency, timed precisely by pytest-benchmark."""
    estimator = hm_estimators[name]
    example = hm_workload.test[0]
    result = benchmark(lambda: estimator.estimate(example.record, example.theta))
    assert result >= 0.0
