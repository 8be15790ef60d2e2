"""Which public functions belong to which layer, and the per-layer metrics.

:func:`install` puts a :class:`~tracing.Tracer` wrapper on the calls into
each layer of the stack (names follow the modules under ``src/repro``):

================  ============================================================
layer             wrapped calls → span
================  ============================================================
featurization     ``transform_records`` / ``transform_thresholds`` of each
                  extractor class the table serves
core (+nn)        ``CardNet.estimate_curve`` / ``CardNet.estimate`` (the
                  model forward pass; rows = featurized records)
serving           ``EstimationService.estimate_many`` / ``estimate_curve`` /
                  ``estimate_curve_many`` / ``invalidate``
sharding          ``MergedShardEstimator.estimate_curve_many`` (merge),
                  ``ShardedSelector`` queries (fan-out), routing + commit of
                  updates
selection         ``query`` of each index the table serves (probe, per
                  attribute; rows = matches), ``insert_many`` /
                  ``delete_many`` / ``compact`` (delta maintenance)
engine            ``execute`` / ``execute_many`` / ``apply_update`` on the
                  engine, ``QueryPlanner.iter_plans`` (one span per plan),
                  ``QueryExecutor.execute``, ``FeedbackMonitor.observe``, and
                  residual verification (``values_at`` + the distances'
                  ``cross_distances``, when called by the executor itself)
runtime           ``WorkerPool.submit`` (and task context propagation),
                  ``TaskHandle.result`` / ``exception`` (waiting)
store             ``repro.store.save_engine``
python            garbage collection (``gc.callbacks``)
================  ============================================================

Counts come from the program's own public counters (``service.stats()``,
``engine.feedback.events``, the metrics registries) read before and after
the traced window.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

import repro.store
from repro.core.cardnet import CardNet
from repro.distances import get_distance
from repro.engine.catalog import AttributeBinding
from repro.engine.engine import SimilarityQueryEngine
from repro.engine.executor import QueryExecutor
from repro.engine.feedback import FeedbackMonitor
from repro.engine.planner import QueryPlanner
from repro.obs.metrics import default_registry
from repro.runtime.pool import TaskHandle, WorkerPool
from repro.serving import EstimationService
from repro.sharding import ShardedSelector
from repro.sharding.group import MergedShardEstimator
from table import ATTRIBUTES
from tracing import Span, Tracer

#: Spans that only wait on other threads; they take wall time only when no
#: other span is running (see ``tracing.attribute_wall``).
WAITING = frozenset({"runtime.wait"})

#: Span name → per-layer self-time metric (seconds of the traced window).
SELF_TIME = {
    "featurization.records": "featurization.records_s",
    "featurization.thresholds": "featurization.thresholds_s",
    "core.forward": "core.forward_s",
    "serving.estimate": "serving.estimate_s",
    "serving.invalidate": "serving.estimate_s",
    "sharding.merge": "sharding.merge_s",
    "sharding.fanout": "sharding.fanout_s",
    "sharding.update": "sharding.update_s",
    **{f"selection.probe.{attribute}": f"selection.probe_s.{attribute}" for attribute in ATTRIBUTES},
    "selection.delta": "selection.delta_s",
    "engine.request": "engine.request_s",
    "engine.plan": "engine.plan_s",
    "engine.execute": "engine.execute_s",
    "engine.verify": "engine.verify_s",
    "engine.feedback": "engine.feedback_s",
    "engine.update": "engine.update_s",
    "runtime.submit": "runtime.submit_s",
    "runtime.wait": "runtime.execute_wait_s",
    "store.save": "store.save_s",
    "python.gc": "python.gc_pause_s",
}

REGISTRY_COUNTERS = (
    "repro_compactions_total",
    "repro_update_delta_rows_total",
    "repro_shard_tasks_total",
)

#: Every per-layer metric the traced run prints: name → unit.
METRICS: Dict[str, str] = {
    **{name: "s" for name in dict.fromkeys(SELF_TIME.values())},
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "core.forward_calls": "count",
    "core.forward_rows": "count",
    "serving.cache_lookups": "count",
    "serving.cache_hit_ratio": "ratio",
    "serving.invalidated_curves": "count",
    "serving.micro_batch_rows": "rows/batch",
    "sharding.shard_tasks": "count",
    "selection.probes": "count",
    "selection.rows_per_probe": "rows/probe",
    "selection.delta_rows": "count",
    "selection.compactions": "count",
    "engine.driver_candidates": "count",
    "engine.verify_examined": "count",
    "engine.verify_survivor_ratio": "ratio",
    "engine.drift_events": "count",
    "runtime.tasks": "count",
    "store.bytes": "bytes",
    "python.gc_gen2": "count",
    "trace.ops_per_s": "ops/s",
    "trace.overhead_ratio": "ratio",
}


def _classes(objects: Iterable[Any]) -> List[type]:
    return list(dict.fromkeys(type(item) for item in objects))


def install(tracer: Tracer, engine: SimilarityQueryEngine) -> None:
    """Wrap every layer boundary listed in the module docstring."""
    extractors = [
        entry.estimator.extractor
        for entry in engine.service.registry
        if hasattr(entry.estimator, "extractor")
    ]
    for cls in _classes(extractors):
        tracer.wrap(cls, "transform_records", "featurization.records")
        tracer.wrap(cls, "transform_thresholds", "featurization.thresholds")

    def result_rows(args, result) -> int:
        return len(result)

    tracer.wrap(CardNet, "estimate_curve", "core.forward", rows=result_rows)
    tracer.wrap(CardNet, "estimate", "core.forward", rows=result_rows)

    for method in ("estimate_many", "estimate_curve", "estimate_curve_many"):
        tracer.wrap(EstimationService, method, "serving.estimate")
    tracer.wrap(EstimationService, "invalidate", "serving.invalidate")

    tracer.wrap(MergedShardEstimator, "estimate_curve_many", "sharding.merge")
    for method in ("query", "query_with_counts", "query_many", "cardinality", "cardinality_curve"):
        tracer.wrap(ShardedSelector, method, "sharding.fanout")
    for method in ("route_operation", "apply_routed"):
        tracer.wrap(ShardedSelector, method, "sharding.update")

    # The indexes the table serves: one per attribute, one per hm shard.
    owners: Dict[int, str] = {}
    leaves: List[Any] = []
    for attribute in engine.catalog.names():
        selector = engine.catalog.get(attribute).selector
        for leaf in selector.shards if isinstance(selector, ShardedSelector) else [selector]:
            owners[id(leaf)] = attribute
            leaves.append(leaf)

    def probe_name(selector: Any):
        attribute = owners.get(id(selector))
        return None if attribute is None else f"selection.probe.{attribute}"

    def delta_name(selector: Any):
        return "selection.delta" if id(selector) in owners else None

    for cls in _classes(leaves):
        tracer.wrap(cls, "query", probe_name, rows=result_rows)
        for method in ("insert_many", "delete_many", "compact"):
            tracer.wrap(cls, method, delta_name)

    tracer.wrap(SimilarityQueryEngine, "execute", "engine.request")
    tracer.wrap(SimilarityQueryEngine, "execute_many", "engine.request")
    tracer.wrap(SimilarityQueryEngine, "apply_update", "engine.update")
    tracer.wrap_generator(QueryPlanner, "iter_plans", "engine.plan")
    tracer.wrap(QueryExecutor, "execute", "engine.execute")
    tracer.wrap(FeedbackMonitor, "observe", "engine.feedback")

    def verify_name(_: Any):
        current = tracer.current()
        return "engine.verify" if current is not None and current.name == "engine.execute" else None

    tracer.wrap(AttributeBinding, "values_at", verify_name)
    for distance in _classes(get_distance(name) for name in ("hamming", "edit", "jaccard", "euclidean")):
        tracer.wrap(distance, "cross_distances", verify_name)

    tracer.wrap_submit(WorkerPool, "runtime.submit")
    tracer.wrap(TaskHandle, "result", "runtime.wait")
    tracer.wrap(TaskHandle, "exception", "runtime.wait")

    tracer.wrap(repro.store, "save_engine", "store.save")


def boundary_counters(engine: SimilarityQueryEngine) -> Dict[str, float]:
    """The program's own counters, read through its public APIs."""
    stats = engine.service.stats()
    cache = stats["cache"]
    endpoints = stats["endpoints"].values()
    counters = {
        "cache.hits": float(cache["hits"]),
        "cache.misses": float(cache["misses"]),
        "cache.invalidations": float(cache["invalidations"]),
        "cache.evictions": float(cache["evictions"]),
        "service.batches": float(sum(e["batches"] for e in endpoints)),
        "service.batched_records": float(sum(e["batches"] * e["mean_batch_size"] for e in endpoints)),
        "feedback.events": float(len(engine.feedback.events)),
    }
    # Shard tasks land in the pool's registry (the service telemetry's) on
    # worker threads and in the process default registry otherwise.
    for name in REGISTRY_COUNTERS:
        counters[name] = float(
            sum(
                metric.value
                for registry in (default_registry(), engine.service.telemetry.metrics)
                for metric in registry.collect()
                if metric.name == name
            )
        )
    return counters


def layer_metrics(
    spans: List[Span],
    self_seconds: Dict[str, float],
    unattributed: float,
    wall: float,
    before: Dict[str, float],
    after: Dict[str, float],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced window (see :data:`METRICS`)."""
    delta = {key: after[key] - before[key] for key in after}
    unknown = sorted(set(self_seconds) - set(SELF_TIME))
    if unknown:
        raise KeyError(f"spans without a layer metric: {unknown}")
    values: Dict[str, float] = {name: 0.0 for name in METRICS}
    for span_name, seconds in self_seconds.items():
        values[SELF_TIME[span_name]] += seconds
    values["unattributed_s"] = unattributed
    values["trace.wall_s"] = wall

    def spans_named(prefix: str) -> List[Span]:
        return [span for span in spans if span.name.startswith(prefix) and span.end is not None]

    forward = spans_named("core.forward")
    probes = spans_named("selection.probe.")
    lookups = delta["cache.hits"] + delta["cache.misses"]
    values.update(
        {
            "core.forward_calls": float(len(forward)),
            "core.forward_rows": float(sum(span.rows for span in forward)),
            "serving.cache_lookups": lookups,
            "serving.cache_hit_ratio": delta["cache.hits"] / lookups if lookups else 0.0,
            "serving.invalidated_curves": delta["cache.invalidations"],
            "serving.micro_batch_rows": (
                delta["service.batched_records"] / delta["service.batches"]
                if delta["service.batches"] else 0.0
            ),
            "sharding.shard_tasks": delta["repro_shard_tasks_total"],
            "selection.probes": float(len(probes)),
            "selection.rows_per_probe": (
                sum(span.rows for span in probes) / len(probes) if probes else 0.0
            ),
            "selection.delta_rows": delta["repro_update_delta_rows_total"],
            "selection.compactions": delta["repro_compactions_total"],
            "engine.drift_events": delta["feedback.events"],
            "runtime.tasks": float(len(spans_named("runtime.submit"))),
        }
    )
    values.update(extra)
    return values
