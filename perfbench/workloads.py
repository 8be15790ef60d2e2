"""The three workloads, each a closed loop driven by one client thread.

A workload is built from the table and the workload seed.  ``prepare`` does
the untimed work (request pools, ground truth, warm-up), ``run`` is the timed
closed loop, and ``verify`` checks every recorded answer afterwards.  Why each
workload exists, and which layer metric should move which end-to-end metric
on it, is written down in ``perfbench/README.md``.

A loop runs whole *cycles* until the window has lasted ``seconds``: a cycle
is one client call for ``estimate_cold`` (one estimate per attribute) and
``query_bulk`` (one batch), and a fixed run of reads and writes ended by a
checkpoint for ``mixed_rw``.  Ending on a cycle boundary keeps throughput
independent of where the clock happens to stop inside a checkpoint.
"""

from __future__ import annotations

import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from oracle import Reference, is_monotone, scan_ids
from repro.datasets.updates import UpdateOperation, apply_operation
from repro.engine import ConjunctiveQuery, SimilarityPredicate
from repro.serving.registry import default_record_key
from repro.serving.telemetry import q_error
from table import ATTRIBUTES, Table

_clock = time.perf_counter

#: Seed of the fixed samples: the query pools of ``query_bulk`` and
#: ``mixed_rw`` and the q-error sample of ``estimate_cold``.  Fixed pools keep
#: one run's cost comparable with another's; the workload seed decides which
#: pool queries run in which order, and every other request.
SAMPLE_SEED = 4_242
#: Queries per ``execute_many`` call.
BATCH = 32


@dataclass
class Window:
    """What one timed loop did: its calls, by kind, with their durations."""

    seconds: float = 0.0
    #: Operations completed (estimates, queries, or reads + writes).
    ops: int = 0
    #: Client-call durations in seconds, per kind of call.
    calls: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, kind: str, seconds: float) -> None:
        self.calls.setdefault(kind, []).append(seconds)

    def extend(self, other: "Window") -> None:
        self.seconds += other.seconds
        self.ops += other.ops
        for kind, values in other.calls.items():
            self.calls.setdefault(kind, []).extend(values)


class Requests:
    """Seeded perturbations of table rows, never the same record twice."""

    def __init__(self, table: Table, seed: int) -> None:
        self.table = table
        self.rng = np.random.default_rng(seed)
        self._seen: set = set()

    def row(self, attribute: str) -> int:
        return int(self.rng.integers(0, len(self.table.datasets[attribute])))

    def theta(self, attribute: str, share: float = 1.0) -> float:
        """θ uniform over ``[0, share · θ_max]`` (integers for integer distances)."""
        upper = share * self.table.theta_max(attribute)
        if self.table.integer_valued(attribute):
            return float(self.rng.integers(0, int(upper) + 1))
        return float(self.rng.uniform(0.0, upper))

    def perturb(self, attribute: str, base: Any) -> Any:
        """A small random edit of ``base`` that no earlier request used."""
        for attempt in range(100):
            record = self._edit(attribute, base, 1 + attempt // 10)
            key = (attribute, default_record_key(record))
            if key not in self._seen:
                self._seen.add(key)
                return record
        raise RuntimeError(f"no fresh perturbation of a {attribute} row in 100 tries")

    def _edit(self, attribute: str, base: Any, extra: int) -> Any:
        rng = self.rng
        edits = int(rng.integers(1, 3)) + extra - 1
        if attribute == "hm":
            record = np.array(base, dtype=np.uint8, copy=True)
            flips = rng.choice(record.shape[0], size=min(edits, record.shape[0]), replace=False)
            record[flips] ^= 1
            return record
        if attribute == "ed":
            alphabet = self.table.datasets["ed"].extra["alphabet"]
            chars = list(base)
            for _ in range(edits):
                letter = alphabet[int(rng.integers(0, len(alphabet)))]
                position = int(rng.integers(0, len(chars) + 1))
                kind = int(rng.integers(0, 3))
                if kind == 0 and position < len(chars):
                    chars[position] = letter
                elif kind == 1 or len(chars) <= 2:
                    chars.insert(position, letter)
                else:
                    del chars[min(position, len(chars) - 1)]
            return "".join(chars)
        if attribute == "jc":
            universe = int(self.table.datasets["jc"].extra["universe_size"])
            members = sorted(base)
            drop = set(rng.choice(len(members), size=min(edits, len(members) - 1), replace=False).tolist())
            kept = {member for index, member in enumerate(members) if index not in drop}
            while len(kept) < len(members):
                kept.add(int(rng.integers(0, universe)))
            return frozenset(kept)
        vector = np.asarray(base, dtype=np.float64) + rng.normal(0.0, 0.01 * edits, size=len(base))
        return vector / np.linalg.norm(vector)


class Workload:
    """Shared bookkeeping: attempts, failures and the q-error sample.

    The q-error sample is drawn from :data:`SAMPLE_SEED`, not from the
    workload seed, and measured before the window: accuracy is a property of
    the served models, so it reads the same on every run and moves only when
    the estimates move.
    """

    name = ""
    #: Kinds of client call whose latency ``latency_p75_ms`` covers.
    CALLS: Tuple[str, ...] = ()

    def __init__(self, table: Table, seed: int) -> None:
        self.table = table
        self.engine = table.engine
        self.requests = Requests(table, seed)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.q_errors: List[float] = []
        #: Boundary counts from ``QueryResult`` fields: driver candidates,
        #: rows examined by residual verification, and the rows that survived.
        self.candidates = 0
        self.examined = 0
        self.survivors = 0
        #: Bytes written per checkpoint.
        self.checkpoint_bytes: List[int] = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 5:
            self.failures.append(message)

    def guarded(
        self, kind: str, window: Window, call: Callable[[], Any], attempts: int = 1
    ) -> Tuple[bool, Any]:
        """Time one client call; an exception counts as failed, never stops the loop."""
        started = _clock()
        try:
            value = call()
        except Exception:
            window.add(kind, _clock() - started)
            self.attempted += attempts
            self.fail(f"{kind} raised:\n{traceback.format_exc()}", attempts)
            return False, None
        window.add(kind, _clock() - started)
        return True, value

    def observe(self, result: Any) -> None:
        self.candidates += result.driver_candidates
        if result.verification_examined:
            self.examined += result.verification_examined
            self.survivors += len(result.record_ids)

    def reference(self) -> Reference:
        datasets = self.table.datasets
        return Reference(
            {attribute: datasets[attribute].records for attribute in ATTRIBUTES},
            {attribute: datasets[attribute].distance_name for attribute in ATTRIBUTES},
        )

    def driver_q_errors(self, queries: List[Any]) -> List[float]:
        """Plan driver estimate vs the driver's actual count, one per query."""
        return [
            q_error(result.plan.driver.estimated_cardinality, result.driver_actual)
            for start in range(0, len(queries), BATCH)
            for result in self.engine.execute_many(queries[start : start + BATCH])
        ]

    def prepare(self) -> None:
        """Untimed: build requests and ground truth, warm what should be warm."""

    def run(self, seconds: float, on_call: Optional[Callable[[int], None]] = None) -> Window:
        """The timed closed loop; ``on_call`` is told each new request id."""
        raise NotImplementedError

    def verify(self) -> None:
        """Untimed: check every answer recorded by :meth:`run`."""

    def finish(self) -> None:
        """Stop the engine's worker pools and wait for their threads."""
        self.engine.runtime.shutdown(wait=True)

    def warm_up(self, queries: List[Any]) -> None:
        """Run the pool once: caches its curves, measures the q-error sample
        (plan driver estimate vs ``driver_actual``), and arms drift repair.

        A repair flushes the endpoint's curves, so a threshold below what the
        healthy models already do on these queries would fire in every
        window and quietly turn a warm workload cold.  It is armed at 1.5 x
        the worst driver q-error of the pool.
        """
        feedback = self.engine.feedback
        feedback.drift_threshold = float("inf")
        self.q_errors = self.driver_q_errors(queries)
        feedback.drift_threshold = 1.5 * max([1.0, *self.q_errors])


class EstimateCold(Workload):
    """Scalar cold-path estimates, rotating over the four attributes."""

    name = "estimate_cold"
    #: One round = one estimate per attribute, back to back (the estimates an
    #: optimizer needs to plan one four-predicate query).  Per-attribute
    #: latencies are reported apart; the round is the end-to-end call because
    #: the attributes' cold costs differ several-fold, and a percentile over
    #: the mixture would sit on the edge between two of them.
    CALLS = ("round",)
    #: Accuracy sample: cold requests per attribute, scored against exact counts.
    ACCURACY_PER_ATTRIBUTE = 48
    #: Served curves checked for monotonicity after the window.
    MONOTONE_SAMPLE = 64

    def __init__(self, table: Table, seed: int) -> None:
        super().__init__(table, seed)
        self.answers: List[Tuple[str, Any, float]] = []

    def cold_request(self, requests: Requests, attribute: str) -> Tuple[Any, float]:
        base = self.table.datasets[attribute].records[requests.row(attribute)]
        return requests.perturb(attribute, base), requests.theta(attribute)

    def prepare(self) -> None:
        """Score the fixed q-error sample, then leave the cache empty."""
        service = self.engine.service
        reference = self.reference()
        sample = Requests(self.table, SAMPLE_SEED)
        for _ in range(self.ACCURACY_PER_ATTRIBUTE):
            for attribute in ATTRIBUTES:
                record, theta = self.cold_request(sample, attribute)
                estimate = service.estimate(attribute, record, theta)
                self.q_errors.append(q_error(estimate, reference.count(attribute, record, theta)))
        # The window's requests must all miss, even one equal to a sample record.
        service.invalidate()

    def run(self, seconds: float, on_call=None) -> Window:
        service = self.engine.service
        window = Window()
        started = _clock()
        while _clock() - started < seconds:
            if on_call is not None:
                on_call(window.ops)
            requests = [
                (attribute, *self.cold_request(self.requests, attribute))
                for attribute in ATTRIBUTES
            ]
            round_started = _clock()
            for attribute, record, theta in requests:
                ok, value = self.guarded(
                    f"estimate.{attribute}", window,
                    lambda: service.estimate(attribute, record, theta),
                )
                if ok:
                    self.answers.append((attribute, record, value))
                window.ops += 1
            window.add("round", _clock() - round_started)
        window.seconds = _clock() - started
        return window

    def verify(self) -> None:
        self.attempted += len(self.answers)
        for attribute, _, value in self.answers:
            if not (np.isfinite(value) and value >= 0.0):
                self.fail(f"{attribute}: estimate {value!r} is not a cardinality")
        rng = np.random.default_rng(len(self.answers))
        picks = rng.choice(
            len(self.answers), size=min(self.MONOTONE_SAMPLE, len(self.answers)), replace=False
        )
        for index in sorted(picks.tolist()):
            attribute, record, _ = self.answers[index]
            if not is_monotone(self.engine.service.estimate_curve(attribute, record)):
                self.fail(f"{attribute}: served curve is not monotone in theta")


class QueryBulk(Workload):
    """Warm ``execute_many`` batches over a fixed pool of conjunctive queries."""

    name = "query_bulk"
    CALLS = ("batch",)
    #: 128 two-predicate queries: an hm predicate caches 3 curves (merged +
    #: one per shard), any other predicate 1, so the pool needs at most
    #: 128 x 4 = 512 of the service's 1024 cache slots (384 expected).
    POOL = 128
    #: θ of a pool predicate is uniform over this share of the range: the
    #: selective half, where planning by estimate matters.
    THETA_SHARE = 0.5

    def __init__(self, table: Table, seed: int) -> None:
        super().__init__(table, seed)
        self.pool: List[ConjunctiveQuery] = []
        self.truth: List[List[int]] = []
        self.results: List[Tuple[int, List[int]]] = []

    def make_pool(self, requests: Requests) -> List[ConjunctiveQuery]:
        """Two predicates on distinct attributes, both edits of one table row."""
        datasets = self.table.datasets
        pool = []
        for _ in range(self.POOL):
            pair = sorted(requests.rng.choice(len(ATTRIBUTES), size=2, replace=False).tolist())
            row = requests.row("hm")
            pool.append(
                ConjunctiveQuery(
                    [
                        SimilarityPredicate(
                            ATTRIBUTES[index],
                            requests.perturb(ATTRIBUTES[index], datasets[ATTRIBUTES[index]].records[row]),
                            requests.theta(ATTRIBUTES[index], self.THETA_SHARE),
                        )
                        for index in pair
                    ]
                )
            )
        return pool

    def prepare(self) -> None:
        self.pool = self.make_pool(Requests(self.table, SAMPLE_SEED))
        reference = self.reference()
        self.truth = [reference.conjunction(query) for query in self.pool]
        self.warm_up(self.pool)

    def run(self, seconds: float, on_call=None) -> Window:
        rng = self.requests.rng
        window = Window()
        started = _clock()
        while _clock() - started < seconds:
            # One cycle runs every pool query once, in a seeded order: the
            # pool's per-query cost is heavy-tailed, so sampling it with
            # replacement would make a run's cost depend on its draws.
            order = rng.permutation(len(self.pool))
            for first in range(0, len(order), BATCH):
                picks = order[first : first + BATCH]
                batch = [self.pool[int(pick)] for pick in picks]
                if on_call is not None:
                    on_call(window.ops)
                ok, results = self.guarded(
                    "batch", window, lambda: self.engine.execute_many(batch), attempts=len(batch)
                )
                window.ops += len(batch)
                if not ok:
                    continue
                for pick, result in zip(picks, results):
                    self.results.append((int(pick), result.record_ids))
                    self.observe(result)
        window.seconds = _clock() - started
        return window

    def verify(self) -> None:
        self.attempted += len(self.results)
        for pick, record_ids in self.results:
            if record_ids != self.truth[pick]:
                self.fail(
                    f"pool query {pick}: {len(record_ids)} rows, brute force has "
                    f"{len(self.truth[pick])}"
                )


class MixedReadWrite(Workload):
    """Single-predicate reads on ``hm`` interleaved with writes and checkpoints."""

    name = "mixed_rw"
    #: Checkpoints are maintenance, not requests: their time counts in
    #: ``ops_per_s`` and the report gives their latency apart.
    CALLS = ("read", "update")
    ATTRIBUTE = "hm"
    #: Reads per write, and rows per write (alternately inserted and deleted).
    READS_PER_WRITE = 4
    WRITE_ROWS = 16
    #: Fixed read queries; each write invalidates their cached curves.
    READ_POOL = 64
    #: A cycle (the reads and writes between two checkpoints) runs every
    #: pool read this many times, in a seeded order: 256 reads, 64 writes.
    READ_ROUNDS = 4

    def __init__(self, table: Table, seed: int, checkpoint_dir: Path) -> None:
        super().__init__(table, seed)
        self.checkpoint_dir = Path(checkpoint_dir)
        self.reads: List[SimilarityPredicate] = []
        #: Successful calls in execution order: ("read", query, ids),
        #: ("write", operation) or ("checkpoint",).
        self.log: List[Tuple[Any, ...]] = []
        self._writes = 0

    def make_reads(self, requests: Requests) -> List[SimilarityPredicate]:
        records = self.table.datasets[self.ATTRIBUTE].records
        return [
            SimilarityPredicate(
                self.ATTRIBUTE,
                requests.perturb(self.ATTRIBUTE, records[requests.row(self.ATTRIBUTE)]),
                requests.theta(self.ATTRIBUTE),
            )
            for _ in range(self.READ_POOL)
        ]

    def prepare(self) -> None:
        self.reads = self.make_reads(Requests(self.table, SAMPLE_SEED))
        self.warm_up(self.reads)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)

    def _next_write(self) -> UpdateOperation:
        rng = self.requests.rng
        binding = self.engine.catalog.get(self.ATTRIBUTE)
        size = len(binding)
        self._writes += 1
        if self._writes % 2:
            rows = [
                self.requests.perturb(self.ATTRIBUTE, binding.records[int(index)])
                for index in rng.integers(0, size, size=self.WRITE_ROWS)
            ]
            return UpdateOperation("insert", rows)
        positions = rng.choice(size, size=self.WRITE_ROWS, replace=False)
        return UpdateOperation("delete", sorted(int(p) for p in positions))

    def run(self, seconds: float, on_call=None) -> Window:
        engine = self.engine
        rng = self.requests.rng
        window = Window()
        started = _clock()
        while _clock() - started < seconds:
            order = iter(
                np.concatenate(
                    [rng.permutation(len(self.reads)) for _ in range(self.READ_ROUNDS)]
                ).tolist()
            )
            reads = len(self.reads) * self.READ_ROUNDS
            for position in range(reads + reads // self.READS_PER_WRITE):
                if on_call is not None:
                    on_call(window.ops)
                if position % (self.READS_PER_WRITE + 1) == self.READS_PER_WRITE:
                    operation = self._next_write()
                    ok, _ = self.guarded(
                        "update", window, lambda: engine.apply_update(self.ATTRIBUTE, operation)
                    )
                    if ok:
                        self.log.append(("write", operation))
                else:
                    query = self.reads[next(order)]
                    ok, result = self.guarded("read", window, lambda: engine.execute(query))
                    if ok:
                        self.log.append(("read", query, result.record_ids))
                        self.observe(result)
                window.ops += 1
            if on_call is not None:
                on_call(window.ops)
            ok, info = self.guarded("checkpoint", window, lambda: engine.save(self.checkpoint_dir))
            if ok:
                self.checkpoint_bytes.append(int(info.payload_bytes + info.manifest_bytes))
                self.log.append(("checkpoint",))
        window.seconds = _clock() - started
        return window

    def verify(self) -> None:
        """Replay the log on a plain record list (``apply_operation``) and
        check every read against a linear scan of the list at that point."""
        dataset = self.table.datasets[self.ATTRIBUTE]
        current = list(dataset.records)
        self.attempted += len(self.log)
        for entry in self.log:
            if entry[0] == "write":
                current = apply_operation(current, entry[1])
            elif entry[0] == "read":
                _, query, record_ids = entry
                expected = scan_ids(current, dataset.distance_name, query.record, query.theta)
                if record_ids != expected:
                    self.fail(f"read: {len(record_ids)} rows, brute force has {len(expected)}")
        served = len(self.engine.catalog.get(self.ATTRIBUTE))
        if served != len(current):
            self.fail(f"{self.ATTRIBUTE} serves {served} rows, the replayed list has {len(current)}")

    def finish(self) -> None:
        super().finish()
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)


WORKLOADS = {
    EstimateCold.name: EstimateCold,
    QueryBulk.name: QueryBulk,
    MixedReadWrite.name: MixedReadWrite,
}


def log_failures(workload: Workload) -> None:
    for message in workload.failures:
        print(f"[{workload.name}] failure: {message}", file=sys.stderr)
