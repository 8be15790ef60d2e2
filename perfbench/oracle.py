"""Correctness oracle: brute-force answers from ``LinearScanSelector``.

Nothing here is timed.  The reference scans the table's columns directly,
so it shares no index, shard or cache with the engine it checks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from repro.distances import get_distance
from repro.engine import ConjunctiveQuery
from repro.selection import LinearScanSelector

#: Tolerance for a served curve to count as non-decreasing in θ.
MONOTONE_TOLERANCE = 1e-9


class Reference:
    """One linear scan per attribute over the table's original columns."""

    def __init__(self, columns: Dict[str, Sequence], distances: Dict[str, str]) -> None:
        self.distances = dict(distances)
        self.scans = {
            attribute: LinearScanSelector(list(records), get_distance(distances[attribute]))
            for attribute, records in columns.items()
        }

    def count(self, attribute: str, record: Any, theta: float) -> int:
        return int(self.scans[attribute].cardinality(record, theta))

    def ids(self, attribute: str, record: Any, theta: float) -> List[int]:
        return list(self.scans[attribute].query(record, theta))

    def conjunction(self, query: ConjunctiveQuery) -> List[int]:
        """Every predicate scanned over every row, then intersected."""
        matches = None
        for predicate in query.predicates:
            ids = set(self.ids(predicate.attribute, predicate.record, predicate.theta))
            matches = ids if matches is None else matches & ids
        return sorted(matches)


def scan_ids(records: Sequence, distance_name: str, record: Any, theta: float) -> List[int]:
    """Brute-force answer over an arbitrary (for example updated) column."""
    return list(LinearScanSelector(list(records), get_distance(distance_name)).query(record, theta))


def is_monotone(curve: np.ndarray) -> bool:
    curve = np.asarray(curve, dtype=np.float64)
    return bool(np.all(np.isfinite(curve)) and np.all(np.diff(curve) >= -MONOTONE_TOLERANCE))
