"""Feature extraction for Jaccard distance via b-bit minwise hashing (paper §4.3).

Each of ``k`` random permutations hashes a set to the last ``b`` bits of its
minimum element under the permutation; each such value is one-hot encoded over
``2^b`` bits.  Two sets agree on a permutation's one-hot block with probability
``1 - f(x, y)`` (their Jaccard similarity), so the *expected* Hamming distance
between encodings is ``f(x, y) · d`` with ``d = k · 2^b`` — an LSH
featurization whose threshold transform is the proportional map.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..distances.jaccard import as_frozenset
from .base import FeatureExtractor, proportional_threshold_map_batch


class MinHashJaccardFeatureExtractor(FeatureExtractor):
    """b-bit minwise hashing into a one-hot Hamming space."""

    def __init__(
        self,
        universe_size: int,
        theta_max: float,
        num_permutations: int = 32,
        bits_per_hash: int = 2,
        tau_max: int = 16,
        seed: int = 0,
    ) -> None:
        if universe_size <= 0:
            raise ValueError("universe_size must be positive")
        self.universe_size = int(universe_size)
        self.num_permutations = int(num_permutations)
        self.bits_per_hash = int(bits_per_hash)
        self.block_size = 2 ** self.bits_per_hash
        self.dimension = self.num_permutations * self.block_size
        self.theta_max = float(theta_max)
        self.tau_max = int(tau_max)
        rng = np.random.default_rng(seed)
        # Each row is a permutation of the element universe.
        self._permutations = np.stack(
            [rng.permutation(self.universe_size) for _ in range(self.num_permutations)]
        )

    def _min_hash_values(self, record: Iterable[int]) -> np.ndarray:
        elements = np.fromiter(
            (int(e) % self.universe_size for e in as_frozenset(record)), dtype=np.int64
        )
        if elements.size == 0:
            # Empty sets hash to a fixed sentinel bucket (block value 0).
            return np.zeros(self.num_permutations, dtype=np.int64)
        # permuted rank of each element under every permutation: (k, |x|)
        ranks = self._permutations[:, elements]
        min_positions = ranks.argmin(axis=1)
        min_elements = elements[min_positions]
        # b-bit minwise hashing keeps only the low b bits of the *rank* of the
        # minimum element (its position in the permuted order).
        min_ranks = ranks[np.arange(self.num_permutations), min_positions]
        return min_ranks & (self.block_size - 1)

    def transform_record(self, record) -> np.ndarray:
        values = self._min_hash_values(record)
        vector = np.zeros(self.dimension, dtype=np.float64)
        offsets = np.arange(self.num_permutations) * self.block_size + values
        vector[offsets] = 1.0
        return vector

    def transform_thresholds(self, thetas) -> np.ndarray:
        thetas = self.validate_thresholds(thetas)
        return proportional_threshold_map_batch(thetas, self.theta_max, self.tau_max)
