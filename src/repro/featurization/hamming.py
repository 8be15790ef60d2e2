"""Feature extraction for Hamming distance on binary vectors (paper §4.1).

The data is already binary, so records pass through unchanged.  Thresholds use
the identity when ``θ_max <= τ_max`` and the proportional map otherwise.
"""

from __future__ import annotations

import numpy as np

from .base import FeatureExtractor, proportional_threshold_map_batch


class HammingFeatureExtractor(FeatureExtractor):
    """Identity featurization for binary-vector data."""

    def __init__(self, dimension: int, theta_max: float, tau_max: int | None = None) -> None:
        if dimension <= 0:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)
        self.theta_max = float(theta_max)
        if tau_max is None:
            tau_max = int(theta_max)
        self.tau_max = int(tau_max)

    def transform_record(self, record) -> np.ndarray:
        vector = np.asarray(record, dtype=np.float64).reshape(-1)
        if vector.shape[0] != self.dimension:
            raise ValueError(
                f"expected {self.dimension}-dimensional binary vector, got {vector.shape[0]}"
            )
        return (vector > 0.5).astype(np.float64)

    def transform_thresholds(self, thetas) -> np.ndarray:
        """θ → τ: the identity when θ_max <= τ_max, else the proportional map."""
        thetas = self.validate_thresholds(thetas)
        if self.theta_max <= self.tau_max:
            return np.floor(thetas + 1e-12).astype(np.int64)
        return proportional_threshold_map_batch(thetas, self.theta_max, self.tau_max)
