"""Feature-extraction interface: h(x, θ) → (binary vector, integer threshold).

Paper §3.2: feature extraction decouples data modelling from regression.  Any
record type is mapped to a fixed-dimensional binary vector whose Hamming
distances (exactly or approximately) capture the original distance semantics,
and any threshold θ in ``[0, θ_max]`` is mapped monotonically to an integer τ
in ``[0, τ_max]`` (Lemma 1 requires the threshold transform to be monotone).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, List, Sequence

import numpy as np


class FeatureExtractor(ABC):
    """Maps records and thresholds into the Hamming-space interface of CardNet."""

    #: Dimensionality of the produced binary vectors.
    dimension: int
    #: Maximum integer threshold τ_max (controls the number of decoders).
    tau_max: int
    #: Maximum original threshold θ_max supported.
    theta_max: float

    @abstractmethod
    def transform_record(self, record: Any) -> np.ndarray:
        """Binary representation x ∈ {0, 1}^d of a record."""

    @abstractmethod
    def transform_thresholds(self, thetas: Sequence[float]) -> np.ndarray:
        """Monotone map from θ ∈ [0, θ_max] to τ ∈ [0, τ_max], one int64 per θ.

        Implementations start with :meth:`validate_thresholds`, the single
        check every θ → τ path goes through.
        """

    # ------------------------------------------------------------------ #
    # Batch helpers
    # ------------------------------------------------------------------ #
    def transform_records(self, records: Sequence[Any]) -> np.ndarray:
        """Stack the binary representations of many records into an (n, d) matrix."""
        return np.stack([self.transform_record(record) for record in records]).astype(np.float64)

    def transform_threshold(self, theta: float) -> int:
        """Scalar form of :meth:`transform_thresholds` (a one-element batch)."""
        return int(self.transform_thresholds([theta])[0])

    def validate_thresholds(self, thetas: Sequence[float]) -> np.ndarray:
        """Reject thresholds outside ``[0, θ_max]``; returns the float array.

        The single place the accepted range/tolerance lives.  Written as a
        positive range test so that NaN (every comparison False) is rejected
        along with ±inf.
        """
        thetas = np.asarray(thetas, dtype=np.float64)
        if not np.all((thetas >= 0) & (thetas <= self.theta_max + 1e-9)):
            raise ValueError(
                f"thresholds outside supported range [0, {self.theta_max}]"
            )
        return thetas

    def available_taus(self) -> List[int]:
        """All integer thresholds that some θ ∈ [0, θ_max] can map to."""
        return sorted(set(self.transform_thresholds(np.linspace(0.0, self.theta_max, 512)).tolist()))


def proportional_threshold_map(theta: float, theta_max: float, tau_max: int) -> int:
    """τ = floor(τ_max · θ / θ_max), the transformation used for HM/ED/JC (§4).

    For integer-valued distances with θ_max <= τ_max the identity is used by
    the callers instead, so each original threshold keeps its own decoder.
    """
    return int(proportional_threshold_map_batch([theta], theta_max, tau_max)[0])


def proportional_threshold_map_batch(
    thetas: Sequence[float], theta_max: float, tau_max: int
) -> np.ndarray:
    """Vectorized form of :func:`proportional_threshold_map`."""
    thetas = np.asarray(thetas, dtype=np.float64)
    if theta_max <= 0:
        return np.zeros(thetas.shape, dtype=np.int64)
    ratios = np.clip(thetas / theta_max, 0.0, 1.0)
    return np.floor(tau_max * ratios + 1e-12).astype(np.int64)
