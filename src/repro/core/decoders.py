"""Per-distance decoders g_i and the incremental-prediction sum (paper §5.1).

Each decoder is an affine map followed by ReLU:

    g_i(x) = ReLU(w_i^T z_x^i + b_i)

so every per-distance estimate is non-negative and deterministic, which by
Lemma 2 makes the cumulative sum ``g(x, τ) = Σ_{i<=τ} g_i(x)`` monotonically
increasing in τ.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .. import nn
from ..nn import Tensor


class PerDistanceDecoders(nn.Module):
    """τ_max + 1 affine+ReLU decoders, one per Hamming distance value."""

    def __init__(self, tau_max: int, embedding_dimension: int, seed: int = 0) -> None:
        super().__init__()
        if tau_max < 0:
            raise ValueError("tau_max must be non-negative")
        self.tau_max = int(tau_max)
        self.embedding_dimension = int(embedding_dimension)
        rng = np.random.default_rng(seed)
        # One weight row and bias per distance value.
        self.weights = Tensor(
            rng.normal(0.0, 1.0 / np.sqrt(embedding_dimension), size=(tau_max + 1, embedding_dimension)),
            requires_grad=True,
        )
        self.biases = Tensor(np.zeros(tau_max + 1), requires_grad=True)

    def decode_distance(self, embedding: Tensor, distance: int) -> Tensor:
        """g_distance(x): (batch,) non-negative cardinality estimate for one distance."""
        if not 0 <= distance <= self.tau_max:
            raise IndexError(f"distance {distance} outside [0, {self.tau_max}]")
        weight = self.weights[distance].reshape(-1, 1)
        bias = self.biases[distance]
        return ((embedding @ weight).reshape(embedding.shape[0]) + bias).relu()

    def decode_all(self, embeddings: List[Tensor]) -> Tensor:
        """Stack per-distance estimates into a (batch, τ_max+1) tensor.

        ``embeddings[i]`` is the (batch, z_dim) embedding for distance i.
        """
        if len(embeddings) != self.tau_max + 1:
            raise ValueError(
                f"expected {self.tau_max + 1} embeddings, got {len(embeddings)}"
            )
        columns = [
            self.decode_distance(embedding, distance).reshape(-1, 1)
            for distance, embedding in enumerate(embeddings)
        ]
        return nn.concatenate(columns, axis=1)

    def infer(self, embeddings: np.ndarray) -> np.ndarray:
        """(batch, τ_max+1) estimates g_i(x) on plain arrays, one batched matmul.

        ``embeddings`` is distance-major, (τ_max+1, batch, z_dim); slice ``i``
        meets weight row ``i`` exactly as in :meth:`decode_distance`.
        """
        scores = np.matmul(embeddings, self.weights.data[:, :, None])[:, :, 0].T + self.biases.data
        return scores * (scores > 0)

    @staticmethod
    def tau_mask(taus: np.ndarray, num_distances: int) -> np.ndarray:
        """Row j selects the decoders i <= τ_j (the incremental-prediction sum)."""
        taus = np.asarray(taus, dtype=np.int64)
        return (np.arange(num_distances)[None, :] <= taus[:, None]).astype(np.float64)

    @staticmethod
    def cumulative(per_distance: Tensor, taus: np.ndarray) -> Tensor:
        """Incremental-prediction sum: ĉ_j = Σ_{i <= τ_j} g_i(x_j) for each row j.

        Implemented as a masked sum so the whole batch (with per-row τ values)
        is handled in one tensor expression.
        """
        mask = PerDistanceDecoders.tau_mask(taus, per_distance.shape[1])
        return (per_distance * Tensor(mask)).sum(axis=1)
