"""CardNet encoders: distance embeddings + shared Φ, and the accelerated Φ′.

Paper §5.2 (encoder Ψ) and §7 (accelerated model):

* :class:`DistanceEmbedding` is the matrix ``E`` whose column ``e_i`` embeds the
  Hamming distance value ``i`` (initialized from a standard normal).
* :class:`SharedEncoder` is the feedforward network Φ applied to ``[x' ; e_i]``
  for each distance ``i``, producing the per-distance embeddings ``z_x^i``.
* :class:`AcceleratedEncoder` is Φ′: a single FNN over ``x'`` whose hidden
  layers each emit one *region* of all ``τ_max + 1`` embeddings at once,
  reducing the per-query cost from ``O((τ+1)·|Φ|)`` to ``O(|Φ'|)``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .. import nn
from ..nn import Tensor


class DistanceEmbedding(nn.Module):
    """Embedding matrix E with one learned vector per Hamming distance value."""

    def __init__(self, tau_max: int, embedding_dimension: int = 5, seed: int = 0) -> None:
        super().__init__()
        if tau_max < 0:
            raise ValueError("tau_max must be non-negative")
        self.tau_max = int(tau_max)
        self.embedding_dimension = int(embedding_dimension)
        self.table = nn.Embedding(
            self.tau_max + 1, self.embedding_dimension, rng=np.random.default_rng(seed)
        )

    def forward(self, distances) -> Tensor:
        return self.table(distances)

    def all_embeddings(self) -> Tensor:
        """Embeddings of every distance value 0..τ_max as a (τ_max+1, dim) tensor."""
        return self.table(np.arange(self.tau_max + 1))


class SharedEncoder(nn.Module):
    """Φ: FNN applied to the concatenation of x' and one distance embedding."""

    def __init__(
        self,
        representation_dimension: int,
        distance_embedding_dimension: int,
        embedding_dimension: int = 32,
        hidden_sizes: Sequence[int] = (64, 64),
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.representation_dimension = int(representation_dimension)
        self.distance_embedding_dimension = int(distance_embedding_dimension)
        self.embedding_dimension = int(embedding_dimension)
        input_dimension = representation_dimension + distance_embedding_dimension
        self.network = nn.mlp(
            [input_dimension, *hidden_sizes, embedding_dimension],
            activation=nn.ReLU,
            rng=np.random.default_rng(seed),
        )

    def forward(self, representation: Tensor, distance_embedding: Tensor) -> Tensor:
        """Embed one distance value for a batch of representations.

        ``representation`` is (batch, rep_dim); ``distance_embedding`` is either
        (emb_dim,) broadcast to the batch or (batch, emb_dim).
        """
        if distance_embedding.ndim == 1:
            tiled = Tensor(np.ones((representation.shape[0], 1))) @ distance_embedding.reshape(1, -1)
        else:
            tiled = distance_embedding
        joined = nn.concatenate([representation, tiled], axis=-1)
        return self.network(joined)

    def embed_all(self, representation: Tensor, distance_embeddings: Tensor) -> List[Tensor]:
        """Per-distance embeddings z_x^i for i = 0..τ_max (list of (batch, z_dim))."""
        outputs: List[Tensor] = []
        for index in range(distance_embeddings.shape[0]):
            outputs.append(self.forward(representation, distance_embeddings[index]))
        return outputs

    def infer(self, representation: np.ndarray, distance_embeddings: np.ndarray) -> np.ndarray:
        """All z_x^i on plain arrays, distance-major: (τ_max+1, batch, z_dim).

        Φ runs once over the stacked (τ_max+1)·batch rows ``[x' ; e_i]``.
        """
        batch = representation.shape[0]
        count = distance_embeddings.shape[0]
        joined = np.concatenate(
            [np.tile(representation, (count, 1)), np.repeat(distance_embeddings, batch, axis=0)],
            axis=1,
        )
        return self.network.infer(joined).reshape(count, batch, -1)


class AcceleratedEncoder(nn.Module):
    """Φ′: every hidden layer emits one region of all τ_max+1 embeddings (paper §7).

    The trunk is ``f_1, …, f_n``; a per-layer head maps the layer's activation
    to ``(τ_max + 1) · r_j`` outputs, where the region widths ``r_j`` partition
    the embedding dimensionality.  Concatenating regions layer by layer yields
    the matrix ``Z`` of shape (batch, τ_max+1, z_dim); row ``i`` of ``Z`` is the
    embedding ``z_x^i``.
    """

    def __init__(
        self,
        representation_dimension: int,
        tau_max: int,
        embedding_dimension: int = 32,
        hidden_sizes: Sequence[int] = (64, 64),
        seed: int = 0,
    ) -> None:
        super().__init__()
        if not hidden_sizes:
            raise ValueError("accelerated encoder needs at least one hidden layer")
        self.representation_dimension = int(representation_dimension)
        self.tau_max = int(tau_max)
        self.embedding_dimension = int(embedding_dimension)
        rng = np.random.default_rng(seed)

        num_layers = len(hidden_sizes)
        base = embedding_dimension // num_layers
        remainder = embedding_dimension % num_layers
        self.region_widths: List[int] = [
            base + (1 if index < remainder else 0) for index in range(num_layers)
        ]

        self._trunk_layers: List[nn.Linear] = []
        self._heads: List[nn.Linear] = []
        previous = representation_dimension
        for index, width in enumerate(hidden_sizes):
            trunk = nn.Linear(previous, width, rng=rng)
            head = nn.Linear(width, (self.tau_max + 1) * self.region_widths[index], rng=rng)
            self.add_module(f"trunk{index}", trunk)
            self.add_module(f"head{index}", head)
            self._trunk_layers.append(trunk)
            self._heads.append(head)
            previous = width

    def forward(self, representation: Tensor) -> Tensor:
        """Return Z with shape (batch, τ_max+1, embedding_dimension)."""
        batch = representation.shape[0]
        regions: List[Tensor] = []
        hidden = representation
        for trunk, head, width in zip(self._trunk_layers, self._heads, self.region_widths):
            hidden = trunk(hidden).relu()
            region = head(hidden).reshape(batch, self.tau_max + 1, width)
            regions.append(region)
        return nn.concatenate(regions, axis=2)

    def embed_all(self, representation: Tensor) -> List[Tensor]:
        """Per-distance embeddings as a list (interface-compatible with Φ)."""
        z_matrix = self.forward(representation)
        return [z_matrix[:, index, :] for index in range(self.tau_max + 1)]

    def infer(self, representation: np.ndarray) -> np.ndarray:
        """Z on plain arrays, distance-major: (τ_max+1, batch, z_dim)."""
        batch = representation.shape[0]
        regions: List[np.ndarray] = []
        hidden = representation
        for trunk, head, width in zip(self._trunk_layers, self._heads, self.region_widths):
            hidden = trunk.infer(hidden)
            hidden = hidden * (hidden > 0)
            regions.append(head.infer(hidden).reshape(batch, self.tau_max + 1, width))
        return np.concatenate(regions, axis=2).transpose(1, 0, 2)
