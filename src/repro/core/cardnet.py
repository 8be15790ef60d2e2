"""The CardNet regression model (paper §5) and its accelerated variant (§7).

The model operates in the Hamming-space interface produced by feature
extraction: the input is a binary vector ``x ∈ {0,1}^d`` and an integer
threshold ``τ ∈ [0, τ_max]``.  The forward pass is

1. Γ: concatenate ``x`` with the VAE latent → dense representation ``x'``;
2. Ψ: pair ``x'`` with each distance embedding ``e_i`` and run the shared FNN Φ
   (or run the accelerated Φ′ once) → per-distance embeddings ``z_x^i``;
3. decoders: ``g_i(x) = ReLU(w_i^T z_x^i + b_i)``;
4. incremental prediction: ``ĉ = Σ_{i=0..τ} g_i(x)``.

Monotonicity in τ follows from non-negative deterministic decoders (Lemma 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .. import nn
from ..nn import Tensor
from .decoders import PerDistanceDecoders
from .encoder import AcceleratedEncoder, DistanceEmbedding, SharedEncoder
from .vae import VariationalAutoEncoder


@dataclass
class CardNetConfig:
    """Hyperparameters of the CardNet regression model.

    Defaults are scaled-down versions of the paper's settings (§9.1.3) so that
    CPU training in the test-suite/benchmarks stays fast; the architecture is
    unchanged.
    """

    tau_max: int = 16
    vae_latent_dimension: int = 16
    vae_hidden_sizes: Sequence[int] = (64, 32)
    distance_embedding_dimension: int = 5
    embedding_dimension: int = 32
    encoder_hidden_sizes: Sequence[int] = (64, 64)
    accelerated: bool = False
    vae_loss_weight: float = 0.1          # λ in Eq. 2
    dynamic_loss_weight: float = 0.1      # λ_Δ in Eq. 3
    seed: int = 0
    extra: dict = field(default_factory=dict)


class CardNet(nn.Module):
    """CardNet / CardNet-A regression model over the Hamming-space interface."""

    def __init__(self, input_dimension: int, config: Optional[CardNetConfig] = None) -> None:
        super().__init__()
        self.config = config or CardNetConfig()
        self.input_dimension = int(input_dimension)
        cfg = self.config

        self.vae = VariationalAutoEncoder(
            input_dimension=input_dimension,
            latent_dimension=cfg.vae_latent_dimension,
            hidden_sizes=cfg.vae_hidden_sizes,
            seed=cfg.seed,
        )
        representation_dimension = self.vae.representation_dimension
        self.distance_embedding = DistanceEmbedding(
            tau_max=cfg.tau_max,
            embedding_dimension=cfg.distance_embedding_dimension,
            seed=cfg.seed + 1,
        )
        if cfg.accelerated:
            self.encoder = AcceleratedEncoder(
                representation_dimension=representation_dimension,
                tau_max=cfg.tau_max,
                embedding_dimension=cfg.embedding_dimension,
                hidden_sizes=cfg.encoder_hidden_sizes,
                seed=cfg.seed + 2,
            )
        else:
            self.encoder = SharedEncoder(
                representation_dimension=representation_dimension,
                distance_embedding_dimension=cfg.distance_embedding_dimension,
                embedding_dimension=cfg.embedding_dimension,
                hidden_sizes=cfg.encoder_hidden_sizes,
                seed=cfg.seed + 2,
            )
        self.decoders = PerDistanceDecoders(
            tau_max=cfg.tau_max, embedding_dimension=cfg.embedding_dimension, seed=cfg.seed + 3
        )

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def tau_max(self) -> int:
        return self.config.tau_max

    @property
    def accelerated(self) -> bool:
        return self.config.accelerated

    # ------------------------------------------------------------------ #
    # Forward passes
    # ------------------------------------------------------------------ #
    def per_distance_embeddings(self, features: Tensor, deterministic: bool) -> List[Tensor]:
        """z_x^i for every distance i, as a list of (batch, z_dim) tensors."""
        representation = self.vae.representation(features, deterministic=deterministic)
        if isinstance(self.encoder, AcceleratedEncoder):
            return self.encoder.embed_all(representation)
        all_embeddings = self.distance_embedding.all_embeddings()
        return self.encoder.embed_all(representation, all_embeddings)

    def per_distance_estimates(self, features: Tensor, deterministic: bool) -> Tensor:
        """(batch, τ_max+1) matrix of non-negative per-distance cardinalities."""
        embeddings = self.per_distance_embeddings(features, deterministic)
        return self.decoders.decode_all(embeddings)

    def forward(self, features: Tensor, taus: np.ndarray, deterministic: Optional[bool] = None) -> Tensor:
        """Estimated cardinalities ĉ for a batch of (feature vector, τ) pairs."""
        if deterministic is None:
            deterministic = not self.training
        per_distance = self.per_distance_estimates(features, deterministic)
        return PerDistanceDecoders.cumulative(per_distance, taus)

    # ------------------------------------------------------------------ #
    # Inference API (numpy in, numpy out, always deterministic)
    #
    # Inference runs the deterministic chain on the live parameter arrays and
    # builds no autograd graph: VAE mean → Φ/Φ′ → stacked decoders → ReLU.
    # The Tensor passes above are for training only.  Reading ``.data`` at
    # call time means fit, incremental retraining and snapshot restore have
    # nothing to invalidate.
    # ------------------------------------------------------------------ #
    def infer_per_distance(self, features: np.ndarray) -> np.ndarray:
        """(batch, τ_max+1) non-negative per-distance cardinalities g_i(x)."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        representation = self.vae.infer_representation(features)
        if isinstance(self.encoder, AcceleratedEncoder):
            embeddings = self.encoder.infer(representation)
        else:
            embeddings = self.encoder.infer(
                representation, self.distance_embedding.table.weight.data
            )
        return self.decoders.infer(embeddings)

    def estimate(self, features: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Deterministic cardinality estimates for pre-featurized queries."""
        taus = np.atleast_1d(np.asarray(taus, dtype=np.int64))
        per_distance = self.infer_per_distance(features)
        mask = PerDistanceDecoders.tau_mask(taus, per_distance.shape[1])
        return np.maximum((per_distance * mask).sum(axis=1), 0.0)

    def estimate_curve(self, features: np.ndarray) -> np.ndarray:
        """Cumulative estimates for *all* τ = 0..τ_max (one monotone curve per row)."""
        return np.cumsum(np.maximum(self.infer_per_distance(features), 0.0), axis=1)

    def vae_loss(self, features: Tensor) -> Tensor:
        """The VAE term L_vae of the joint objective (Eq. 2)."""
        return self.vae.loss(features)
