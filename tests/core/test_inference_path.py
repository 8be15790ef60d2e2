"""CardNet inference runs on plain arrays; the Tensor graph is for training only.

``CardNet.estimate`` / ``estimate_curve`` evaluate the deterministic chain
(VAE mean → Φ/Φ′ → stacked decoders → ReLU → sum) directly on the live
parameter arrays.  These tests pin that the array path computes what the
Tensor path computes, that it builds no Tensor, and that it always serves the
current weights (after fit, incremental retraining and a state-dict load).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CardNetEstimator
from repro.nn import Tensor
from repro.workloads import build_workload

BATCH_SIZES = (1, 7, 64)


def perturbed_estimator(dataset, accelerated: bool, seed: int = 0) -> CardNetEstimator:
    """An untrained estimator whose parameters (biases included) are moved off
    their initial values, so no term of the chain is trivially zero."""
    estimator = CardNetEstimator.for_dataset(dataset, accelerated=accelerated, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for parameter in estimator.model.parameters():
        parameter.data = parameter.data + rng.normal(0.0, 0.1, size=parameter.shape)
    return estimator


def tensor_per_distance(model, features: np.ndarray) -> np.ndarray:
    return model.per_distance_estimates(Tensor(features), deterministic=True).data


def assert_matches(actual: np.ndarray, expected: np.ndarray, accelerated: bool) -> None:
    if accelerated:
        # Φ′ keeps the Tensor path's op order exactly.
        np.testing.assert_array_equal(actual, expected)
    else:
        # Φ runs once over the stacked rows instead of once per distance;
        # BLAS may block the bigger matmul differently.
        scale = max(float(np.max(np.abs(expected))), 1.0)
        np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


@pytest.fixture(scope="module", params=["hamming", "edit", "jaccard", "euclidean"])
def dataset(request, binary_dataset, string_dataset, set_dataset, vector_dataset):
    return {
        "hamming": binary_dataset,
        "edit": string_dataset,
        "jaccard": set_dataset,
        "euclidean": vector_dataset,
    }[request.param]


@pytest.mark.parametrize("accelerated", [True, False], ids=["CardNet-A", "CardNet"])
@pytest.mark.parametrize("batch", BATCH_SIZES)
class TestArrayPathMatchesTensorPath:
    def test_per_distance_estimates(self, dataset, accelerated, batch):
        estimator = perturbed_estimator(dataset, accelerated)
        features = estimator.extractor.transform_records(dataset.records[:batch])
        model = estimator.model
        assert_matches(
            model.infer_per_distance(features), tensor_per_distance(model, features), accelerated
        )

    def test_curve_and_masked_estimate(self, dataset, accelerated, batch):
        estimator = perturbed_estimator(dataset, accelerated, seed=1)
        model = estimator.model
        features = estimator.extractor.transform_records(dataset.records[:batch])
        taus = np.arange(batch) % (model.tau_max + 1)

        expected_curve = np.cumsum(np.maximum(tensor_per_distance(model, features), 0.0), axis=1)
        expected = np.maximum(model.forward(Tensor(features), taus, deterministic=True).data, 0.0)
        curve = model.estimate_curve(features)
        assert curve.shape == (batch, model.tau_max + 1)
        assert_matches(curve, expected_curve, accelerated)
        assert_matches(model.estimate(features, taus), expected, accelerated)
        assert np.all(np.diff(curve, axis=1) >= 0.0)


@pytest.mark.parametrize("accelerated", [True, False], ids=["CardNet-A", "CardNet"])
def test_inference_builds_no_tensor(monkeypatch, vector_dataset, accelerated):
    estimator = perturbed_estimator(vector_dataset, accelerated)
    records = list(vector_dataset.records[:7])
    thetas = np.linspace(0.0, vector_dataset.theta_max, 7)
    features = estimator.extractor.transform_records(records)

    constructed = []
    original_init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(1)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    estimator.model.estimate_curve(features)
    estimator.model.estimate(features, np.arange(7))
    estimator.estimate_batch(records, thetas)
    estimator.estimate_curve_many(records, thetas)
    assert constructed == []

    # The counter itself works: the training path still builds a graph.
    tensor_per_distance(estimator.model, features)
    assert constructed


class TestServesLiveWeights:
    """No compiled copy of the weights: every weight change is served at once."""

    @pytest.fixture(scope="class")
    def workload(self, binary_dataset):
        return build_workload(binary_dataset, query_fraction=0.05, num_thresholds=3, seed=2)

    def _check_current(self, estimator, features, before):
        after = estimator.model.estimate_curve(features)
        np.testing.assert_array_equal(
            after,
            np.cumsum(np.maximum(tensor_per_distance(estimator.model, features), 0.0), axis=1),
        )
        assert not np.array_equal(after, before)
        return after

    def test_fit_then_incremental_fit(self, binary_dataset, workload):
        estimator = CardNetEstimator.for_dataset(
            binary_dataset, accelerated=True, epochs=1, vae_pretrain_epochs=1, seed=3
        )
        features = estimator.extractor.transform_records(binary_dataset.records[:5])
        before = estimator.model.estimate_curve(features)
        estimator.fit(workload.train)
        trained = self._check_current(estimator, features, before)
        estimator.incremental_fit(workload.train, max_epochs=1)
        self._check_current(estimator, features, trained)

    def test_load_state_dict(self, binary_dataset):
        target = perturbed_estimator(binary_dataset, accelerated=True, seed=4)
        source = perturbed_estimator(binary_dataset, accelerated=True, seed=5)
        features = target.extractor.transform_records(binary_dataset.records[:5])
        before = target.model.estimate_curve(features)
        target.model.load_state_dict(source.model.state_dict())
        after = self._check_current(target, features, before)
        np.testing.assert_array_equal(after, source.model.estimate_curve(features))
