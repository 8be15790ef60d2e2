"""Pin the serving behavior for thresholds outside an endpoint's curve grid.

Two contracts coexist, and both are deliberate:

* endpoints on a plain grid (no θ → τ quantization override) *clamp*: the
  default :meth:`CardinalityEstimator.curve_indices` snaps a theta below the
  grid to column 0 and a theta above it to the last column — monotone, never
  an out-of-range read;
* endpoints whose estimator validates thresholds itself (CardNet's feature
  extractor enforces ``[0, theta_max]``) *raise* on out-of-range thetas, on
  the cold path and the fully-cached path alike.  That holds on every grid a
  CardNet endpoint is served on (canonical or explicit, e.g. the Euclidean
  65-point grid) and for NaN and ±inf as well as negative thetas.

These tests exist so a refactor cannot silently swap one behavior for the
other (the failure mode: an out-of-grid theta quietly serving a wrong column).
"""

import numpy as np
import pytest

from repro.baselines import UniformSamplingEstimator
from repro.core import CardNetEstimator
from repro.serving import EstimationService


@pytest.fixture
def gridded_service(binary_dataset):
    """An endpoint served on an explicit integer grid [0, theta_max]."""
    estimator = UniformSamplingEstimator(binary_dataset.records, "hamming", seed=0)
    service = EstimationService()
    service.register(
        "us/hm",
        estimator,
        curve_thetas=np.arange(int(binary_dataset.theta_max) + 1, dtype=np.float64),
    )
    return service


class TestDefaultGridClamps:
    def test_theta_below_grid_clamps_to_first_column(self, gridded_service, binary_dataset):
        entry = gridded_service.registry.get("us/hm")
        record = binary_dataset.records[0]
        curve = gridded_service.estimate_curve("us/hm", record)
        assert entry.curve_indices([-3.0, -0.25]).tolist() == [0, 0]
        assert gridded_service.estimate("us/hm", record, -3.0) == pytest.approx(curve[0])

    def test_theta_above_grid_clamps_to_last_column(self, gridded_service, binary_dataset):
        entry = gridded_service.registry.get("us/hm")
        record = binary_dataset.records[0]
        curve = gridded_service.estimate_curve("us/hm", record)
        top = len(entry.curve_thetas) - 1
        assert entry.curve_indices(
            [binary_dataset.theta_max + 1.0, binary_dataset.theta_max + 100.0]
        ).tolist() == [top, top]
        assert gridded_service.estimate(
            "us/hm", record, binary_dataset.theta_max + 100.0
        ) == pytest.approx(curve[-1])

    def test_interior_thetas_snap_down(self, gridded_service):
        entry = gridded_service.registry.get("us/hm")
        # Between grid points the monotone snap-down picks the point <= theta.
        assert entry.curve_indices([2.5, 3.0, 3.999]).tolist() == [2, 3, 3]

    def test_clamped_answers_preserve_monotonicity(self, gridded_service, binary_dataset):
        record = binary_dataset.records[7]
        thetas = [-5.0, 0.0, 3.0, binary_dataset.theta_max, binary_dataset.theta_max + 5.0]
        answers = gridded_service.estimate_many("us/hm", [record] * len(thetas), thetas)
        assert np.all(np.diff(answers) >= -1e-9)


class TestValidatingEstimatorRaises:
    def test_theta_above_theta_max_raises(self, trained_cardnet, binary_dataset):
        service = EstimationService()
        service.register("cardnet/hm", trained_cardnet)
        record = binary_dataset.records[0]
        with pytest.raises(ValueError):
            service.estimate("cardnet/hm", record, binary_dataset.theta_max + 50.0)

    def test_theta_below_zero_raises(self, trained_cardnet, binary_dataset):
        service = EstimationService()
        service.register("cardnet/hm", trained_cardnet)
        with pytest.raises(ValueError):
            service.estimate("cardnet/hm", binary_dataset.records[0], -1.0)

    def test_raises_even_when_curve_is_cached(self, trained_cardnet, binary_dataset):
        """The cold path computes curves; the warm path only re-indexes them.
        Out-of-range validation must hold on both."""
        service = EstimationService()
        service.register("cardnet/hm", trained_cardnet)
        record = binary_dataset.records[0]
        service.estimate("cardnet/hm", record, 4.0)  # curve now cached
        assert service.cache.hits + service.cache.misses > 0
        with pytest.raises(ValueError):
            service.estimate("cardnet/hm", record, binary_dataset.theta_max + 50.0)


BAD_THETAS = [float("nan"), float("inf"), float("-inf"), -1.0]


@pytest.fixture(scope="module", params=["hamming", "edit", "jaccard", "euclidean"])
def cardnet_endpoint(request, binary_dataset, string_dataset, set_dataset, vector_dataset):
    """(service factory, dataset) for an untrained CardNet-A endpoint per distance.

    The Euclidean extractor has no canonical grid, so its endpoint is served
    on the uniform 65-point grid the registry builds from ``theta_max``.
    """
    dataset = {
        "hamming": binary_dataset,
        "edit": string_dataset,
        "jaccard": set_dataset,
        "euclidean": vector_dataset,
    }[request.param]
    estimator = CardNetEstimator.for_dataset(dataset, accelerated=True, seed=0)

    def make_service() -> EstimationService:
        service = EstimationService()
        service.register("cardnet", estimator, theta_max=dataset.theta_max)
        return service

    return make_service, dataset


@pytest.mark.parametrize("theta", BAD_THETAS, ids=["nan", "inf", "-inf", "negative"])
class TestBadThresholdsRaise:
    """NaN, ±inf and negative thetas are rejected with ValueError on every
    distance — never answered by clamping, never an IndexError from a cast."""

    def test_cold_path(self, cardnet_endpoint, theta):
        make_service, dataset = cardnet_endpoint
        service = make_service()
        with pytest.raises(ValueError):
            service.estimate("cardnet", dataset.records[0], theta)

    def test_cached_path(self, cardnet_endpoint, theta):
        make_service, dataset = cardnet_endpoint
        service = make_service()
        record = dataset.records[0]
        service.estimate("cardnet", record, 0.5 * dataset.theta_max)  # curve now cached
        with pytest.raises(ValueError):
            service.estimate("cardnet", record, theta)
        assert service.cache.hits >= 1

    def test_direct_estimation(self, cardnet_endpoint, theta):
        make_service, dataset = cardnet_endpoint
        estimator = make_service().registry.get("cardnet").estimator
        with pytest.raises(ValueError):
            estimator.estimate_batch([dataset.records[0]], [theta])
        with pytest.raises(ValueError):
            estimator.extractor.validate_thresholds([theta])
        with pytest.raises(ValueError):
            estimator.extractor.transform_threshold(theta)
