"""Unit tests for feature extraction (paper §4 case studies)."""

import numpy as np
import pytest

from repro.distances import HammingDistance, levenshtein
from repro.featurization import (
    EditFeatureExtractor,
    HammingFeatureExtractor,
    MinHashJaccardFeatureExtractor,
    PStableEuclideanFeatureExtractor,
    build_feature_extractor,
    collision_probability,
    proportional_threshold_map,
)


class TestThresholdMap:
    def test_zero_maps_to_zero(self):
        assert proportional_threshold_map(0.0, 1.0, 16) == 0

    def test_max_maps_to_tau_max(self):
        assert proportional_threshold_map(1.0, 1.0, 16) == 16

    def test_monotone(self):
        values = [proportional_threshold_map(theta, 1.0, 16) for theta in np.linspace(0, 1, 50)]
        assert values == sorted(values)

    def test_zero_theta_max(self):
        assert proportional_threshold_map(0.5, 0.0, 16) == 0


class TestHammingFeature:
    def test_identity_on_binary(self):
        extractor = HammingFeatureExtractor(dimension=8, theta_max=4)
        record = np.array([1, 0, 1, 1, 0, 0, 1, 0])
        assert np.array_equal(extractor.transform_record(record), record.astype(float))

    def test_threshold_identity_when_small(self):
        extractor = HammingFeatureExtractor(dimension=8, theta_max=4, tau_max=8)
        assert extractor.transform_threshold(3) == 3

    def test_threshold_proportional_when_large(self):
        extractor = HammingFeatureExtractor(dimension=64, theta_max=32, tau_max=16)
        assert extractor.transform_threshold(32) == 16
        assert extractor.transform_threshold(16) == 8

    def test_rejects_wrong_dimension(self):
        extractor = HammingFeatureExtractor(dimension=8, theta_max=4)
        with pytest.raises(ValueError):
            extractor.transform_record(np.zeros(9))

    def test_rejects_out_of_range_threshold(self):
        extractor = HammingFeatureExtractor(dimension=8, theta_max=4)
        with pytest.raises(ValueError):
            extractor.transform_threshold(5.0)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            HammingFeatureExtractor(dimension=0, theta_max=4)


class TestEditFeature:
    def test_dimension_formula(self):
        extractor = EditFeatureExtractor(alphabet="abc", max_length=5, theta_max=2, window=1)
        assert extractor.dimension == (5 + 2 * 1) * 3

    def test_paper_example(self):
        # Paper §4.2: x = "abc", Σ = {a,b,c,d}, l_max = 4, τ_max(window) = 1
        extractor = EditFeatureExtractor(alphabet="abcd", max_length=4, theta_max=1, window=1)
        vector = extractor.transform_record("abc")
        groups = vector.reshape(4, -1)
        assert np.array_equal(groups[0], [1, 1, 1, 0, 0, 0])  # 'a' at position 0
        assert np.array_equal(groups[1], [0, 1, 1, 1, 0, 0])  # 'b' at position 1
        assert np.array_equal(groups[2], [0, 0, 1, 1, 1, 0])  # 'c' at position 2
        assert np.array_equal(groups[3], [0, 0, 0, 0, 0, 0])  # 'd' absent

    def test_bounding_property(self):
        """ed(x, y) <= θ implies Hamming(h(x), h(y)) <= θ · (4·window + 2)."""
        extractor = EditFeatureExtractor(alphabet="abcd", max_length=12, theta_max=4, window=2)
        hamming = HammingDistance()
        pairs = [("abca", "abcab"), ("aabb", "abab"), ("dcba", "dcba"), ("abcd", "badc")]
        for x, y in pairs:
            edit = levenshtein(x, y)
            hd = hamming.distance(extractor.transform_record(x), extractor.transform_record(y))
            assert hd <= edit * (4 * extractor.window + 2)

    def test_unknown_characters_ignored(self):
        extractor = EditFeatureExtractor(alphabet="ab", max_length=4, theta_max=2, window=1)
        vector = extractor.transform_record("azb")
        assert vector.sum() > 0  # 'a' and 'b' still encoded

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            EditFeatureExtractor(alphabet="", max_length=4, theta_max=2)


class TestMinHashFeature:
    def test_one_hot_structure(self):
        extractor = MinHashJaccardFeatureExtractor(
            universe_size=50, theta_max=0.4, num_permutations=8, bits_per_hash=2, seed=0
        )
        vector = extractor.transform_record({1, 5, 9})
        blocks = vector.reshape(8, 4)
        assert np.all(blocks.sum(axis=1) == 1.0)

    def test_identical_sets_identical_vectors(self):
        extractor = MinHashJaccardFeatureExtractor(universe_size=50, theta_max=0.4, seed=0)
        a = extractor.transform_record({1, 2, 3})
        b = extractor.transform_record({3, 2, 1})
        assert np.array_equal(a, b)

    def test_expected_hamming_tracks_jaccard_distance(self):
        """Similar sets should land closer in Hamming space than dissimilar ones."""
        extractor = MinHashJaccardFeatureExtractor(
            universe_size=100, theta_max=0.4, num_permutations=64, seed=0
        )
        hamming = HammingDistance()
        base = frozenset(range(20))
        similar = frozenset(list(range(18)) + [50, 51])      # J-dist ~ 0.18
        dissimilar = frozenset(range(60, 80))                  # J-dist = 1.0
        near = hamming.distance(extractor.transform_record(base), extractor.transform_record(similar))
        far = hamming.distance(extractor.transform_record(base), extractor.transform_record(dissimilar))
        assert near < far

    def test_threshold_monotone(self):
        extractor = MinHashJaccardFeatureExtractor(universe_size=50, theta_max=0.4, tau_max=16)
        taus = [extractor.transform_threshold(t) for t in np.linspace(0, 0.4, 20)]
        assert taus == sorted(taus)
        assert taus[0] == 0 and taus[-1] == 16

    def test_empty_set_is_handled(self):
        extractor = MinHashJaccardFeatureExtractor(universe_size=50, theta_max=0.4, seed=0)
        vector = extractor.transform_record(frozenset())
        assert vector.shape == (extractor.dimension,)


class TestPStableFeature:
    def test_collision_probability_decreasing(self):
        values = [collision_probability(theta, 0.5) for theta in np.linspace(0.01, 2.0, 30)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_collision_probability_at_zero(self):
        assert collision_probability(0.0, 0.5) == 1.0

    def test_one_hot_structure(self):
        extractor = PStableEuclideanFeatureExtractor(
            input_dimension=8, theta_max=0.8, num_hashes=16, seed=0
        )
        vector = extractor.transform_record(np.random.default_rng(0).normal(size=8))
        blocks = vector.reshape(16, extractor.block_size)
        assert np.all(blocks.sum(axis=1) == 1.0)

    def test_nearby_vectors_closer_in_hamming(self):
        rng = np.random.default_rng(1)
        extractor = PStableEuclideanFeatureExtractor(
            input_dimension=8, theta_max=2.0, num_hashes=64, bucket_width=1.0, seed=0
        )
        hamming = HammingDistance()
        base = rng.normal(size=8)
        near = base + rng.normal(scale=0.05, size=8)
        far = base + rng.normal(scale=2.0, size=8)
        near_hd = hamming.distance(extractor.transform_record(base), extractor.transform_record(near))
        far_hd = hamming.distance(extractor.transform_record(base), extractor.transform_record(far))
        assert near_hd <= far_hd

    def test_threshold_monotone_and_bounded(self):
        extractor = PStableEuclideanFeatureExtractor(input_dimension=8, theta_max=0.8, tau_max=16)
        taus = [extractor.transform_threshold(t) for t in np.linspace(0, 0.8, 30)]
        assert taus == sorted(taus)
        assert 0 <= min(taus) and max(taus) <= 16

    def test_rejects_wrong_dimension(self):
        extractor = PStableEuclideanFeatureExtractor(input_dimension=8, theta_max=0.8)
        with pytest.raises(ValueError):
            extractor.transform_record(np.zeros(9))


def reference_collision_probability(theta: float, r: float) -> float:
    """The scalar closed form of Datar et al., written with ``norm.cdf``."""
    from scipy.stats import norm

    if theta <= 0.0:
        return 1.0
    with np.errstate(over="ignore"):
        ratio = r / theta
    if ratio > 40.0:
        return 1.0
    term1 = 1.0 - 2.0 * norm.cdf(-ratio)
    term2 = (2.0 / (np.sqrt(2.0 * np.pi) * ratio)) * (1.0 - np.exp(-(ratio ** 2) / 2.0))
    return float(max(0.0, min(1.0, term1 - term2)))


def reference_tau(extractor: PStableEuclideanFeatureExtractor, theta: float) -> int:
    """The paper's scalar θ → τ map, evaluated θ by θ."""
    epsilon = reference_collision_probability(theta, extractor.bucket_width)
    at_max = reference_collision_probability(extractor.theta_max, extractor.bucket_width)
    ratio = min(max((1.0 - epsilon) / (1.0 - at_max), 0.0), 1.0)
    return int(np.floor(extractor.tau_max * ratio + 1e-12))


class TestVectorizedEuclideanMap:
    """The batched θ → τ map equals the scalar closed form, point for point."""

    @pytest.mark.parametrize(
        "theta_max,bucket_width", [(0.6, 0.5), (0.8, 0.5), (2.0, 1.0), (1.0, 0.05)]
    )
    def test_matches_scalar_reference(self, theta_max, bucket_width):
        extractor = PStableEuclideanFeatureExtractor(
            input_dimension=8, theta_max=theta_max, bucket_width=bucket_width, tau_max=16
        )
        edge = bucket_width / 40.0  # where the closed form takes over from ε = 1
        grid = np.concatenate(
            [
                np.linspace(0.0, theta_max, 4_001),
                [0.0, 5e-324, 1e-300, 1e-12, edge * (1 - 1e-15), edge, edge * (1 + 1e-15)],
                [theta_max, theta_max + 1e-10],
            ]
        )
        grid = grid[grid <= theta_max]
        expected = [reference_tau(extractor, theta) for theta in grid]
        assert extractor.transform_thresholds(grid).tolist() == expected
        assert [extractor.transform_threshold(theta) for theta in grid[::97]] == expected[::97]

        epsilon = collision_probability(grid, bucket_width)
        reference = [reference_collision_probability(theta, bucket_width) for theta in grid]
        np.testing.assert_allclose(epsilon, reference, rtol=0.0, atol=1e-15)

    def test_endpoints(self):
        extractor = PStableEuclideanFeatureExtractor(input_dimension=8, theta_max=0.8, tau_max=16)
        taus = extractor.transform_thresholds([0.0, 1e-300, 0.8])
        assert taus.dtype == np.int64
        assert taus.tolist() == [0, 0, 16]
        assert collision_probability(np.array([0.0, -1.0, 1e-300]), 0.5).tolist() == [1.0] * 3
        assert isinstance(collision_probability(0.3, 0.5), float)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -1e-3, 0.8 + 1e-6])
    def test_rejects_bad_thresholds(self, theta):
        extractor = PStableEuclideanFeatureExtractor(input_dimension=8, theta_max=0.8)
        with pytest.raises(ValueError):
            extractor.transform_thresholds([0.1, theta])
        with pytest.raises(ValueError):
            extractor.transform_threshold(theta)


class TestFactory:
    @pytest.mark.parametrize(
        "fixture_name,expected_type",
        [
            ("binary_dataset", HammingFeatureExtractor),
            ("string_dataset", EditFeatureExtractor),
            ("set_dataset", MinHashJaccardFeatureExtractor),
            ("vector_dataset", PStableEuclideanFeatureExtractor),
        ],
    )
    def test_builds_matching_extractor(self, request, fixture_name, expected_type):
        dataset = request.getfixturevalue(fixture_name)
        extractor = build_feature_extractor(dataset)
        assert isinstance(extractor, expected_type)
        # The extractor must accept the dataset's own records and thresholds.
        vector = extractor.transform_record(dataset.records[0])
        assert vector.shape == (extractor.dimension,)
        assert 0 <= extractor.transform_threshold(dataset.theta_max) <= extractor.tau_max

    def test_transform_records_batch(self, binary_dataset):
        extractor = build_feature_extractor(binary_dataset)
        matrix = extractor.transform_records(list(binary_dataset.records[:5]))
        assert matrix.shape == (5, extractor.dimension)

    def test_available_taus_sorted(self, set_dataset):
        extractor = build_feature_extractor(set_dataset)
        taus = extractor.available_taus()
        assert taus == sorted(taus)
