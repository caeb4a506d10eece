"""Deployment generators."""

import numpy as np
import pytest

from repro.network.deployment import clustered_deployment, uniform_deployment


class TestUniform:
    def test_shape(self):
        pos = uniform_deployment(50, 1000.0, 100.0, seed=0)
        assert pos.shape == (50, 2)

    def test_bounds(self):
        pos = uniform_deployment(500, 1000.0, 100.0, seed=1)
        assert np.all((pos[:, 0] >= 0) & (pos[:, 0] <= 1000.0))
        assert np.all(np.abs(pos[:, 1]) <= 100.0)

    def test_deterministic(self):
        a = uniform_deployment(20, 1000.0, 50.0, seed=7)
        b = uniform_deployment(20, 1000.0, 50.0, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self):
        a = uniform_deployment(20, 1000.0, 50.0, seed=7)
        b = uniform_deployment(20, 1000.0, 50.0, seed=8)
        assert not np.array_equal(a, b)

    def test_zero_sensors(self):
        assert uniform_deployment(0, 1000.0, 50.0, seed=0).shape == (0, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            uniform_deployment(-1, 1000.0, 50.0)

    def test_zero_offset_puts_sensors_on_axis(self):
        pos = uniform_deployment(10, 100.0, 0.0, seed=0)
        np.testing.assert_allclose(pos[:, 1], 0.0)

    def test_roughly_uniform_longitudinal(self):
        pos = uniform_deployment(4000, 1000.0, 50.0, seed=3)
        hist, _ = np.histogram(pos[:, 0], bins=4, range=(0, 1000.0))
        assert hist.min() > 800  # each quarter near 1000

    def test_accepts_generator(self):
        gen = np.random.default_rng(5)
        pos = uniform_deployment(5, 100.0, 10.0, seed=gen)
        assert pos.shape == (5, 2)


class TestClustered:
    def test_shape_and_bounds(self):
        pos = clustered_deployment(200, 1000.0, 80.0, seed=1)
        assert pos.shape == (200, 2)
        assert np.all((pos[:, 0] >= 0) & (pos[:, 0] <= 1000.0))
        assert np.all(np.abs(pos[:, 1]) <= 80.0)

    def test_clustering_is_real(self):
        """Clustered x-positions concentrate: their histogram is far more
        uneven than a uniform one."""
        pos = clustered_deployment(
            1000, 10_000.0, 50.0, num_clusters=3, cluster_std=100.0, seed=4
        )
        hist, _ = np.histogram(pos[:, 0], bins=20, range=(0, 10_000.0))
        assert hist.max() > 3 * 1000 / 20  # some bin is >3x the uniform share

    def test_deterministic(self):
        a = clustered_deployment(50, 1000.0, 50.0, seed=6)
        b = clustered_deployment(50, 1000.0, 50.0, seed=6)
        np.testing.assert_array_equal(a, b)

    def test_requires_clusters(self):
        with pytest.raises(ValueError):
            clustered_deployment(10, 1000.0, 50.0, num_clusters=0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            clustered_deployment(-5, 1000.0, 50.0)


class TestCrossGeneratorDeterminism:
    """Same seed ⇒ byte-identical coordinates, for every generator.

    Planner tours are content-addressed by (config, seed); the planners
    are pure functions of the deployment, so deployment determinism is
    what makes designed tours cacheable and ``repro plan`` output
    byte-identical across invocations.
    """

    @pytest.mark.parametrize(
        "deploy",
        [
            lambda seed: uniform_deployment(40, 1500.0, 120.0, seed=seed),
            lambda seed: clustered_deployment(
                40, 1500.0, 120.0, num_clusters=4, cluster_std=90.0, seed=seed
            ),
        ],
        ids=["uniform", "clustered"],
    )
    def test_same_seed_identical_coords(self, deploy):
        a, b = deploy(13), deploy(13)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype == np.float64

    def test_int_seed_and_equivalent_generator_agree(self):
        """An int seed and a fresh ``default_rng(seed)`` are the same
        stream, so callers may pass either interchangeably."""
        from_int = uniform_deployment(20, 1000.0, 50.0, seed=21)
        from_gen = uniform_deployment(
            20, 1000.0, 50.0, seed=np.random.default_rng(21)
        )
        np.testing.assert_array_equal(from_int, from_gen)
