"""Synthetic SINR models and dummy padding."""

import numpy as np
import pytest

from sidesched.errors import ConfigError, InfeasibleError, ShapeError
from sidesched.grid import ResourceGrid
from sidesched.scenario import Cluster, ScenarioModel, generate_sinr, pad_to_square
from util import clamped_normal_mean


class TestCluster:
    def test_needs_vehicles(self):
        with pytest.raises(ValueError):
            Cluster(0, 0)


class TestGenerateSinr:
    def test_deterministic_per_seed(self):
        g = ResourceGrid(k=3, l=5)
        m = ScenarioModel(kind="uniform", seed=9)
        c = Cluster(0, 4)
        a = generate_sinr(m, c, g)
        b = generate_sinr(m, c, g)
        np.testing.assert_array_equal(a, b)
        c2 = generate_sinr(ScenarioModel(kind="uniform", seed=10), c, g)
        assert not np.array_equal(a, c2)

    def test_clusters_get_distinct_streams(self):
        g = ResourceGrid(k=3, l=5)
        m = ScenarioModel(kind="uniform", seed=9)
        a = generate_sinr(m, Cluster(0, 4), g)
        b = generate_sinr(m, Cluster(1, 4), g)
        assert not np.array_equal(a, b)

    def test_shape_and_range(self):
        g = ResourceGrid(k=7, l=10)
        m = ScenarioModel(kind="gaussian", seed=1)
        v = generate_sinr(m, Cluster(0, 6), g)
        assert v.shape == (6, 70)
        assert v.min() >= m.sinr_floor_db
        assert v.max() <= m.sinr_ceil_db

    def test_near_degenerate_range(self):
        g = ResourceGrid(k=2, l=3)
        m = ScenarioModel(kind="uniform", sinr_floor_db=10.0,
                          sinr_ceil_db=10.0 + 1e-9, seed=3)
        v = generate_sinr(m, Cluster(0, 2), g)
        assert np.all(np.abs(v - 10.0) <= 1e-9)

    def test_gaussian_clamped_mean(self):
        # 10**6 samples against the censored-moment integral
        g = ResourceGrid(k=100, l=100)
        m = ScenarioModel(kind="gaussian", mean_db=10.0, std_db=8.0, seed=123)
        v = generate_sinr(m, Cluster(0, 100), g)
        assert v.size == 10**6
        expected = clamped_normal_mean(10.0, 8.0, -15.0, 35.0)
        assert abs(expected - 10.0) < 1e-6  # symmetric clamp window
        assert abs(v.mean() - expected) < 0.1

    def test_two_state_mixture_pulls_mean_down(self):
        g = ResourceGrid(k=20, l=50)
        base = ScenarioModel(kind="gaussian", mean_db=10.0, std_db=4.0, seed=5)
        mixed = ScenarioModel(kind="two-state", mean_db=10.0, std_db=4.0,
                              bad_mean_db=-10.0, p_bad=0.4, seed=5)
        c = Cluster(0, 50)
        hi = generate_sinr(base, c, g).mean()
        lo = generate_sinr(mixed, c, g).mean()
        assert lo < hi - 3.0

    def test_two_state_is_a_vehicle_level_condition(self):
        # every row hugs one of the two state centers; both states occur
        g = ResourceGrid(k=10, l=40)
        m = ScenarioModel(kind="two-state", mean_db=10.0, std_db=1.0,
                          bad_mean_db=-10.0, p_bad=0.5, seed=11)
        v = generate_sinr(m, Cluster(0, 60), g)
        row_means = v.mean(axis=1)
        near_good = np.abs(row_means - 10.0) < 2.0
        near_bad = np.abs(row_means + 10.0) < 2.0
        assert np.all(near_good | near_bad)
        assert near_good.any() and near_bad.any()

    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_two_state_rows_equal_the_broadcast_normal(self, n):
        # the rows are rng.normal(centers, std_db, shape) bit for bit, from
        # the same stream; floor and ceil are wide so nothing is clipped
        g = ResourceGrid(k=7, l=100)
        for seed in range(20):
            m = ScenarioModel(kind="two-state", mean_db=7.5, std_db=6.5,
                              bad_mean_db=-7.5, sinr_floor_db=-1e3,
                              sinr_ceil_db=1e3, seed=seed)
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
            bad = rng.random((n, 1)) < m.p_bad
            centers = np.where(bad, m.bad_mean_db, m.mean_db)
            ref = rng.normal(centers, m.std_db, (n, g.n_subchannels))
            got = generate_sinr(m, Cluster(3, n), g)
            assert got.tobytes() == ref.tobytes()

    def test_two_state_scale_overflow_is_clipped_silently(self):
        # a scale that overflows to +-inf clips to the range, as the
        # broadcast normal's does, bit for bit and with no warning
        g = ResourceGrid(k=3, l=8)
        m = ScenarioModel(kind="two-state", std_db=1.7e308, seed=4)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=4, spawn_key=(1,)))
        centers = np.where(rng.random((5, 1)) < m.p_bad, m.bad_mean_db, m.mean_db)
        ref = np.clip(rng.normal(centers, m.std_db, (5, g.n_subchannels)),
                      m.sinr_floor_db, m.sinr_ceil_db)
        got = generate_sinr(m, Cluster(1, 5), g)
        assert got.tobytes() == ref.tobytes()
        assert {m.sinr_floor_db, m.sinr_ceil_db} == set(got.ravel().tolist())

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ScenarioModel(kind="rayleigh")

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            ScenarioModel(sinr_floor_db=5.0, sinr_ceil_db=5.0)


LEVEL_FIELDS = ("mean_db", "std_db", "bad_mean_db", "sinr_floor_db",
                "sinr_ceil_db")


class TestScenarioModelLevels:
    @pytest.mark.parametrize("field", LEVEL_FIELDS)
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_level_is_named(self, field, value):
        with pytest.raises(ConfigError) as exc:
            ScenarioModel(kind="two-state", **{field: value})
        assert field in exc.value.keys


class TestPadToSquare:
    def test_identity_when_full(self):
        g = ResourceGrid(k=2, l=3)
        m = np.arange(9, dtype=float).reshape(3, 3)
        np.testing.assert_array_equal(pad_to_square(m, g), m)

    def test_appends_zero_rows(self):
        g = ResourceGrid(k=2, l=5)
        m = np.ones((3, 5))
        padded = pad_to_square(m, g)
        assert padded.shape == (5, 5)
        np.testing.assert_array_equal(padded[:3], m)
        assert np.all(padded[3:] == 0.0)

    def test_original_rows_bitwise_equal(self):
        g = ResourceGrid(k=3, l=6)
        rng = np.random.default_rng(2)
        vals = rng.uniform(0.0, 1e7, (4, 6))
        assert np.array_equal(pad_to_square(vals, g)[:4], vals)

    def test_too_many_vehicles(self):
        g = ResourceGrid(k=2, l=3)
        with pytest.raises(InfeasibleError):
            pad_to_square(np.zeros((4, 3)), g)

    def test_wrong_width(self):
        # a table has one column per subframe, not one per subchannel
        g = ResourceGrid(k=2, l=3)
        with pytest.raises(ShapeError):
            pad_to_square(np.zeros((2, 6)), g)
