"""Synthetic SINR models and dummy padding."""

import numpy as np
import pytest

from sidesched.errors import InfeasibleError, ShapeError
from sidesched.grid import ResourceGrid
from sidesched.scenario import (Cluster, ScenarioModel, SinrMatrix,
                                generate_sinr, make_clusters, pad_to_square)
from util import clamped_normal_mean


class TestCluster:
    def test_needs_vehicles(self):
        with pytest.raises(ValueError):
            Cluster(0, 0)

    def test_make_clusters_numbers_in_order(self):
        cs = make_clusters([3, 2])
        assert [(c.id, c.n_vehicles) for c in cs] == [(0, 3), (1, 2)]


class TestGenerateSinr:
    def test_deterministic_per_seed(self):
        g = ResourceGrid(k=3, l=5)
        m = ScenarioModel(kind="uniform", seed=9)
        c = Cluster(0, 4)
        a = generate_sinr(m, c, g)
        b = generate_sinr(m, c, g)
        np.testing.assert_array_equal(a.values, b.values)
        c2 = generate_sinr(ScenarioModel(kind="uniform", seed=10), c, g)
        assert not np.array_equal(a.values, c2.values)

    def test_clusters_get_distinct_streams(self):
        g = ResourceGrid(k=3, l=5)
        m = ScenarioModel(kind="uniform", seed=9)
        a = generate_sinr(m, Cluster(0, 4), g)
        b = generate_sinr(m, Cluster(1, 4), g)
        assert not np.array_equal(a.values, b.values)

    def test_shape_and_range(self):
        g = ResourceGrid(k=7, l=10)
        m = ScenarioModel(kind="gaussian", seed=1)
        v = generate_sinr(m, Cluster(0, 6), g).values
        assert v.shape == (6, 70)
        assert v.min() >= m.sinr_floor_db
        assert v.max() <= m.sinr_ceil_db

    def test_near_degenerate_range(self):
        g = ResourceGrid(k=2, l=3)
        m = ScenarioModel(kind="uniform", sinr_floor_db=10.0,
                          sinr_ceil_db=10.0 + 1e-9, seed=3)
        v = generate_sinr(m, Cluster(0, 2), g).values
        assert np.all(np.abs(v - 10.0) <= 1e-9)

    def test_gaussian_clamped_mean(self):
        # 10**6 samples against the censored-moment integral
        g = ResourceGrid(k=100, l=100)
        m = ScenarioModel(kind="gaussian", mean_db=10.0, std_db=8.0, seed=123)
        v = generate_sinr(m, Cluster(0, 100), g).values
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
        hi = generate_sinr(base, c, g).values.mean()
        lo = generate_sinr(mixed, c, g).values.mean()
        assert lo < hi - 3.0

    def test_two_state_is_a_vehicle_level_condition(self):
        # every row hugs one of the two state centers; both states occur
        g = ResourceGrid(k=10, l=40)
        m = ScenarioModel(kind="two-state", mean_db=10.0, std_db=1.0,
                          bad_mean_db=-10.0, p_bad=0.5, seed=11)
        v = generate_sinr(m, Cluster(0, 60), g).values
        row_means = v.mean(axis=1)
        near_good = np.abs(row_means - 10.0) < 2.0
        near_bad = np.abs(row_means + 10.0) < 2.0
        assert np.all(near_good | near_bad)
        assert near_good.any() and near_bad.any()

    def test_power_shift_moves_gaussian(self):
        g = ResourceGrid(k=10, l=20)
        c = Cluster(0, 30)
        ref = ScenarioModel(kind="gaussian", mean_db=5.0, std_db=3.0, seed=8)
        hot = ScenarioModel(kind="gaussian", mean_db=5.0, std_db=3.0, seed=8,
                            p_t_dbm=29.0)
        d = generate_sinr(hot, c, g).values.mean() - generate_sinr(ref, c, g).values.mean()
        assert 5.0 < d < 7.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ScenarioModel(kind="rayleigh")

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            ScenarioModel(sinr_floor_db=5.0, sinr_ceil_db=5.0)


class TestPadToSquare:
    def test_identity_when_full(self):
        g = ResourceGrid(k=2, l=3)
        m = SinrMatrix(0, np.arange(18, dtype=float).reshape(3, 6))
        padded, mask = pad_to_square(m, g)
        np.testing.assert_array_equal(padded.values, m.values)
        assert not mask.any()

    def test_appends_floor_rows(self):
        g = ResourceGrid(k=2, l=5)
        m = SinrMatrix(0, np.ones((3, 10)))
        padded, mask = pad_to_square(m, g, floor_db=-15.0)
        assert padded.values.shape == (5, 10)
        np.testing.assert_array_equal(padded.values[:3], m.values)
        assert np.all(padded.values[3:] == -15.0)
        np.testing.assert_array_equal(mask, [False, False, False, True, True])

    def test_original_rows_bitwise_equal(self):
        g = ResourceGrid(k=3, l=6)
        rng = np.random.default_rng(2)
        vals = rng.uniform(-15, 35, (4, 18))
        padded, _ = pad_to_square(SinrMatrix(1, vals), g)
        assert np.array_equal(padded.values[:4], vals)

    def test_too_many_vehicles(self):
        g = ResourceGrid(k=2, l=3)
        with pytest.raises(InfeasibleError):
            pad_to_square(SinrMatrix(0, np.zeros((4, 6))), g)

    def test_wrong_width(self):
        g = ResourceGrid(k=2, l=3)
        with pytest.raises(ShapeError):
            pad_to_square(SinrMatrix(0, np.zeros((2, 5))), g)


class TestSinrMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SinrMatrix(0, np.array([[1.0, np.nan]]))

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            SinrMatrix(0, np.array([1.0, 2.0]))
