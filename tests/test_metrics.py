"""Report statistics, CDF conventions, density sweep."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sidesched.config import ExperimentConfig
from sidesched.errors import ConfigError
from sidesched.grid import ResourceGrid
from sidesched.metrics import build_report, sweep_density
from sidesched.scenario import ScenarioModel


def tiny_config(**over):
    base = dict(
        grid=ResourceGrid(k=2, l=8),
        scenario=ScenarioModel(kind="uniform", seed=0),
        cluster_sizes=(8,),
        bits_list=(0,),
        methods=("proposed",),
        repetitions=3,
        master_seed=404,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestBuildReport:
    def test_all_equal_samples_jump(self):
        rep = build_report([5.0, 5.0, 5.0])
        xs = [x for x, _ in rep.cdf]
        ps = [p for _, p in rep.cdf]
        assert ps == [0.0, 1.0]
        assert xs[0] == 5.0
        assert xs[1] > 5.0  # jump closes immediately above the atom
        assert rep.highest_bps == rep.worst_bps == rep.average_bps == 5.0
        assert rep.std_dev_bps == 0.0

    def test_two_samples_summary(self):
        rep = build_report([2.0, 4.0], grid_points=3)
        assert rep.average_bps == 3.0
        assert rep.std_dev_bps == 1.0  # population convention
        assert rep.worst_bps == 2.0
        assert rep.highest_bps == 4.0
        # strict inequality: only the sample at 2 lies below 3
        assert rep.cdf[1] == (3.0, 0.5)
        assert rep.cdf[0] == (2.0, 0.0)
        assert rep.cdf[-1] == (4.0, 1.0)

    def test_cdf_monotone_and_closed(self):
        rng = np.random.default_rng(12)
        rep = build_report(rng.exponential(2.0, 500), grid_points=40)
        ps = np.array([p for _, p in rep.cdf])
        xs = np.array([x for x, _ in rep.cdf])
        assert ps[0] == 0.0
        assert ps[-1] == 1.0
        assert np.all(np.diff(ps) >= 0)
        assert np.all(np.diff(xs) > 0)
        assert len(rep.cdf) == 40

    def test_uniform_cdf_tracks_identity(self):
        # Dvoretzky-Kiefer-Wolfowitz style check on 10**4 uniforms
        rng = np.random.default_rng(77)
        s = rng.random(10_000)
        rep = build_report(s, grid_points=101)
        xs = np.array([x for x, _ in rep.cdf])
        ps = np.array([p for _, p in rep.cdf])
        span = xs[-1] - xs[0]
        ideal = (xs - xs[0]) / span
        assert np.max(np.abs(ps - ideal)) < 0.02

    def test_summary_ordering_holds(self):
        rng = np.random.default_rng(31)
        rep = build_report(rng.uniform(1, 9, 1000))
        assert rep.worst_bps <= rep.average_bps <= rep.highest_bps

    def test_tags_carried(self):
        rep = build_report([1.0, 2.0], method="greedy", bits=3)
        assert (rep.method, rep.bits) == ("greedy", 3)

    def test_rejects_empty_and_bad_grid(self):
        with pytest.raises(ValueError):
            build_report([])
        with pytest.raises(ValueError):
            build_report([1.0], grid_points=1)
        with pytest.raises(ValueError):
            build_report([np.nan])

    @pytest.mark.parametrize("samples, mean, std",
                             [([0.0, 1e300], 5e299, 5e299),
                              ([1.7e308, 1.7e308], 1.7e308, 0.0)],
                             ids=["std-overflows", "mean-overflows"])
    def test_overflowing_statistic_names_its_series(self, samples, mean, std):
        # finite samples whose squared deviations or whose sum leave the
        # float range still have their finite std and mean
        rep = build_report(samples, method="greedy", bits=2)
        assert (rep.average_bps, rep.std_dev_bps) == (mean, std)

    @given(st.lists(st.floats(0, 1e9), max_size=20),
           st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
    def test_non_finite_sample_anywhere_raises(self, finite, bad, data):
        at = data.draw(st.integers(0, len(finite)))
        with pytest.raises(ValueError, match="samples must be finite"):
            build_report(finite[:at] + [bad] + finite[at:])


class TestSweepDensity:
    def test_deterministic(self):
        cfg = tiny_config(sweep_n_vehicles=(2, 6), repetitions=2)
        a = sweep_density(cfg)
        b = sweep_density(cfg)
        assert a == b

    def test_row_grid(self):
        cfg = tiny_config(methods=("proposed", "greedy"), sweep_n_vehicles=(2, 4),
                          bits_list=(0, 2), repetitions=1)
        rows = sweep_density(cfg)
        keys = {(r.method, r.bits, r.n_vehicles) for r in rows}
        assert len(rows) == 8
        assert ("greedy", 2, 4) in keys

    def test_congestion_lowers_worst_rate(self):
        # lightly loaded beats fully loaded for the optimal method
        cfg = tiny_config(sweep_n_vehicles=(2, 8), repetitions=100)
        rows = sweep_density(cfg)
        by_n = {r.n_vehicles: r.worst_rate_mean_bps for r in rows}
        assert by_n[2] >= by_n[8]

    def test_rejects_overload(self):
        with pytest.raises(ConfigError) as exc:
            sweep_density(tiny_config(sweep_n_vehicles=(2, 9), repetitions=1))
        assert exc.value.keys == ["sweep.n_vehicles[1]"]
