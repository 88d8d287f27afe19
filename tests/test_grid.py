"""Grid geometry and reservation timing."""

import numpy as np
import pytest

from sidesched.grid import (DEFAULT_T_SPS_POOL_S, ResourceGrid, draw_t_sps,
                            subframe_of)


class TestResourceGrid:
    def test_paper_scale_counts(self):
        g = ResourceGrid(k=7, l=100)
        assert g.n_subchannels == 700
        assert g.window_ms == 100.0

    def test_rejects_degenerate_dims(self):
        with pytest.raises(ValueError):
            ResourceGrid(k=0, l=10)
        with pytest.raises(ValueError):
            ResourceGrid(k=3, l=0)
        with pytest.raises(ValueError):
            ResourceGrid(k=3, l=10, t_ms=-1.0)

    def test_immutable(self):
        g = ResourceGrid(k=2, l=3)
        with pytest.raises(Exception):
            g.k = 5


class TestSubframeOf:
    def test_first_block(self):
        g = ResourceGrid(k=7, l=100)
        assert subframe_of(g, 0) == 0
        assert subframe_of(g, 6) == 0
        assert subframe_of(g, 7) == 1

    def test_last_index(self):
        g = ResourceGrid(k=7, l=100)
        assert subframe_of(g, 699) == 99

    def test_out_of_range(self):
        g = ResourceGrid(k=7, l=100)
        with pytest.raises(IndexError):
            subframe_of(g, -1)
        with pytest.raises(IndexError):
            subframe_of(g, 700)

    def test_block_partition(self):
        # every subframe owns exactly k consecutive indices, no gaps
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = int(rng.integers(1, 33))
            l = int(rng.integers(1, 257))
            g = ResourceGrid(k=k, l=l)
            frames = np.array([subframe_of(g, i) for i in range(g.n_subchannels)])
            counts = np.bincount(frames, minlength=l)
            assert np.all(counts == k)
            assert np.all(np.diff(frames) >= 0)


class TestTsPsPool:
    def test_default_pool(self):
        assert DEFAULT_T_SPS_POOL_S == (1.0, 4.0, 8.0)

    def test_draws_stay_in_pool_and_reproduce(self):
        draws = [draw_t_sps(np.random.default_rng(5)) for _ in range(10)]
        assert all(d in DEFAULT_T_SPS_POOL_S for d in draws)
        assert draws == [draw_t_sps(np.random.default_rng(5)) for _ in range(10)]

    def test_all_values_reachable(self):
        rng = np.random.default_rng(11)
        seen = {draw_t_sps(rng) for _ in range(100)}
        assert seen == set(DEFAULT_T_SPS_POOL_S)
