"""Grid geometry, and the subframe map read through its one caller,
``verify_assignment``."""

import numpy as np
import pytest

from sidesched.errors import ConstraintViolation
from sidesched.grid import ResourceGrid
from sidesched.solvers import Assignment, verify_assignment


def verify(g, subchannels):
    verify_assignment(Assignment(np.array(subchannels), "greedy"), g)


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
        # 0 and 6 lie in subframe 0, 7 in subframe 1
        with pytest.raises(ConstraintViolation, match="share subframe 0 "):
            verify(g, [0, 6])
        verify(g, [6, 7])
        verify(g, [0, 7])

    def test_last_index(self):
        g = ResourceGrid(k=7, l=100)
        # 699 is the last index and lies in subframe 99 with 693, not 692
        with pytest.raises(ConstraintViolation, match="share subframe 99 "):
            verify(g, [693, 699])
        verify(g, [692, 699])
        with pytest.raises(IndexError):
            verify(g, [700])
