"""Matching kernel against enumeration, scipy, and its own invariants."""

import hashlib
import math
import signal
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from sidesched import munkres
from sidesched.assignment import compress
from sidesched.grid import ResourceGrid
from sidesched.munkres import max_weight_assignment
from sidesched.pipeline import (SCENARIO_STREAM, derive_seed, draw_cluster,
                                draw_rates)
from sidesched.scenario import Cluster, ScenarioModel, generate_sinr
from sidesched.sideinfo import QuantizerSpec, level_rates
from util import (bit_rows, brute_max_matching, decision_of, hopcroft_karp,
                  hopcroft_karp_first_phase)


def scipy_min_cost(cost):
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def scipy_optimum(w):
    rows, cols = linear_sum_assignment(w, maximize=True)
    return float(w[rows, cols].sum())


def full_load_block_maxima(model, bits):
    """Decision block maxima of one 100-vehicle draw on a 7 x 100 grid."""
    grid = ResourceGrid(k=7, l=100)
    sinr = generate_sinr(model, Cluster(id=0, n_vehicles=100), grid)
    decision = decision_of(sinr, QuantizerSpec(bits=bits), grid.b_hz)
    return compress(decision.values.ravel(), grid.k, grid.l).d


class TestReferenceCases:
    def test_identity_prefers_diagonal(self):
        cols, total = max_weight_assignment([[1.0, 0.0], [0.0, 1.0]])
        assert list(cols) == [0, 1]
        assert total == 2.0

    def test_cross_pairing(self):
        cols, total = max_weight_assignment([[1.0, 5.0], [2.0, 3.0]])
        assert list(cols) == [1, 0]
        assert total == 7.0

    def test_reduced_reference_matrix(self):
        cols, total = max_weight_assignment([[3.0, 5.0], [4.0, 2.0]])
        assert list(cols) == [1, 0]
        assert total == 9.0

    def test_single_cell(self):
        cols, total = max_weight_assignment([[4.5]])
        assert list(cols) == [0]
        assert total == 4.5


class TestAgainstEnumeration:
    def test_random_small(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            w = rng.normal(0, 5, (n, n))
            cols, total = max_weight_assignment(w)
            _, ref = brute_max_matching(w)
            assert sorted(cols) == list(range(n))
            assert abs(total - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_integer_weights_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            w = rng.integers(-20, 20, (n, n)).astype(float)
            _, total = max_weight_assignment(w)
            _, ref = brute_max_matching(w)
            assert total == ref


class TestAgainstScipy:
    def test_large_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(50, 120))
            w = rng.uniform(0, 1.5e7, (n, n))
            cols, total = max_weight_assignment(w)
            ri, ci = linear_sum_assignment(w, maximize=True)
            ref = float(w[ri, ci].sum())
            assert abs(total - ref) <= 1e-9 * ref
            assert sorted(cols) == list(range(n))


class TestInvariants:
    def test_constant_shift_keeps_matching(self):
        # exact arithmetic: integer-valued floats plus integer shifts
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            w = rng.integers(0, 50, (n, n)).astype(float)
            shift = float(rng.integers(-30, 30))
            cols, total = max_weight_assignment(w)
            cols2, total2 = max_weight_assignment(w + shift)
            np.testing.assert_array_equal(cols, cols2)
            assert total2 == total + n * shift

    def test_deterministic_under_ties(self):
        w = np.ones((4, 4))
        first = max_weight_assignment(w)
        for _ in range(5):
            cols, total = max_weight_assignment(w)
            np.testing.assert_array_equal(cols, first[0])
            assert total == 4.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            max_weight_assignment(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            max_weight_assignment([[1.0, np.nan], [0.0, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            max_weight_assignment(np.zeros((0, 0)))

    def test_rejects_weights_past_the_overflow_bound(self):
        # every weight is finite, but every matching's total overflows
        with pytest.raises(ValueError, match="total weight overflows$"):
            max_weight_assignment([[1e308, 0.0], [0.0, 1e308]])
        # weights of both signs near the largest float, with a finite total
        cols, total = max_weight_assignment([[1e308, 0.0], [0.0, -1e307]])
        assert list(cols) == [0, 1] and total == 1e308 - 1e307

    @pytest.mark.parametrize("n", [1, 4, 10, 30])
    def test_weights_at_the_bound_overflow_nowhere(self, n):
        # the largest weights whose every total is finite, and weights whose
        # largest is subnormal, where 2.0**scale would overflow: no step
        # overflows, and a power-of-two scale changes neither the matching
        # nor the total's bits
        rng = np.random.default_rng(n)
        ties = rng.integers(1, 4, (n, n)).astype(float)
        ties[: n // 3] = 2.0  # constant rows, set aside in step 0
        for w in (rng.uniform(-1, 1, (n, n)), ties):
            for top in (np.finfo(float).max / (n + 1), 2.0 ** -1060):
                scaled = w / np.abs(w).max() * top
                exp = math.frexp(top)[1]
                with np.errstate(all="raise"):
                    cols, total = max_weight_assignment(scaled)
                    ref_cols, ref_total = max_weight_assignment(
                        np.ldexp(scaled, -exp))
                np.testing.assert_array_equal(cols, ref_cols)
                assert total == np.ldexp(ref_total, exp)


class TestTieHeavyAgainstScipy:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 150), k=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_total_matches_scipy(self, n, k, seed):
        w = np.random.default_rng(seed).integers(0, k + 1, (n, n)).astype(float)
        cols, total = max_weight_assignment(w)
        assert sorted(cols) == list(range(n))
        assert total == float(w[np.arange(n), cols].sum())
        assert total == scipy_optimum(w)


class TestKernelPaths:
    def test_perfect_tight_cover_all_ties(self):
        cols, total = max_weight_assignment(np.ones((150, 150)))
        assert sorted(cols) == list(range(150))
        assert total == 150.0

    def test_perfect_tight_cover_quantized_full_load(self):
        d = full_load_block_maxima(ScenarioModel(kind="uniform", seed=0), bits=3)
        row_max = d.max(axis=1)
        assert scipy_optimum(d) == pytest.approx(row_max.sum(), rel=1e-12)
        cols, total = max_weight_assignment(d)
        # every row sits on one of its own row-maximum columns
        np.testing.assert_array_equal(d[np.arange(100), cols], row_max)
        assert abs(total - scipy_optimum(d)) <= 1e-9 * total

    def test_partial_cover_needs_augmentation(self):
        model = ScenarioModel(kind="two-state", mean_db=10.0, std_db=5.0,
                              bad_mean_db=-5.0, p_bad=0.3, seed=0)
        d = full_load_block_maxima(model, bits=4)
        ref = scipy_optimum(d)
        # no matching reaches the row-maximum bound, so some rows must be
        # inserted by augmentation after the tight-edge matching
        assert ref < d.max(axis=1).sum() * (1 - 1e-6)
        cols, total = max_weight_assignment(d)
        assert sorted(cols) == list(range(100))
        assert abs(total - ref) <= 1e-9 * ref

    def test_untied_random(self):
        w = np.random.default_rng(23).normal(0.0, 1.0, (150, 150))
        assert np.unique(w).size == w.size
        cols, total = max_weight_assignment(w)
        assert sorted(cols) == list(range(150))
        assert abs(total - scipy_optimum(w)) <= 1e-9 * abs(total)

    def test_augmenting_path_longer_than_recursion_limit(self):
        # Row i is tight on columns i and i+1, the last row only on column
        # 0: the first phase matches row i to column i, and the last row
        # then needs one augmenting path through every other row.
        n = sys.getrecursionlimit() + 200
        w = np.zeros((n, n))
        idx = np.arange(n - 1)
        w[idx, idx] = 1.0
        w[idx, idx + 1] = 1.0
        w[n - 1, 0] = 1.0
        cols, total = max_weight_assignment(w)
        assert total == float(n)
        np.testing.assert_array_equal(cols, np.r_[np.arange(1, n), 0])

    def test_tie_rule_pinned_cases(self):
        cols, _ = max_weight_assignment(np.ones((5, 5)))
        assert list(cols) == [0, 1, 2, 3, 4]
        cols, _ = max_weight_assignment([[2.0, 2.0, 0.0],
                                         [2.0, 2.0, 2.0],
                                         [2.0, 0.0, 0.0]])
        assert list(cols) == [1, 2, 0]
        # row 0 is inserted: columns 0 and 1 are equally near (distance
        # 0), and column 0, the lower, is scanned first. Free column 2 is
        # then reached at distance 0 from row 2 (via column 0) and again
        # from row 1 (via column 1); it keeps the earlier predecessor, so
        # row 2 moves to column 2 and row 0 takes column 0
        cols, _ = max_weight_assignment([[1.0, 3.0, 0.0],
                                         [1.0, 3.0, 1.0],
                                         [3.0, 0.0, 3.0]])
        assert list(cols) == [0, 1, 2]


class TestContinuousAgainstScipy:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 120), seed=st.integers(0, 2**32 - 1))
    def test_total_matches_scipy(self, n, seed):
        w = np.random.default_rng(seed).uniform(0.0, 1.5e7, (n, n))
        cols, total = max_weight_assignment(w)
        assert sorted(cols) == list(range(n))
        ref = scipy_optimum(w)
        assert abs(total - ref) <= 1e-9 * ref

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 120), real=st.integers(1, 120),
           seed=st.integers(0, 2**32 - 1))
    def test_constant_padding_rows_match_scipy(self, n, real, seed):
        # dummy vehicles: every row past the real ones is one constant,
        # tight on every column
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.0, 1.5e7, (n, n))
        w[min(real, n):] = rng.uniform(0.0, 1.5e7)
        cols, total = max_weight_assignment(w)
        assert sorted(cols) == list(range(n))
        ref = scipy_optimum(w)
        assert abs(total - ref) <= 1e-9 * ref

    def test_untied_columns_equal_scipy(self):
        # a unique optimum leaves no room for a tie rule
        for seed in range(5):
            w = np.random.default_rng(seed).normal(0.0, 1.0, (150, 150))
            cols, _ = max_weight_assignment(w)
            rows, ref_cols = linear_sum_assignment(w, maximize=True)
            np.testing.assert_array_equal(rows, np.arange(150))
            np.testing.assert_array_equal(cols, ref_cols)


@pytest.fixture
def phases(monkeypatch):
    """Names of the kernel phases a call runs, in order."""
    seen = []
    for name in ("_tight_matching", "_reduce_rows", "_insert_row"):
        def recorded(*args, _name=name, _real=getattr(munkres, name)):
            seen.append(_name)
            return _real(*args)
        monkeypatch.setattr(munkres, name, recorded)
    return seen


class TestInitialisationPhases:
    def test_column_reduction_completes_the_matching(self, phases):
        # both row maxima sit in column 0; reducing column 1 by 1 makes
        # (1, 1) tight, and the second Hopcroft-Karp pass matches row 1
        w = [[3.0, 1.0], [3.0, 2.0]]
        cols, total = max_weight_assignment(w)
        assert phases == ["_tight_matching", "_tight_matching"]
        assert list(cols) == [0, 1]
        assert total == 5.0

    def test_row_reduction_completes_the_matching(self, phases):
        # no constant row, so nothing is set aside before step 1
        w = np.array([[4.0, 3.0, 5.0], [3.0, 3.0, 5.0], [4.0, 3.0, 3.0]])
        cols, total = max_weight_assignment(w)
        assert phases == ["_tight_matching", "_tight_matching", "_reduce_rows"]
        assert total == brute_max_matching(w)[1] == 12.0
        assert list(cols) == [1, 2, 0]

    def test_visit_cap_runs_out_then_insertion_finishes(self, phases):
        w = np.array([[2.0, 1.0, 2.0], [4.0, 0.0, 1.0], [4.0, 1.0, 3.0]])
        cols, total = max_weight_assignment(w)
        assert phases[:3] == ["_tight_matching", "_tight_matching",
                              "_reduce_rows"]
        assert phases[3:] and set(phases[3:]) == {"_insert_row"}
        assert total == brute_max_matching(w)[1]
        assert sorted(cols) == [0, 1, 2]

    def test_row_reduction_leaves_rows_on_minima(self):
        # every matched row sits on a minimum of cost[i] - v, which is what
        # the insertion phase starts from
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            cost = rng.uniform(0.0, 10.0, (n, n))
            v = np.zeros(n)
            row_col, col_row = [-1] * n, [-1] * n
            munkres._reduce_rows(cost, v, row_col, col_row)
            assert all(row_col[col_row[j]] == j for j in range(n)
                       if col_row[j] >= 0)
            slack = cost - v[:n]
            u = slack.min(axis=1)
            for i, j in enumerate(row_col):
                if j >= 0:
                    assert slack[i, j] <= u[i] + 1e-9


class TestRowScan:
    """The row scan that replaced Hopcroft-Karp's first phase."""

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 60), extra=st.integers(0, 60), k=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    @example(m=1, extra=0, k=0, seed=0)
    @example(m=40, extra=0, k=1, seed=3)
    def test_equals_first_hopcroft_karp_phase(self, m, extra, k, seed):
        cost = np.random.default_rng(seed).integers(
            0, k + 1, (m, m + extra)).astype(float)
        tight = cost - cost.min(axis=1)[:, None] == 0
        assert (munkres._scan_rows(bit_rows(tight), m + extra)
                == hopcroft_karp_first_phase(tight))

    def test_rows_without_a_free_tight_column_stay_free(self):
        tight = np.array([[False, True, True],
                          [False, True, False],
                          [True, True, False]])
        assert munkres._scan_rows(bit_rows(tight), 3) == ([1, -1, 0], [2, 0, -1])


class TestTightMatching:
    """Hopcroft-Karp on bit sets against the list-based reference."""

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 60), n=st.integers(1, 120),
           density=st.floats(0.0, 1.0), empty=st.floats(0.0, 0.3),
           full=st.floats(0.0, 0.3), seed=st.integers(0, 2**32 - 1))
    @example(m=1, n=1, density=0.0, empty=0.0, full=0.0, seed=0)
    @example(m=60, n=120, density=1.0, empty=0.0, full=0.0, seed=0)
    @example(m=60, n=60, density=0.05, empty=0.1, full=0.1, seed=1)
    def test_equals_list_based_hopcroft_karp(self, m, n, density, empty, full,
                                             seed):
        rng = np.random.default_rng(seed)
        tight = rng.random((m, n)) < density
        rows = rng.random(m)
        tight[rows < empty] = False
        tight[rows > 1.0 - full] = True
        # both start from the row scan's matching, as the kernel's step 1
        bits = bit_rows(tight)
        row_col, col_row = munkres._scan_rows(bits, n)
        ref_row_col, ref_col_row = list(row_col), list(col_row)
        munkres._tight_matching(bits, row_col, col_row)
        hopcroft_karp(tight, ref_row_col, ref_col_row)
        assert row_col == ref_row_col
        assert col_row == ref_col_row


@contextmanager
def time_limit(seconds):
    """Fail, instead of spinning, when the block runs past ``seconds``."""
    def expire(*_):
        raise AssertionError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestInsertion:
    """Dual invariants of ``_insert_row`` after every insertion, m <= n."""

    @staticmethod
    def check_insertions(cost):
        m, n = cost.shape
        # the step-1 state: row minima, v = 0, the tight-edge matching
        u = cost.min(axis=1)
        v = np.zeros(n)
        row_col, col_row = [-1] * m, [-1] * n
        munkres._tight_matching(bit_rows(cost - u[:, None] == 0),
                                row_col, col_row)
        col_row = np.array(col_row + [-1], dtype=np.int64)
        for i in [i for i in range(m) if row_col[i] < 0]:
            before = set(col_row[:n][col_row[:n] >= 0].tolist())
            with time_limit(5.0):  # an insertion takes milliseconds
                munkres._insert_row(i, cost, u, v, col_row)
            owners = col_row[:n]
            matched = np.flatnonzero(owners >= 0)
            assert set(owners[matched].tolist()) == before | {i}
            assert len(matched) == len(before) + 1
            reduced = cost - u[:, None] - v[:n]
            assert reduced.min() >= -1e-9
            assert np.abs(reduced[owners[matched], matched]).max() <= 1e-9
            assert v.max() <= 0.0
            assert not np.any(v[:n][owners < 0])

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 40), extra=st.integers(0, 40), k=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    @example(m=2, extra=0, k=3, seed=0)
    def test_tied_integers(self, m, extra, k, seed):
        self.check_insertions(np.random.default_rng(seed).integers(
            0, k + 1, (m, m + extra)).astype(float))

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 40), extra=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1))
    @example(m=2, extra=0, seed=0)
    @example(m=30, extra=0, seed=0)
    def test_continuous(self, m, extra, seed):
        self.check_insertions(
            np.random.default_rng(seed).uniform(0.0, 10.0, (m, m + extra)))


def assert_solves_rectangular(cost):
    m, n = cost.shape
    cols = munkres._solve(cost, cost.min(axis=1))
    assert cols.shape == (m,)
    assert len(set(cols.tolist())) == m
    assert all(0 <= j < n for j in cols)
    return float(cost[np.arange(m), cols].sum())


class TestRectangular:
    """The m x n routine behind the square entry point, m <= n."""

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 60), extra=st.integers(0, 60), k=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    @example(m=1, extra=0, k=3, seed=0)
    @example(m=1, extra=40, k=3, seed=1)
    @example(m=30, extra=0, k=2, seed=2)
    def test_tied_integers_match_scipy(self, m, extra, k, seed):
        cost = np.random.default_rng(seed).integers(
            0, k + 1, (m, m + extra)).astype(float)
        assert assert_solves_rectangular(cost) == scipy_min_cost(cost)

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 60), extra=st.integers(0, 60),
           seed=st.integers(0, 2**32 - 1))
    @example(m=1, extra=0, seed=0)
    @example(m=1, extra=40, seed=1)
    @example(m=30, extra=0, seed=2)
    def test_continuous_matches_scipy(self, m, extra, seed):
        cost = np.random.default_rng(seed).uniform(0.0, 1.5e7, (m, m + extra))
        total = assert_solves_rectangular(cost)
        ref = scipy_min_cost(cost)
        assert abs(total - ref) <= 1e-9 * max(1.0, ref)

    def test_rectangular_skips_column_reduction(self, phases):
        # both rows prefer column 0; with a column to spare, row
        # reduction places row 1 without raising any v_j
        cost = np.array([[0.0, 1.0, 3.0], [0.0, 2.0, 5.0]])
        cols = munkres._solve(cost, cost.min(axis=1))
        assert phases == ["_tight_matching", "_reduce_rows"]
        assert list(cols) == [1, 0]


class TestConstantRows:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 80), share=st.floats(0.0, 1.0), k=st.integers(0, 6),
           tied=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_interleaved_constant_rows_match_scipy(self, n, share, k, tied, seed):
        rng = np.random.default_rng(seed)
        if tied:
            w = rng.integers(0, k + 1, (n, n)).astype(float)
        else:
            w = rng.uniform(0.0, 1.5e7, (n, n))
        # constant rows at random positions, each with its own value
        rows = np.flatnonzero(rng.random(n) < share)
        w[rows] = w[rows, :1]
        cols, total = max_weight_assignment(w)
        assert sorted(cols) == list(range(n))
        assert total == float(w[np.arange(n), cols].sum())
        ref = scipy_optimum(w)
        assert abs(total - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_set_aside_rows_take_leftover_columns_in_order(self):
        # rows 1 and 3 are constant; rows 0 and 2 take columns 3 and 1,
        # so rows 1 and 3 take what is left, 0 and 2, in that order
        w = [[0.0, 0.0, 0.0, 9.0],
             [5.0, 5.0, 5.0, 5.0],
             [0.0, 7.0, 0.0, 0.0],
             [2.0, 2.0, 2.0, 2.0]]
        cols, total = max_weight_assignment(w)
        assert list(cols) == [3, 0, 1, 2]
        assert total == 23.0
        # row 0 waits until rows 1 and 2 hold columns 0 and 1; solved as a
        # square problem, it would take column 0 first
        cols, total = max_weight_assignment([[0.0, 0.0, 0.0],
                                             [3.0, 2.0, 3.0],
                                             [0.0, 3.0, 3.0]])
        assert list(cols) == [2, 0, 1]
        assert total == 6.0


def test_pipeline_matchings_are_pinned():
    """The exact matching on 128 pipeline tables, as one digest, and the
    sum of their totals.

    Uniform and the acceptance bank's two-state model, N = 10/40/70/100,
    4 draws each, at 0/2/3/4 bits. An optimal total alone would not see
    a tie pick move; the digest does, and a change to the kernel that
    moves one on purpose restates it here. numpy's SVML kernels on
    AVX-512 and its other dispatch paths rate a SINR a few ulp apart, so
    the totals are held to a relative 1e-12, not to their bits.
    """
    from test_acceptance import GRID, MIXED, UNIFORM

    digest, totals = hashlib.sha256(), []
    for model in (UNIFORM, MIXED):
        lo, hi = model.sinr_floor_db, model.sinr_ceil_db
        for n in (10, 40, 70, 100):
            for seed in range(4):
                draw = draw_cluster(GRID, model, Cluster(id=n, n_vehicles=n),
                                    seed)
                for bits in (0, 2, 3, 4):
                    q = QuantizerSpec(bits, lo, hi) if bits else None
                    levels = level_rates(q, GRID.b_hz) if bits else None
                    _, reduced = draw_rates(GRID, draw, q, levels)
                    cols, total = max_weight_assignment(reduced.d)
                    digest.update(cols.tobytes())
                    totals.append(total)
    assert digest.hexdigest() == (
        "6b2db21d57fc1860cd556a6a48bf37aaa1f89875b69b579a8742d39bcbf72861")
    assert math.fsum(totals) == pytest.approx(79105393178.65831, rel=1e-12)


def test_exact_tie_pick_on_a_mixed_density_table():
    """A tie that float reduced costs split and the fixed-point kernel keeps.

    The mixed_density_sweep run at master seed 0, repetition 0: two-state,
    N = 100, 4 bits. Solved on the float weights, the kernel took
    ``FLOAT_PICK``; on exact integers the tie rule moves rows 10, 15, 18,
    27, 53 and 68 onto columns of the same weights, so the total keeps
    its bits.
    """
    from test_acceptance import GRID, MIXED

    draw = draw_cluster(GRID, MIXED, Cluster(id=0, n_vehicles=100),
                        derive_seed(0, SCENARIO_STREAM, 0, 0))
    q = QuantizerSpec(4, MIXED.sinr_floor_db, MIXED.sinr_ceil_db)
    _, reduced = draw_rates(GRID, draw, q, level_rates(q, GRID.b_hz))
    d = reduced.d
    cols, total = max_weight_assignment(d)
    float_pick = np.array(FLOAT_PICK)
    exact_pick = float_pick.copy()
    exact_pick[[10, 15, 18, 27, 53, 68]] = [84, 44, 1, 4, 39, 41]
    np.testing.assert_array_equal(cols, exact_pick)
    rows = np.arange(100)
    assert sorted(d[rows, float_pick]) == sorted(d[rows, exact_pick])
    assert total == float(d[rows, float_pick].sum())


FLOAT_PICK = [
    43, 67, 57, 65, 17, 62, 87, 68, 23, 48, 4, 52, 69, 88, 72, 84, 47, 9, 41,
    59, 27, 5, 10, 26, 11, 30, 58, 1, 71, 89, 24, 25, 40, 38, 16, 37, 56, 29,
    31, 13, 45, 86, 70, 78, 98, 76, 6, 21, 12, 14, 64, 82, 63, 44, 0, 94, 42,
    28, 20, 92, 54, 50, 66, 51, 19, 90, 8, 18, 39, 33, 95, 7, 73, 15, 85, 3,
    32, 60, 49, 61, 36, 53, 79, 96, 99, 83, 22, 46, 2, 81, 55, 91, 97, 93, 75,
    77, 35, 34, 74, 80]
