"""Solver behavior: reference cases, distributions, dominance, feasibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sidesched.assignment import compress, expand_solution
from sidesched.errors import CapacityError, ConstraintViolation, InfeasibleError
from sidesched.grid import ResourceGrid
from sidesched.solvers import (Assignment, evaluate, shared_subframes,
                               solve_greedy, solve_oracle, solve_proposed,
                               solve_random, verify_assignment)
from util import brute_full_optimum, greedy_full_matrix


class Rates:
    """Given rates read as ``sideinfo.FineRates`` and ``QuantizedRates``
    are read: at entries, or whole as ``values``."""

    def __init__(self, vals):
        self.values = np.asarray(vals, dtype=float)

    def at(self, rows, cols):
        return self.values[rows, cols]


def oracle(vals, g):
    """The oracle on every row of ``vals``."""
    return solve_oracle(Rates(vals), g)


def greedy(vals, g):
    """Greedy on the block table of ``vals``, one row per vehicle."""
    return solve_greedy(compress(np.asarray(vals, dtype=float).ravel(), g.k, g.l))


class TestGreedy:
    def test_reference_case(self):
        g = ResourceGrid(k=2, l=2)
        a = greedy([[1, 3, 2, 5], [4, 1, 2, 2]], g)
        assert a.subchannel.tolist() == [3, 0]

    def test_fills_in_index_order(self):
        g = ResourceGrid(k=1, l=2)
        a = greedy([[5, 1], [4, 1]], g)
        assert a.subchannel.tolist() == [0, 1]

    def test_first_come_first_served_can_be_suboptimal(self):
        g = ResourceGrid(k=1, l=2)
        vals = [[5.0, 4.0], [5.0, 1.0]]
        a = greedy(vals, g)
        total = sum(vals[i][sc] for i, sc in enumerate(a.subchannel))
        assert total == 6.0
        _, best = brute_full_optimum(np.asarray(vals), 1, 2)
        assert best == 9.0

    def test_tie_takes_lowest_index(self):
        g = ResourceGrid(k=2, l=2)
        a = greedy([[3, 3, 3, 3]], g)
        assert a.subchannel.tolist() == [0]

    def test_too_many_vehicles(self):
        g = ResourceGrid(k=2, l=2)
        with pytest.raises(InfeasibleError):
            solve_greedy(compress(np.ones(12), g.k, g.l))

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 4), l=st.integers(1, 8), data=st.data())
    def test_block_table_matches_full_matrix_scan(self, k, l, data):
        # tie-heavy small integers, some rows constant, N <= L
        n = data.draw(st.integers(1, l))
        vals = data.draw(arrays(np.int64, (n, k * l),
                                elements=st.integers(0, 3))).astype(float)
        constant = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                               max_size=n)))
        vals[constant] = vals[constant][:, :1]
        g = ResourceGrid(k=k, l=l)
        assert greedy(vals, g).subchannel.tolist() == greedy_full_matrix(vals, k, l)


class TestRandom:
    def test_deterministic_given_rng_seed(self):
        g = ResourceGrid(k=3, l=8)
        a = solve_random(g, 5, np.random.default_rng(77))
        b = solve_random(g, 5, np.random.default_rng(77))
        np.testing.assert_array_equal(a.subchannel, b.subchannel)

    def test_k1_full_load_is_a_permutation(self):
        g = ResourceGrid(k=1, l=5)
        a = solve_random(g, 5, np.random.default_rng(3))
        assert sorted(a.subchannel.tolist()) == list(range(5))

    def test_permutations_uniform_within_3_sigma(self):
        # L = 3, K = 1, n = 3: six permutations, 10**5 draws
        g = ResourceGrid(k=1, l=3)
        rng = np.random.default_rng(123)
        n_draws = 100_000
        counts = {}
        for _ in range(n_draws):
            a = solve_random(g, 3, rng)
            key = tuple(a.subchannel.tolist())
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        p = 1.0 / 6.0
        sigma = math.sqrt(n_draws * p * (1 - p))
        for c in counts.values():
            assert abs(c - n_draws * p) <= 3 * sigma

    def test_always_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(1, 5))
            l = int(rng.integers(1, 9))
            n = int(rng.integers(1, l + 1))
            g = ResourceGrid(k=k, l=l)
            verify_assignment(solve_random(g, n, rng), g)

    def test_too_many_vehicles(self):
        with pytest.raises(InfeasibleError):
            solve_random(ResourceGrid(k=2, l=2), 3, np.random.default_rng(0))


class TestOracle:
    def test_single_vehicle_takes_global_best(self):
        g = ResourceGrid(k=2, l=2)
        a = oracle([[1, 3, 2, 5]], g)
        assert a.subchannel.tolist() == [3]

    def test_reference_case_value(self):
        g = ResourceGrid(k=2, l=2)
        vals = np.array([[1, 3, 2, 5], [4, 1, 2, 2]], dtype=float)
        a = oracle(vals, g)
        total = sum(vals[i, sc] for i, sc in enumerate(a.subchannel))
        assert total == 9.0

    def test_all_equal_weights(self):
        g = ResourceGrid(k=2, l=3)
        a = oracle(np.full((3, 6), 2.5), g)
        total = sum(2.5 for _ in a.subchannel)
        assert total == 3 * 2.5
        verify_assignment(a, g)

    def test_matches_full_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            l = int(rng.integers(1, 5))
            n = int(rng.integers(1, l + 1))
            g = ResourceGrid(k=k, l=l)
            vals = rng.uniform(0, 9, (n, k * l))
            a = oracle(vals, g)
            got = sum(vals[i, sc] for i, sc in enumerate(a.subchannel))
            _, ref = brute_full_optimum(vals, k, l)
            assert np.isclose(got, ref, rtol=1e-12)

    def test_tie_rule_matches_enumeration(self):
        # integer rates keep every sum exact, so the first optimum in
        # (injection, slot tuple) order is the one the oracle must pick
        rng = np.random.default_rng(32)
        for _ in range(40):
            k = int(rng.integers(1, 4))
            l = int(rng.integers(1, 5))
            n = int(rng.integers(1, l + 1))
            vals = rng.integers(0, 3, (n, k * l)).astype(float)
            a = oracle(vals, ResourceGrid(k=k, l=l))
            assert a.subchannel.tolist() == brute_full_optimum(vals, k, l)[0]

    def test_reads_every_row(self):
        # one vehicle per row: the constant second row is a vehicle too
        vals = np.array([[1, 3, 2, 5], [9, 9, 9, 9]], dtype=float)
        a = solve_oracle(Rates(vals), ResourceGrid(k=2, l=2))
        assert a.subchannel.tolist() == [3, 0]

    def test_caps(self):
        with pytest.raises(CapacityError):
            oracle(np.ones((2, 18)), ResourceGrid(k=2, l=9))
        with pytest.raises(CapacityError):
            oracle(np.ones((2, 10)), ResourceGrid(k=5, l=2))


class TestProposed:
    def test_agrees_with_oracle_on_random_instances(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            k = int(rng.integers(1, 4))
            l = int(rng.integers(1, 6))
            g = ResourceGrid(k=k, l=l)
            vals = rng.uniform(0, 9, (l, k * l))
            r = compress(vals.ravel(), k, l)
            a = expand_solution(solve_proposed(r), r)
            got = sum(vals[i, sc] for i, sc in enumerate(a.subchannel))
            b = oracle(vals, g)
            ref = sum(vals[i, sc] for i, sc in enumerate(b.subchannel))
            assert np.isclose(got, ref, rtol=1e-12)
            verify_assignment(a, g)

    def test_dominates_greedy_pointwise(self):
        rng = np.random.default_rng(66)
        for _ in range(40):
            k = int(rng.integers(1, 5))
            l = int(rng.integers(1, 8))
            g = ResourceGrid(k=k, l=l)
            vals = rng.uniform(0, 9, (l, k * l))
            r = compress(vals.ravel(), k, l)
            a = expand_solution(solve_proposed(r), r)
            opt = sum(vals[i, sc] for i, sc in enumerate(a.subchannel))
            gr = solve_greedy(r)
            grd = sum(vals[i, sc] for i, sc in enumerate(gr.subchannel))
            assert opt >= grd - 1e-9

    def test_too_many_vehicles(self):
        with pytest.raises(InfeasibleError):
            solve_proposed(compress(np.zeros(12), 2, 2))

    def test_greedy_beats_random_on_average(self):
        rng = np.random.default_rng(14)
        g = ResourceGrid(k=2, l=6)
        margins = []
        for _ in range(200):
            vals = rng.uniform(0, 9, (6, 12))
            gr = greedy(vals, g)
            ra = solve_random(g, 6, rng)
            margins.append(sum(vals[i, sc] for i, sc in enumerate(gr.subchannel)) -
                           sum(vals[i, sc] for i, sc in enumerate(ra.subchannel)))
        assert np.mean(margins) > 0


class TestVerifyAndEvaluate:
    def test_verify_flags_shared_subframe(self):
        g = ResourceGrid(k=7, l=100)
        from sidesched.solvers import Assignment
        a = Assignment(np.array([3, 5]), "greedy")
        with pytest.raises(ConstraintViolation) as exc:
            verify_assignment(a, g)
        assert "subframe 0" in str(exc.value)

    def test_evaluate_single_vehicle(self):
        a_vals = np.array([[1.0, 2.0]])
        from sidesched.solvers import Assignment
        v, decision_sum = evaluate(Assignment(np.array([1]), "greedy"),
                                   Rates(a_vals), Rates(a_vals))
        assert decision_sum == 2.0
        assert v.sum() == 2.0
        np.testing.assert_array_equal(v, [2.0])

    def test_evaluate_names_the_sum_that_overflows(self):
        both = Assignment(np.array([0, 1]), "greedy")
        huge = Rates([[1e308, 0.0], [0.0, 1e308]])
        ones = Rates([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="^truth sum rate overflows$"):
            evaluate(both, huge, huge)
        with pytest.raises(ValueError, match="^decision sum rate overflows$"):
            evaluate(both, huge, ones)
        # past the unchecked bound n * max <= MAX / 2, but a finite sum
        near = Rates([[1e308, 0.0], [0.0, 1e307]])
        v, decision_sum = evaluate(both, near, near)
        assert decision_sum == 1e308 + 1e307 == float(v.sum())

    def test_evaluate_splits_decision_and_truth(self):
        from sidesched.solvers import Assignment
        dec = Rates([[5.0, 1.0]])
        tru = Rates([[2.0, 3.0]])
        v, decision_sum = evaluate(Assignment(np.array([0]), "greedy"), dec, tru)
        assert decision_sum == 5.0
        assert v.sum() == 2.0
        np.testing.assert_array_equal(v, [2.0])


def verify_by_messages(assignment, grid):
    """``verify_assignment`` without its counting fast path, on a scalar
    subframe map of its own."""
    subchannels = assignment.subchannel.tolist()
    subframes = []
    for sc in subchannels:
        if not 0 <= sc < grid.n_subchannels:
            raise IndexError(
                f"subchannel index {sc} outside [0, {grid.n_subchannels})")
        subframes.append(sc // grid.k)
    clashes = shared_subframes(range(len(subchannels)), subchannels, subframes)
    if clashes:
        raise ConstraintViolation(clashes[0])


def outcome(check, assignment, grid):
    try:
        check(assignment, grid)
    except (ConstraintViolation, IndexError) as exc:
        return type(exc), str(exc)
    return None


class TestVerifyFastPath:
    def test_first_clash_message(self):
        g = ResourceGrid(k=7, l=100)
        # subframe 1 clashes first in vehicle order, then subframe 0
        a = Assignment(np.array([9, 5, 12, 699, 3]), "greedy")
        with pytest.raises(ConstraintViolation) as exc:
            verify_assignment(a, g)
        assert str(exc.value) == (
            "vehicles 0 and 2 share subframe 1 (subchannels 9 and 12)")

    @pytest.mark.parametrize("sc", [700, -1, 10**6])
    def test_out_of_range_raises_index_error(self, sc):
        g = ResourceGrid(k=7, l=100)
        with pytest.raises(IndexError, match=f"subchannel index {sc} outside"):
            verify_assignment(Assignment(np.array([3, sc, 4]), "greedy"), g)

    @pytest.mark.parametrize("subchannels, first", [
        ([3, 700, -1, 4], 700), ([3, -1, 700, 4], -1), ([699, 0, 10**6], 10**6)],
        ids=["above-first", "below-first", "after-the-last-index"])
    def test_first_out_of_range_entry_is_named(self, subchannels, first):
        g = ResourceGrid(k=7, l=100)
        with pytest.raises(IndexError) as exc:
            verify_assignment(Assignment(np.array(subchannels), "greedy"), g)
        assert str(exc.value) == f"subchannel index {first} outside [0, 700)"

    @pytest.mark.parametrize("k, l", [(1, 1), (7, 100), (3, 5), (32, 256)],
                             ids=["k1-l1", "k7-l100", "k3-l5", "k32-l256"])
    def test_each_subframe_owns_k_consecutive_subchannels(self, k, l):
        g = ResourceGrid(k=k, l=l)
        # the first and last slot of one subframe clash ...
        for j in (0, l - 1):
            with pytest.raises(ConstraintViolation,
                               match=f"share subframe {j} "):
                verify_assignment(Assignment(
                    np.array([j * k, j * k + k - 1]), "greedy"), g)
        # ... while the last slot of each subframe and the first of the
        # next lie in different ones, up to the last index of the grid
        verify_assignment(Assignment(np.arange(k - 1, k * l, k), "greedy"), g)
        verify_assignment(Assignment(np.arange(0, k * l, k), "greedy"), g)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 4), l=st.integers(1, 8),
           subchannels=st.lists(st.integers(-2, 34), max_size=10))
    def test_same_outcome_as_the_messages(self, k, l, subchannels):
        g = ResourceGrid(k=k, l=l)
        a = Assignment(np.array(subchannels, dtype=np.int64), "greedy")
        assert outcome(verify_assignment, a, g) == outcome(verify_by_messages, a, g)
