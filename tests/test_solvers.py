"""Solver behavior: reference cases, distributions, dominance, feasibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sidesched.assignment import compress, expand_solution
from sidesched.errors import CapacityError, ConstraintViolation, InfeasibleError
from sidesched.grid import ResourceGrid, subframe_of
from sidesched.sideinfo import RateMatrix
from sidesched.solvers import (Assignment, evaluate, shared_subframes,
                               solve_greedy, solve_oracle, solve_proposed,
                               solve_random, verify_assignment)
from util import brute_full_optimum, greedy_full_matrix


def rates(vals):
    return RateMatrix(0, np.asarray(vals, dtype=float))


def greedy(vals, g):
    """Greedy on the block table of ``vals``, padded to L rows with zeros."""
    vals = np.asarray(vals, dtype=float)
    padded = np.zeros((g.l, g.n_subchannels))
    padded[:len(vals)] = vals
    return solve_greedy(compress(padded.ravel(), g.k, g.l), len(vals))


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
            solve_greedy(compress(np.ones(8), g.k, g.l), 3)

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
        a = solve_oracle(rates([[1, 3, 2, 5]]), g)
        assert a.subchannel.tolist() == [3]

    def test_reference_case_value(self):
        g = ResourceGrid(k=2, l=2)
        vals = np.array([[1, 3, 2, 5], [4, 1, 2, 2]], dtype=float)
        a = solve_oracle(rates(vals), g)
        total = sum(vals[i, sc] for i, sc in enumerate(a.subchannel))
        assert total == 9.0

    def test_all_equal_weights(self):
        g = ResourceGrid(k=2, l=3)
        a = solve_oracle(rates(np.full((3, 6), 2.5)), g)
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
            a = solve_oracle(rates(vals), g)
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
            a = solve_oracle(rates(vals), ResourceGrid(k=k, l=l))
            assert a.subchannel.tolist() == brute_full_optimum(vals, k, l)[0]

    def test_caps(self):
        with pytest.raises(CapacityError):
            solve_oracle(rates(np.ones((2, 18))), ResourceGrid(k=2, l=9))
        with pytest.raises(CapacityError):
            solve_oracle(rates(np.ones((2, 10))), ResourceGrid(k=5, l=2))


class TestProposed:
    def test_agrees_with_oracle_on_random_instances(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            k = int(rng.integers(1, 4))
            l = int(rng.integers(1, 6))
            g = ResourceGrid(k=k, l=l)
            vals = rng.uniform(0, 9, (l, k * l))
            r = compress(vals.ravel(), k, l)
            a = expand_solution(solve_proposed(r, l), r)
            got = sum(vals[i, sc] for i, sc in enumerate(a.subchannel))
            b = solve_oracle(rates(vals), g)
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
            a = expand_solution(solve_proposed(r, l), r)
            opt = sum(vals[i, sc] for i, sc in enumerate(a.subchannel))
            gr = solve_greedy(r, l)
            grd = sum(vals[i, sc] for i, sc in enumerate(gr.subchannel))
            assert opt >= grd - 1e-9

    def test_too_many_vehicles(self):
        with pytest.raises(InfeasibleError):
            solve_proposed(compress(np.zeros(8), 2, 2), 3)

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
        a = Assignment(0, np.array([3, 5]), "greedy")
        with pytest.raises(ConstraintViolation) as exc:
            verify_assignment(a, g)
        assert "subframe 0" in str(exc.value)

    def test_evaluate_single_vehicle(self):
        a_vals = np.array([[1.0, 2.0]])
        from sidesched.solvers import Assignment
        stats, v = evaluate(Assignment(0, np.array([1]), "greedy"),
                            rates(a_vals), rates(a_vals))
        assert stats.sum_rate_decision_bps == 2.0
        assert stats.sum_rate_truth_bps == 2.0
        np.testing.assert_array_equal(v, [2.0])

    def test_evaluate_splits_decision_and_truth(self):
        from sidesched.solvers import Assignment
        dec = rates([[5.0, 1.0]])
        tru = rates([[2.0, 3.0]])
        stats, v = evaluate(Assignment(0, np.array([0]), "greedy"), dec, tru)
        assert stats.sum_rate_decision_bps == 5.0
        assert stats.sum_rate_truth_bps == 2.0
        np.testing.assert_array_equal(v, [2.0])


def verify_by_messages(assignment, grid):
    """``verify_assignment`` without its counting fast path."""
    subchannels = assignment.subchannel.tolist()
    clashes = shared_subframes(range(len(subchannels)), subchannels,
                               [subframe_of(grid, sc) for sc in subchannels])
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
        a = Assignment(0, np.array([9, 5, 12, 699, 3]), "greedy")
        with pytest.raises(ConstraintViolation) as exc:
            verify_assignment(a, g)
        assert str(exc.value) == (
            "vehicles 0 and 2 share subframe 1 (subchannels 9 and 12)")

    @pytest.mark.parametrize("sc", [700, -1, 10**6])
    def test_out_of_range_raises_index_error(self, sc):
        g = ResourceGrid(k=7, l=100)
        with pytest.raises(IndexError, match=f"subchannel index {sc} outside"):
            verify_assignment(Assignment(0, np.array([3, sc, 4]), "greedy"), g)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 4), l=st.integers(1, 8),
           subchannels=st.lists(st.integers(-2, 34), max_size=10))
    def test_same_outcome_as_the_messages(self, k, l, subchannels):
        g = ResourceGrid(k=k, l=l)
        a = Assignment(0, np.array(subchannels, dtype=np.int64), "greedy")
        assert outcome(verify_assignment, a, g) == outcome(verify_by_messages, a, g)
