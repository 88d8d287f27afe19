"""Constraint structure, block compression, and solution expansion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypothesis.extra.numpy import arrays

from sidesched.assignment import compress, expand_solution
from sidesched.errors import ConstraintViolation, ShapeError
from sidesched.grid import ResourceGrid
from sidesched.sideinfo import QuantizerSpec
from sidesched.solvers import verify_assignment
from util import (assignment_to_x, brute_full_optimum, brute_max_matching,
                  build_constraint_matrix, decision_of, slot_table)


class TestConstraintMatrix:
    def test_k1_l2_rows(self):
        a = build_constraint_matrix(1, 2)
        np.testing.assert_array_equal(a, [[1, 1, 0, 0],
                                          [0, 0, 1, 1],
                                          [1, 0, 1, 0],
                                          [0, 1, 0, 1]])

    def test_k2_l1_single_cell(self):
        a = build_constraint_matrix(2, 1)
        np.testing.assert_array_equal(a, [[1, 1], [1, 1]])

    def test_k2_l2_column_membership(self):
        # vehicle 1 on global subchannel 3 (subframe 1, slot 1) must appear
        # in vehicle row 1 and subframe row L + 1
        a = build_constraint_matrix(2, 2)
        col = a[:, 1 * 4 + 3]
        np.testing.assert_array_equal(col, [0, 1, 0, 1])

    def test_every_column_has_two_ones(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            k = int(rng.integers(1, 5))
            l = int(rng.integers(1, 7))
            a = build_constraint_matrix(k, l)
            assert a.shape == (2 * l, k * l * l)
            assert np.all(a.sum(axis=0) == 2)
            assert np.all(a[:l].sum(axis=0) == 1)
            assert np.all(a[l:].sum(axis=0) == 1)

    def test_row_sums_are_kl(self):
        a = build_constraint_matrix(3, 4)
        assert np.all(a.sum(axis=1) == 12)

    def test_feasible_x_satisfies_rows(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            l = int(rng.integers(1, 6))
            a = build_constraint_matrix(k, l)
            frames = rng.permutation(l)
            subchannel = [int(frames[i]) * k + int(rng.integers(0, k))
                          for i in range(l)]
            x = assignment_to_x(subchannel, k, l)
            assert np.all(a @ x == 1)

    def test_linear_cost_identity(self):
        # c'x equals x' diag(c) x on binary x
        rng = np.random.default_rng(3)
        k, l = 2, 3
        c = rng.normal(size=k * l * l)
        frames = rng.permutation(l)
        subchannel = [int(frames[i]) * k + int(rng.integers(0, k)) for i in range(l)]
        x = assignment_to_x(subchannel, k, l)
        assert np.isclose(c @ x, x @ np.diag(c) @ x)

    def test_one_sided_pseudo_inverse(self):
        # (1/K) * ones(1,K) left-inverts the K-fold duplication ones(K,1),
        # the convention used to read macro choices back out of blocks
        for k in (1, 2, 5):
            ones = np.ones((k, 1))
            pinv = np.ones((1, k)) / k
            np.testing.assert_allclose(pinv @ ones, [[1.0]])


class TestCompress:
    def test_reference_blocks(self):
        r = compress([1, 3, 2, 5, 4, 1, 2, 2], 2, 2)
        np.testing.assert_array_equal(r.d, [[3, 5], [4, 2]])
        np.testing.assert_array_equal(slot_table(r), [[1, 1], [0, 0]])

    def test_tie_takes_lowest_slot(self):
        r = compress([7.0, 7.0], 2, 1)
        assert r.d[0, 0] == 7.0
        assert r.slots(np.array([0])).tolist() == [0]
        r = compress([2.0, 5.0, 5.0], 3, 1)
        assert (r.d[0, 0], *r.slots(np.array([0]))) == (5.0, 1)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3), k=st.integers(1, 5), l=st.integers(1, 4),
           data=st.data())
    def test_float_blocks_take_the_first_maximal_slot_bit_for_bit(
            self, n, k, l, data):
        # -0.0 == 0.0, so a block's value is the first maximal entry with
        # its own sign bit, against a per-block Python reference
        c = data.draw(arrays(float, n * l * k, elements=st.sampled_from(
            [-1.5, -0.0, 0.0, 2.0])))
        r = compress(c, k, l)
        blocks = c.reshape(n * l, k).tolist()
        slots = [b.index(max(b)) for b in blocks]  # max keeps the first of equals
        values = np.array([b[s] for b, s in zip(blocks, slots)])
        assert slot_table(r).dtype == np.int64
        assert slot_table(r).ravel().tolist() == slots
        assert r.d.tobytes() == values.tobytes()

    def test_k1_is_identity(self):
        c = np.arange(9, dtype=float)
        r = compress(c, 1, 3)
        np.testing.assert_array_equal(r.d, c.reshape(3, 3))
        assert np.all(slot_table(r) == 0)

    def test_softened_close_to_exact(self):
        r_exact = compress([1, 3, 2, 5, 4, 1, 2, 2], 2, 2)
        r_soft = compress([1, 3, 2, 5, 4, 1, 2, 2], 2, 2, beta=50.0)
        assert np.max(np.abs(r_soft.d - r_exact.d)) <= 0.05
        np.testing.assert_array_equal(slot_table(r_soft), slot_table(r_exact))

    def test_softening_bound_random(self):
        # 0 <= lse - max <= ln(K)/beta, elementwise
        rng = np.random.default_rng(17)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            l = int(rng.integers(1, 6))
            beta = float(rng.uniform(5.0, 2000.0))
            c = rng.normal(0, 3, k * l * l)
            gap = compress(c, k, l, beta=beta).d - compress(c, k, l).d
            assert np.min(gap) >= 0.0
            assert np.max(gap) <= np.log(k) / beta * (1 + 1e-9) + 1e-15

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            compress([np.inf, 1.0], 2, 1)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            compress([1.0, 2.0], 2, 1, beta=0.0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ShapeError):
            compress([1.0, 2.0, 3.0], 2, 2)

    def test_one_row_per_vehicle(self):
        # N < L vehicles give an N x L table, on the float and integer routes
        for c in ([1.0, 3.0, 2.0, 5.0], np.array([1, 3, 2, 5], np.uint8)):
            r = compress(c, 2, 2)
            np.testing.assert_array_equal(r.d, [[3, 5]])
            np.testing.assert_array_equal(slot_table(r), [[1, 1]])
        with pytest.raises(ShapeError):
            compress([], 2, 2)


@st.composite
def keyed_decisions(draw):
    """(decision, k, l): a quantized decision of SINR at, and one ulp
    around, every bin edge, or an ideal one of SINR on a quarter-dB grid,
    with some rows constant across the window.

    ``rate_from_sinr`` rounds SINRs a few ulps apart to one rate in about
    half of all cases; the key table then keeps the larger SINR's slot,
    whose rate is the same, so the ideal arm draws keys that rate apart.
    """
    bits = draw(st.integers(0, 8))
    q = QuantizerSpec(bits=bits or 1)
    k, l = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    edges = q.lo_db + np.arange(q.levels + 1) * q.bin_width_db
    near = np.concatenate([edges, np.nextafter(edges, -np.inf),
                           np.nextafter(edges, np.inf)])
    values = (st.one_of(st.sampled_from(near.tolist()), st.floats(-40.0, 60.0))
              if bits else st.integers(-160, 240).map(lambda i: i / 4))
    sinr = draw(arrays(float, (l, k * l), elements=values))
    constant = np.array(draw(st.lists(st.booleans(), min_size=l, max_size=l)))
    sinr[constant] = sinr[constant, :1]
    return decision_of(sinr, q if bits else None, 1.26e6), k, l


class TestCompressLevelIndices:
    """Block tables of a decision's keys, an SINR or a level index: the
    keys are compressed as floats, so rating them back after a cast to
    their own dtype gives the table of rates, at the same slots."""

    @settings(max_examples=150, deadline=None)
    @given(case=keyed_decisions())
    def test_rate_of_the_key_table_equals_the_table_of_rates(self, case):
        decision, k, l = case
        keyed = compress(decision.key.ravel(), k, l)
        ref = compress(decision.values.ravel(), k, l)
        got = decision.rate(keyed.d.astype(decision.key.dtype))
        assert got.dtype == ref.d.dtype == np.float64
        assert got.tobytes() == ref.d.tobytes()
        assert slot_table(keyed).dtype == slot_table(ref).dtype == np.int64
        np.testing.assert_array_equal(slot_table(keyed), slot_table(ref))

    @pytest.mark.parametrize("k, l, dtype", [(200, 2, np.int64),
                                             (7, 9, np.uint8)],
                             ids=["keys-above-int16", "uint8-k7"])
    def test_narrow_keys_equal_float_route(self, k, l, dtype):
        # 256 levels, as int64 keys in blocks of 200 slots and as uint8
        # keys in blocks of 7: every level and every slot tie is present
        rng = np.random.default_rng(4)
        idx = rng.integers(0, 256, k * l * l).astype(dtype)
        idx[:k] = 255
        idx[k:2 * k] = np.arange(k) % 256
        got = compress(idx, k, l)
        ref = compress(idx.astype(np.float64), k, l)
        assert got.d.dtype == got.keys.dtype == np.float64
        np.testing.assert_array_equal(got.d, idx.reshape(l, l, k).max(axis=2))
        assert got.d.tobytes() == ref.d.tobytes()
        assert got.keys.tobytes() == ref.keys.tobytes()
        assert slot_table(got).dtype == slot_table(ref).dtype == np.int64
        np.testing.assert_array_equal(slot_table(got), slot_table(ref))


class TestExpandSolution:
    def test_reference_expansion(self):
        r = compress([1, 3, 2, 5, 4, 1, 2, 2], 2, 2)
        a = expand_solution(np.array([1, 0]), r)
        assert a.subchannel.dtype == np.int64
        assert a.subchannel.tolist() == [3, 0]

    def test_k1_passthrough(self):
        r = compress(np.arange(4, dtype=float), 1, 2)
        a = expand_solution(np.array([0, 1]), r)
        assert a.subchannel.tolist() == [0, 1]

    def test_rejects_duplicate_subframe(self):
        # the expansion checks nothing; verify_assignment finds the clash
        r = compress(np.arange(8, dtype=float), 2, 2)
        a = expand_solution(np.array([1, 1]), r)
        with pytest.raises(ConstraintViolation):
            verify_assignment(a, ResourceGrid(k=2, l=2))

    def test_accepts_injections_only(self):
        # vehicles 0..N-1 onto distinct subframes of 0..L-1, for any N <= L.
        # An array names each vehicle once, so only a subframe can be wrong.
        r = compress(np.arange(18, dtype=float), 2, 3)
        g = ResourceGrid(k=2, l=3)
        a = expand_solution(np.array([2]), r)
        verify_assignment(a, g)
        assert a.subchannel.tolist() == [5]
        with pytest.raises(ConstraintViolation):
            verify_assignment(expand_solution(np.array([0, 1, 1]), r), g)
        # subframe -1 lands on a negative subchannel
        with pytest.raises(IndexError, match="subchannel index -1 outside"):
            verify_assignment(expand_solution(np.array([-1]), r), g)
        for too_high in (3, 4):  # the gather itself fails
            with pytest.raises(IndexError):
                expand_solution(np.array([0, too_high]), r)


class TestCompressionLossless:
    def test_matches_full_enumeration(self):
        # optimum of the reduced square problem == optimum over the entire
        # feasible set, slot tuples enumerated explicitly
        rng = np.random.default_rng(99)
        for _ in range(40):
            k = int(rng.integers(1, 4))
            l = int(rng.integers(1, 5))
            vals = rng.uniform(0, 10, (l, k * l))
            _, full_best = brute_full_optimum(vals, k, l)
            r = compress(vals.ravel(), k, l)
            _, red_best = brute_max_matching(r.d)
            assert np.isclose(full_best, red_best, rtol=1e-12)

    def test_expanded_solution_is_feasible_and_matches_value(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            k = int(rng.integers(1, 4))
            l = int(rng.integers(2, 5))
            vals = rng.uniform(0, 10, (l, k * l))
            r = compress(vals.ravel(), k, l)
            mapping, red_best = brute_max_matching(r.d)
            a = expand_solution(mapping, r)
            x = assignment_to_x(a.subchannel, k, l)
            assert np.all(build_constraint_matrix(k, l) @ x == 1)
            value = sum(vals[i, sc] for i, sc in enumerate(a.subchannel))
            assert np.isclose(value, red_best, rtol=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(k=st.integers(1, 8), l=st.integers(1, 12), levels=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_compress_is_lossless(self, k, l, levels, seed):
        # few distinct values, so blocks are full of ties
        rng = np.random.default_rng(seed)
        vals = rng.integers(0, levels, (l, k * l)) * 1.26e6 + 0.5
        r = compress(vals.ravel(), k, l)
        blocks = vals.reshape(l, l, k)
        np.testing.assert_array_equal(r.d, blocks.max(axis=2))
        # the stored slot attains the maximum, and no lower slot does
        slots = slot_table(r)
        picked = np.take_along_axis(blocks, slots[..., None], 2)[..., 0]
        np.testing.assert_array_equal(picked, r.d)
        for i, f in np.ndindex(l, l):
            assert np.all(blocks[i, f, :slots[i, f]] < r.d[i, f])
        # any bijection keeps its sum through expansion
        perm = rng.permutation(l)
        a = expand_solution(perm, r)
        assert sum(vals[i, sc] for i, sc in enumerate(a.subchannel)) == \
            sum(r.d[i, perm[i]] for i in range(l))
