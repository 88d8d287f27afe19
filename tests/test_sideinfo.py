"""Quantizer and rate-map behavior, including the frozen reference points."""

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sidesched.sideinfo import (QuantizerSpec, RateMatrix, _bin_index,
                                build_rate_matrices, quantize, rate_from_sinr)
from util import decision_of


def mp_rate(b_hz, sinr_db):
    """High-precision reference for b_hz * log2(1 + 10**(s/10))."""
    with mpmath.workdps(50):
        s = mpmath.mpf(sinr_db)
        return float(b_hz * mpmath.log(1 + mpmath.mpf(10) ** (s / 10), 2))


class TestQuantize:
    def test_two_bit_midpoint(self):
        q = QuantizerSpec(bits=2, lo_db=-15.0, hi_db=35.0)
        assert q.bin_width_db == 12.5
        assert quantize(q, 0.0) == (1, 3.75)

    def test_one_bit_top_edge_folds_into_last_bin(self):
        q = QuantizerSpec(bits=1, lo_db=-15.0, hi_db=35.0)
        assert quantize(q, 35.0) == (1, 22.5)

    def test_three_bit_clamps_below(self):
        q = QuantizerSpec(bits=3, lo_db=-15.0, hi_db=35.0)
        assert quantize(q, -40.0) == (0, -11.875)

    def test_clamps_above(self):
        q = QuantizerSpec(bits=2, lo_db=-15.0, hi_db=35.0)
        idx, recon = quantize(q, 99.0)
        assert idx == q.levels - 1
        assert recon == 35.0 - q.bin_width_db / 2

    def test_idempotent_on_every_level(self):
        for bits in range(1, 9):
            q = QuantizerSpec(bits=bits, lo_db=-15.0, hi_db=35.0)
            for level in range(q.levels):
                recon = q.lo_db + (level + 0.5) * q.bin_width_db
                idx2, recon2 = quantize(q, recon)
                assert idx2 == level
                assert recon2 == recon

    def test_idempotent_random_inputs(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-60.0, 80.0, 100_000)
        for bits in (1, 3, 8):
            q = QuantizerSpec(bits=bits, lo_db=-15.0, hi_db=35.0)
            _, recon = quantize(q, x)
            _, recon2 = quantize(q, recon)
            np.testing.assert_array_equal(recon2, recon)

    def test_monotone_in_input(self):
        rng = np.random.default_rng(7)
        for bits in (1, 2, 4, 8):
            q = QuantizerSpec(bits=bits, lo_db=-15.0, hi_db=35.0)
            a = rng.uniform(-30, 50, 50_000)
            b = a + rng.uniform(0, 20, a.size)
            ia, ra = quantize(q, a)
            ib, rb = quantize(q, b)
            assert np.all(ib >= ia)
            assert np.all(rb >= ra)

    def test_error_within_half_bin_in_range(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-15.0, 35.0, 100_000)
        for bits in (1, 2, 5, 8):
            q = QuantizerSpec(bits=bits, lo_db=-15.0, hi_db=35.0)
            _, recon = quantize(q, x)
            assert np.max(np.abs(recon - x)) <= q.bin_width_db / 2 + 1e-12

    def test_scalar_types(self):
        q = QuantizerSpec(bits=2)
        idx, recon = quantize(q, 0.0)
        assert isinstance(idx, int)
        assert isinstance(recon, float)

    def test_bin_index_in_place_matches_formula(self):
        # the in-place index against the out-of-place formula, on values
        # inside, outside and exactly at the range edges and bin edges
        rng = np.random.default_rng(11)
        for bits in range(1, 9):
            q = QuantizerSpec(bits=bits, lo_db=-15.0, hi_db=35.0)
            edges = q.lo_db + np.arange(q.levels + 1) * q.bin_width_db
            x = np.concatenate([rng.uniform(-40.0, 60.0, 20_000), edges,
                                np.nextafter(edges, -np.inf),
                                np.nextafter(edges, np.inf), [-1e9, 1e9]])
            before = x.copy()
            ref = np.minimum(np.floor((np.clip(x, q.lo_db, q.hi_db) - q.lo_db)
                                      / q.bin_width_db),
                             q.levels - 1).astype(np.int64)
            idx = _bin_index(q, x)
            np.testing.assert_array_equal(x, before)  # input left unchanged
            assert idx.dtype == np.uint8
            np.testing.assert_array_equal(idx, ref)
            assert int(_bin_index(q, 35.0)) == q.levels - 1
            assert int(_bin_index(q, -15.0)) == 0

    def test_bits_bounds(self):
        with pytest.raises(ValueError):
            QuantizerSpec(bits=0)
        with pytest.raises(ValueError):
            QuantizerSpec(bits=9)
        with pytest.raises(ValueError):
            QuantizerSpec(bits=2, lo_db=5.0, hi_db=5.0)


class TestRateFromSinr:
    def test_zero_db_doubles_the_bandwidth_log(self):
        # log2(1 + 1) = 1 exactly
        assert rate_from_sinr(1.26e6, 0.0) == 1.26e6

    def test_deep_fade_is_essentially_zero(self):
        # 1 + 10**-30 rounds to 1.0 in double precision, so exactly zero
        assert 0 <= rate_from_sinr(1.26e6, -300.0) < 1e-20
        assert rate_from_sinr(1.26e6, -100.0) > 0

    def test_top_of_range_reference_value(self):
        got = rate_from_sinr(1.26e6, 35.0)
        ref = mp_rate(1.26e6, 35.0)
        assert abs(got - ref) <= 1e-12 * ref
        assert abs(got - 14.650278e6) < 1.0  # 50-digit reference, rounded

    def test_strictly_increasing(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-40, 40, 10_000)
        d = rng.uniform(1e-6, 10, a.size)
        assert np.all(rate_from_sinr(1e6, a + d) > rate_from_sinr(1e6, a))

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            rate_from_sinr(0.0, 5.0)


# Finite SINR in dB, reaching well outside every quantizer range drawn below.
SINR_DB = st.floats(-80.0, 130.0, allow_nan=False)
QUANTIZERS = st.builds(
    lambda bits, lo, span: QuantizerSpec(bits=bits, lo_db=lo, hi_db=lo + span),
    st.integers(1, 8), st.floats(-30.0, 10.0), st.floats(1.0, 60.0))


class TestQuantizeProperties:
    @settings(max_examples=60, deadline=None)
    @given(q=QUANTIZERS, x=arrays(float, (4, 9), elements=SINR_DB))
    def test_idempotent_on_reconstruction(self, q, x):
        idx, recon = quantize(q, x)
        assert np.array_equal(quantize(q, recon)[0], idx)

    @settings(max_examples=60, deadline=None)
    @given(q=QUANTIZERS, x=arrays(float, (4, 9), elements=SINR_DB))
    def test_level_table_matches_rate_of_reconstruction(self, q, x):
        dec = decision_of(x, q, 1.26e6)
        assert np.array_equal(dec.values,
                              rate_from_sinr(1.26e6, quantize(q, x)[1]))


@st.composite
def ranges_and_edges(draw):
    """(lo, hi, x): a range with hi - lo >= 1e-3, and values at, and one
    ulp either side of, every 8-bit bin edge, far outside, and at random."""
    lo = draw(st.floats(-100.0, 100.0))
    hi = lo + draw(st.floats(1e-3, 200.0))
    assume(lo < hi)
    edges = lo + np.arange(257) * ((hi - lo) / 256)
    x = np.concatenate([edges, np.nextafter(edges, -np.inf),
                        np.nextafter(edges, np.inf), [-1e9, 1e9, lo, hi],
                        draw(arrays(float, 32, elements=st.floats(-1e9, 1e9)))])
    return lo, hi, x


class TestNestedWidths:
    """Every width's index is the 8-bit index shifted, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(case=ranges_and_edges())
    def test_bin_index_equals_out_of_place_formula(self, case):
        lo, hi, x = case
        for bits in range(1, 9):
            q = QuantizerSpec(bits=bits, lo_db=lo, hi_db=hi)
            ref = np.minimum(np.floor((np.clip(x, lo, hi) - lo) / q.bin_width_db),
                             q.levels - 1)
            idx = _bin_index(q, x)
            assert idx.dtype == np.uint8
            np.testing.assert_array_equal(idx, ref)

    def test_quantize_returns_int64(self):
        q = QuantizerSpec(bits=3)
        idx, recon = quantize(q, np.array([[-40.0, 0.0], [35.0, 99.0]]))
        assert idx.dtype == np.int64
        np.testing.assert_array_equal(idx, [[0, 2], [7, 7]])
        assert recon.dtype == np.float64


class TestBuildRateMatrices:
    def test_ideal_pair_is_bitwise_equal(self):
        rng = np.random.default_rng(1)
        tru = RateMatrix(0, rate_from_sinr(1.26e6, rng.uniform(-15, 35, (4, 8))))
        dec = build_rate_matrices(tru, None, 1.26e6, None)
        assert np.array_equal(dec.values, tru.values)
        assert dec.values is tru.values

    def test_single_entry_quantized(self):
        q = QuantizerSpec(bits=2, lo_db=-15.0, hi_db=35.0)
        dec = decision_of(np.array([[10.0]]), q, 1.26e6)
        assert dec.values[0, 0] == rate_from_sinr(1.26e6, 16.25)

    def test_eight_bit_gap_bounded_by_slope(self):
        # |rate(recon) - rate(s)| <= max slope * half bin width; the slope
        # of the rate map grows with SINR, so the top of range bounds it
        rng = np.random.default_rng(5)
        sinr = rng.uniform(-15, 35, (20, 50))
        q = QuantizerSpec(bits=8, lo_db=-15.0, hi_db=35.0)
        dec = decision_of(sinr, q, 1.26e6)
        half_bin = q.bin_width_db / 2
        assert abs(half_bin - 0.09765625) < 1e-12
        eps = 1e-6
        slope_top = (rate_from_sinr(1.26e6, 35.0) -
                     rate_from_sinr(1.26e6, 35.0 - eps)) / eps
        tru = rate_from_sinr(1.26e6, sinr)
        assert np.max(np.abs(dec.values - tru)) <= slope_top * half_bin

    def test_rates_non_negative(self):
        rng = np.random.default_rng(9)
        sinr = rng.uniform(-15, 35, (5, 10))
        assert rate_from_sinr(2e6, sinr).min() >= 0
        for q in (None, QuantizerSpec(bits=3)):
            assert decision_of(sinr, q, 2e6).values.min() >= 0

    def test_rate_matrix_rejects_negative(self):
        with pytest.raises(ValueError):
            RateMatrix(0, np.array([[-1.0]]))
