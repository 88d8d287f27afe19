"""Linear SINR quantization and the SINR-to-rate mapping.

Assignments are decided on quantized reconstructions but judged on the
fine-grained SINR. The quantizer is uniform over a dB range with
midpoint reconstruction; bin width is (hi - lo) / 2**bits. Both rate
types hold the SINR and key every entry they read by ``key_of(sinr)``,
rated by a ``rate(key)`` that increases with it: the SINR itself and
``rate_from_sinr`` (``FineRates``), or the bin index and the 2**bits
level rates (``QuantizedRates``). So a table of key block maxima, mapped
through ``rate``, is the table of rate block maxima, and only the
entries read are rated. (SINRs an ulp apart may round to one rate; the
table then keeps the larger SINR's slot.)

Widths nest: the b-bit index of a value is its 8-bit index shifted right
by 8 - b, bit for bit. The b-bit bin width is the 8-bit one times the
power of two 2**(8 - b), and correctly rounded division commutes with
power-of-two scaling, so the b-bit quotient is the 8-bit quotient over
2**(8 - b) exactly (a quotient below 1 floors to 0 at every width);
floor(y / 2**s) is floor(y) >> s for y >= 0; the top-edge fold of 256
to 255 shifts to 2**b - 1; and max(x - lo, 0) agrees with
clip(x, lo, hi) - lo on the range, is 0 below it and reaches 256 bins
above it either way. The index and a shift are non-decreasing, so the
index of a block's SINR maximum is its largest index at every width: a
width's table is its own index of the N x L SINR block maxima.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform b-bit quantizer over [lo_db, hi_db]."""

    bits: int
    lo_db: float = -15.0
    hi_db: float = 35.0

    def __post_init__(self):
        ordered = self.lo_db < self.hi_db
        require(bits=1 <= self.bits <= 8, lo_db=ordered, hi_db=ordered)

    @property
    def levels(self) -> int:
        return 2 ** self.bits

    @property
    def bin_width_db(self) -> float:
        return (self.hi_db - self.lo_db) / self.levels


def _bin_index(q: QuantizerSpec, sinr_db) -> np.ndarray:
    """The uint8 b-bit index: the top ``q.bits`` bits of the 8-bit index
    over q's range; see the module notes."""
    x = np.maximum(np.subtract(sinr_db, q.lo_db, dtype=float), 0.0)
    # truncation is floor on non-negative values
    fine = np.minimum(x / ((q.hi_db - q.lo_db) / 256), 255.0).astype(np.uint8)
    return fine >> (8 - q.bits)


def _reconstruct(q: QuantizerSpec, idx) -> np.ndarray:
    return q.lo_db + (idx + 0.5) * q.bin_width_db


def quantize(q: QuantizerSpec, sinr_db):
    """Map SINR to (bin index, midpoint reconstruction in dB).

    Values are clamped to [lo, hi] first; the top edge folds into the
    last bin. Scalar in gives (int, float) out, arrays are elementwise.
    """
    idx = np.asarray(_bin_index(q, sinr_db), dtype=np.int64)
    recon = _reconstruct(q, idx)
    if np.ndim(sinr_db) == 0:
        return int(idx), float(recon)
    return idx, recon


def rate_from_sinr(b_hz: float, sinr_db):
    """Achievable rate b_hz * log2(1 + linear SINR), in bits/s."""
    if b_hz <= 0:
        raise ValueError("b_hz must be positive")
    rate = b_hz * np.log2(1.0 + 10.0 ** (np.asarray(sinr_db, dtype=float) / 10.0))
    if np.ndim(sinr_db) == 0:
        return float(rate)
    return rate


class _KeyedRates:
    """Rates, in bits/s, of each SINR's key ``key_of(sinr)``, rated where read."""

    @property
    def key(self) -> np.ndarray:
        return self.key_of(self.sinr)

    @property
    def values(self) -> np.ndarray:
        """The float rate matrix, built on each access."""
        return self.rate(self.key)

    def at(self, rows, cols) -> np.ndarray:
        """Rates of the (rows[i], cols[i]) entries."""
        return self.rate(self.key_of(self.sinr[rows, cols]))


@dataclass(frozen=True)
class FineRates(_KeyedRates):
    """Fine-grained rates: the key is the SINR in dB itself."""

    sinr: np.ndarray  # (N, K*L) SINR in dB
    b_hz: float

    def __post_init__(self):
        # rate increases with SINR: the largest SINR's rate bounds them all
        with np.errstate(over="ignore"):
            if not np.isfinite(self.rate(self.sinr.max())):
                raise ValueError("rates must be finite")

    def key_of(self, sinr_db):
        return sinr_db

    def rate(self, key):
        return rate_from_sinr(self.b_hz, key)


@dataclass(frozen=True)
class QuantizedRates(_KeyedRates):
    """Quantized decision rates: the key of an entry is its uint8 level
    index under ``q``, taken from the SINR where it is read, and rated
    per level from a table that ``level_rates`` made and checked."""

    sinr: np.ndarray         # (N, K*L) SINR in dB, the truth's own array
    q: QuantizerSpec
    level_rates: np.ndarray  # (2**bits,) rate of each reconstruction level

    def __post_init__(self):
        if np.ndim(self.sinr) != 2 or np.shape(self.level_rates) != (self.q.levels,):
            raise ValueError("need a 2-D SINR matrix and 2**bits level rates")

    def key_of(self, sinr_db):
        return _bin_index(self.q, sinr_db)

    def rate(self, key):
        return self.level_rates.take(key)


def level_rates(q: QuantizerSpec, b_hz: float) -> np.ndarray:
    """The rate of each of the 2**bits reconstruction levels of ``q``, by
    the float expression ``quantize`` applies per entry, bit for bit.

    A run makes each width's table once and every draw's decision at that
    width shares it. Raises ValueError unless the rates are finite,
    non-negative and strictly increasing (``_check_level_rates``).
    """
    with np.errstate(over="ignore"):  # an overflow is an inf rate, rejected
        rates = rate_from_sinr(b_hz, _reconstruct(q, np.arange(q.levels)))
    _check_level_rates(rates)
    return rates


def _check_level_rates(rates: np.ndarray) -> None:
    """The rule of a level table: the largest key has the largest rate
    only while rates increase."""
    if not (np.all(np.isfinite(rates) & (rates >= 0))
            and np.all(np.diff(rates) > 0)):
        raise ValueError("level rates must be finite, non-negative and "
                         "strictly increasing")


def build_rate_matrices(truth: FineRates, q: QuantizerSpec | None,
                        levels: np.ndarray | None):
    """The decision rates of one cluster under the quantizer ``q``.

    The decision is what the scheduler sees: rates of the quantized
    reconstructions, or the fine-grained ``truth`` itself, not a copy,
    when ``q`` is None (ideal feedback). ``levels`` is q's table of 2**b
    level rates (``level_rates``). A quantized decision keeps the SINR
    array behind ``truth``, not a copy, and takes the level index of an
    entry only where it is read: no N x KL index or float matrix is made.
    """
    if q is None:
        return truth
    return QuantizedRates(truth.sinr, q, levels)
