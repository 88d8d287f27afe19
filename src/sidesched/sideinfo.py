"""Linear SINR quantization and the SINR-to-rate mapping.

Assignments are decided on a decision matrix of quantized reconstructions
but judged on the truth matrix of fine-grained values.
The quantizer is uniform over a dB range with midpoint reconstruction;
bin width is (hi - lo) / 2**bits. A quantized decision is a bin index per
entry plus the rates of the 2**bits reconstruction levels
(``QuantizedRates``); its float matrix is built only on demand.

Widths nest: the b-bit index of a value is its 8-bit index shifted right
by 8 - b, bit for bit. The b-bit bin width is the 8-bit one times the
power of two 2**(8 - b), and correctly rounded division commutes with
power-of-two scaling, so the b-bit quotient is the 8-bit quotient over
2**(8 - b) exactly (a quotient below 1 floors to 0 at every width);
floor(y / 2**s) is floor(y) >> s for y >= 0; the top-edge fold of 256
to 255 shifts to 2**b - 1; and max(x - lo, 0) agrees with
clip(x, lo, hi) - lo on the range, is 0 below it and reaches 256 bins
above it either way. So a value is quantized once, at 8 bits, and every
width reads that one index.
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


def _fine_index(lo_db: float, hi_db: float, sinr_db) -> np.ndarray:
    """The uint8 8-bit bin index over [lo_db, hi_db]; see the module notes."""
    x = np.subtract(sinr_db, lo_db, out=np.empty(np.shape(sinr_db)), dtype=float)
    np.maximum(x, 0.0, out=x)
    x /= (hi_db - lo_db) / 256
    np.minimum(x, 255.0, out=x)
    return x.astype(np.uint8)  # truncation is floor on non-negative values


def _bin_index(q: QuantizerSpec, sinr_db) -> np.ndarray:
    """The uint8 b-bit index: the top ``q.bits`` bits of the 8-bit one."""
    return _fine_index(q.lo_db, q.hi_db, sinr_db) >> (8 - q.bits)


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


@dataclass
class RateMatrix:
    """Per-(vehicle, subchannel) rates in bits/s; non-negative and finite."""

    cluster_id: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError(f"rate matrix must be 2-D, got ndim={self.values.ndim}")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValueError("rates must be finite and non-negative")

    def at(self, rows, cols) -> np.ndarray:
        """Rates of the (rows[i], cols[i]) entries."""
        return self.values[rows, cols]


@dataclass
class QuantizedRates:
    """Quantized decision rates: a level index per (vehicle, subchannel)
    and the rate of each level, in bits/s.

    Only the 2**bits level rates are checked; the indices come from
    ``_bin_index`` and lie in range by construction.
    """

    cluster_id: int
    idx: np.ndarray          # (N, K*L) uint8 level indices
    level_rates: np.ndarray  # (2**bits,) rate of each reconstruction level

    def __post_init__(self):
        self.level_rates = np.asarray(self.level_rates, dtype=float)
        if np.ndim(self.idx) != 2 or self.level_rates.ndim != 1:
            raise ValueError("need a 2-D index matrix and a 1-D level table")
        if not np.all(np.isfinite(self.level_rates)) or np.any(self.level_rates < 0):
            raise ValueError("rates must be finite and non-negative")

    @property
    def values(self) -> np.ndarray:
        """The float decision matrix, built on each access."""
        return self.level_rates[self.idx]

    def at(self, rows, cols) -> np.ndarray:
        """Rates of the (rows[i], cols[i]) entries."""
        return self.level_rates[self.idx[rows, cols]]


def build_rate_matrices(truth: RateMatrix, q: QuantizerSpec | None, b_hz: float,
                        fine: np.ndarray | None):
    """The decision rates of one cluster at the width of ``q``.

    The decision matrix is what the scheduler sees: rates of the
    quantized reconstructions, or the fine-grained ``truth`` itself, not
    a copy, when ``q`` is None (ideal feedback). ``fine`` is the 8-bit
    index of the SINR behind ``truth`` over the range of ``q``
    (``_fine_index``); it is shifted to the width of ``q``, and is not
    read when ``q`` is None.

    A quantized decision is a ``QuantizedRates``: the bin index of every
    entry and the rates of the 2**bits reconstruction levels. Each level
    comes from the same float expression ``quantize`` applies per entry,
    so ``level_rates[idx]`` equals the rate of the reconstruction bit for
    bit, and no N x KL float matrix is built.
    """
    if q is None:
        return truth
    level_rates = rate_from_sinr(b_hz, _reconstruct(q, np.arange(q.levels)))
    return QuantizedRates(truth.cluster_id, fine >> (8 - q.bits), level_rates)
