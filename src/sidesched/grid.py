"""Sidelink time-frequency grid and semi-persistent reservation timing.

The allotable spectrum is a lattice of K subchannels per subframe over L
subframes, repeating every scheduling window. Global subchannel indices
are zero-based and row-major over (subframe, in-subframe slot), so index
k lives in subframe k // K. One-based labels, where an external data
source uses them, are converted at I/O boundaries only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import require

#: Reservation durations (seconds) a scheduler may grant, per Release 14.
DEFAULT_T_SPS_POOL_S = (1.0, 4.0, 8.0)


@dataclass(frozen=True)
class ResourceGrid:
    """Immutable lattice geometry: ``k`` subchannels per subframe, ``l`` subframes."""

    k: int = 7           # subchannels per subframe
    l: int = 100         # subframes per scheduling window
    t_ms: float = 1.0    # subframe duration
    b_hz: float = 1.26e6  # bandwidth of one subchannel

    def __post_init__(self):
        require(k=self.k >= 1, l=self.l >= 1, t_ms=self.t_ms > 0,
                b_hz=self.b_hz > 0)

    @property
    def n_subchannels(self) -> int:
        """Total subchannels in one window."""
        return self.k * self.l

    @property
    def window_ms(self) -> float:
        return self.t_ms * self.l


def subframe_of(grid: ResourceGrid, k: int) -> int:
    """Subframe owning global subchannel index ``k``.

    Consecutive runs of ``grid.k`` indices share a subframe, which
    partitions the index range into ``grid.l`` disjoint blocks.
    """
    if not 0 <= k < grid.n_subchannels:
        raise IndexError(
            f"subchannel index {k} outside [0, {grid.n_subchannels})")
    return k // grid.k


def draw_t_sps(rng, pool=DEFAULT_T_SPS_POOL_S) -> float:
    """Uniform draw of a reservation duration from the pool."""
    if not pool:
        raise ValueError("t_sps pool must be non-empty")
    return float(pool[int(rng.integers(0, len(pool)))])
