"""Sidelink time-frequency grid.

The allotable spectrum is a lattice of K subchannels per subframe over L
subframes, repeating every scheduling window. Global subchannel indices
are zero-based and row-major over (subframe, in-subframe slot), so index
k lives in subframe k // K. One-based labels, where an external data
source uses them, are converted at I/O boundaries only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import require


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
