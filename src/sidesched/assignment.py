"""Block reduction of the constrained per-cluster matching problem.

The full problem pairs N <= L vehicles with the K*L subchannels of a
window under two constraint families: every vehicle takes exactly one
subchannel, and every subframe serves at most one vehicle. Since a
subframe admits a single vehicle, only that vehicle's best in-subframe
slot can appear in an optimum, so each K-wide block collapses to one
macro choice. That leaves an N x L table of block maxima; matching on
the table and expanding each vehicle's picked block to a slot attaining
its maximum (``expand_solution``) loses nothing of the sum rate. A slot
is looked up only for the N picked blocks (``ReducedProblem.slots``). The
expansion is an ``Assignment`` array of subchannels, checked like every
other method's assignment, by ``solvers.verify_assignment``.

Cost vectors are vehicle-major: entry i*(K*L) + k is vehicle i on global
subchannel k, with k = l*K + slot. They hold rates, or the SINRs a
decision keys its entries by (``sideinfo``): a rate increases with its
key (``key_of``), so the key table mapped to rates is the rate table,
at the same slots.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .solvers import Assignment


@dataclass(frozen=True)
class ReducedProblem:
    """Block table after per-subframe compression, one row per vehicle;
    ``pipeline.draw_rates`` pads ``d`` to (L, L) for the matching kernel
    and keys its slots by its decision's ``key_of``."""

    d: np.ndarray     # (N, L) block maxima, or softened values
    keys: np.ndarray  # (N, K*L) entries the maxima were taken of
    k: int
    l: int
    key_of: Callable[[np.ndarray], np.ndarray] = np.asarray  # identity on arrays

    def slots(self, frames: np.ndarray) -> np.ndarray:
        """Lowest maximal slot of block ``frames[i]`` of each vehicle
        i < frames.size: a gather of K entries each, keyed by ``key_of``."""
        blocks = self.keys.reshape(len(self.keys), self.l, self.k)
        picked = self.key_of(blocks[np.arange(frames.size), frames])
        return picked.argmax(axis=1)


def compress(cost_vector, k: int, l: int, beta: float | None = None) -> ReducedProblem:
    """Per-(vehicle, subframe) block maxima over the K in-subframe slots, for
    every vehicle of ``cost_vector`` (its size over k*l).

    ``beta`` switches the values to the log-sum-exp softening
    (1/beta) * log(sum(exp(beta * c))) per block, which approaches the
    exact maximum from above within (ln K) / beta. The slot lookup
    (``ReducedProblem.slots``) reads the exact maximum either way, ties
    resolved to the lowest slot.

    The entries are taken as float64 (an integer is exact below 2**53)
    and viewed as one row of k slots per (vehicle, subframe); the maximum
    runs across the k slot columns. Finite floats that compare equal have
    the same bits, save -0.0 and 0.0, so a block whose maximum is 0 takes
    its first maximal entry, sign bit included (-0.0 ahead of 0.0 gives
    -0.0).
    """
    c = np.asarray(cost_vector, dtype=float).ravel()
    if k < 1 or l < 1:
        raise ValueError(f"need k >= 1 and l >= 1, got k={k}, l={l}")
    if c.size == 0 or c.size % (k * l):
        raise ShapeError(f"{c.size} cost entries are not n*{k * l} for an n >= 1")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost entries must be finite")
    n = c.size // (k * l)
    blocks = c.reshape(n * l, k)  # one row of k slots per (vehicle, subframe)
    top = blocks[:, 0].copy()
    for slot in range(1, k):
        np.maximum(top, blocks[:, slot], out=top)
    if not top.all():  # -0.0 == 0.0: first zero wins
        zero = np.flatnonzero(top == 0)
        tied = blocks[zero]
        top[zero] = tied[np.arange(zero.size), (tied == 0).argmax(axis=1)]
    exact = top.reshape(n, l)
    if beta is None:
        d = exact
    else:
        if beta <= 0:
            raise ValueError("beta must be positive")
        gap = blocks.reshape(n, l, k) - exact[:, :, None]
        d = exact + np.log(np.exp(beta * gap).sum(axis=2)) / beta
    return ReducedProblem(d, c.reshape(n, k * l), k, l)


def expand_solution(subframes: np.ndarray, reduced: ReducedProblem) -> Assignment:
    """Subframe of each vehicle 0..N-1 back to its global subchannel.

    Each vehicle lands on the lowest maximal slot of its subframe
    (``ReducedProblem.slots``), i.e. subchannel f*K + slot. Nothing is
    checked here: a subframe outside 0..L-1 fails the gather or lands
    outside the grid, and ``solvers.verify_assignment`` rejects both
    that and a shared subframe.
    """
    return Assignment(subframes * reduced.k + reduced.slots(subframes), "proposed")
