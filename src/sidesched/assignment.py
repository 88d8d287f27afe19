"""Block reduction of the constrained per-cluster matching problem.

The full problem pairs N <= L vehicles with the K*L subchannels of a
window under two constraint families: every vehicle takes exactly one
subchannel, and every subframe serves at most one vehicle. Since a
subframe admits a single vehicle, only that vehicle's best in-subframe
slot can appear in an optimum, so each K-wide block collapses to one
macro choice. That leaves an N x L table of block maxima plus the slot
attaining each maximum; matching on the table and re-expanding the
stored slots (``expand_solution``) loses nothing of the sum rate. The
expansion is an ``Assignment`` array of subchannels, checked like every
other method's assignment, by ``solvers.verify_assignment``.

Cost vectors are vehicle-major: entry i*(K*L) + k is vehicle i on global
subchannel k, with k = l*K + slot. They hold rates, or the keys of a
decision (``sideinfo``): a rate increases with its key, so the key
table mapped to rates is the rate table, at the same slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .solvers import Assignment


@dataclass(frozen=True)
class ReducedProblem:
    """Block table after per-subframe compression, one row per vehicle;
    ``pipeline.draw_rates`` pads ``d`` to (L, L) for the matching kernel."""

    d: np.ndarray            # (N, L) block maxima, or softened values
    argmax_slot: np.ndarray  # (N, L) in-subframe slot attaining each maximum
    k: int
    l: int


def _check_cost(cost_vector, k: int, l: int) -> np.ndarray:
    c = np.asarray(cost_vector).ravel()
    c = c if c.dtype.kind in "iu" else c.astype(float, copy=False)
    if k < 1 or l < 1:
        raise ValueError(f"need k >= 1 and l >= 1, got k={k}, l={l}")
    if c.size == 0 or c.size % (k * l):
        raise ShapeError(f"{c.size} cost entries are not n*{k * l} for an n >= 1")
    if c.dtype.kind == "f" and not np.all(np.isfinite(c)):
        raise ValueError("cost entries must be finite")
    if c.dtype.kind == "i" and c.min() < 0:
        raise ValueError("integer keys must be non-negative")
    return c


def compress(cost_vector, k: int, l: int, beta: float | None = None) -> ReducedProblem:
    """Per-(vehicle, subframe) block maxima over the K in-subframe slots, for
    every vehicle of ``cost_vector`` (its size over k*l).

    ``beta`` switches the values to the log-sum-exp softening
    (1/beta) * log(sum(exp(beta * c))) per block, which approaches the
    exact maximum from above within (ln K) / beta. The stored argmax is
    the exact one either way, ties resolved to the lowest slot.

    Floats are viewed as one row of k slots per (vehicle, subframe): one
    argmax per row, then one gather of the entry it picks, so a block's
    value keeps that entry's sign bit (-0.0 ahead of 0.0 gives -0.0).
    Non-negative integers (the level indices of a quantized decision)
    become c * k + (k - 1 - slot), in the narrowest type that holds the
    largest, one slot per row: a block's maximum over k contiguous rows,
    faster than an argmax along the short slot axis, is its maximal entry
    at the lowest slot.
    """
    c = _check_cost(cost_vector, k, l)
    n = c.size // (k * l)
    blocks = c.reshape(n * l, k)  # one row of k slots per (vehicle, subframe)
    if c.dtype.kind == "f":
        slot = blocks.argmax(axis=1)
        # the entry at the argmax is the maximum itself, since c is finite
        exact = blocks[np.arange(n * l), slot].reshape(n, l)
        argmax_slot = slot.reshape(n, l)
    else:
        key_type = np.min_scalar_type(int(c.max()) * k + k - 1)
        key = blocks.T.astype(key_type, order="C")
        key *= k
        key += np.arange(k - 1, -1, -1, dtype=key_type)[:, None]
        top = np.maximum.reduce(key).reshape(n, l)
        argmax_slot = k - 1 - (top % k).astype(np.int64)
        exact = top // k
    if beta is None:
        d = exact
    else:
        if beta <= 0:
            raise ValueError("beta must be positive")
        gap = np.subtract(blocks.reshape(n, l, k), exact[:, :, None], dtype=float)
        d = exact + np.log(np.exp(beta * gap).sum(axis=2)) / beta
    return ReducedProblem(d, argmax_slot, k, l)


def expand_solution(subframes: np.ndarray, reduced: ReducedProblem) -> Assignment:
    """Subframe of each vehicle 0..N-1 back to its global subchannel.

    Each vehicle lands on the stored best slot of its subframe, i.e.
    subchannel f*K + argmax_slot[vehicle, f]. Nothing is checked here: a
    subframe outside 0..L-1 fails the gather or lands outside the grid,
    and ``solvers.verify_assignment`` rejects both that and a shared
    subframe.
    """
    slots = reduced.argmax_slot[np.arange(subframes.size), subframes]
    return Assignment(subframes * reduced.k + slots, "proposed")
