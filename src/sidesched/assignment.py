"""Square reduction of the constrained per-cluster matching problem.

The full problem pairs L vehicles (dummies included) with the K*L
subchannels of a window under two constraint families: every vehicle
takes exactly one subchannel, and every subframe serves exactly one
vehicle. Since a subframe admits a single vehicle, only that vehicle's
best in-subframe slot can appear in an optimum, so each K-wide block
collapses to one macro choice. That leaves an L x L table of block
maxima plus the slot attaining each maximum; solving the square problem
and re-expanding the stored slots loses nothing of the sum rate.

Cost vectors are vehicle-major: entry i*(K*L) + k is vehicle i on global
subchannel k, with k = l*K + slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolation, ShapeError
from .solvers import Assignment


@dataclass(frozen=True)
class ReducedProblem:
    """Square form after per-subframe block compression."""

    d: np.ndarray            # (L, L) block maxima, or softened values
    argmax_slot: np.ndarray  # (L, L) in-subframe slot attaining each maximum
    k: int
    l: int


def _check_cost(cost_vector, k: int, l: int, level_rates=None) -> np.ndarray:
    indexed = level_rates is not None
    c = np.asarray(cost_vector, dtype=None if indexed else float).ravel()
    if k < 1 or l < 1:
        raise ValueError(f"need k >= 1 and l >= 1, got k={k}, l={l}")
    if c.size != k * l * l:
        raise ShapeError(
            f"cost vector has {c.size} entries, expected k*l*l = {k * l * l}")
    if not indexed:
        if not np.all(np.isfinite(c)):
            raise ValueError("cost entries must be finite")
        return c
    if c.dtype.kind not in "iu":
        raise ValueError(f"level indices must be integers, got {c.dtype}")
    # compress keeps its keys in a type sized by the level count, so an
    # index out of range would wrap instead of failing
    n_levels = len(level_rates)
    if c.max() >= n_levels or (c.dtype.kind == "i" and c.min() < 0):
        raise ValueError(f"level indices must lie in 0..{n_levels - 1}")
    # the maximal level maps to the maximal rate only while the level-to-
    # rate map is strictly increasing
    if not np.all(np.diff(level_rates) > 0):
        raise ValueError("level rates must be strictly increasing")
    return c


def compress(cost_vector, k: int, l: int, beta: float | None = None,
             level_rates=None) -> ReducedProblem:
    """Per-(vehicle, subframe) block maxima over the K in-subframe slots.

    ``beta`` switches the values to the log-sum-exp softening
    (1/beta) * log(sum(exp(beta * c))) per block, which approaches the
    exact maximum from above within (ln K) / beta. The stored argmax is
    the exact one either way, ties resolved to the lowest slot.

    With ``level_rates`` the cost vector holds level indices into it, a
    quantized decision (``sideinfo.QuantizedRates``). The argmax is then
    taken over the indices and the maximal level mapped to its rate,
    which gives the table of ``level_rates[cost_vector]`` bit for bit.
    """
    c = _check_cost(cost_vector, k, l, level_rates)
    blocks = c.reshape(l, l, k)  # (vehicle, subframe, slot)
    if level_rates is None:
        argmax_slot = blocks.argmax(axis=2).astype(np.int64)
        # the entry at the argmax is the maximum itself, since c is finite
        exact = np.take_along_axis(blocks, argmax_slot[..., None], axis=2)[..., 0]
    else:
        # level * k + (k - 1 - slot), one slot per row: its maximum over a
        # block is the maximal level at its lowest slot, and a reduction
        # across k contiguous rows is faster than an argmax along the
        # short slot axis. The keys are kept in the narrowest type that
        # holds the largest one (uint16 for 256 levels at k = 7).
        level_rates = np.asarray(level_rates, dtype=float)
        key_type = np.min_scalar_type(level_rates.size * k - 1)
        key = c.reshape(l * l, k).T.astype(key_type, order="C")
        key *= k
        key += np.arange(k - 1, -1, -1, dtype=key_type)[:, None]
        top = np.maximum.reduce(key).reshape(l, l)
        argmax_slot = k - 1 - (top % k).astype(np.int64)
        exact = level_rates[top // k]
    if beta is None:
        d = exact
    else:
        if beta <= 0:
            raise ValueError("beta must be positive")
        if level_rates is not None:
            blocks = level_rates[blocks]
        d = exact + np.log(np.exp(beta * (blocks - exact[:, :, None])).sum(axis=2)) / beta
    return ReducedProblem(d, argmax_slot, k, l)


def expand_solution(reduced_assignment: dict, reduced: ReducedProblem, *,
                    cluster_id: int = 0) -> Assignment:
    """Vehicle-to-subframe injection back to global subchannel indices.

    Each vehicle lands on the stored best slot of its subframe, i.e.
    subchannel l*K + argmax_slot[vehicle, l].
    """
    k, l = reduced.k, reduced.l
    items = sorted(reduced_assignment.items())
    frames = {f for _, f in items}
    if [i for i, _ in items] != list(range(len(items))) or \
            len(frames) != len(items) or not frames.issubset(range(l)):
        raise ConstraintViolation(
            "reduced assignment must map vehicles 0..N-1 to distinct subframes "
            "in 0..L-1")
    pairs = {i: f * k + int(reduced.argmax_slot[i, f]) for i, f in items}
    return Assignment(cluster_id=cluster_id, pairs=pairs, method="proposed")
