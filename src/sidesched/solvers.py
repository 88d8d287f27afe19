"""Assignment methods: optimal matching, greedy, feasible-random, brute force.

Every method returns an ``Assignment`` mapping vehicle indices to global
subchannel indices with at most one vehicle per subframe. The optimal
route (``solve_proposed``) and greedy work on the compressed block
table; the oracle works directly on a rate matrix, enumerates the whole
feasible set and is capped to small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, ConstraintViolation, InfeasibleError, ShapeError
from .grid import ResourceGrid, subframe_of
from .munkres import max_weight_assignment

if TYPE_CHECKING:
    from .assignment import ReducedProblem
    from .sideinfo import QuantizedRates, RateMatrix

METHODS = ("proposed", "greedy", "random", "oracle")

# Brute-force caps: L! injections stop being cheap fast.
ORACLE_MAX_L = 8
ORACLE_MAX_K = 4


@dataclass
class Assignment:
    """Chosen subchannel per vehicle for one cluster."""

    cluster_id: int
    pairs: dict[int, int]  # vehicle index -> global subchannel index
    method: str


@dataclass
class SolveStats:
    """Sum rates of one solve; decision is what the scheduler believed."""

    sum_rate_decision_bps: float
    sum_rate_truth_bps: float
    runtime_s: float = 0.0


def shared_subframes(vehicles, subchannels, subframes) -> list[str]:
    """One message per vehicle placed in a subframe that an earlier one holds.

    The three sequences run in parallel, in the order to check; each
    message names the subframe's first holder.
    """
    owner = {}  # subframe -> index of its first holder
    clashes = []
    for j, sf in enumerate(subframes):
        first = owner.setdefault(sf, j)
        if first != j:
            clashes.append(
                f"vehicles {vehicles[first]} and {vehicles[j]} share subframe {sf} "
                f"(subchannels {subchannels[first]} and {subchannels[j]})")
    return clashes


def verify_assignment(assignment: Assignment, grid: ResourceGrid) -> None:
    """Raise ConstraintViolation when two vehicles share a subframe, and
    IndexError on a subchannel outside the grid.

    A feasible assignment takes one range check and one count per
    subframe; the messages are built only when the count finds a clash.
    """
    pairs = assignment.pairs
    subchannels = np.fromiter(pairs.values(), np.int64, len(pairs))
    if not subchannels.size or (
            subchannels.min() >= 0 and subchannels.max() < grid.n_subchannels
            and np.bincount(subchannels // grid.k).max() < 2):
        return
    vehicles = sorted(pairs)
    subchannels = [pairs[i] for i in vehicles]
    clashes = shared_subframes(vehicles, subchannels,
                               [subframe_of(grid, sc) for sc in subchannels])
    if clashes:
        raise ConstraintViolation(clashes[0])


def solve_proposed(reduced: ReducedProblem) -> dict[int, int]:
    """Optimal vehicle-to-subframe bijection on the compressed weights."""
    d = np.asarray(reduced.d, dtype=float)
    cols, _ = max_weight_assignment(d)
    return {i: int(cols[i]) for i in range(d.shape[0])}


def solve_greedy(reduced: ReducedProblem, n_vehicles: int,
                 cluster_id: int = 0) -> Assignment:
    """First-come first-served baseline on the first ``n_vehicles`` rows.

    Vehicles in ascending index order take the best decision-rate
    subchannel among subframes nobody claimed yet; ties go to the lowest
    subchannel index. That subchannel lies in the lowest subframe of
    highest block maximum, at its stored slot, so only the block table
    is scanned.
    """
    k, l = reduced.k, reduced.l
    if n_vehicles > l:
        raise InfeasibleError(f"{n_vehicles} vehicles exceed {l} subframes")
    # a claimed subframe's column reads -inf in every row still to come
    dm = np.array(reduced.d[:n_vehicles], dtype=float)
    pairs = {}
    for i in range(n_vehicles):
        f = int(dm[i].argmax())  # first hit = lowest subframe on ties
        pairs[i] = f * k + int(reduced.argmax_slot[i, f])
        dm[:, f] = -np.inf
    return Assignment(cluster_id, pairs, "greedy")


def solve_random(grid: ResourceGrid, n_vehicles: int, rng,
                 cluster_id: int = 0) -> Assignment:
    """Feasible-random baseline: uniform subframe injection, uniform slot."""
    if n_vehicles < 1:
        raise ValueError("n_vehicles must be positive")
    if n_vehicles > grid.l:
        raise InfeasibleError(f"{n_vehicles} vehicles exceed {grid.l} subframes")
    frames = rng.permutation(grid.l)[:n_vehicles]
    slots = rng.integers(0, grid.k, size=n_vehicles)
    pairs = {i: int(frames[i]) * grid.k + int(slots[i]) for i in range(n_vehicles)}
    return Assignment(cluster_id, pairs, "random")


def solve_oracle(decision: RateMatrix | QuantizedRates, grid: ResourceGrid) -> Assignment:
    """Exhaustive optimum over every subframe injection and slot choice.

    Slot choices factor per vehicle (one vehicle per subframe), so each
    injection is scored from the block maxima over each subframe's K
    slots. Ties keep the lexicographically first injection and the lowest
    slot.
    """
    if grid.l > ORACLE_MAX_L or grid.k > ORACLE_MAX_K:
        raise CapacityError(
            f"oracle capped at l <= {ORACLE_MAX_L} and k <= {ORACLE_MAX_K}, "
            f"got l={grid.l}, k={grid.k}")
    vals = decision.values
    n = vals.shape[0]
    if vals.shape[1] != grid.n_subchannels:
        raise ShapeError(
            f"rate matrix has {vals.shape[1]} columns, grid has {grid.n_subchannels}")
    if n > grid.l:
        raise InfeasibleError(f"{n} vehicles exceed {grid.l} subframes")
    blocks = vals.reshape(n, grid.l, grid.k)  # (vehicle, subframe, slot)
    slots = blocks.argmax(axis=2)
    best_rate = np.take_along_axis(blocks, slots[..., None], axis=2)[..., 0].tolist()
    best_slot = slots.tolist()
    best_total = -np.inf
    best_inj = None
    for inj in itertools.permutations(range(grid.l), n):
        total = 0.0
        for rates_i, f in zip(best_rate, inj):
            total += rates_i[f]
        if total > best_total:
            best_total, best_inj = total, inj
    pairs = {i: f * grid.k + best_slot[i][f] for i, f in enumerate(best_inj)}
    return Assignment(decision.cluster_id, pairs, "oracle")


def evaluate(assignment: Assignment, decision: RateMatrix | QuantizedRates,
             truth: RateMatrix | QuantizedRates, dummy_mask=None,
             runtime_s: float = 0.0):
    """Strip dummies; return SolveStats and per-real-vehicle truth rates.

    Rates come back in ascending vehicle order. Both sums cover real
    vehicles only, and each rate matrix is read only at the chosen
    entries.
    """
    pairs = assignment.pairs
    vehicles = sorted(pairs)
    rows = np.fromiter(vehicles, np.int64, len(vehicles))
    cols = np.fromiter(map(pairs.__getitem__, vehicles), np.int64, len(vehicles))
    if dummy_mask is not None:
        real = ~np.asarray(dummy_mask)[rows]
        rows, cols = rows[real], cols[real]
    truth_rates = truth.at(rows, cols)
    dec_sum = float(decision.at(rows, cols).sum())
    stats = SolveStats(dec_sum, float(truth_rates.sum()), runtime_s)
    return stats, truth_rates
