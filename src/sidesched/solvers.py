"""Assignment methods: optimal matching, greedy, feasible-random, brute force.

Every method returns an ``Assignment`` whose ``subchannel`` array holds
the global subchannel of each of a cluster's N vehicles, vehicle i
at entry i, so every vehicle takes exactly one subchannel by
construction. It names its method, not its cluster, whose id stays with
the caller (``cli.write_assignment_csv`` takes it from there). The other
constraint, at most one vehicle per subframe, is checked in one place,
``verify_assignment``, which every cell runs on every method's
assignment. The optimal route (``solve_proposed``) and greedy work on
the compressed block table; the oracle rates every row of a decision
and enumerates the feasible set, capped to small instances.
``evaluate`` reads the truth rates and both sum rates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (CapacityError, ConstraintViolation, InfeasibleError,
                     ShapeError, finite_sum)
from .grid import ResourceGrid
from .munkres import max_weight_assignment

if TYPE_CHECKING:
    from .assignment import ReducedProblem
    from .sideinfo import FineRates, QuantizedRates

METHODS = ("proposed", "greedy", "random", "oracle")

# Brute-force caps: L! injections stop being cheap fast.
ORACLE_MAX_L = 8
ORACLE_MAX_K = 4


@dataclass
class Assignment:
    """Chosen subchannel per vehicle for one cluster."""

    subchannel: np.ndarray  # (N,) int64: global subchannel of vehicle i
    method: str


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
    """Raise IndexError naming the first subchannel, in vehicle order,
    outside the grid, and ConstraintViolation naming the first vehicle
    that shares a subframe (``shared_subframes``).

    A feasible assignment takes one range check and one count per
    subframe; a message is built only when its check fails.
    """
    sc = assignment.subchannel
    if not sc.size:
        return
    n = grid.n_subchannels
    if sc.min() < 0 or sc.max() >= n:
        bad = next(s for s in sc.tolist() if not 0 <= s < n)
        raise IndexError(f"subchannel index {bad} outside [0, {n})")
    frames = sc // grid.k
    if np.bincount(frames).max() > 1:
        raise ConstraintViolation(shared_subframes(
            range(sc.size), sc.tolist(), frames.tolist())[0])


def solve_proposed(reduced: ReducedProblem) -> np.ndarray:
    """Optimal subframe of each vehicle, one per row of ``reduced.keys``, on
    the compressed weights ``d``, padded to L x L (``pad_to_square``).
    """
    n = len(reduced.keys)
    if n > reduced.l:
        raise InfeasibleError(f"{n} vehicles exceed {reduced.l} subframes")
    cols, _ = max_weight_assignment(np.asarray(reduced.d, dtype=float))
    return cols[:n]


def solve_greedy(reduced: ReducedProblem) -> Assignment:
    """First-come first-served baseline, one vehicle per row of ``reduced.keys``.

    Vehicles in ascending index order take the best decision-rate
    subchannel among subframes nobody claimed yet; ties go to the lowest
    subchannel index. That subchannel lies in the lowest subframe of
    highest block maximum, at its lowest maximal slot, so only the block
    table is scanned, and a slot is looked up for the N picked blocks.
    """
    k, l, n = reduced.k, reduced.l, len(reduced.keys)
    if n > l:
        raise InfeasibleError(f"{n} vehicles exceed {l} subframes")
    # a claimed subframe's column reads -inf in every row still to come
    dm = np.array(reduced.d[:n], dtype=float)
    picks = []
    for row in dm:
        f = int(row.argmax())  # first hit = lowest subframe on ties
        picks.append(f)
        dm[:, f] = -np.inf
    frames = np.array(picks, np.int64)
    return Assignment(frames * k + reduced.slots(frames), "greedy")


def solve_random(grid: ResourceGrid, n_vehicles: int, rng) -> Assignment:
    """Feasible-random baseline: uniform subframe injection, uniform slot."""
    if n_vehicles < 1:
        raise ValueError("n_vehicles must be positive")
    if n_vehicles > grid.l:
        raise InfeasibleError(f"{n_vehicles} vehicles exceed {grid.l} subframes")
    frames = rng.permutation(grid.l)[:n_vehicles]
    slots = rng.integers(0, grid.k, size=n_vehicles)
    return Assignment(frames * grid.k + slots, "random")


def solve_oracle(decision: FineRates | QuantizedRates,
                 grid: ResourceGrid) -> Assignment:
    """Exhaustive optimum of every row of ``decision`` over every subframe
    injection and slot choice.

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
    n, cols = vals.shape
    if cols != grid.n_subchannels:
        raise ShapeError(f"rates have {cols} columns, grid has {grid.n_subchannels}")
    if n > grid.l:
        raise InfeasibleError(f"{n} vehicles exceed {grid.l} subframes")
    blocks = vals.reshape(n, grid.l, grid.k)  # (vehicle, subframe, slot)
    slots = blocks.argmax(axis=2)
    best_rate = np.take_along_axis(blocks, slots[..., None], axis=2)[..., 0].tolist()
    best_total = -np.inf
    best_inj = None
    for inj in itertools.permutations(range(grid.l), n):
        total = 0.0
        for rates_i, f in zip(best_rate, inj):
            total += rates_i[f]
        if total > best_total:
            best_total, best_inj = total, inj
    frames = np.array(best_inj, np.int64)
    subchannel = frames * grid.k + slots[np.arange(n), frames]
    return Assignment(subchannel, "oracle")


def evaluate(assignment: Assignment, decision: FineRates | QuantizedRates,
             truth: FineRates | QuantizedRates
             ) -> tuple[np.ndarray, float, float]:
    """(truth rate of every vehicle of ``assignment``, truth sum rate,
    decision sum rate).

    Rates come back in ascending vehicle order, and each side is rated
    and summed only at the chosen entries, once when the decision is the
    truth. The truth sum is checked first; a sum that is not finite
    raises a ValueError naming it (``finite_sum``).
    """
    cols = assignment.subchannel
    rows = np.arange(cols.size)
    rates = truth.at(rows, cols)
    truth_sum = finite_sum(rates, "truth sum rate")
    if decision is truth:
        return rates, truth_sum, truth_sum
    return rates, truth_sum, finite_sum(decision.at(rows, cols),
                                        "decision sum rate")
