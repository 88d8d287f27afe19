"""The three stages of a cell: draw, rates, and the cell itself.

A *draw* (``draw_cluster``) is one channel realisation of a cluster,
padded with dummy vehicles to a square, with its fine-grained (truth)
rates and, when some width is quantized, its 8-bit quantizer index over
the configured dB range; both serve every width. Its *rates* at one
feedback width (``draw_rates``) are the decision a scheduler decides on
and its block table (``compress``) that proposed and greedy read. A
quantized decision is the level index of every entry plus the 2**bits
level rates; the b-bit indices are the draw's 8-bit index shifted right
by 8 - b, which equals the b-bit quantizer bit for bit (``sideinfo``).
Its block table is built from the indices, and scores read the rates
only at the chosen entries. A *cell* (``run_cell``) runs one method on
those rates: it solves, checks the assignment and scores it on the truth
rates. Every method's assignment is an array of one subchannel per real
vehicle, so each vehicle takes exactly one subchannel by construction;
``verify_assignment`` is the one check of the other constraint, one
vehicle per subframe, for every method alike.
The one cell loop, ``metrics.iter_cells``, nests repetition x cluster,
then width, then method, so each draw is computed once and each width's
rates once per draw, shared by every method; each draw is released
before the next one is made.

Seeds are derived hierarchically from the master seed through
SeedSequence spawn keys, making every stage a pure function of its
arguments. Cells can therefore run in any order, or concurrently, and
still reduce to identical artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .assignment import ReducedProblem, compress, expand_solution
from .grid import ResourceGrid
from .scenario import Cluster, ScenarioModel, generate_sinr, pad_to_square
from .sideinfo import (QuantizedRates, QuantizerSpec, RateMatrix, _fine_index,
                       build_rate_matrices, rate_from_sinr)
from .solvers import (SolveStats, evaluate, solve_greedy, solve_oracle,
                      solve_proposed, solve_random, verify_assignment)

# Stream tags keeping scenario draws and solver randomness disjoint.
SCENARIO_STREAM = 0
RANDOM_STREAM = 1
TIMER_STREAM = 2


def derive_seed(master_seed: int, *key) -> int:
    """Stable 64-bit sub-seed for a (stream, ...) key under the master seed."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=tuple(int(x) for x in key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Draw:
    """One channel realisation of a cluster, padded to one row per subframe:
    rows 0..N-1 are its real vehicles and the rest dummies."""

    cluster: Cluster
    truth: RateMatrix  # fine-grained rates of the padded SINR
    quant_range: tuple[float, float] | None  # (lo_db, hi_db); None: no width quantized
    fine: np.ndarray | None  # uint8 8-bit index of the padded SINR over quant_range


@dataclass
class CellResult:
    method: str
    bits: int  # 0 = ideal fine-grained feedback
    vehicle_rates_bps: np.ndarray  # truth rates of real vehicles, ascending index
    stats: SolveStats


def draw_cluster(grid: ResourceGrid, model: ScenarioModel, cluster: Cluster,
                 scenario_seed: int, quant_range: tuple[float, float] | None
                 ) -> Draw:
    """The cluster's channel draw; depends only on the seed, the cluster
    and ``quant_range``, None when no width is quantized."""
    sinr = generate_sinr(replace(model, seed=scenario_seed), cluster, grid)
    padded = pad_to_square(sinr, grid, floor_db=model.sinr_floor_db)
    truth = RateMatrix(padded.cluster_id, rate_from_sinr(grid.b_hz, padded.values))
    fine = None if quant_range is None else _fine_index(*quant_range, padded.values)
    return Draw(cluster, truth, quant_range, fine)


def draw_rates(grid: ResourceGrid, draw: Draw, bits: int
               ) -> tuple[RateMatrix | QuantizedRates, ReducedProblem]:
    """(decision, block table of decision) of a draw at ``bits``.

    ``bits=0`` is ideal feedback, decided on ``draw.truth`` itself; every
    other width shifts the draw's 8-bit index.
    """
    q = QuantizerSpec(bits, *draw.quant_range) if bits else None
    decision = build_rate_matrices(draw.truth, q, grid.b_hz, draw.fine)
    if q is None:
        reduced = compress(decision.values.ravel(), grid.k, grid.l)
    else:
        reduced = compress(decision.idx.ravel(), grid.k, grid.l,
                           level_rates=decision.level_rates)
    return decision, reduced


def run_cell(grid: ResourceGrid, draw: Draw,
             rates: tuple[RateMatrix | QuantizedRates, ReducedProblem],
             bits: int, method: str, solver_seed: int = 0) -> CellResult:
    """Solve, check and score one method on a draw's rates at ``bits``.

    Every assignment holds one subchannel per real vehicle, and is checked
    for subframe conflicts before it is scored on the draw's truth rates,
    whatever the method.
    """
    decision, reduced = rates
    cluster = draw.cluster
    n_real = cluster.n_vehicles

    t0 = time.perf_counter()
    if method == "proposed":
        subframes = solve_proposed(reduced, n_real)
        assn = expand_solution(subframes, reduced, cluster_id=cluster.id)
    elif method == "greedy":
        assn = solve_greedy(reduced, n_real, cluster_id=cluster.id)
    elif method == "random":
        rng = np.random.default_rng(solver_seed)
        assn = solve_random(grid, n_real, rng, cluster_id=cluster.id)
    elif method == "oracle":
        assn = solve_oracle(RateMatrix(cluster.id, decision.values[:n_real]), grid)
    else:
        raise ValueError(f"unknown method {method!r}")
    runtime = time.perf_counter() - t0
    verify_assignment(assn, grid)

    stats, vehicle_rates = evaluate(assn, decision, draw.truth, runtime)
    return CellResult(method, bits, vehicle_rates, stats)
