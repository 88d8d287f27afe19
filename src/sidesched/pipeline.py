"""The three stages of a cell: draw, rates, and the cell itself.

A *draw* (``draw_cluster``) is one channel realisation of a cluster's N
vehicles: its SINR in dB, the truth, rated only where read
(``FineRates``), its N x L SINR block maxima (``compress``, once per
draw) and the 8-bit quantizer index of those maxima over the configured
dB range; all serve every width. Its *rates* at one feedback width
(``draw_rates``) are the decision a scheduler decides on and the block
table that proposed and greedy read. The ideal decision is the truth,
keyed by SINR; a quantized decision holds the same SINR array and keys
an entry by its b-bit level index only where it is read: the N scored
entries and the K slots of each picked block. The b-bit block maxima
are the 8-bit index of the SINR block maxima shifted right by 8 - b
(``sideinfo``). Every width's table is its key block maxima mapped to
their rates, so only the N x L maxima are rated, padded with zero rows
to the L x L square of the matching kernel (``pad_to_square``).
A *cell* (``run_cell``) runs one method on those rates. It solves,
checks the assignment (one subchannel per vehicle) for one vehicle per
subframe (``verify_assignment``, for every method), and scores it on the
truth rates. The one cell loop, ``metrics.iter_cells``, nests repetition
x cluster, then width, then method, so each draw and its block maxima
are computed once and each width's rates once per draw, shared by every
method; each draw is released before the next one is made.

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
from .sideinfo import (FineRates, QuantizedRates, QuantizerSpec, _fine_index,
                       build_rate_matrices)
from .solvers import (evaluate, solve_greedy, solve_oracle, solve_proposed,
                      solve_random, verify_assignment)

# Stream tags keeping scenario draws and solver randomness disjoint.
SCENARIO_STREAM = 0
RANDOM_STREAM = 1


def derive_seed(master_seed: int, *key) -> int:
    """Stable 64-bit sub-seed for a (stream, ...) key under the master seed."""
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=tuple(int(x) for x in key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Draw:
    """One channel realisation of a cluster, one row per vehicle.
    ``top_fine`` is over the run's quantizer range, the range of every
    width ``draw_rates`` takes."""

    cluster: Cluster
    truth: FineRates      # the (N, K*L) SINR, rated where read
    top: np.ndarray       # (N, L) SINR block maxima
    top_fine: np.ndarray  # (N, L) uint8 8-bit index of ``top``


@dataclass
class CellResult:
    """One method's cell; both sum rates are ``evaluate``'s, taken once."""

    method: str
    bits: int  # 0 = ideal fine-grained feedback
    vehicle_rates_bps: np.ndarray  # truth rate of each vehicle, ascending index
    sum_rate_truth_bps: float  # what the fine-grained SINR delivers
    sum_rate_decision_bps: float  # what the scheduler believed
    runtime_s: float  # solve time, checks and scoring excluded


def draw_cluster(grid: ResourceGrid, model: ScenarioModel, cluster: Cluster,
                 scenario_seed: int, quant_range: tuple[float, float]) -> Draw:
    """The cluster's channel draw; depends only on the seed, the cluster
    and ``quant_range``."""
    sinr = generate_sinr(replace(model, seed=scenario_seed), cluster, grid)
    top = compress(sinr, grid.k, grid.l).d
    return Draw(cluster, FineRates(sinr, grid.b_hz), top,
                _fine_index(*quant_range, top))


def draw_rates(grid: ResourceGrid, draw: Draw, q: QuantizerSpec | None,
               levels: np.ndarray | None
               ) -> tuple[FineRates | QuantizedRates, ReducedProblem]:
    """(decision, block table of decision) of a draw under the quantizer
    ``q`` and its level table ``levels`` (``sideinfo.level_rates``).

    ``q=None`` (ideal feedback) decides on ``draw.truth`` and its block
    maxima; every other width shifts the 8-bit index of those maxima,
    made over the range of its quantizer. Only the N x L block maxima
    are rated, and the rated table is padded to L x L; its slots are
    looked up in the draw's SINR, keyed by ``q``.
    """
    decision = build_rate_matrices(draw.truth, q, levels)
    top = draw.top if q is None else draw.top_fine >> (8 - q.bits)
    square = pad_to_square(decision.rate(top), grid)
    return decision, ReducedProblem(square, draw.truth.key, grid.k, grid.l, q)


def run_cell(grid: ResourceGrid, draw: Draw,
             rates: tuple[FineRates | QuantizedRates, ReducedProblem],
             bits: int, method: str, solver_seed: int = 0) -> CellResult:
    """Solve, check and score one method on a draw's rates at ``bits``.

    Every method's assignment is checked for subframe conflicts before it
    is scored on the draw's truth rates.
    """
    decision, reduced = rates

    t0 = time.perf_counter()
    if method == "proposed":
        assn = expand_solution(solve_proposed(reduced), reduced)
    elif method == "greedy":
        assn = solve_greedy(reduced)
    elif method == "random":
        rng = np.random.default_rng(solver_seed)
        assn = solve_random(grid, draw.cluster.n_vehicles, rng)
    elif method == "oracle":
        assn = solve_oracle(decision, grid)
    else:
        raise ValueError(f"unknown method {method!r}")
    runtime = time.perf_counter() - t0
    verify_assignment(assn, grid)
    return CellResult(method, bits, *evaluate(assn, decision, draw.truth), runtime)
