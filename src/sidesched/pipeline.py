"""The three stages of a cell: draw, rates, and the cell itself.

A *draw* (``draw_cluster``) is one channel realisation of a cluster,
padded with dummy vehicles to a square, with its fine-grained (truth)
rates and its 8-bit quantizer index over the configured dB range, both
the same at every width. Its *rates* at one feedback width
(``draw_rates``) are the (decision, truth) pair a scheduler decides on
and is scored on, with the decision's block table (``compress``) that
proposed and greedy read. A quantized decision is the level index of
every entry plus the 2**bits level rates; the b-bit indices are the
draw's 8-bit index shifted right by 8 - b, which equals the b-bit
quantizer bit for bit (``sideinfo``). Its block table is built from
the indices, and scores read the rates only at the chosen entries. A
*cell* (``run_cell``) runs one method on those rates: it solves, checks
the assignment for subframe conflicts and scores it. The one cell loop,
``metrics.iter_cells``, nests repetition x cluster, then width, then
method, so each draw is computed once and each width's rates once per
draw, shared by every method; each draw is released before the next one
is made.

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
from .scenario import (Cluster, ScenarioModel, SinrMatrix, generate_sinr,
                       pad_to_square)
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
    """One channel realisation of a cluster, padded to one row per subframe."""

    cluster: Cluster
    sinr: SinrMatrix
    dummy_mask: np.ndarray  # True where a row is a padding dummy
    truth: RateMatrix       # fine-grained rates of ``sinr``
    quant_range: tuple[float, float]  # (lo_db, hi_db) of every quantized width
    fine: np.ndarray        # uint8 8-bit index of ``sinr`` over ``quant_range``


@dataclass
class CellResult:
    method: str
    bits: int  # 0 = ideal fine-grained feedback
    vehicle_rates_bps: np.ndarray  # truth rates of real vehicles, ascending index
    stats: SolveStats


def draw_cluster(grid: ResourceGrid, model: ScenarioModel, cluster: Cluster,
                 scenario_seed: int, quant_lo_db: float, quant_hi_db: float
                 ) -> Draw:
    """The cluster's channel draw, quantized over [quant_lo_db, quant_hi_db];
    depends only on the seed, the cluster and the range."""
    sinr = generate_sinr(replace(model, seed=scenario_seed), cluster, grid)
    padded, dummy_mask = pad_to_square(sinr, grid, floor_db=model.sinr_floor_db)
    truth = RateMatrix(padded.cluster_id, rate_from_sinr(grid.b_hz, padded.values))
    fine = _fine_index(quant_lo_db, quant_hi_db, padded.values)
    return Draw(cluster, padded, dummy_mask, truth, (quant_lo_db, quant_hi_db),
                fine)


def draw_rates(grid: ResourceGrid, draw: Draw, bits: int
               ) -> tuple[RateMatrix | QuantizedRates, RateMatrix, ReducedProblem]:
    """(decision, truth, block table of decision) of a draw at ``bits``.

    ``bits=0`` is ideal feedback; every other width shifts the draw's
    8-bit index.
    """
    q = QuantizerSpec(bits, *draw.quant_range) if bits else None
    decision, truth = build_rate_matrices(draw.sinr, q, grid.b_hz,
                                          truth=draw.truth, fine=draw.fine)
    if q is None:
        reduced = compress(decision.values.ravel(), grid.k, grid.l)
    else:
        reduced = compress(decision.idx.ravel(), grid.k, grid.l,
                           level_rates=decision.level_rates)
    return decision, truth, reduced


def run_cell(grid: ResourceGrid, draw: Draw,
             rates: tuple[RateMatrix | QuantizedRates, RateMatrix, ReducedProblem],
             bits: int, method: str, solver_seed: int = 0) -> CellResult:
    """Solve, check and score one method on a draw's rates at ``bits``.

    Every assignment is checked for subframe conflicts before it is
    scored, whatever the method.
    """
    decision, truth, reduced = rates
    cluster = draw.cluster
    n_real = cluster.n_vehicles

    t0 = time.perf_counter()
    if method == "proposed":
        mapping = solve_proposed(reduced)
        assn = expand_solution(mapping, reduced, cluster_id=cluster.id)
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

    stats, vehicle_rates = evaluate(assn, decision, truth, draw.dummy_mask,
                                    runtime)
    return CellResult(method, bits, vehicle_rates, stats)
