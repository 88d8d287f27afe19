"""One experiment cell: draw a scenario, quantize, solve, evaluate.

Seeds are derived hierarchically from the master seed through
SeedSequence spawn keys, making every cell a pure function of its
arguments. Cells can therefore run in any order, or concurrently, and
still reduce to identical artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .assignment import compress, expand_solution
from .grid import ResourceGrid
from .scenario import Cluster, ScenarioModel, generate_sinr, pad_to_square
from .sideinfo import QuantizerSpec, RateMatrix, build_rate_matrices
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


@dataclass
class CellResult:
    method: str
    bits: int  # 0 = ideal fine-grained feedback
    cluster_id: int
    repetition: int
    vehicle_rates_bps: np.ndarray  # truth rates of real vehicles, ascending index
    stats: SolveStats


def run_cell(grid: ResourceGrid, model: ScenarioModel, cluster: Cluster,
             bits: int, method: str, scenario_seed: int, solver_seed: int = 0,
             quant_lo_db: float | None = None, quant_hi_db: float | None = None,
             repetition: int = 0) -> CellResult:
    """Full path for one (cluster, repetition, bits, method) combination.

    The scenario draw depends only on ``scenario_seed`` and the cluster,
    so different methods and bit depths see identical channels when given
    the same seed. ``bits=0`` skips quantization. Every assignment is
    checked for subframe conflicts before it is scored, whatever the method.
    """
    model_run = replace(model, seed=scenario_seed)
    sinr = generate_sinr(model_run, cluster, grid)
    padded, dummy_mask = pad_to_square(sinr, grid, floor_db=model.sinr_floor_db)
    q = None
    if bits:
        q = QuantizerSpec(
            bits=bits,
            lo_db=model.sinr_floor_db if quant_lo_db is None else quant_lo_db,
            hi_db=model.sinr_ceil_db if quant_hi_db is None else quant_hi_db)
    decision, truth = build_rate_matrices(padded, q, grid.b_hz)
    n_real = cluster.n_vehicles

    t0 = time.perf_counter()
    if method == "proposed":
        reduced = compress(decision.values.ravel(), grid.k, grid.l)
        mapping = solve_proposed(reduced)
        assn = expand_solution(mapping, reduced, cluster_id=cluster.id)
    elif method == "greedy":
        assn = solve_greedy(RateMatrix(cluster.id, decision.values[:n_real]), grid)
    elif method == "random":
        rng = np.random.default_rng(solver_seed)
        assn = solve_random(grid, n_real, rng, cluster_id=cluster.id)
    elif method == "oracle":
        assn = solve_oracle(RateMatrix(cluster.id, decision.values[:n_real]), grid)
    else:
        raise ValueError(f"unknown method {method!r}")
    runtime = time.perf_counter() - t0
    verify_assignment(assn, grid)

    stats, rates = evaluate(assn, decision, truth, dummy_mask, runtime)
    return CellResult(method, bits, cluster.id, repetition, rates, stats)
