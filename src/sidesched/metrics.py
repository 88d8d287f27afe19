"""Rate statistics over Monte-Carlo runs: CDFs, summary criteria, sweeps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .pipeline import (RANDOM_STREAM, SCENARIO_STREAM, add_context, derive_seed,
                       draw_cluster, draw_rates, run_cell)
from .scenario import Cluster

if TYPE_CHECKING:
    from .cli import ExperimentConfig


@dataclass
class EvalReport:
    """Pooled per-vehicle rates of one (method, bits) series, in bits/s."""

    method: str
    bits: int
    samples: np.ndarray
    highest_bps: float
    average_bps: float
    worst_bps: float
    std_dev_bps: float  # population convention
    cdf: list  # (rate_x_bps, Pr(rate < rate_x)) pairs


def build_report(samples, grid_points: int = 30, method: str = "",
                 bits: int = 0) -> EvalReport:
    """Summary stats plus the empirical strict-below CDF on an even grid.

    Probabilities are Pr(rate < x); the final grid point closes the curve
    at exactly 1. All-equal samples degenerate to a two-point jump.
    """
    s = np.asarray(samples, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("samples must be non-empty")
    if not np.all(np.isfinite(s)):
        raise ValueError("samples must be finite")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    lo, hi = float(s.min()), float(s.max())
    ordered = np.sort(s)
    if hi > lo:
        xs = np.linspace(lo, hi, grid_points)
        probs = np.searchsorted(ordered, xs, side="left") / s.size
        probs[-1] = 1.0
    else:
        xs = np.array([lo, np.nextafter(lo, np.inf)])
        probs = np.array([0.0, 1.0])
    cdf = list(zip(xs.tolist(), probs.tolist()))
    return EvalReport(method, bits, s, hi, float(s.mean()), lo,
                      float(s.std()), cdf)


@dataclass(frozen=True)
class SweepRow:
    method: str
    bits: int
    n_vehicles: int
    worst_rate_mean_bps: float


def sweep_density(config: ExperimentConfig) -> list[SweepRow]:
    """Mean-over-repetitions worst vehicle rate per (method, bits, N), over
    the config's ``sweep_n_vehicles``, ``bits_list`` and ``repetitions``.

    Each (repetition, N) draw is computed once and each width's rates
    once per draw; every method at that width runs on them, so series
    differ only by algorithm and side information granularity.
    """
    grid, n_vehicles_list = config.grid, config.sweep_n_vehicles
    worst = {(m, b, n): [] for m in config.methods for b in config.bits_list
             for n in n_vehicles_list}
    for rep in range(config.repetitions):
        for n in n_vehicles_list:
            where = [f"N={n}", f"repetition {rep}"]
            try:
                seed = derive_seed(config.master_seed, SCENARIO_STREAM, rep, n)
                draw = draw_cluster(grid, config.scenario,
                                    Cluster(id=n, n_vehicles=n), seed)
                solver_seed = derive_seed(config.master_seed, RANDOM_STREAM, rep, n)
                for bits in config.bits_list:
                    where[2:] = [f"{bits} bits"]
                    rates = draw_rates(grid, config.scenario, draw, bits,
                                       config.quant_lo_db, config.quant_hi_db)
                    for method in config.methods:
                        where[3:] = [f"method {method}"]
                        cell = run_cell(grid, draw, rates, bits, method, solver_seed)
                        worst[method, bits, n].append(cell.vehicle_rates_bps.min())
                    del rates  # free this width's pair before the next is built
                del draw  # and this draw before the next is made
            except ValueError as exc:
                add_context(exc, where)
                raise
    return [SweepRow(m, b, n, float(np.mean(w))) for (m, b, n), w in worst.items()]
