"""The Monte-Carlo cell loop and the statistics reduced over it: CDFs,
summary criteria, sweeps."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .pipeline import (RANDOM_STREAM, SCENARIO_STREAM, CellResult, derive_seed,
                       draw_cluster, draw_rates, run_cell)
from .scenario import Cluster
from .sideinfo import QuantizerSpec, level_rates


def iter_cells(config: ExperimentConfig, points: list[tuple[str, Cluster]]
               ) -> Iterator[tuple[int, Cluster, CellResult]]:
    """Every (repetition, cluster, cell) of ``points`` at the config's
    widths and methods, for ``repetitions`` repetitions.

    ``points`` are (label, cluster) pairs. The loop nests repetition x
    point, then width, then method: each width's level table is rated once,
    each draw and its block maxima are computed once, and each width's
    rates and block table once per draw, from those maxima, shared by
    every method; each is released before the next is made. Seeds are
    keyed by (repetition, ``cluster.id``). A ``ValueError`` is prefixed
    with the label, repetition, width and method of its cell and re-raised
    bare, so it keeps its type and attributes (``ConfigError.keys``,
    ``ParseError.row``).
    """
    grid, master = config.grid, config.master_seed
    quant_range = (config.quant_lo_db, config.quant_hi_db)
    widths = []
    for bits in config.bits_list:
        q = QuantizerSpec(bits, *quant_range) if bits else None
        widths.append((bits, q, level_rates(q, grid.b_hz) if q else None))
    where = []
    try:
        for rep in range(config.repetitions):
            for label, cluster in points:
                where[:] = [label, f"repetition {rep}"]
                seed = derive_seed(master, SCENARIO_STREAM, rep, cluster.id)
                draw = draw_cluster(grid, config.scenario, cluster, seed, quant_range)
                solver_seed = derive_seed(master, RANDOM_STREAM, rep, cluster.id)
                for bits, q, levels in widths:
                    where[2:] = [f"{bits} bits"]
                    rates = draw_rates(grid, draw, q, levels)
                    for method in config.methods:
                        where[3:] = [f"method {method}"]
                        yield rep, cluster, run_cell(grid, draw, rates, bits,
                                                     method, solver_seed)
                    del rates  # free this width's rates before the next are built
                del draw  # and this draw before the next is made
    except ValueError as exc:
        exc.args = (f"{', '.join(where)}: {exc}",)
        raise


@dataclass
class EvalReport:
    """Statistics of one (method, bits) series' pooled rates, in bits/s."""

    method: str
    bits: int
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
    ordered = np.sort(s)
    lo, hi = float(ordered[0]), float(ordered[-1])
    # NaN sorts last and -inf/+inf to the ends, so the ends show them all
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("samples must be finite")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    if hi > lo:
        xs = np.linspace(lo, hi, grid_points)
        probs = np.searchsorted(ordered, xs, side="left") / s.size
        probs[-1] = 1.0
    else:
        xs = np.array([lo, np.nextafter(lo, np.inf)])
        probs = np.array([0.0, 1.0])
    cdf = list(zip(xs.tolist(), probs.tolist()))
    return EvalReport(method, bits, hi, _finite_stat(np.mean, s), lo,
                      _finite_stat(np.std, s), cdf)


def _finite_stat(stat, s: np.ndarray) -> float:
    """``stat`` (``np.mean`` or ``np.std``) of the finite samples ``s``.

    numpy sums before it divides and squares deviations before it sums, so
    a finite statistic can overflow on the way. Only then is it taken on
    ``s`` scaled by its largest magnitude, then scaled back: on samples in
    [-1, 1] either statistic lies in [-1, 1], so the result is finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(stat(s))
    if math.isfinite(value):
        return value
    top = float(np.abs(s).max())
    return top * float(stat(s / top))


@dataclass(frozen=True)
class SweepRow:
    method: str
    bits: int
    n_vehicles: int
    worst_rate_mean_bps: float


def sweep_density(config: ExperimentConfig) -> list[SweepRow]:
    """Mean-over-repetitions worst vehicle rate per (method, bits, N), over
    the config's ``sweep_densities``, ``bits_list`` and ``repetitions``.

    Every method at a width runs on the same draw and rates
    (``iter_cells``), so series differ only by algorithm and side
    information granularity.
    """
    n_vehicles_list = config.sweep_densities
    worst = {(m, b, n): [] for m in config.methods for b in config.bits_list
             for n in n_vehicles_list}
    points = [(f"N={n}", Cluster(id=n, n_vehicles=n)) for n in n_vehicles_list]
    for _, cluster, cell in iter_cells(config, points):
        worst[cell.method, cell.bits, cluster.n_vehicles].append(
            cell.vehicle_rates_bps.min())
    rows = []
    for (m, b, n), w in worst.items():
        rows.append(SweepRow(m, b, n, _finite_stat(np.mean, np.asarray(w))))
    return rows
