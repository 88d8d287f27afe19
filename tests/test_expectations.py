"""Monte-Carlo means against exact expectations on a uniform SINR draw.

A vehicle alone in its cluster draws K*L = KL SINRs, uniform on [lo, hi],
and the quantizer spans the same range. With r the rate of a SINR and F
the uniform CDF, each method's expected truth rate has a closed form:

- ``random`` picks its subchannel blind to the SINR: E[r(U)];
- ``proposed`` and ``greedy`` at 0 bits take the best of KL entries: the
  integral of r(x) d(F(x)**KL);
- at b bits, with m = 2**b bins, they take an entry of the top occupied
  bin. That is bin j with probability ((j+1)/m)**KL - (j/m)**KL, and the
  entry's SINR is uniform within the bin, whichever of its entries the
  tie rule picks.

At full load, N = L vehicles on the same grid, two of these still hold:
``random``'s pick stays blind, so each vehicle's truth rate is r(U), and
``greedy``'s vehicle 0 picks first, so at 0 bits it takes the best of KL.

The rate is written out here, not taken from ``sidesched``, so a wrong
rate formula, a wrong bin edge or a biased pick moves a mean; a wrong
slot inside the top bin does not. The seeds, the repetitions and the
bound were fixed before each test first ran: a failure is mended in the
program or in a formula, never with a new seed.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from sidesched.config import ExperimentConfig
from sidesched.grid import ResourceGrid
from sidesched.metrics import iter_cells
from sidesched.scenario import Cluster, ScenarioModel

LO, HI = -15.0, 35.0
GRID = ResourceGrid(k=7, l=100, b_hz=1.26e6)
KL = GRID.n_subchannels
WIDTHS = (0, 2, 3)
METHODS = ("proposed", "greedy", "random")
REPETITIONS = 1000
MASTER_SEED = 12345
FULL_LOAD_REPETITIONS = 200
FULL_LOAD_SEED = 271828
Z_BOUND = 4.0


def rate(x):
    return GRID.b_hz * math.log2(1.0 + 10.0 ** (x / 10.0))


def mean_rate(a, b):
    """Mean of r over a SINR uniform on [a, b]."""
    return quad(rate, a, b)[0] / (b - a)


def expected(method, bits):
    if method == "random":
        return mean_rate(LO, HI)
    if bits == 0:
        # x = F^-1(t ** (1 / KL)) carries d(F**KL) to dt on [0, 1]
        return quad(lambda t: rate(LO + (HI - LO) * t ** (1.0 / KL)), 0.0, 1.0)[0]
    m = 2 ** bits
    edges = np.linspace(LO, HI, m + 1)
    return sum((((j + 1) / m) ** KL - (j / m) ** KL)
               * mean_rate(edges[j], edges[j + 1]) for j in range(m))


def cells(n, widths, methods, repetitions, seed):
    """Every cell of one cluster of ``n`` vehicles on the uniform grid."""
    config = ExperimentConfig(
        grid=GRID, scenario=ScenarioModel(kind="uniform", sinr_floor_db=LO,
                                          sinr_ceil_db=HI),
        cluster_sizes=(n,), bits_list=widths, methods=methods,
        repetitions=repetitions, master_seed=seed,
        quant_lo_db=LO, quant_hi_db=HI)
    return (cell for _, _, cell in
            iter_cells(config, [("cluster 0", Cluster(0, n))]))


def z_score(x, exact):
    return (x.mean() - exact) / (x.std(ddof=1) / math.sqrt(x.size))


@pytest.fixture(scope="module")
def samples():
    out = {(m, b): [] for m in METHODS for b in WIDTHS}
    for cell in cells(1, WIDTHS, METHODS, REPETITIONS, MASTER_SEED):
        out[cell.method, cell.bits].append(cell.sum_rate_truth_bps)
    return {key: np.array(rates) for key, rates in out.items()}


@pytest.fixture(scope="module")
def full_load():
    """At N = L and 0 bits: every vehicle's truth rate under ``random``,
    and vehicle 0's under ``greedy``."""
    out = {"random": [], "greedy": []}
    for cell in cells(GRID.l, (0,), ("greedy", "random"),
                      FULL_LOAD_REPETITIONS, FULL_LOAD_SEED):
        rates = cell.vehicle_rates_bps
        out[cell.method].append(rates if cell.method == "random" else rates[:1])
    return {method: np.concatenate(rates) for method, rates in out.items()}


@pytest.mark.parametrize("bits", WIDTHS)
@pytest.mark.parametrize("method", METHODS)
def test_mean_rate_matches_its_exact_expectation(samples, method, bits):
    x = samples[method, bits]
    assert x.size == REPETITIONS
    exact = expected(method, bits)
    z = z_score(x, exact)
    assert abs(z) <= Z_BOUND, (
        f"{method} at {bits} bits: mean {x.mean() / 1e6:.4f} Mbps, exact "
        f"{exact / 1e6:.4f} Mbps, z = {z:.2f}")


@pytest.mark.parametrize("method, size", [
    ("random", FULL_LOAD_REPETITIONS * GRID.l), ("greedy", FULL_LOAD_REPETITIONS)],
    ids=["random", "greedy"])
def test_full_load_mean_matches_its_exact_expectation(full_load, method, size):
    # random: every vehicle's rate; greedy: vehicle 0's, the best of KL
    x = full_load[method]
    assert x.size == size
    exact = expected(method, 0)
    z = z_score(x, exact)
    assert abs(z) <= Z_BOUND, (
        f"{method} at full load: mean {x.mean() / 1e6:.4f} Mbps, exact "
        f"{exact / 1e6:.4f} Mbps, z = {z:.2f}")
