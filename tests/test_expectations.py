"""Monte-Carlo means against exact expectations of one vehicle's rate.

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

The gaussian and two-state draws are clamped to [lo, hi], which puts an
atom at each end: for the default gaussian (10 +- 8 dB) about 46% of the
best of KL sits at the ceiling. With N = 1 at 0 bits, ``random`` takes
one clamped normal entry and ``proposed`` the clamped best of KL, so
each mean is r at each end times its atom plus the integral of r against
the density in between. A two-state row is bad with probability
``p_bad`` as a whole, so its mean is the ``p_bad`` mixture of the two
states' means, not the mean over a mixed row. At b bits ``proposed``
takes the first entry of the top occupied bin, so its SINR has the law
of one clamped entry given that bin: the top bin holds the ceiling's
atom and the bottom bin the floor's.

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
from scipy.stats import norm

from sidesched.config import ExperimentConfig
from sidesched.grid import ResourceGrid
from sidesched.metrics import iter_cells
from sidesched.scenario import Cluster, ScenarioModel
from test_acceptance import MIXED

LO, HI = -15.0, 35.0
GRID = ResourceGrid(k=7, l=100, b_hz=1.26e6)
KL = GRID.n_subchannels
WIDTHS = (0, 2, 3)
METHODS = ("proposed", "greedy", "random")
REPETITIONS = 1000
MASTER_SEED = 12345
FULL_LOAD_REPETITIONS = 200
FULL_LOAD_SEED = 271828
UNIFORM = ScenarioModel(kind="uniform", sinr_floor_db=LO, sinr_ceil_db=HI)
# the default gaussian and the acceptance bank's two-state, both on [LO, HI]
CLAMPED = {"gaussian": ScenarioModel(kind="gaussian"), "two-state": MIXED}
CLAMPED_METHODS = ("proposed", "random")
CLAMPED_BITS = 3  # proposed only; both methods run at 0 bits
CLAMPED_REPETITIONS = 1000
CLAMPED_SEEDS = {"gaussian": 161803, "two-state": 141421}
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


def clamped_mean(cdf, pdf):
    """E[r(clip(Y, LO, HI))] of a Y with this CDF and density: an atom at
    each end of the range, and the density in between."""
    return (rate(LO) * cdf(LO) + rate(HI) * (1.0 - cdf(HI))
            + quad(lambda x: rate(x) * pdf(x), LO, HI, limit=200)[0])


def top_bin_mean(dist, bits):
    """E[r] of an entry of the top occupied bin among KL SINRs of law
    ``dist``, clamped, on 2**bits bins over [LO, HI]: bin j is the top
    with probability below[j+1]**KL - below[j]**KL, where below[j] is one
    entry's chance to lie below bin j, and its entry has the clamped law
    given the bin."""
    m = 2 ** bits
    edges = np.linspace(LO, HI, m + 1)
    below = [0.0, *(dist.cdf(e) for e in edges[1:-1]), 1.0]
    total = 0.0
    for j in range(m):
        integral = quad(lambda x: rate(x) * dist.pdf(x), edges[j], edges[j + 1])[0]
        if j == 0:
            integral += rate(LO) * dist.cdf(LO)
        if j == m - 1:
            integral += rate(HI) * dist.sf(HI)
        total += ((below[j + 1] ** KL - below[j] ** KL)
                  * integral / (below[j + 1] - below[j]))
    return total


def row_mean(method, dist, bits):
    """E[r] of a vehicle's pick at ``bits`` in a row of KL SINRs of law
    ``dist``, clamped: ``random`` takes one, ``proposed`` the best at 0
    bits, else an entry of the top occupied bin."""
    if method == "random":
        return clamped_mean(dist.cdf, dist.pdf)
    if bits:
        return top_bin_mean(dist, bits)
    return clamped_mean(lambda x: dist.cdf(x) ** KL,
                        lambda x: KL * dist.cdf(x) ** (KL - 1) * dist.pdf(x))


def clamped_expected(model, method, bits):
    good = row_mean(method, norm(model.mean_db, model.std_db), bits)
    if model.kind == "gaussian":
        return good
    bad = row_mean(method, norm(model.bad_mean_db, model.std_db), bits)
    return model.p_bad * bad + (1.0 - model.p_bad) * good


def cells(n, widths, methods, repetitions, seed, model=UNIFORM):
    """Every cell of one cluster of ``n`` vehicles on the grid."""
    config = ExperimentConfig(
        grid=GRID, scenario=model,
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


@pytest.fixture(scope="module")
def clamped():
    """One vehicle's truth rate per (scenario, method, bits): both methods
    at 0 bits, and ``proposed`` at ``CLAMPED_BITS``."""
    kept = [(m, 0) for m in CLAMPED_METHODS] + [("proposed", CLAMPED_BITS)]
    out = {(name, m, b): [] for name in CLAMPED for m, b in kept}
    for name, model in CLAMPED.items():
        assert (model.sinr_floor_db, model.sinr_ceil_db) == (LO, HI)
        for cell in cells(1, (0, CLAMPED_BITS), CLAMPED_METHODS,
                          CLAMPED_REPETITIONS, CLAMPED_SEEDS[name], model):
            if (name, cell.method, cell.bits) in out:
                out[name, cell.method, cell.bits].append(cell.sum_rate_truth_bps)
    return {key: np.array(rates) for key, rates in out.items()}


def check_clamped(clamped, scenario, method, bits):
    x = clamped[scenario, method, bits]
    assert x.size == CLAMPED_REPETITIONS
    exact = clamped_expected(CLAMPED[scenario], method, bits)
    z = z_score(x, exact)
    assert abs(z) <= Z_BOUND, (
        f"{method} on {scenario} at {bits} bits: mean {x.mean() / 1e6:.4f} "
        f"Mbps, exact {exact / 1e6:.4f} Mbps, z = {z:.2f}")


@pytest.mark.parametrize("method", CLAMPED_METHODS)
@pytest.mark.parametrize("scenario", CLAMPED)
def test_clamped_mean_matches_its_exact_expectation(clamped, scenario, method):
    check_clamped(clamped, scenario, method, 0)


@pytest.mark.parametrize("scenario", CLAMPED)
def test_clamped_quantized_mean_matches_its_exact_expectation(clamped, scenario):
    check_clamped(clamped, scenario, "proposed", CLAMPED_BITS)
