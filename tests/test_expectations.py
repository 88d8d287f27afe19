"""Monte-Carlo means against exact expectations: one vehicle, uniform SINR.

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

The rate is written out here, not taken from ``sidesched``, so a wrong
rate formula, a wrong bin edge or a biased pick moves a mean; a wrong
slot inside the top bin does not. The seed and the bound were fixed
before the test first ran: a failure is mended in the program or in a
formula, never with a new seed.
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


@pytest.fixture(scope="module")
def samples():
    config = ExperimentConfig(
        grid=GRID, scenario=ScenarioModel(kind="uniform", sinr_floor_db=LO,
                                          sinr_ceil_db=HI),
        cluster_sizes=(1,), bits_list=WIDTHS, methods=METHODS,
        repetitions=REPETITIONS, master_seed=MASTER_SEED,
        quant_lo_db=LO, quant_hi_db=HI)
    out = {(m, b): [] for m in METHODS for b in WIDTHS}
    for _, _, cell in iter_cells(config, [("cluster 0", Cluster(0, 1))]):
        out[cell.method, cell.bits].append(cell.sum_rate_truth_bps)
    return {key: np.array(rates) for key, rates in out.items()}


@pytest.mark.parametrize("bits", WIDTHS)
@pytest.mark.parametrize("method", METHODS)
def test_mean_rate_matches_its_exact_expectation(samples, method, bits):
    x = samples[method, bits]
    assert x.size == REPETITIONS
    exact = expected(method, bits)
    z = (x.mean() - exact) / (x.std(ddof=1) / math.sqrt(x.size))
    assert abs(z) <= Z_BOUND, (
        f"{method} at {bits} bits: mean {x.mean() / 1e6:.4f} Mbps, exact "
        f"{exact / 1e6:.4f} Mbps, z = {z:.2f}")
