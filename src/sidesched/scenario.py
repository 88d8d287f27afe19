"""Per-cluster SINR side information from synthetic models; table padding.

A cluster's side information is an N x (K*L) array of fine-grained SINR
in dB, one row per vehicle and one column per subchannel of the window.
The scheduling math consumes only this array; here it is drawn from
seeded statistical models with finite levels, clamped to [floor, ceil].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ShapeError, require
from .grid import ResourceGrid

SCENARIO_KINDS = ("uniform", "gaussian", "two-state")


@dataclass(frozen=True)
class Cluster:
    """A co-scheduled vehicle group sharing one window of subchannels."""

    id: int
    n_vehicles: int

    def __post_init__(self):
        if self.n_vehicles < 1:
            raise ValueError(f"cluster {self.id} needs at least one vehicle")


@dataclass(frozen=True)
class ScenarioModel:
    """Synthetic SINR generator parameters. All levels are in dB.

    ``uniform`` draws on [floor, ceil]. ``gaussian`` draws around
    ``mean_db``. ``two-state`` first puts each vehicle in a good or a bad
    channel state (bad with probability ``p_bad``), then draws its whole
    row around that state's center, so subchannel variation rides on a
    per-vehicle level. Everything clamps to [floor, ceil].
    """

    kind: str = "uniform"
    mean_db: float = 10.0
    std_db: float = 8.0
    bad_mean_db: float = -5.0   # low-state center, two-state only
    p_bad: float = 0.2          # low-state probability, two-state only
    sinr_floor_db: float = -15.0
    sinr_ceil_db: float = 35.0
    seed: int = 0

    def __post_init__(self):
        fin, ordered = math.isfinite, self.sinr_floor_db < self.sinr_ceil_db
        require(kind=self.kind in SCENARIO_KINDS, mean_db=fin(self.mean_db),
                std_db=fin(self.std_db) and self.std_db >= 0,
                bad_mean_db=fin(self.bad_mean_db), p_bad=0.0 <= self.p_bad <= 1.0,
                sinr_floor_db=fin(self.sinr_floor_db) and ordered,
                sinr_ceil_db=fin(self.sinr_ceil_db) and ordered,
                seed=self.seed >= 0)


def generate_sinr(model: ScenarioModel, cluster: Cluster, grid: ResourceGrid) -> np.ndarray:
    """Draw the cluster's N x (K*L) SINR array in dB.

    Deterministic in (model.seed, cluster.id): the stream is split per
    cluster, so regenerating any one cluster gives identical values
    regardless of generation order.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=model.seed, spawn_key=(cluster.id,)))
    shape = (cluster.n_vehicles, grid.n_subchannels)
    if model.kind == "uniform":
        # support pinned to the clamp range
        vals = rng.uniform(model.sinr_floor_db, model.sinr_ceil_db, shape)
    elif model.kind == "gaussian":
        vals = rng.normal(model.mean_db, model.std_db, shape)
    else:  # two-state
        # state is a property of the vehicle, not of the subchannel
        bad_row = rng.random((cluster.n_vehicles, 1)) < model.p_bad
        # rng.normal(centers, std_db, shape) bit for bit, minus its slow
        # broadcast, and like it silent where a level overflows to +-inf
        vals = rng.standard_normal(shape)
        with np.errstate(over="ignore", invalid="ignore"):
            centers = np.where(bad_row, model.bad_mean_db, model.mean_db)
            vals *= model.std_db
            vals += centers
    return np.clip(vals, model.sinr_floor_db, model.sinr_ceil_db, out=vals)


def pad_to_square(table: np.ndarray, grid: ResourceGrid) -> np.ndarray:
    """Append zero rows to an (N, L) table of rates until it is (L, L).

    The matching kernel takes a square table. Rates are non-negative, so
    a zero row moves neither the row maxima nor the weights of the real
    rows; being constant, it is set aside by the kernel (its step 0) and
    takes a column left over by the real rows 0..N-1.
    """
    n, cols = table.shape
    if cols != grid.l:
        raise ShapeError(f"table has {cols} subframe columns, grid has {grid.l}")
    if n > grid.l:
        raise InfeasibleError(
            f"{n} vehicles exceed {grid.l} subframes; a subframe holds one "
            "vehicle per cluster")
    return np.vstack([table, np.zeros((grid.l - n, grid.l))])
