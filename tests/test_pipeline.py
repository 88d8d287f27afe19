"""Cell path: every method's assignment is checked before it is scored."""

import pytest

from sidesched import pipeline
from sidesched.errors import ConstraintViolation
from sidesched.grid import ResourceGrid
from sidesched.scenario import Cluster, ScenarioModel
from sidesched.solvers import Assignment


@pytest.mark.parametrize("method, stage", [
    ("proposed", "expand_solution"),
    ("greedy", "solve_greedy"),
    ("random", "solve_random"),
    ("oracle", "solve_oracle"),
])
def test_run_cell_rejects_shared_subframe(monkeypatch, method, stage):
    def clashing(*args, **kwargs):
        # subchannels 0 and 1 both lie in subframe 0 when k = 2
        return Assignment(0, {0: 0, 1: 1}, method)

    monkeypatch.setattr(pipeline, stage, clashing)
    with pytest.raises(ConstraintViolation):
        pipeline.run_cell(ResourceGrid(k=2, l=3), ScenarioModel(kind="uniform"),
                          Cluster(id=0, n_vehicles=2), bits=0, method=method,
                          scenario_seed=1)
