"""Cell path: every method's assignment is checked before it is scored,
every cell runs through the one loop, and each draw and each width's
rates and block table are computed once."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sidesched import metrics, pipeline
from sidesched.cli import load_config, run_experiment, run_sweep
from sidesched.errors import ConstraintViolation
from sidesched.grid import ResourceGrid
from sidesched.scenario import Cluster, ScenarioModel
from sidesched.sideinfo import _bin_index
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
        return Assignment(0, np.array([0, 1]), method)

    monkeypatch.setattr(pipeline, stage, clashing)
    grid, model = ResourceGrid(k=2, l=3), ScenarioModel(kind="uniform")
    draw = pipeline.draw_cluster(grid, model, Cluster(id=0, n_vehicles=2),
                                 scenario_seed=1, quant_range=None)
    with pytest.raises(ConstraintViolation):
        rates = pipeline.draw_rates(grid, draw, 0)
        pipeline.run_cell(grid, draw, rates, bits=0, method=method)


@pytest.mark.parametrize("method, stage", [
    ("proposed", "expand_solution"),
    ("greedy", "solve_greedy"),
    ("random", "solve_random"),
    ("oracle", "solve_oracle"),
])
def test_assignment_names_real_vehicles_only(monkeypatch, method, stage):
    # 3 vehicles on 5 subframes: rows 3 and 4 of the draw are dummies. At
    # ideal feedback the decision is the draw's truth itself, which no
    # cell may write to.
    assignments = _record_calls(monkeypatch, stage)
    grid, model = ResourceGrid(k=2, l=5), ScenarioModel(kind="two-state")
    draw = pipeline.draw_cluster(grid, model, Cluster(id=0, n_vehicles=3),
                                 scenario_seed=4, quant_range=(-15.0, 35.0))
    truth = draw.truth.values.copy()
    for bits in (0, 2):
        rates = pipeline.draw_rates(grid, draw, bits)
        cell = pipeline.run_cell(grid, draw, rates, bits, method, solver_seed=5)
        subchannel = assignments[-1].subchannel
        assert isinstance(subchannel, np.ndarray)
        assert (subchannel.dtype, subchannel.shape) == (np.int64, (3,))
        assert cell.vehicle_rates_bps.shape == (3,)
        assert draw.truth.values.tobytes() == truth.tobytes()
    assert len(assignments) == 2


def _record_calls(monkeypatch, name, module=pipeline, first_args=None,
                  calls=None):
    """Results of every call to ``module.name``; the first positional
    argument of each call goes to ``first_args`` and its (args, kwargs)
    to ``calls``, when they are given."""
    results = []
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        if first_args is not None:
            first_args.append(args[0])
        if calls is not None:
            calls.append((args, kwargs))
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, recorded)
    return results


SMOKE = Path(__file__).resolve().parents[1] / "configs" / "smoke.json"


@pytest.mark.parametrize("runner, n_cells", [(run_experiment, 48),
                                             (run_sweep, 96)])
def test_every_cell_runs_through_the_one_loop(monkeypatch, tmp_path, runner,
                                              n_cells):
    # smoke: 3 repetitions x (2 clusters | 4 densities) x 2 widths x 4 methods
    cells = _record_calls(monkeypatch, "run_cell", module=metrics)
    runner(replace(load_config(SMOKE), out_dir=str(tmp_path)))
    assert len(cells) == n_cells


@pytest.mark.parametrize("runner", [run_experiment, run_sweep])
def test_draw_once_per_repetition_and_cluster(monkeypatch, tmp_path, runner):
    config = replace(load_config(SMOKE), out_dir=str(tmp_path))
    draws = _record_calls(monkeypatch, "generate_sinr")
    padded = _record_calls(monkeypatch, "pad_to_square")
    fines = _record_calls(monkeypatch, "_fine_index")
    rate_calls = []
    rates = _record_calls(monkeypatch, "build_rate_matrices", calls=rate_calls)
    tables = _record_calls(monkeypatch, "compress")
    proposed_in, greedy_in = [], []
    _record_calls(monkeypatch, "solve_proposed", first_args=proposed_in)
    _record_calls(monkeypatch, "solve_greedy", first_args=greedy_in)
    runner(config)
    points = (config.cluster_sizes if runner is run_experiment
              else config.sweep_n_vehicles)
    widths = len(config.bits_list)
    assert len(draws) == config.repetitions * len(points)
    assert len(rates) == len(draws) * widths
    # every width of a draw reads one truth matrix, computed once
    truths = [args[0] for args, _ in rate_calls]
    for d in range(len(draws)):
        per_draw = truths[d * widths:(d + 1) * widths]
        assert all(t is per_draw[0] for t in per_draw)
    assert len({id(t) for t in truths}) == len(draws)
    # and every width's block table once, read by proposed and greedy alike
    assert len(tables) == len(rates)
    assert len({id(t) for t in tables}) == len(tables)
    assert [id(t) for t in proposed_in] == [id(t) for t in tables]
    assert [id(t) for t in greedy_in] == [id(t) for t in tables]
    # the 8-bit index once per draw, read by every width of that draw, and
    # each width's indices those of its own quantizer from scratch
    assert len(fines) == len(padded) == len(draws)
    sinrs = [s for s in padded for _ in range(widths)]
    for (args, _), decision, sinr in zip(rate_calls, rates, sinrs):
        q = args[1]
        if q is not None:
            np.testing.assert_array_equal(decision.idx,
                                          _bin_index(q, sinr.values))
            assert decision.idx.dtype == np.uint8
    fine_of = [id(args[3]) for args, _ in rate_calls]
    assert fine_of == [id(f) for f in fines for _ in range(widths)]


def test_no_fine_index_without_a_quantized_width(monkeypatch, tmp_path):
    config = replace(load_config(SMOKE), out_dir=str(tmp_path), bits_list=(0,))
    fines = _record_calls(monkeypatch, "_fine_index")
    draws = _record_calls(monkeypatch, "generate_sinr")
    run_experiment(config)
    assert draws and fines == []
