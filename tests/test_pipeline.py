"""Cell path: every method's assignment is checked before it is scored,
every cell runs through the one loop, each draw and each width's rates
and block table are computed once, and only the entries a cell reads are
rated."""

import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sidesched import metrics, pipeline, sideinfo
from sidesched.assignment import compress
from sidesched.cli import load_config, run_experiment, run_sweep
from sidesched.config import config_from_dict
from sidesched.errors import ConstraintViolation
from sidesched.grid import ResourceGrid
from sidesched.scenario import Cluster, ScenarioModel, pad_to_square
from sidesched.sideinfo import QuantizerSpec, _bin_index, level_rates
from sidesched.solvers import Assignment
from util import slot_table


@pytest.mark.parametrize("method, stage", [
    ("proposed", "expand_solution"),
    ("greedy", "solve_greedy"),
    ("random", "solve_random"),
    ("oracle", "solve_oracle"),
])
def test_run_cell_rejects_shared_subframe(monkeypatch, method, stage):
    def clashing(*args, **kwargs):
        # subchannels 0 and 1 both lie in subframe 0 when k = 2
        return Assignment(np.array([0, 1]), method)

    monkeypatch.setattr(pipeline, stage, clashing)
    grid, model = ResourceGrid(k=2, l=3), ScenarioModel(kind="uniform")
    draw = pipeline.draw_cluster(grid, model, Cluster(id=0, n_vehicles=2),
                                 scenario_seed=1)
    with pytest.raises(ConstraintViolation):
        rates = pipeline.draw_rates(grid, draw, None, None)
        pipeline.run_cell(grid, draw, rates, bits=0, method=method)


@pytest.mark.parametrize("method, stage", [
    ("proposed", "expand_solution"),
    ("greedy", "solve_greedy"),
    ("random", "solve_random"),
    ("oracle", "solve_oracle"),
])
def test_assignment_names_real_vehicles_only(monkeypatch, method, stage):
    # 3 vehicles on 5 subframes: the draw has 3 rows, and only the block
    # table the kernel reads is padded to 5. At ideal feedback the decision
    # is the draw's truth itself, whose SINR no cell may write to.
    assignments = _record_calls(monkeypatch, stage)
    grid, model = ResourceGrid(k=2, l=5), ScenarioModel(kind="two-state")
    draw = pipeline.draw_cluster(grid, model, Cluster(id=0, n_vehicles=3),
                                 scenario_seed=4)
    assert draw.truth.key.shape == (3, 10)
    assert draw.top.shape == (3, 5)
    truth = draw.truth.key.copy()
    for bits, q in ((0, None), (2, QuantizerSpec(2, -15.0, 35.0))):
        levels = level_rates(q, grid.b_hz) if q else None
        rates = pipeline.draw_rates(grid, draw, q, levels)
        cell = pipeline.run_cell(grid, draw, rates, bits, method, solver_seed=5)
        subchannel = assignments[-1].subchannel
        assert isinstance(subchannel, np.ndarray)
        assert (subchannel.dtype, subchannel.shape) == (np.int64, (3,))
        assert cell.vehicle_rates_bps.shape == (3,)
        assert draw.truth.key.tobytes() == truth.tobytes()
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


ROOT = Path(__file__).resolve().parents[1]
SMOKE = ROOT / "configs" / "smoke.json"


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
    # (vehicles of the latest draw, quantizer, SINR indexed) per read; a
    # decision's table of block maxima, its scored entries and its slot
    # lookups are all keyed through its ``key_of``, so all index here
    indexed = []
    real_index = sideinfo._bin_index

    def recorded(q, sinr_db):
        indexed.append((len(draws[-1]) if draws else 0, q, sinr_db))
        return real_index(q, sinr_db)

    monkeypatch.setattr(sideinfo, "_bin_index", recorded)
    rate_calls = []
    rates = _record_calls(monkeypatch, "build_rate_matrices", calls=rate_calls)
    compress_in = []
    compressed = _record_calls(monkeypatch, "compress", first_args=compress_in)
    widths_rated = _record_calls(monkeypatch, "draw_rates", module=metrics)
    proposed_in, greedy_in = [], []
    _record_calls(monkeypatch, "solve_proposed", first_args=proposed_in)
    _record_calls(monkeypatch, "solve_greedy", first_args=greedy_in)
    runner(config)
    monkeypatch.setattr(sideinfo, "_bin_index", real_index)
    grid = config.grid
    tables = [table for _, table in widths_rated]
    points = (config.cluster_sizes if runner is run_experiment
              else config.sweep_n_vehicles)
    widths = len(config.bits_list)
    quantized = sum(1 for bits in config.bits_list if bits)
    assert len(draws) == config.repetitions * len(points)
    assert len(rates) == len(draws) * widths
    # each quantized width indexes the draw's N x L block maxima once;
    # beyond them no per-entry index is made per draw or per width: a
    # quantized width indexes at most the K slots of each vehicle's picked
    # block, and only the oracle, which rates its whole decision, indexes
    # every entry
    maxima = {id(c.d) for c in compressed}
    tops = [(q, sinr) for _, q, sinr in indexed if id(sinr) in maxima]
    reads = [(n, np.size(sinr)) for n, _, sinr in indexed
             if id(sinr) not in maxima]
    assert reads and all(size <= n * grid.k for n, size in reads
                         if size != n * grid.n_subchannels)
    full = [size for n, size in reads if size == n * grid.n_subchannels]
    assert len(full) == len(draws) * quantized * config.methods.count("oracle")
    # every width of a draw reads one truth, made once, and every draw
    # reads each width's quantizer and level table, rated once per run
    truths = [args[0] for args, _ in rate_calls]
    for d in range(len(draws)):
        per_draw = truths[d * widths:(d + 1) * widths]
        assert all(t is per_draw[0] for t in per_draw)
    assert len({id(t) for t in truths}) == len(draws)
    for arg in (1, 2):
        of_width = [id(args[arg]) for args, _ in rate_calls]
        assert of_width == of_width[:widths] * len(draws)
    # block maxima once per draw, of its SINR, and each quantized width's
    # index once per draw, of those N x L maxima under its own quantizer;
    # every width's block table once, padded once, its slots looked up in
    # the draw's SINR itself, and read by proposed and greedy alike
    assert [id(c) for c in compress_in] == [id(s) for s in draws]
    assert len(tops) == len(draws) * quantized
    quantizers = [id(args[1]) for args, _ in rate_calls if args[1] is not None]
    assert [id(q) for q, _ in tops] == quantizers
    assert ([id(top) for _, top in tops]
            == [id(c.d) for c in compressed for _ in range(quantized)])
    assert [top.shape for _, top in tops] == [(len(s), grid.l) for s in draws
                                              for _ in range(quantized)]
    sinrs = [s for s in draws for _ in range(widths)]
    assert len(tables) == len(padded) == len(rates)
    assert [id(t.d) for t in tables] == [id(p) for p in padded]
    assert all(t.keys is sinr for t, sinr in zip(tables, sinrs))
    assert len({id(t) for t in tables}) == len(tables)
    assert [id(t) for t in proposed_in] == [id(t) for t in tables]
    assert [id(t) for t in greedy_in] == [id(t) for t in tables]
    # each quantized width keys the draw's SINR, and its table's slots, by
    # its own quantizer, and its indices are those of that quantizer from
    # scratch
    for (args, _), decision, table, sinr, bits in zip(
            rate_calls, rates, tables, sinrs, config.bits_list * len(draws)):
        if bits:
            q = QuantizerSpec(bits, config.quant_lo_db, config.quant_hi_db)
            assert args[1] == q and decision.q is args[1]
            assert table.key_of == decision.key_of
            assert args[2].tobytes() == level_rates(q, grid.b_hz).tobytes()
            assert decision.sinr is sinr and decision.level_rates is args[2]
            np.testing.assert_array_equal(decision.key, _bin_index(q, sinr))
            assert decision.key.dtype == np.uint8
    # an ideal width decides on the truth itself, and its table of rated
    # SINR block maxima is the table of the full rate matrix, padded, with
    # that matrix's first maximal slot at every (vehicle, subframe)
    for (args, _), decision, table in zip(rate_calls, rates, tables):
        if args[1] is None:
            assert decision is args[0] and table.key_of == decision.key_of
            full = decision.values
            ref = compress(full.ravel(), table.k, table.l)
            assert table.d.tobytes() == pad_to_square(ref.d, grid).tobytes()
            first = full.reshape(len(full), table.l, table.k).argmax(axis=2)
            np.testing.assert_array_equal(slot_table(table), first)


@st.composite
def edge_draws(draw):
    """(grid, n, SINR, quantizer range): SINRs below and above the range,
    on and one ulp around its 8-bit bin edges, and +-0, among others."""
    lo, hi = draw(st.sampled_from([-15.0, 0.0])), draw(st.sampled_from([25.0, 35.0]))
    k, l = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    n = draw(st.integers(1, l))
    edges = lo + np.arange(257) * ((hi - lo) / 256)
    special = np.concatenate([edges, np.nextafter(edges, -np.inf),
                              np.nextafter(edges, np.inf),
                              [lo - 5.0, hi + 5.0, -0.0, 0.0]])
    values = st.one_of(st.sampled_from(special.tolist()),
                       st.floats(lo - 10.0, hi + 10.0))
    sinr = draw(arrays(float, (n, k * l), elements=values))
    return ResourceGrid(k=k, l=l), n, sinr, (lo, hi)


@settings(max_examples=150, deadline=None)
@given(case=edge_draws())
def test_every_width_derives_its_table_from_the_draw_maxima(case):
    # at every width, the rated table and the slot lookup equal a
    # per-block reference on the width's own keys: the maximum, kept as
    # the first maximal entry (so with its sign), and that entry's slot
    grid, n, sinr, (lo, hi) = case
    with mock.patch.object(pipeline, "generate_sinr", return_value=sinr):
        draw = pipeline.draw_cluster(grid, ScenarioModel(), Cluster(0, n), 0)
    for bits in range(9):
        q = QuantizerSpec(bits, lo, hi) if bits else None
        levels = level_rates(q, grid.b_hz) if q else None
        decision, table = pipeline.draw_rates(grid, draw, q, levels)
        blocks = decision.key.reshape(n * grid.l, grid.k).tolist()
        top = [max(b) for b in blocks]  # max keeps the first of equals
        slots = [b.index(m) for b, m in zip(blocks, top)]
        rated = decision.rate(np.array(top, decision.key.dtype))
        assert table.d.shape == (grid.l, grid.l)
        assert table.d[:n].tobytes() == rated.reshape(n, grid.l).tobytes()
        assert not table.d[n:].any()
        assert slot_table(table).ravel().tolist() == slots
        if not bits:
            assert draw.top.tobytes() == np.array(top).reshape(n, grid.l).tobytes()


@settings(max_examples=100, deadline=None)
@given(case=edge_draws(), bits=st.integers(0, 8), data=st.data())
def test_every_keyed_read_goes_through_key_of(case, bits, data):
    # both rate types, bit for bit: the whole key is ``key_of`` of the
    # SINR, a scored entry is the rate of its key, and a picked block's
    # slot is the first maximum of its keys
    grid, n, sinr, (lo, hi) = case
    with mock.patch.object(pipeline, "generate_sinr", return_value=sinr):
        draw = pipeline.draw_cluster(grid, ScenarioModel(), Cluster(0, n), 0)
    q = QuantizerSpec(bits, lo, hi) if bits else None
    decision, table = pipeline.draw_rates(
        grid, draw, q, level_rates(q, grid.b_hz) if q else None)
    key = decision.key_of(sinr)
    assert (decision.key.dtype, decision.key.tobytes()) == (key.dtype, key.tobytes())
    rows = data.draw(arrays(np.int64, n, elements=st.integers(0, n - 1)))
    cols = data.draw(arrays(np.int64, n,
                            elements=st.integers(0, grid.n_subchannels - 1)))
    assert (decision.at(rows, cols).tobytes()
            == decision.rate(decision.key_of(sinr[rows, cols])).tobytes())
    frames = np.array(data.draw(st.permutations(range(grid.l))))[:n]
    picked = key.reshape(n, grid.l, grid.k)[np.arange(n), frames]
    assert table.slots(frames).tobytes() == picked.argmax(axis=1).tobytes()


@pytest.mark.parametrize("runner", [run_experiment, run_sweep])
def test_no_rating_beyond_the_block_table(monkeypatch, tmp_path, runner):
    # the oracle rates its own rows; every other method reads the N x L
    # block table of its draw, N chosen entries and the 2**bits level rates
    config = replace(load_config(SMOKE), out_dir=str(tmp_path),
                     methods=("proposed", "greedy", "random"))
    draws = _record_calls(monkeypatch, "generate_sinr")
    sizes = []  # (vehicles of the latest draw, 0 before the first; entries rated)
    real = sideinfo.rate_from_sinr

    def sized(b_hz, sinr_db):
        sizes.append((len(draws[-1]) if draws else 0, np.size(sinr_db)))
        return real(b_hz, sinr_db)

    monkeypatch.setattr(sideinfo, "rate_from_sinr", sized)
    runner(config)
    # before the first draw the config rates each width's levels, no more
    levels = 2 ** max(config.bits_list)
    assert all(size <= levels for n, size in sizes if not n)
    assert len(draws) and all(size <= n * config.grid.l for n, size in sizes if n)


def test_an_ideal_cell_rates_its_chosen_entries_once(monkeypatch):
    # at 0 bits the decision is the truth, so the decision sum reads the
    # truth rates of the N chosen entries instead of rating them again
    grid, model = ResourceGrid(k=2, l=5), ScenarioModel(kind="two-state")
    draw = pipeline.draw_cluster(grid, model, Cluster(id=0, n_vehicles=3),
                                 scenario_seed=4)
    rates = pipeline.draw_rates(grid, draw, None, None)
    assignments = _record_calls(monkeypatch, "expand_solution")
    sizes = []
    real = sideinfo.rate_from_sinr

    def sized(b_hz, sinr_db):
        sizes.append(np.size(sinr_db))
        return real(b_hz, sinr_db)

    monkeypatch.setattr(sideinfo, "rate_from_sinr", sized)
    cell = pipeline.run_cell(grid, draw, rates, 0, "proposed")
    assert sizes == [3]
    monkeypatch.undo()
    cols = assignments[0].subchannel
    truth = real(grid.b_hz, draw.truth.key[np.arange(3), cols])
    assert cell.vehicle_rates_bps.tobytes() == truth.tobytes()
    assert cell.sum_rate_decision_bps == float(truth.sum())


def _smoke_with_scenario(tmp_path, **scenario):
    raw = json.loads(SMOKE.read_text())
    raw["scenario"] = scenario
    raw["out_dir"] = str(tmp_path)
    return config_from_dict(raw)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_rate_fails_at_the_first_draw(monkeypatch, tmp_path):
    # above about 3082.5 dB the linear SINR overflows; a quarter of a uniform
    # draw on [-15, 4000] dB lies there
    draws = _record_calls(monkeypatch, "generate_sinr")
    config = _smoke_with_scenario(tmp_path, kind="uniform", ceil_db=4000.0)
    with pytest.raises(ValueError,
                       match="^cluster 0, repetition 0: rates must be finite"):
        run_experiment(config)
    assert len(draws) == 1


def test_a_high_ceiling_alone_does_not_fail(tmp_path):
    # the same ceiling with a gaussian draw never near it: the check reads
    # the rates a draw has, not the range it may reach
    config = _smoke_with_scenario(tmp_path, kind="gaussian", ceil_db=4000.0)
    run_experiment(config)
    run_sweep(config)
    assert (tmp_path / "cdf.csv").is_file() and (tmp_path / "sweep.csv").is_file()


def test_readme_library_example_runs(capsys):
    # the fenced python block under "Library use", run as written
    section = (ROOT / "README.md").read_text().split("## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert "Mbps across 80 vehicles" in capsys.readouterr().out
