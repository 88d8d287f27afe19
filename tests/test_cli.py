"""Config validation, experiment artifacts, assignment file checking."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sidesched
from sidesched import config as config_module
from sidesched import metrics, pipeline, sideinfo
from sidesched.cli import (_manifest_json, _report_files, _resolve_seed,
                           _run_json, main, run_experiment, run_sweep,
                           validate_assignment_file, write_assignment_csv)
from sidesched.config import (SCHEMA, ExperimentConfig, config_from_dict,
                              config_hash, load_config)
from sidesched.errors import ConfigError, ParseError, ShapeError
from sidesched.grid import ResourceGrid
from sidesched.metrics import EvalReport
from sidesched.pipeline import CellResult
from sidesched.solvers import METHODS, Assignment


def tiny_raw(**over):
    raw = {
        "grid": {"k_subchannels": 2, "l_subframes": 6, "t_ms": 1.0, "b_hz": 1.26e6},
        "scenario": {"kind": "uniform"},
        "clusters": [4],
        "quant": {"bits": [0, 1], "lo_db": -15.0, "hi_db": 35.0},
        "methods": ["proposed", "greedy", "random"],
        "repetitions": 2,
        "master_seed": 31,
    }
    raw.update(over)
    return raw


# Every rule the loader applies, each with the exact keys it names;
# dotted keys are set on tiny_raw(), whose l_subframes is 6.
LOADER_CASES = [
    ({"grid.k_subchannels": 0}, ["grid.k_subchannels"]),
    ({"grid.l_subframes": 0}, ["grid.l_subframes"]),
    ({"grid.t_ms": 0}, ["grid.t_ms"]),
    ({"grid.b_hz": -1.0}, ["grid.b_hz"]),
    ({"scenario.kind": "rayleigh"}, ["scenario.kind"]),
    ({"scenario.std_db": -0.5}, ["scenario.std_db"]),
    ({"scenario.p_bad": 1.5}, ["scenario.p_bad"]),
    ({"scenario.p_bad": -0.1}, ["scenario.p_bad"]),
    ({"scenario.floor_db": 35.0}, ["scenario.ceil_db", "scenario.floor_db"]),
    ({"scenario.floor_db": 0.0, "scenario.ceil_db": -1.0},
     ["scenario.ceil_db", "scenario.floor_db"]),
    ({"quant.lo_db": 35.0}, ["quant.hi_db", "quant.lo_db"]),
    ({"quant.bits": [0], "quant.lo_db": 5.0, "quant.hi_db": 1.0},
     ["quant.hi_db", "quant.lo_db"]),
    ({"quant.bits": 9}, ["quant.bits[0]"]),
    ({"quant.bits": [0, -1, 8, 9]}, ["quant.bits[1]", "quant.bits[3]"]),
    ({"quant.bits": "3"}, ["quant.bits"]),
    ({"clusters": 4}, ["clusters"]),
    ({"clusters": [4, "5"]}, ["clusters[1]"]),
    ({"clusters": [4, 2.0, True]}, ["clusters[1]", "clusters[2]"]),
    ({"clusters": [0, 6, 7]}, ["clusters[0]", "clusters[2]"]),
    ({"methods": ["proposed", 3]}, ["methods[1]"]),
    ({"sweep.n_vehicles": [0, 7]},
     ["sweep.n_vehicles[0]", "sweep.n_vehicles[1]"]),
    # a removed key is unknown, whatever its value: no rule reads it
    ({"t_sps_pool_s": [math.inf]}, ["unknown key 't_sps_pool_s'"]),
    ({"t_sps_pool_s": [0.0]}, ["unknown key 't_sps_pool_s'"]),
    ({"t_sps_pool_s": [4.0, 1e308]}, ["unknown key 't_sps_pool_s'"]),
    ({"t_sps_pool_s": []}, ["unknown key 't_sps_pool_s'"]),
    ({"t_sps_pool_s": 4.0}, ["unknown key 't_sps_pool_s'"]),
    ({"out_dir": ""}, ["out_dir"]),
    ({"out_dir": 5}, ["out_dir"]),
    ({"cdf_grid_points": 1}, ["cdf_grid_points"]),
    ({"master_seed": -1}, ["master_seed"]),
    ({"master_seed": 1.5}, ["master_seed"]),
    ({"repetitions": True}, ["repetitions"]),
    ({"quant": [0, 2]}, ["quant"]),
    ({"scenario": "uniform"}, ["scenario"]),
    ({"grid.k_subchannels": 0, "repetitions": 0, "scenario.p_bad": 2},
     ["grid.k_subchannels", "repetitions", "scenario.p_bad"]),
]


class TestConfigParsing:
    def test_defaults_fill_in(self):
        cfg = config_from_dict({})
        assert cfg.grid.k == 7
        assert cfg.grid.l == 100
        assert cfg.bits_list == (0,)
        assert cfg.repetitions == 100
        assert cfg.master_seed is None
        # every default is its field's: the reader holds none of its own
        assert cfg == ExperimentConfig()

    @pytest.mark.parametrize("key", list(SCHEMA))
    def test_ill_typed_key_is_named_and_keeps_its_default(self, key,
                                                          monkeypatch):
        built = []
        real = config_module.ExperimentConfig

        def recorded(**kwargs):
            built.append(real(**kwargs))
            return built[-1]

        monkeypatch.setattr(config_module, "ExperimentConfig", recorded)
        *sections, leaf = key.split(".")
        raw = node = {}
        for part in sections:
            node = node.setdefault(part, {})
        node[leaf] = 1 if SCHEMA[key][1] == "string" else "x"
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert exc.value.keys == [key]
        assert built == [ExperimentConfig()]

    def test_round_trip_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(tiny_raw()))
        cfg = load_config(p)
        assert cfg.grid.k == 2
        assert cfg.cluster_sizes == (4,)
        assert cfg.methods == ("proposed", "greedy", "random")

    def test_invalid_fields_are_all_named(self):
        raw = tiny_raw()
        raw["quant"]["bits"] = [0, 9]
        raw["repetitions"] = 0
        raw["clusters"] = [7]  # exceeds l_subframes = 6
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert "quant.bits[1]" in exc.value.keys
        assert "repetitions" in exc.value.keys
        assert "clusters[0]" in exc.value.keys

    def test_unknown_key_flagged(self):
        raw = tiny_raw()
        raw["grids"] = {}
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert any("grids" in k for k in exc.value.keys)

    @pytest.mark.parametrize("section, key", [
        ("grid", "k_subchanels"),
        ("scenario", "mean"),
        ("quant", "bit"),
        ("sweep", "n_vehicle"),
    ])
    def test_unknown_nested_key_flagged(self, section, key):
        raw = tiny_raw()
        raw.setdefault(section, {})[key] = 3
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert exc.value.keys == [f"unknown key '{section}.{key}'"]

    def test_scenario_seed_is_unknown(self):
        # the draw seed is derived from master_seed; a scenario seed had
        # no effect on any artifact
        with pytest.raises(ConfigError) as exc:
            config_from_dict(tiny_raw(scenario={"kind": "uniform", "seed": 1}))
        assert exc.value.keys == ["unknown key 'scenario.seed'"]

    @pytest.mark.parametrize("field, sizes, key", [
        ("cluster_sizes", (4, 7), "clusters[1]"),
        ("sweep_n_vehicles", (2, 7), "sweep.n_vehicles[1]"),
    ])
    def test_direct_config_over_l_fails_at_construction(self, field, sizes,
                                                        key):
        cfg = config_from_dict(tiny_raw())  # l_subframes = 6
        with pytest.raises(ConfigError) as exc:
            replace(cfg, **{field: sizes})
        assert exc.value.keys == [key]

    @pytest.mark.parametrize("field, value, key", [
        ("repetitions", 0, "repetitions"),
        ("cluster_sizes", (), "clusters"),
        ("methods", (), "methods"),
        ("bits_list", (), "quant.bits"),
    ])
    def test_direct_config_empty_axis_fails_at_construction(self, field,
                                                            value, key):
        cfg = config_from_dict(tiny_raw())
        with pytest.raises(ConfigError) as exc:
            replace(cfg, **{field: value})
        assert exc.value.keys == [key]

    @pytest.mark.parametrize("field, value, key", [
        ("methods", ("greedy", "fastest"), "methods[1]"),
        ("bits_list", (0, 9), "quant.bits[1]"),
        ("cdf_grid_points", 1, "cdf_grid_points"),
        ("master_seed", -3, "master_seed"),
        ("sweep_n_vehicles", (), "sweep.n_vehicles"),
    ])
    def test_direct_config_fails_before_any_output(self, tmp_path, field,
                                                   value, key):
        out = tmp_path / "out"
        cfg = config_from_dict(tiny_raw(out_dir=str(out)))
        with pytest.raises(ConfigError) as exc:
            run_experiment(replace(cfg, **{field: value}))
        assert exc.value.keys == [key]
        assert not out.exists()

    @pytest.mark.parametrize("section, entries, key", [
        ("methods", ["greedy", "random", "greedy"], "methods[2]"),
        ("quant", {"bits": [2, 2]}, "quant.bits[1]"),
        ("sweep", {"n_vehicles": [2, 4, 2]}, "sweep.n_vehicles[2]"),
    ])
    def test_loaded_config_rejects_duplicate_entries(self, tmp_path, section,
                                                     entries, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_raw(**{section: entries})))
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.keys == [key]

    @pytest.mark.parametrize("field, value, key", [
        ("methods", ("greedy", "greedy"), "methods[1]"),
        ("bits_list", (0, 2, 0), "quant.bits[2]"),
        ("sweep_n_vehicles", (4, 4), "sweep.n_vehicles[1]"),
    ])
    def test_direct_config_rejects_duplicate_entries(self, field, value, key):
        cfg = config_from_dict(tiny_raw())
        with pytest.raises(ConfigError) as exc:
            replace(cfg, **{field: value})
        assert exc.value.keys == [key]

    def test_repeated_cluster_sizes_stay_legal(self):
        cfg = config_from_dict(tiny_raw(clusters=[4, 4]))
        assert cfg.cluster_sizes == (4, 4)

    def test_default_sweep_fits_the_grid(self):
        # an unset sweep stays unset and is derived from the grid on read
        cfg = config_from_dict(tiny_raw())
        assert cfg.sweep_n_vehicles is None
        assert cfg.sweep_densities == (6,)
        assert replace(cfg, sweep_n_vehicles=None).sweep_densities == (6,)
        raw = tiny_raw(grid={"k_subchannels": 2, "l_subframes": 35})
        assert config_from_dict(raw).sweep_densities == (10, 20, 30)

    def test_default_sweep_follows_a_replaced_grid(self):
        cfg = replace(config_from_dict({}), grid=ResourceGrid(k=7, l=50),
                      cluster_sizes=(50,))
        assert cfg.sweep_n_vehicles is None
        assert cfg.sweep_densities == (10, 20, 30, 40, 50)

    @pytest.mark.parametrize("name, digest", [
        ("full_scale", "d5ff6ef9cd10fc40161ac2f39c0e5aaec3ef89f9d4fafe5ba3900aa1ca9aaa3f"),
        ("smoke", "2343f60f07b1dbe464fff14e008544f6ee2fcb97ec852d819a473cc59ab590fa"),
    ], ids=["full_scale", "smoke"])
    def test_shipped_config_hashes_are_pinned(self, name, digest):
        path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        assert config_hash(load_config(path)) == digest

    @pytest.mark.parametrize("key, value", [
        ("scenario.bad_mean_db", math.inf),
        ("scenario.mean_db", math.nan),
        ("quant.hi_db", math.inf),
        ("grid.b_hz", math.inf),
        ("scenario.mean_db", 10 ** 400),
    ], ids=["bad_mean_db-Infinity", "mean_db-NaN", "hi_db-Infinity",
            "b_hz-Infinity", "mean_db-huge-int"])
    def test_non_finite_number_named_at_load(self, tmp_path, key, value):
        raw = tiny_raw()
        *sections, leaf = key.split(".")
        node = raw
        for part in sections:
            node = node.setdefault(part, {})
        node[leaf] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))  # NaN and Infinity as JSON spells them
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert exc.value.keys == [key]

    @pytest.mark.parametrize("over, keys", LOADER_CASES,
                             ids=[json.dumps(over) for over, _ in LOADER_CASES])
    def test_loader_names_exact_keys(self, over, keys):
        raw = tiny_raw()
        for key, value in over.items():
            *sections, leaf = key.split(".")
            node = raw
            for part in sections:
                node = node.setdefault(part, {})
            node[leaf] = value
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert exc.value.keys == keys

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bits, lo, hi", [([0, 2], -400.0, -300.0),
                                              ([8], 3000.0, 3100.0)],
                             ids=["every-level-rates-0", "overflow"])
    def test_range_without_increasing_level_rates_named_at_load(self, bits,
                                                                lo, hi):
        # the rule of the level table, checked before any cell runs
        raw = tiny_raw(quant={"bits": bits, "lo_db": lo, "hi_db": hi})
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert exc.value.keys == ["quant.hi_db", "quant.lo_db"]
        # width 0 rates no level, so the range alone is not an error
        config_from_dict(tiny_raw(quant={"bits": [0], "lo_db": lo, "hi_db": hi}))

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict(tiny_raw(grid=5))
        assert exc.value.keys == ["grid"]

    @pytest.mark.parametrize("name", ["smoke.json", "full_scale.json"])
    def test_shipped_configs_load(self, name):
        load_config(Path(__file__).resolve().parents[1] / "configs" / name)

    def test_bad_method_flagged(self):
        raw = tiny_raw(methods=["proposed", "magic"])
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert "methods[1]" in exc.value.keys

    def test_bad_json_is_a_parse_error(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{nope")
        with pytest.raises(ParseError):
            load_config(p)

    def test_scalar_bits_accepted(self):
        cfg = config_from_dict(tiny_raw(quant={"bits": 3}))
        assert cfg.bits_list == (3,)

    def test_hash_changes_with_any_field(self):
        a = config_from_dict(tiny_raw())
        b = config_from_dict(tiny_raw(repetitions=3))
        c = config_from_dict(tiny_raw(out_dir="elsewhere"))
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert config_hash(a) == config_hash(config_from_dict(tiny_raw()))

    def test_oracle_over_caps_rejected_at_load(self):
        # brute force caps l <= 8 and k <= 4: fail before any cell runs
        raw = tiny_raw(methods=["proposed", "oracle"])
        raw["grid"] = {"k_subchannels": 2, "l_subframes": 20}
        raw["clusters"] = [10]
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert exc.value.keys == ["grid.l_subframes", "methods[1]"]
        raw["grid"] = {"k_subchannels": 5, "l_subframes": 8}
        raw["clusters"] = [8]
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert exc.value.keys == ["grid.k_subchannels", "methods[1]"]


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        cfg = config_from_dict(tiny_raw(out_dir=str(tmp_path / "out")))
        paths = run_experiment(cfg)
        for p in paths.values():
            assert p.exists()
        with open(paths["cdf"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "bits", "rate_x_mbps", "prob"]
        series = {(r[0], r[1]) for r in rows[1:]}
        assert len(series) == 6  # 3 methods x 2 bit depths
        with open(paths["criteria"]) as fh:
            crit = list(csv.reader(fh))
        assert crit[0] == ["method", "bits", "highest", "average", "worst",
                           "std_dev"]
        assert len(crit) == 1 + 6

    def test_manifest_contents(self, tmp_path):
        cfg = config_from_dict(tiny_raw(out_dir=str(tmp_path / "out")))
        paths = run_experiment(cfg)
        doc = json.loads(paths["manifest"].read_text())
        assert doc["master_seed"] == 31
        assert doc["config_hash"] == config_hash(cfg)
        # 3 methods x 2 bits x 2 reps x 1 cluster
        assert len(doc["runs"]) == 12
        assert {r["method"] for r in doc["runs"]} == {"proposed", "greedy",
                                                      "random"}
        assert all(r["runtime_s"] >= 0 for r in doc["runs"])
        assert set(doc) == {"config", "config_hash", "master_seed", "runs"}

    def test_clusters_are_numbered_from_0_in_order(self, tmp_path):
        raw = tiny_raw(clusters=[3, 2], methods=["greedy"], repetitions=1,
                       out_dir=str(tmp_path / "out"))
        doc = json.loads(run_experiment(config_from_dict(raw))["manifest"]
                         .read_text())
        assert "reservations" not in doc
        assert [r["cluster"] for r in doc["runs"]] == [0, 0, 1, 1]  # 2 widths

    def test_seed_drawn_when_missing(self, tmp_path):
        raw = tiny_raw(out_dir=str(tmp_path / "out"))
        del raw["master_seed"]
        paths = run_experiment(config_from_dict(raw))
        doc = json.loads(paths["manifest"].read_text())
        assert isinstance(doc["master_seed"], int)

    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = config_from_dict(tiny_raw(out_dir=str(tmp_path / "a")))
        cfg2 = config_from_dict(tiny_raw(out_dir=str(tmp_path / "b")))
        p1 = run_experiment(cfg1)
        p2 = run_experiment(cfg2)
        for name in ("cdf", "criteria", "summary"):
            assert p1[name].read_bytes() == p2[name].read_bytes()

    def test_numpy_integer_seed_is_written_as_an_int(self, tmp_path):
        cfg = config_from_dict(tiny_raw(out_dir=str(tmp_path / "a")))
        assert _resolve_seed(cfg) is cfg  # an int seed needs nothing done
        ref = run_experiment(cfg)
        paths = run_experiment(replace(cfg, out_dir=str(tmp_path / "b"),
                                       master_seed=np.int64(31)))
        doc = json.loads(paths["manifest"].read_text())
        assert type(doc["master_seed"]) is int and doc["master_seed"] == 31
        assert doc["config"]["master_seed"] == 31
        for name in ("cdf", "criteria", "summary"):
            assert paths[name].read_bytes() == ref[name].read_bytes()

    @pytest.mark.parametrize("runner", [run_experiment, run_sweep])
    def test_rerun_over_longer_stale_artifacts(self, tmp_path, runner):
        def config(out):
            return config_from_dict(tiny_raw(out_dir=str(tmp_path / out),
                                             sweep={"n_vehicles": [2, 4]}))

        fresh = runner(config("fresh"))
        stale = tmp_path / "stale"
        stale.mkdir()
        for path in fresh.values():
            (stale / path.name).write_bytes(path.read_bytes() * 2 + b"stale")
        again = runner(config("stale"))
        assert sorted(p.name for p in stale.iterdir()) == sorted(
            p.name for p in fresh.values())
        for name, path in fresh.items():
            old, new = path.read_bytes(), again[name].read_bytes()
            if name == "manifest":  # names its own out_dir and wall times
                old, new = (json.loads(b)["runs"] for b in (old, new))
                for run in old + new:
                    del run["runtime_s"]
            assert new == old

    def test_symlinked_artifact_is_replaced_not_written_through(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        target = tmp_path / "elsewhere.csv"
        target.write_text("kept")
        (out / "cdf.csv").symlink_to(target)
        paths = run_experiment(config_from_dict(tiny_raw(out_dir=str(out))))
        assert target.read_text() == "kept"
        assert not paths["cdf"].is_symlink()
        assert paths["cdf"].read_text().startswith("method,bits,")

    def test_error_keeps_type_and_location(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise ParseError("x", row=3)

        monkeypatch.setattr(pipeline, "solve_greedy", failing)
        raw = tiny_raw(methods=["greedy"], out_dir=str(tmp_path / "out"))
        with pytest.raises(ParseError) as exc:
            run_experiment(config_from_dict(raw))
        assert exc.value.row == 3
        assert "cluster 0" in str(exc.value)
        assert "method greedy" in str(exc.value)

    def test_config_error_keeps_its_keys(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise ConfigError(["quant.bits"])

        monkeypatch.setattr(pipeline, "solve_random", failing)
        raw = tiny_raw(methods=["random"], out_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError) as exc:
            run_experiment(config_from_dict(raw))
        assert exc.value.keys == ["quant.bits"]

    def test_draw_error_names_cluster(self, tmp_path, monkeypatch):
        # the draw fails before any width or method is chosen
        def failing(*args, **kwargs):
            raise ShapeError("no draw")

        monkeypatch.setattr(pipeline, "generate_sinr", failing)
        raw = tiny_raw(out_dir=str(tmp_path / "out"))
        with pytest.raises(ShapeError, match="^cluster 0, repetition 0: no draw$"):
            run_experiment(config_from_dict(raw))

    def test_oracle_within_caps_runs(self, tmp_path):
        raw = tiny_raw(methods=["oracle", "proposed"],
                       out_dir=str(tmp_path / "out"))
        raw["grid"] = {"k_subchannels": 2, "l_subframes": 5}
        raw["clusters"] = [4]
        paths = run_experiment(config_from_dict(raw))
        doc = json.loads(paths["manifest"].read_text())
        by = {}
        for r in doc["runs"]:
            by.setdefault((r["method"], r["bits"], r["repetition"]), r)
        for (m, b, rep), r in by.items():
            if m == "oracle":
                twin = by[("proposed", b, rep)]
                assert np.isclose(r["sum_rate_decision_bps"],
                                  twin["sum_rate_decision_bps"], rtol=1e-12)


class TestRunSweep:
    def test_sweep_csv(self, tmp_path):
        raw = tiny_raw(out_dir=str(tmp_path / "out"),
                       sweep={"n_vehicles": [2, 4]})
        paths = run_sweep(config_from_dict(raw))
        with open(paths["sweep"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "bits", "n_vehicles", "worst_rate_mbps"]
        assert len(rows) == 1 + 3 * 2 * 2  # methods x bits x sweep points

    def test_error_names_sweep_cell(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise ParseError("x", row=3)

        monkeypatch.setattr(pipeline, "solve_greedy", failing)
        raw = tiny_raw(out_dir=str(tmp_path / "out"),
                       sweep={"n_vehicles": [2, 4]})
        with pytest.raises(ParseError,
                           match="^N=2, repetition 0, 0 bits, method greedy: x$"):
            run_sweep(config_from_dict(raw))


# Finite floats as Python floats and as np.float64, with the edge cases
# named: zero, the smallest subnormal, a huge value and an integral one.
FLOATS = st.one_of(st.sampled_from([0.0, 5e-324, 1e300, 3.0]),
                   st.floats(allow_nan=False, allow_infinity=False))
NUMBERS = st.one_of(FLOATS, FLOATS.map(np.float64))
REPORTS = st.builds(
    EvalReport, method=st.sampled_from(METHODS), bits=st.integers(0, 8),
    highest_bps=NUMBERS, average_bps=NUMBERS, worst_bps=NUMBERS,
    std_dev_bps=NUMBERS,
    cdf=st.lists(st.tuples(NUMBERS, NUMBERS), min_size=2, max_size=64))
RUNS = st.lists(st.tuples(
    st.integers(0, 10**6), st.integers(0, 10**6),
    st.builds(CellResult, method=st.sampled_from(METHODS),
              bits=st.integers(0, 8),
              vehicle_rates_bps=NUMBERS.map(lambda x: np.array([x])),
              sum_rate_truth_bps=NUMBERS, sum_rate_decision_bps=NUMBERS,
              runtime_s=NUMBERS)), max_size=8)


def csv_text(header, rows):
    fh = io.StringIO()
    w = csv.writer(fh)
    w.writerow(header)
    w.writerows(rows)
    return fh.getvalue()


def json_text(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestArtifactWriters:
    """Each string writer writes the bytes of the csv module's default
    dialect and of json.dumps(indent=2, sort_keys=True)."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(REPORTS, min_size=1, max_size=4))
    def test_report_files_match_csv_and_json(self, reports):
        cdf, criteria, summary = _report_files(reports)
        assert cdf == csv_text(
            ["method", "bits", "rate_x_mbps", "prob"],
            [[r.method, r.bits, x / 1e6, p] for r in reports for x, p in r.cdf])
        assert criteria == csv_text(
            ["method", "bits", "highest", "average", "worst", "std_dev"],
            [[r.method, r.bits, r.highest_bps / 1e6, r.average_bps / 1e6,
              r.worst_bps / 1e6, r.std_dev_bps / 1e6] for r in reports])
        assert summary == json_text({"series": [{
            "method": r.method, "bits": r.bits,
            "highest_mbps": r.highest_bps / 1e6,
            "average_mbps": r.average_bps / 1e6,
            "worst_mbps": r.worst_bps / 1e6,
            "std_dev_mbps": r.std_dev_bps / 1e6,
            "cdf": [[x / 1e6, p] for x, p in r.cdf]} for r in reports]})

    @settings(max_examples=40, deadline=None)
    @given(RUNS, st.text(min_size=1), st.integers(0, 2**64 - 1))
    def test_manifest_matches_json(self, runs, out_dir, seed):
        config = replace(config_from_dict(tiny_raw()), out_dir=out_dir,
                         master_seed=seed)
        doc = {"config": asdict(config), "config_hash": config_hash(config),
               "master_seed": seed, "runs": [{
                   "method": cell.method, "bits": cell.bits,
                   "cluster": cluster, "repetition": rep,
                   "sum_rate_decision_bps": cell.sum_rate_decision_bps,
                   "sum_rate_truth_bps": cell.sum_rate_truth_bps,
                   "runtime_s": cell.runtime_s} for rep, cluster, cell in runs]}
        assert _manifest_json(
            config, [_run_json(*run) for run in runs]) == json_text(doc)

    def test_assignment_csv_matches_csv(self, tmp_path):
        p = tmp_path / "assn.csv"
        write_assignment_csv(p, {0: Assignment(np.array([0, 2]), "greedy"),
                                 1: Assignment(np.array([5]), "greedy")},
                             ResourceGrid(k=2, l=6))
        assert p.read_bytes() == csv_text(
            ["cluster", "vehicle", "subchannel", "subframe"],
            [[0, 0, 0, 0], [0, 1, 2, 1], [1, 0, 5, 2]]).encode()

    def test_numpy_floats_are_written_as_floats(self):
        # numpy 2 writes repr(np.float64(0.5)) as "np.float64(0.5)"
        rep = EvalReport("greedy", 2, *[np.float64(0.5)] * 4,
                         [(np.float64(1.5e6), np.float64(0.0))] * 2)
        cdf, criteria, summary = _report_files([rep])
        assert "np." not in cdf + criteria + summary
        assert cdf.endswith("greedy,2,1.5,0.0\r\n")


class TestValidateAssignments:
    def test_round_trip_of_written_assignments(self, tmp_path):
        g = ResourceGrid(k=2, l=6)
        p = tmp_path / "assn.csv"
        write_assignment_csv(p, {0: Assignment(np.array([0, 2]), "greedy"),
                                 1: Assignment(np.array([5]), "greedy")}, g)
        rep = validate_assignment_file(p, k=2)
        assert rep.ok
        assert rep.n_rows == 3

    def test_shared_subframe_violation_names_both(self, tmp_path):
        p = tmp_path / "assn.csv"
        p.write_text("cluster,vehicle,subchannel,subframe\n"
                     "0,a,3,0\n0,b,5,0\n")
        rep = validate_assignment_file(p, k=7)
        assert not rep.ok
        assert len(rep.violations) == 1
        assert "a" in rep.violations[0] and "b" in rep.violations[0]

    def test_subframe_column_inconsistency(self, tmp_path):
        p = tmp_path / "assn.csv"
        p.write_text("cluster,vehicle,subchannel,subframe\n0,a,3,1\n")
        rep = validate_assignment_file(p, k=7)
        assert not rep.ok
        assert "subframe 0" in rep.violations[0]

    def test_duplicate_vehicle(self, tmp_path):
        p = tmp_path / "assn.csv"
        p.write_text("cluster,vehicle,subchannel,subframe\n"
                     "0,a,3,0\n0,a,9,1\n")
        rep = validate_assignment_file(p, k=7)
        assert not rep.ok
        assert any("more than once" in v for v in rep.violations)

    def test_clusters_do_not_collide(self, tmp_path):
        p = tmp_path / "assn.csv"
        p.write_text("cluster,vehicle,subchannel,subframe\n"
                     "0,a,3,0\n1,b,5,0\n")
        assert validate_assignment_file(p, k=7).ok

    def test_row_violations_come_before_shared_subframes(self, tmp_path):
        p = tmp_path / "assn.csv"
        p.write_text("cluster,vehicle,subchannel,subframe\n"
                     "0,a,3,0\n0,b,5,0\n1,c,0,0\n0,c,6,0\n0,a,9,1\n")
        assert validate_assignment_file(p, k=7).violations == [
            "cluster 0: vehicle a assigned more than once",
            "cluster 0: vehicles a and b share subframe 0 (subchannels 3 and 5)",
            "cluster 0: vehicles a and c share subframe 0 (subchannels 3 and 6)",
        ]

    def test_without_k_trusts_subframe_column(self, tmp_path):
        p = tmp_path / "assn.csv"
        p.write_text("cluster,vehicle,subchannel,subframe\n"
                     "0,a,3,0\n0,b,5,1\n")
        assert validate_assignment_file(p).ok

    def test_empty_file(self, tmp_path):
        p = tmp_path / "assn.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            validate_assignment_file(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "assn.csv"
        p.write_text("vehicle,subchannel\n")
        with pytest.raises(ParseError):
            validate_assignment_file(p)


class TestMainEntry:
    def test_run_and_validate_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "cdf.csv").exists()
        capsys.readouterr()

        good = tmp_path / "good.csv"
        good.write_text("cluster,vehicle,subchannel,subframe\n0,a,0,0\n")
        assert main(["validate", str(good), "--k", "2"]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("cluster,vehicle,subchannel,subframe\n"
                       "0,a,0,0\n0,b,1,0\n")
        assert main(["validate", str(bad), "--k", "2"]) == 1
        out_text = capsys.readouterr().out
        assert "violation" in out_text

    def test_seed_override_controls_output(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw()))
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["run", "--config", str(cfg_path), "--out", str(a), "--seed", "5"])
        main(["run", "--config", str(cfg_path), "--out", str(b), "--seed", "5"])
        main(["run", "--config", str(cfg_path), "--out", str(c), "--seed", "6"])
        assert (a / "cdf.csv").read_bytes() == (b / "cdf.csv").read_bytes()
        assert (a / "cdf.csv").read_bytes() != (c / "cdf.csv").read_bytes()

    def test_config_rates_each_level_table_once(self, tmp_path, monkeypatch,
                                                capsys):
        # the config checks each quantized width's level table when it is
        # built; with no override, main does not build it a second time
        calls = []

        def counted(*args):
            calls.append(args)
            return sideinfo.level_rates(*args)

        monkeypatch.setattr(config_module, "level_rates", counted)
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(out_dir=str(out))))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (out / "cdf.csv").exists()
        assert len(calls) == 1  # bits [0, 1]: one quantized width
        capsys.readouterr()

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_validate_rejects_k_below_one(self, tmp_path, capsys, k):
        p = tmp_path / "assn.csv"
        p.write_text("cluster,vehicle,subchannel,subframe\n0,a,3,0\n")
        assert main(["validate", str(p), "--k", k]) == 2
        captured = capsys.readouterr()
        assert "--k" in captured.err
        assert "violation" not in captured.out
        with pytest.raises(ValueError):
            validate_assignment_file(p, k=int(k))

    def test_bad_seed_override_fails_before_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw()))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--seed", "-1"]) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_out_override_rejected(self, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw()))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg_path), "--out", ""]) == 2
        assert "out_dir" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_module_entry_point_runs_without_warning(self):
        src = str(Path(sidesched.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "sidesched",
             "--help"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True,
            text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: sidesched")

    def test_log_variable_takes_level_names_only(self, tmp_path):
        # BASIC_FORMAT is an attribute of logging, but no level
        p = tmp_path / "assn.csv"
        p.write_text("cluster,vehicle,subchannel,subframe\n0,0,3,1\n")
        src = str(Path(sidesched.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "sidesched", "validate", str(p), "--k", "2"],
            env={**os.environ, "PYTHONPATH": path,
                 "SIDESCHED_LOG": "BASIC_FORMAT"},
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "ok: 1 rows, no violations\n"

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "missing.json"],
        ["sweep", "--config", "missing.json"],
        ["validate", "missing.csv"],
    ], ids=["run", "sweep", "validate"])
    def test_missing_input_file_exit_code(self, tmp_path, capsys, monkeypatch,
                                          argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and argv[-1] in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, raw", [
        ("scenario.p_t_dbm", tiny_raw(scenario={"kind": "uniform",
                                                "p_t_dbm": 23.0})),
        ("t_sps_pool_s", tiny_raw(t_sps_pool_s=[1.0, 4.0, 8.0])),
    ], ids=["scenario.p_t_dbm", "t_sps_pool_s"])
    def test_removed_key_is_unknown(self, tmp_path, capsys, key, raw):
        # neither key moved a number of any artifact, so both were deleted;
        # their old defaults are rejected too
        with pytest.raises(ConfigError) as exc:
            config_from_dict(raw)
        assert exc.value.keys == [f"unknown key '{key}'"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"unknown key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(repetitions=-1)))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "repetitions" in capsys.readouterr().err

    @pytest.mark.parametrize("over, named", [
        # the top level of the 1-bit width rates to inf
        ({"grid": {"k_subchannels": 2, "l_subframes": 6, "b_hz": 1e308}},
         "quant.hi_db"),
        # one vehicle's rate is finite, and so is its mean over 8
        # repetitions, though their sum is not: it runs clean
        ({"grid": {"k_subchannels": 2, "l_subframes": 6, "b_hz": 1e307},
          "methods": ["greedy"], "clusters": [1], "repetitions": 8}, None),
    ], ids=["overflowing-level-rates", "overflowing-statistic"])
    def test_overflow_fails_before_any_artifact(self, tmp_path, capsys, over,
                                                named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(**over)))
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        if named is None:
            assert (code, err) == (0, "")
            rows = (out / "criteria.csv").read_text().splitlines()
            for row in csv.DictReader(rows):
                assert (float(row["worst"]) <= float(row["average"])
                        <= float(row["highest"]) < math.inf)
            return
        assert code == 2
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    # Smoke configs that get past load and then overflow a sum: each exits
    # 2 naming the cell and leaves no directory, or runs clean. A sweep's
    # mean worst rate whose plain sum overflows is taken on scaled
    # samples, so that sweep runs clean.
    # The two-state draw's scale overflows to +-inf and is clipped, as a
    # gaussian draw's is, so that one runs clean.
    OVERFLOW_REPROS = {
        "sweep-mean": {"grid": {"b_hz": 1e307}, "scenario": {"kind": "uniform"},
                       "methods": ["greedy"], "quant": {"bits": [0]},
                       "sweep": {"n_vehicles": [1]}, "repetitions": 8},
        "evaluate-sum": {"grid": {"b_hz": 1e307}, "methods": ["greedy"]},
        "kernel-total": {"grid": {"b_hz": 1e307}, "methods": ["proposed"],
                         "quant": {"bits": [2]}},
        "two-state-scale": {"scenario": {"kind": "two-state", "std_db": 1.7e308}},
    }

    OVERFLOW_CASES = [
        ("sweep-mean", "run",
         "cluster 0, repetition 0, 0 bits, method greedy: truth sum rate overflows"),
        ("sweep-mean", "sweep", None),
        ("evaluate-sum", "run",
         "cluster 0, repetition 0, 0 bits, method greedy: truth sum rate overflows"),
        ("evaluate-sum", "sweep",
         "N=4, repetition 0, 2 bits, method greedy: decision sum rate overflows"),
        ("kernel-total", "run",
         "cluster 0, repetition 0, 2 bits, method proposed: "
         "the matching's total weight overflows"),
        # at N=2 the sweep's table has a finite total, at N=4 it overflows
        ("kernel-total", "sweep",
         "N=4, repetition 0, 2 bits, method proposed: "
         "the matching's total weight overflows"),
        ("two-state-scale", "run", None),
        ("two-state-scale", "sweep", None),
    ]

    @pytest.mark.parametrize("repro, command, named", OVERFLOW_CASES,
                             ids=[f"{r}-{c}" for r, c, _ in OVERFLOW_CASES])
    def test_overflow_past_load_fails_clean_or_runs_clean(
            self, tmp_path, capsys, repro, command, named):
        raw = json.loads((Path(__file__).parents[1] / "configs" / "smoke.json")
                         .read_text())
        for key, value in self.OVERFLOW_REPROS[repro].items():
            raw[key] = {**raw[key], **value} if isinstance(value, dict) else value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if named is None:
            assert (code, err) == (0, "")
            assert out.is_dir()
        else:
            assert code == 2
            assert err.startswith("error: ") and named in err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_a_failed_cell_leaves_no_output(self, tmp_path, capsys, monkeypatch,
                                            command):
        cells = []

        def fail_fifth(*args):
            cells.append(args)
            if len(cells) == 5:
                raise ValueError("fifth cell fails")
            return pipeline.run_cell(*args)

        monkeypatch.setattr(metrics, "run_cell", fail_fifth)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_raw(sweep={"n_vehicles": [2, 4]})))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "fifth cell fails" in capsys.readouterr().err
        assert len(cells) == 5 and not out.exists()

    def test_sweep_subcommand(self, tmp_path):
        raw = tiny_raw(sweep={"n_vehicles": [2]})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()
