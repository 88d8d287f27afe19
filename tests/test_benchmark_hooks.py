"""The names and arguments the benchmark's tracer (perfbench/tracer.py)
attaches to. A refactor that moves one of them fails here, before it
breaks the benchmark's traced replay."""

import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

from sidesched import cli
from sidesched.pipeline import CellResult

ROOT = Path(__file__).resolve().parents[1]


def _params(caller, attr):
    fn = getattr(importlib.import_module(caller), attr)
    return list(inspect.signature(fn).parameters)


def test_every_wrap_resolves_to_a_callable(tracer):
    missing = [f"{caller}.{attr}" for caller, attr, _ in tracer.WRAPS
               if not callable(getattr(importlib.import_module(caller), attr, None))]
    assert missing == []


@pytest.mark.parametrize("caller, attr, read", [
    ("sidesched.solvers", "max_weight_assignment", {"weights"}),
    ("sidesched.pipeline", "generate_sinr", {"model", "cluster"}),
    ("sidesched.cli", "run_cell", {"grid"}),
    ("sidesched.metrics", "run_cell", {"grid"}),
], ids=["max_weight_assignment", "generate_sinr", "cli.run_cell",
        "metrics.run_cell"])
def test_arguments_the_tracer_reads(caller, attr, read):
    assert read <= set(_params(caller, attr))


def test_verify_assignment_signature(tracer):
    # the tracer re-checks every cell's assignments with it, positionally
    assert tracer.verify_assignment is importlib.import_module(
        "sidesched.solvers").verify_assignment
    assert _params("sidesched.solvers", "verify_assignment") == ["assignment", "grid"]


def test_cell_result_names_its_series():
    names = {f.name for f in dataclasses.fields(CellResult)}
    assert {"method", "bits"} <= names


def test_traced_smoke_run_records_every_required_span(tracer, workloads,
                                                      monkeypatch, tmp_path):
    # the tracer rebinds every wrapped name; monkeypatch restores them
    for caller, attr, _ in tracer.WRAPS:
        module = importlib.import_module(caller)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    traced = tracer.Tracer()
    traced.install()
    # No workload runs oracle, and the tracer wraps none of its stages, so
    # it counts an oracle cell as one that made no assignment.
    smoke = cli.load_config(ROOT / "configs" / "smoke.json")
    config = dataclasses.replace(
        smoke, out_dir=str(tmp_path),
        methods=tuple(m for m in smoke.methods if m != "oracle"))
    cli.run_experiment(config)
    cli.run_sweep(config)
    summary = traced.summary()
    silent = sorted({span for w in workloads.values() for span in w.required
                     if summary["spans"].get(span, {}).get("calls", 0) == 0})
    assert silent == []
    assert summary["failed_cells"] == 0, summary["notes"]
    assert summary["failed_outside_cells"] == 0, summary["notes"]
