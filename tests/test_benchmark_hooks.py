"""The names and arguments the benchmark's tracer (perfbench/tracer.py)
attaches to. A refactor that moves one of them fails here, before it
breaks the benchmark's traced replay."""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from sidesched.pipeline import CellResult

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
