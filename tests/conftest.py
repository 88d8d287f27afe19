"""Scripts outside the package, loaded by path as the tests' fixtures."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve a module's annotations through sys.modules
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def tracer():
    return _load("perfbench_tracer", ROOT / "perfbench" / "tracer.py")


@pytest.fixture(scope="session")
def workloads():
    return _load("perfbench_run", ROOT / "perfbench" / "run.py").WORKLOADS


@pytest.fixture(scope="session")
def compare():
    return _load("compare_artifacts", ROOT / "tools" / "compare_artifacts.py")


@pytest.fixture(scope="session")
def mutants():
    return _load("mutants", ROOT / "tools" / "mutants.py")
