"""sidesched benchmark: cells/s, set-up time and memory end to end, and a
traced run for per-layer time, kernel-input shape and correctness.

    python3 -B perfbench/run.py --workload full_scale_run --seed 0 --seconds 15 --trace 0

Run it from the root of a sidesched checkout; ``--workload all`` runs every
workload in turn. Each run starts fresh single-threaded children (see
child.py): fifteen that time set-up alone (``--trace 0`` only), one that
calls the program untraced for ``--seconds``, and one that replays the same
calls under the tracer and its checks (tracer.py). Timings are scaled to a
reference speed to cancel the host's drift (see NOMINAL_REFERENCE_S). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The exit code is 1 when a check fails. A full
record with host facts goes to ``.perfbench_work/``. README.md in this
directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")
SETUP_CHILDREN = 15
DEADLINE_S = 170  # every child of one workload run ends within this
# Typical time of the reference mix (child.reference_s) on the 2-core Xeon
# host where the benchmark was defined. Timings are reported at this
# reference speed: a measurement taken while the mix ran in r seconds is
# scaled by NOMINAL_REFERENCE_S / r.
NOMINAL_REFERENCE_S = 2.5e-3

# The acceptance bank's mixed population: a minority of vehicles in a bad
# channel state, good subchannels scarce for everyone.
TWO_STATE = {"kind": "two-state", "mean_db": 10.0, "std_db": 5.0,
             "bad_mean_db": -5.0, "p_bad": 0.3}
GRID_7X100 = {"k_subchannels": 7, "l_subframes": 100}

# Layers every cell runs through, whatever the workload.
CELL_LAYERS = ("cli.load_config", "pipeline.run_cell", "pipeline.derive_seed",
               "scenario.generate_sinr", "scenario.pad_to_square",
               "sideinfo.build_rate_matrices", "solvers.evaluate")
PROPOSED_LAYERS = ("munkres.max_weight_assignment", "solvers.solve_proposed",
                   "assignment.compress", "assignment.expand_solution")


@dataclass(frozen=True)
class Workload:
    why: str
    runner: str               # public entry point of sidesched.cli
    config: dict | None       # None: configs/full_scale.json as committed
    repetitions: int          # per runner call
    required: tuple[str, ...]  # spans that must record calls
    artifacts: tuple[str, ...]  # compared byte for byte, traced vs untraced

    def raw_config(self) -> dict:
        if self.config is None:
            with open("configs/full_scale.json") as fh:
                raw = json.load(fh)
        else:
            raw = copy.deepcopy(self.config)
        raw["repetitions"] = self.repetitions
        return raw

    def cells_per_call(self, raw: dict) -> int:
        points = (raw["sweep"]["n_vehicles"] if self.runner == "run_sweep"
                  else raw["clusters"])
        return (len(raw["methods"]) * len(raw["quant"]["bits"])
                * len(points) * raw["repetitions"])


RUN_ARTIFACTS = ("cdf.csv", "criteria.csv", "summary.json")

WORKLOADS = {
    "full_scale_run": Workload(
        why="headline full_scale.json run; the matching kernel dominates "
            "and quantized inputs are tie-saturated",
        runner="run_experiment", config=None, repetitions=1,
        required=CELL_LAYERS + PROPOSED_LAYERS + (
            "cli.run_experiment", "metrics.build_report",
            "solvers.solve_greedy", "solvers.solve_random"),
        artifacts=RUN_ARTIFACTS),
    "mixed_density_sweep": Workload(
        why="density sweep on the two-state scenario; dummy-heavy low "
            "densities and partial tie cover, through the sweep cell loop",
        runner="run_sweep",
        config={"grid": GRID_7X100, "scenario": TWO_STATE,
                "quant": {"bits": [0, 2, 4]},
                "methods": ["proposed", "greedy"],
                "sweep": {"n_vehicles": [10, 40, 70, 100]}},
        repetitions=1,
        required=CELL_LAYERS + PROPOSED_LAYERS + (
            "cli.run_sweep", "metrics.sweep_density", "solvers.solve_greedy"),
        artifacts=("sweep.csv",)),
    "baseline_schedulers": Workload(
        why="greedy and random only, so the kernel is never called; draw "
            "and rate/quantize dominate and each draw is recomputed 12 times",
        runner="run_experiment",
        config={"grid": GRID_7X100, "scenario": TWO_STATE,
                "clusters": [100, 60],
                "quant": {"bits": [0, 1, 2, 3, 4, 8]},
                "methods": ["greedy", "random"]},
        repetitions=2,
        required=CELL_LAYERS + (
            "cli.run_experiment", "metrics.build_report",
            "solvers.solve_greedy", "solvers.solve_random"),
        artifacts=RUN_ARTIFACTS),
}


class ChildFailed(RuntimeError):
    pass


def base_seed(workload: str, seed: int) -> int:
    """Master seed of the first runner call; call i adds i."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({"PYTHONPATH": str(Path("src").resolve()),
                "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0",
                "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"})
    return env


def run_child(args: list[str], deadline: float) -> str:
    """Run child.py to completion and return its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"no time left for child {args[0]}")
    try:
        proc = subprocess.run(
            [sys.executable, "-B", str(HERE / "child.py"), *args],
            capture_output=True, text=True, env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {args[0]} ran past the deadline") from None
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[0]} exited {proc.returncode}:\n"
                          + proc.stderr.strip())
    return proc.stdout.strip().splitlines()[-1]


def git_revision() -> str:
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


def host_facts(workload: str, seed: int, seconds: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_revision": git_revision()}


def scaled_wall_s(record: dict) -> float:
    """A call's wall time at the nominal reference speed."""
    return record["wall_s"] * NOMINAL_REFERENCE_S / record["reference_s"]


def per_layer_metrics(tr: dict, measured: list, traced: list, per_call: int) -> dict:
    """Per-layer figures of the traced replay; times per cell unless p50/p90."""
    spans, cells = tr["spans"], tr["cells"]

    def per_cell_ms(span, key):
        return (spans[span][key] * 1e3 / cells, "ms/cell")

    def calls_per_cell(span):
        return (spans[span]["calls"] / cells, "1/cell")

    def pct_ms(span, key):
        return (spans[span][key] * 1e3 if spans[span]["calls"] else 0.0, "ms")

    mwa, run_cell, draw = ("munkres.max_weight_assignment", "pipeline.run_cell",
                           "scenario.generate_sinr")
    untraced_s = sum(map(scaled_wall_s, measured[:len(traced)]))
    out = {
        f"{mwa}.calls": calls_per_cell(mwa),
        f"{mwa}.busy_ms": per_cell_ms(mwa, "busy_s"),
        f"{mwa}.p50_ms": pct_ms(mwa, "p50_s"),
        f"{mwa}.p90_ms": pct_ms(mwa, "p90_s"),
        "munkres.tight_cover_share": (tr["tight_cover_mean"], "ratio"),
        "munkres.distinct_weights_p50": (tr["distinct_weights_p50"], "count"),
        "solvers.solve_proposed.self_ms": per_cell_ms("solvers.solve_proposed", "self_s"),
        "solvers.solve_greedy.busy_ms": per_cell_ms("solvers.solve_greedy", "busy_s"),
        "solvers.solve_random.busy_ms": per_cell_ms("solvers.solve_random", "busy_s"),
        "solvers.evaluate.busy_ms": per_cell_ms("solvers.evaluate", "busy_s"),
        "assignment.compress.busy_ms": per_cell_ms("assignment.compress", "busy_s"),
        "assignment.expand_solution.busy_ms": per_cell_ms("assignment.expand_solution", "busy_s"),
        f"{draw}.calls": calls_per_cell(draw),
        f"{draw}.busy_ms": per_cell_ms(draw, "busy_s"),
        f"{draw}.useful_share": (tr["distinct_draws"] / max(spans[draw]["calls"], 1), "ratio"),
        "scenario.pad_to_square.busy_ms": per_cell_ms("scenario.pad_to_square", "busy_s"),
        "sideinfo.build_rate_matrices.calls": calls_per_cell("sideinfo.build_rate_matrices"),
        "sideinfo.build_rate_matrices.busy_ms": per_cell_ms("sideinfo.build_rate_matrices", "busy_s"),
        f"{run_cell}.calls": calls_per_cell(run_cell),
        f"{run_cell}.busy_ms": per_cell_ms(run_cell, "busy_s"),
        f"{run_cell}.self_ms": per_cell_ms(run_cell, "self_s"),
        f"{run_cell}.p50_ms": pct_ms(run_cell, "p50_s"),
        f"{run_cell}.p90_ms": pct_ms(run_cell, "p90_s"),
        "pipeline.derive_seed.calls": calls_per_cell("pipeline.derive_seed"),
        "pipeline.derive_seed.busy_ms": per_cell_ms("pipeline.derive_seed", "busy_s"),
        "metrics.build_report.busy_ms": per_cell_ms("metrics.build_report", "busy_s"),
        "metrics.sweep_density.self_ms": per_cell_ms("metrics.sweep_density", "self_s"),
        "cli.run_experiment.self_ms": per_cell_ms("cli.run_experiment", "self_s"),
        "cli.run_sweep.self_ms": per_cell_ms("cli.run_sweep", "self_s"),
        "cli.load_config.busy_ms": pct_ms("cli.load_config", "p50_s"),
        "cli.artifact_bytes": (statistics.median(r["artifact_bytes"] for r in measured), "bytes"),
        "process.minor_faults": (sum(r["minor_faults"] for r in measured) / (len(measured) * per_call), "1/cell"),
        "trace.overhead_share": (sum(map(scaled_wall_s, traced)) / untraced_s - 1, "ratio"),
        "trace.cells": (cells, "count"),
    }
    return out


def run_workload(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns the printed result and the full record."""
    wl = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    work = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    raw = wl.raw_config()
    raw["master_seed"] = base_seed(name, seed)
    raw["out_dir"] = str(work / "out")
    config = work / "config.json"
    config.write_text(json.dumps(raw, indent=2, sort_keys=True))
    per_call = wl.cells_per_call(raw)

    setup = []  # (seconds, reference seconds) per set-up child
    if trace == 0:
        setup = [tuple(map(float, run_child(["setup", str(config)], deadline).split()))
                 for _ in range(SETUP_CHILDREN)]
    measured_doc = json.loads(run_child(
        ["run", str(config), wl.runner, str(work / "untraced"), str(seconds)],
        deadline))
    measured = measured_doc["records"]
    ok_calls = [r for r in measured if "error" not in r]
    attempted = per_call * len(measured)
    failed = per_call * (len(measured) - len(ok_calls))
    problems = [r["error"] for r in measured if "error" in r]

    traced, tr = [], None
    try:
        traced_doc = json.loads(run_child(
            ["traced", str(config), wl.runner, str(work / "traced"),
             str(len(ok_calls))], deadline))
    except ChildFailed as exc:
        problems.append(str(exc))
        failed = attempted
    else:
        traced, tr = traced_doc["records"], traced_doc["tracer"]
        problems += tr["notes"]
        for i, m in enumerate(ok_calls):
            t = traced[i] if i < len(traced) else {"error": "not replayed"}
            missing = sorted(set(wl.artifacts) - set(m["digests"]))
            if "error" in t:
                reason = f"traced call {i} raised:\n{t['error']}"
            elif t["digests"] != m["digests"]:
                reason = f"call {i}: traced and untraced artifacts differ"
            elif missing:
                reason = f"call {i} wrote no {missing}"
            else:
                failed += t["failed_cells"]
                continue
            problems.append(reason)
            failed += per_call
        guard = [s for s in wl.required if tr["spans"][s]["calls"] == 0]
        if tr["cells"] != per_call * len(traced):
            guard.append(f"pipeline.run_cell ran {tr['cells']} cells, "
                         f"expected {per_call * len(traced)}")
        if guard:
            problems.append(f"layers that must run recorded no calls: {guard}")
            failed = attempted
    failed = min(failed, attempted)

    e2e, unscaled = {}, {}
    if ok_calls:
        e2e = {
            "cells_per_s": (statistics.median(per_call / scaled_wall_s(r) for r in ok_calls), "cells/s"),
            "peak_rss_mb": (measured_doc["peak_rss_mb"], "MB"),
        }
        unscaled["cells_per_s"] = statistics.median(per_call / r["wall_s"] for r in ok_calls)
        if setup:
            e2e["setup_s"] = (statistics.median(
                t * NOMINAL_REFERENCE_S / ref for t, ref in setup), "s")
            unscaled["setup_s"] = statistics.median(t for t, _ in setup)
    layers = per_layer_metrics(tr, ok_calls, traced, per_call) if tr and tr["cells"] else {}
    shown = e2e if trace == 0 else layers
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}}
    record = {"host": host_facts(name, seed, seconds), "why": wl.why,
              "config": raw, "cells_per_call": per_call,
              "setup_s_samples": setup, "problems": problems,
              "end_to_end": e2e, "unscaled": unscaled, "per_layer": layers,
              "untraced_calls": measured, "traced_calls": traced,
              "result": result}
    (WORK / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True))
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/sidesched/__init__.py").is_file():
        print("error: run from the root of a sidesched checkout "
              "(src/sidesched not found)", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        try:
            result, record = run_workload(name, args.seed, args.seconds, args.trace)
        except ChildFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(f"{name} seed={args.seed} trace={args.trace}: "
              f"{len(record['untraced_calls'])} calls, {result['attempted']} "
              f"cells attempted, {result['failed']} failed")
        for key, m in result["metrics"].items():
            print(f"  {key:<42} {m['value']:.6g} {m['unit']}")
        for key, value in record["unscaled"].items():
            if key in result["metrics"]:
                print(f"  {key + ' (unscaled)':<42} {value:.6g}")
        for problem in record["problems"]:
            print(f"  FAIL {problem}", file=sys.stderr)
        print("host " + json.dumps(record["host"], sort_keys=True))
        print(json.dumps(result))
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
