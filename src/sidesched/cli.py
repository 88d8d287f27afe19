"""Experiment runner: orchestration, CSV/JSON artifacts and the command line.

Configs are JSON; rates are Mbit/s at the I/O boundary and bits/s inside.
Artifacts (cdf.csv, criteria.csv, sweep.csv, summary.json) reproduce byte
for byte from a config and master seed on one numpy build and CPU dispatch
path; manifest.json also records wall-clock runtimes, which do not.

Each artifact is one string in fixed bytes: CSV rows end in \\r\\n (the
csv module's default dialect), every float is written as
``float.__repr__``, and JSON has indent 2 and sorted keys.
``tests/test_cli.py::TestArtifactWriters`` pins all three against the
csv and json modules on generated reports and run records. One writer,
``_write``, makes the output directory and writes every artifact, once
all their text is built, so a run that fails leaves nothing on disk.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, config_hash, load_config
from .errors import ParseError
from .grid import ResourceGrid
from .metrics import build_report, iter_cells, sweep_density
from .pipeline import TIMER_STREAM, derive_seed
from .scenario import Cluster
from .solvers import shared_subframes
# Not called here: perfbench/tracer.py WRAPS needs the name bound in this module.
from .pipeline import run_cell  # noqa: F401

log = logging.getLogger("sidesched")


def _resolve_seed(config: ExperimentConfig) -> ExperimentConfig:
    """``config`` with an int master seed: as configured, drawn when it is
    None, or coerced when it is a numpy integer, which json cannot write."""
    seed = config.master_seed
    if type(seed) is int:
        return config  # ``replace`` would re-run every check of the config
    if seed is None:
        # fresh entropy; the manifest records it so the run stays replayable
        seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
        log.info("no master seed configured, drew %d", seed)
    return replace(config, master_seed=int(seed))


# float.__repr__, not repr() or f"{x!r}": under numpy 2 those write an
# np.float64 as "np.float64(0.5)", where csv and json write "0.5".
_num = float.__repr__


def _csv(header: list[str], rows) -> str:
    """A CSV file of ``rows``, each already formatted with its \\r\\n."""
    return ",".join(header) + "\r\n" + "".join(rows)


def _write(out_dir: str, files: dict[str, str]) -> dict[str, Path]:
    """Make ``out_dir``, write each ``{file name: text}`` into it with
    newline="" (the bytes as built, on every platform) and return
    ``{file stem: path}``.

    Each artifact is removed before it is written, so a rerun into the
    same directory creates new files rather than truncating the old ones
    in place, which costs more. An artifact path that is a symlink is
    replaced by a file, not written through.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        path = out / name
        path.unlink(missing_ok=True)
        path.write_text(text, newline="")
    return {Path(name).stem: out / name for name in files}


def _report_files(reports) -> tuple[str, str, str]:
    """The cdf.csv, criteria.csv and summary.json text of ``reports``,
    with every number formatted once and shared by the files that repeat
    it."""
    cdf_rows, criteria_rows, series = [], [], []
    for rep in reports:
        head = f"{rep.method},{rep.bits},"
        hi, avg, worst, std = (_num(v / 1e6) for v in (
            rep.highest_bps, rep.average_bps, rep.worst_bps, rep.std_dev_bps))
        cdf = [(_num(x / 1e6), _num(p)) for x, p in rep.cdf]
        cdf_rows += [f"{head}{x},{p}\r\n" for x, p in cdf]
        criteria_rows.append(f"{head}{hi},{avg},{worst},{std}\r\n")
        points = ",\n".join(f"        [\n          {x},\n          {p}\n"
                            "        ]" for x, p in cdf)
        series.append(
            f'    {{\n      "average_mbps": {avg},\n'
            f'      "bits": {rep.bits},\n'
            f'      "cdf": [\n{points}\n      ],\n'
            f'      "highest_mbps": {hi},\n'
            f'      "method": {json.dumps(rep.method)},\n'
            f'      "std_dev_mbps": {std},\n'
            f'      "worst_mbps": {worst}\n    }}')
    return (_csv(["method", "bits", "rate_x_mbps", "prob"], cdf_rows),
            _csv(["method", "bits", "highest", "average", "worst", "std_dev"],
                 criteria_rows),
            '{\n  "series": [\n' + ",\n".join(series) + "\n  ]\n}\n")


def _run_json(rep: int, cluster: int, cell) -> str:
    """One cell's record in the manifest's ``runs`` list."""
    return (f'    {{\n      "bits": {cell.bits},\n'
            f'      "cluster": {cluster},\n'
            f'      "method": {json.dumps(cell.method)},\n'
            f'      "repetition": {rep},\n'
            f'      "runtime_s": {_num(cell.runtime_s)},\n'
            f'      "sum_rate_decision_bps": {_num(cell.sum_rate_decision_bps)},\n'
            f'      "sum_rate_truth_bps": {_num(cell.sum_rate_truth_bps)}\n    }}')


def _manifest_json(config: ExperimentConfig, runs: list[str],
                   reservations: list[dict] | None = None) -> str:
    """manifest.json text; ``runs`` are ``_run_json`` records."""
    fields = asdict(config)
    doc = {"config": fields, "config_hash": config_hash(fields),
           "master_seed": config.master_seed}
    if reservations is not None:
        doc["reservations"] = reservations
    # "runs" sorts after every other key, and every newline json.dumps
    # writes is layout, so the list is joined on in place of the last one
    runs_text = "[\n" + ",\n".join(runs) + "\n  ]" if runs else "[]"
    return (json.dumps(doc, indent=2, sort_keys=True)[:-2]
            + f',\n  "runs": {runs_text}\n}}\n')


def _reservations(config: ExperimentConfig, clusters) -> list[dict]:
    """Per-cluster reservation horizon the grants would persist for: a
    uniform draw from the pool, on a stream keyed by ``cluster.id``."""
    pool = config.t_sps_pool_s
    out = []
    for cluster in clusters:
        rng = np.random.default_rng(
            derive_seed(config.master_seed, TIMER_STREAM, cluster.id))
        t_sps = float(pool[int(rng.integers(0, len(pool)))])
        out.append({"cluster": cluster.id, "t_sps_s": t_sps,
                    "windows": math.ceil(t_sps * 1000 / config.grid.window_ms)})
    return out


def run_experiment(config: ExperimentConfig) -> dict[str, Path]:
    """Full Monte-Carlo pass; writes cdf.csv, criteria.csv, summary.json,
    manifest.json into the configured output directory."""
    config = _resolve_seed(config)
    clusters = [Cluster(j, n) for j, n in enumerate(config.cluster_sizes)]
    samples = {(m, b): [] for m in config.methods for b in config.bits_list}
    runs = []
    points = [(f"cluster {c.id}", c) for c in clusters]
    for rep, cluster, cell in iter_cells(config, points):
        samples[cell.method, cell.bits].append(cell.vehicle_rates_bps)
        runs.append(_run_json(rep, cluster.id, cell))
    reports = []
    for (method, bits), series in samples.items():
        pooled = np.concatenate(series)
        reports.append(build_report(pooled, config.cdf_grid_points, method, bits))
        log.info("series %s/%d bits done (%d samples)", method, bits, pooled.size)
    cdf, criteria, summary = _report_files(reports)
    manifest = _manifest_json(config, runs, _reservations(config, clusters))
    return _write(config.out_dir, {"cdf.csv": cdf, "criteria.csv": criteria,
                                   "summary.json": summary, "manifest.json": manifest})


def run_sweep(config: ExperimentConfig) -> dict[str, Path]:
    """Vehicle-density sweep; writes sweep.csv and manifest.json."""
    config = _resolve_seed(config)
    sweep = _csv(["method", "bits", "n_vehicles", "worst_rate_mbps"],
                 [f"{row.method},{row.bits},{row.n_vehicles},"
                  f"{_num(row.worst_rate_mean_bps / 1e6)}\r\n"
                  for row in sweep_density(config)])
    return _write(config.out_dir, {"sweep.csv": sweep,
                                   "manifest.json": _manifest_json(config, [])})


ASSIGNMENT_HEADER = ["cluster", "vehicle", "subchannel", "subframe"]


def write_assignment_csv(path, assignments, grid: ResourceGrid):
    """Persist {cluster id: assignment} in the four-column exchange format."""
    Path(path).write_text(_csv(ASSIGNMENT_HEADER, [
        f"{cluster},{i},{sc},{sc // grid.k}\r\n"
        for cluster, assn in assignments.items()
        for i, sc in enumerate(assn.subchannel.tolist())]), newline="")


@dataclass
class ValidationReport:
    ok: bool
    n_rows: int
    violations: list[str] = field(default_factory=list)


def validate_assignment_file(path, k: int | None = None) -> ValidationReport:
    """Check an assignment CSV for duplicate vehicles and shared subframes.

    With ``k`` given, subframes are recomputed as subchannel // k and any
    disagreeing subframe column is flagged; otherwise the file's subframe
    column is trusted. Row by row violations come first, then every
    shared subframe, cluster by cluster.
    """
    if k is not None and k < 1:
        raise ValueError(f"k (--k) must be at least 1, got {k}")
    violations = []
    seen = set()
    by_cluster = {}  # cluster -> (vehicles, subchannels, subframes) in row order
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ASSIGNMENT_HEADER:
            raise ParseError(
                f"{path}: header must be {','.join(ASSIGNMENT_HEADER)}")
        r = 0  # data rows read
        for r, record in enumerate(reader, start=1):
            if len(record) != 4:
                raise ParseError(f"{path}: row {r} has {len(record)} cells, "
                                 "expected 4", row=r)
            cl, vehicle, sc_s, sf_s = record
            try:
                sc, sf = int(sc_s), int(sf_s)
            except ValueError:
                raise ParseError(f"{path}: row {r}: subchannel and subframe "
                                 "must be integers", row=r) from None
            if sc < 0 or sf < 0:
                raise ParseError(f"{path}: row {r}: negative index", row=r)
            cl, vehicle = cl.strip(), vehicle.strip()
            if (cl, vehicle) in seen:
                violations.append(
                    f"cluster {cl}: vehicle {vehicle} assigned more than once")
            seen.add((cl, vehicle))
            eff = sf if k is None else sc // k
            if eff != sf:
                violations.append(
                    f"cluster {cl}: vehicle {vehicle} lists subframe {sf} "
                    f"but subchannel {sc} lies in subframe {eff}")
            vehicles, subchannels, subframes = by_cluster.setdefault(cl, ([], [], []))
            vehicles.append(vehicle)
            subchannels.append(sc)
            subframes.append(eff)
    for cl, columns in by_cluster.items():
        violations.extend(f"cluster {cl}: {clash}"
                          for clash in shared_subframes(*columns))
    return ValidationReport(not violations, r, violations)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sidesched",
        description="Subchannel scheduling experiments under quantized "
                    "SINR feedback")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("run", "run the configured experiment"),
                            ("sweep", "vehicle-density sweep")):
        p_exp = sub.add_parser(name, help=help_text)
        p_exp.add_argument("--config", required=True, help="JSON config file")
        p_exp.add_argument("--seed", type=int, default=None,
                           help="override the master seed")
        p_exp.add_argument("--out", default=None, help="override the output dir")

    p_val = sub.add_parser("validate", help="check an assignment CSV")
    p_val.add_argument("path", help="assignment CSV file")
    p_val.add_argument("--k", type=int, default=None,
                       help="subchannels per subframe, to recompute subframes")

    args = parser.parse_args(argv)
    # a level name gives its number; anything else, its "Level x" string
    level = logging.getLevelName(os.environ.get("SIDESCHED_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")

    try:
        if args.command in ("run", "sweep"):
            # overrides go through the same checks as the config's own keys
            overrides = {key: value for key, value in (
                ("master_seed", args.seed), ("out_dir", args.out)) if value is not None}
            config = load_config(args.config)
            if overrides:  # else ``replace`` would only repeat those checks
                config = replace(config, **overrides)
            runner = run_experiment if args.command == "run" else run_sweep
            paths = runner(config)
            for name, p in sorted(paths.items()):
                print(f"{name}: {p}")
            return 0
        # validate
        report = validate_assignment_file(args.path, k=args.k)
        if report.ok:
            print(f"ok: {report.n_rows} rows, no violations")
            return 0
        for v in report.violations:
            print(f"violation: {v}")
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
