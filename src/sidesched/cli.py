"""Experiment runner: config parsing, orchestration, CSV/JSON artifacts.

Configs are JSON. Rates cross the I/O boundary in Mbit/s; everything
internal stays in bits/s. Artifacts (cdf.csv, criteria.csv, sweep.csv,
summary.json) are byte-reproducible for a given config and master seed;
manifest.json additionally records wall-clock runtimes, which are not.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, InfeasibleError, ParseError
from .grid import DEFAULT_T_SPS_POOL_S, ResourceGrid, draw_t_sps
from .metrics import build_report, iter_cells, sweep_density
from .pipeline import TIMER_STREAM, derive_seed
# Not called here: perfbench/tracer.py WRAPS needs the name bound in this module.
from .pipeline import run_cell  # noqa: F401
from .scenario import SCENARIO_KINDS, make_clusters, ScenarioModel
from .solvers import METHODS, ORACLE_MAX_K, ORACLE_MAX_L, shared_subframes

log = logging.getLogger("sidesched")


@dataclass
class ExperimentConfig:
    """Everything one run or sweep needs, already validated."""

    grid: ResourceGrid
    scenario: ScenarioModel
    cluster_sizes: tuple[int, ...]
    bits_list: tuple[int, ...]          # 0 = ideal fine-grained feedback
    methods: tuple[str, ...]
    repetitions: int
    master_seed: int | None             # None: drawn at run time, recorded
    out_dir: str = "results"
    cdf_grid_points: int = 30
    quant_lo_db: float = -15.0
    quant_hi_db: float = 35.0
    sweep_n_vehicles: tuple[int, ...] | None = None  # None: _default_sweep
    t_sps_pool_s: tuple[float, ...] = DEFAULT_T_SPS_POOL_S

    def __post_init__(self):
        l = self.grid.l
        if self.sweep_n_vehicles is None:
            self.sweep_n_vehicles = _default_sweep(l)
        # an empty axis leaves no cell and a repeated entry runs cells twice
        # (cluster sizes may repeat: each gets its own id); by config-file key
        bad = [key for key, axis in (("clusters", self.cluster_sizes),
                                     ("methods", self.methods),
                                     ("quant.bits", self.bits_list))
               if not axis]
        if self.repetitions < 1:
            bad.append("repetitions")
        bad += [f"{key}[{i}]" for key, axis in (
                    ("methods", self.methods), ("quant.bits", self.bits_list),
                    ("sweep.n_vehicles", self.sweep_n_vehicles))
                for i, x in enumerate(axis) if x in axis[:i]]
        if bad:
            raise ConfigError(bad)
        for n in self.cluster_sizes:
            if n > l:
                raise InfeasibleError(
                    f"cluster of {n} vehicles exceeds {l} subframes")
        for n in self.sweep_n_vehicles:
            if n > l:
                raise InfeasibleError(f"sweep point N={n} exceeds {l} subframes")


def _default_sweep(l: int) -> tuple[int, ...]:
    """Every tenth density up to the subframe count, or just that count."""
    return tuple(n for n in range(10, 101, 10) if n <= l) or (l,)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a validated config; raises ConfigError naming offending keys."""
    bad = []
    read = set()  # dotted keys looked up below; every lookup is unconditional

    def get(key, default=None):
        read.add(key)
        cur = raw
        for part in key.split("."):
            if not isinstance(cur, dict) or part not in cur:
                return default
            cur = cur[part]
        return cur

    def check(key, default, pred):
        val = get(key, default)
        if not pred(val):
            bad.append(key)
            return default
        return val

    is_int = lambda x: isinstance(x, int) and not isinstance(x, bool)

    def is_num(x):
        # finite, so a JSON NaN or Infinity fails here and not in a cell
        try:
            return (isinstance(x, (int, float)) and not isinstance(x, bool)
                    and math.isfinite(x))
        except OverflowError:  # an integer too large for a float
            return False

    k = check("grid.k_subchannels", 7, lambda x: is_int(x) and x >= 1)
    l = check("grid.l_subframes", 100, lambda x: is_int(x) and x >= 1)
    t_ms = check("grid.t_ms", 1.0, lambda x: is_num(x) and x > 0)
    b_hz = check("grid.b_hz", 1.26e6, lambda x: is_num(x) and x > 0)

    kind = check("scenario.kind", "uniform", lambda x: x in SCENARIO_KINDS)
    mean_db = check("scenario.mean_db", 10.0, is_num)
    std_db = check("scenario.std_db", 8.0, lambda x: is_num(x) and x >= 0)
    bad_mean_db = check("scenario.bad_mean_db", -5.0, is_num)
    p_bad = check("scenario.p_bad", 0.2, lambda x: is_num(x) and 0 <= x <= 1)
    floor_db = check("scenario.floor_db", -15.0, is_num)
    ceil_db = check("scenario.ceil_db", 35.0, is_num)
    if is_num(floor_db) and is_num(ceil_db) and not floor_db < ceil_db:
        bad.append("scenario.floor_db")
        bad.append("scenario.ceil_db")
        floor_db, ceil_db = -15.0, 35.0
    p_t_dbm = check("scenario.p_t_dbm", 23.0, is_num)

    clusters = get("clusters", [100])
    if not isinstance(clusters, list) or not clusters:
        bad.append("clusters")
        clusters = [100]
    else:
        for i, n in enumerate(clusters):
            if not (is_int(n) and 1 <= n <= l):
                bad.append(f"clusters[{i}]")

    bits = get("quant.bits", [0])
    if is_int(bits):
        bits = [bits]
    if not isinstance(bits, list) or not bits:
        bad.append("quant.bits")
        bits = [0]
    else:
        for i, b in enumerate(bits):
            if not (is_int(b) and 0 <= b <= 8):
                bad.append(f"quant.bits[{i}]")
    lo_db = check("quant.lo_db", -15.0, is_num)
    hi_db = check("quant.hi_db", 35.0, is_num)
    if is_num(lo_db) and is_num(hi_db) and not lo_db < hi_db:
        bad.append("quant.lo_db")
        bad.append("quant.hi_db")
        lo_db, hi_db = -15.0, 35.0

    methods = get("methods", ["proposed", "greedy", "random"])
    if not isinstance(methods, list) or not methods:
        bad.append("methods")
        methods = ["proposed"]
    else:
        for i, m in enumerate(methods):
            if m not in METHODS:
                bad.append(f"methods[{i}]")
            elif m == "oracle" and (l > ORACLE_MAX_L or k > ORACLE_MAX_K):
                # brute force is capped; name the method and the grid sizes
                bad.append(f"methods[{i}]")
                if l > ORACLE_MAX_L:
                    bad.append("grid.l_subframes")
                if k > ORACLE_MAX_K:
                    bad.append("grid.k_subchannels")

    repetitions = check("repetitions", 100, lambda x: is_int(x) and x >= 1)
    master_seed = get("master_seed")
    if master_seed is not None and not (is_int(master_seed) and master_seed >= 0):
        bad.append("master_seed")
        master_seed = None
    out_dir = check("out_dir", "results", lambda x: isinstance(x, str) and x)
    grid_points = check("cdf_grid_points", 30, lambda x: is_int(x) and x >= 2)

    default_sweep = list(_default_sweep(l))
    sweep_n = get("sweep.n_vehicles", default_sweep)
    if not isinstance(sweep_n, list) or not sweep_n:
        bad.append("sweep.n_vehicles")
        sweep_n = default_sweep
    else:
        for i, n in enumerate(sweep_n):
            if not (is_int(n) and 1 <= n <= l):
                bad.append(f"sweep.n_vehicles[{i}]")

    pool = get("t_sps_pool_s", list(DEFAULT_T_SPS_POOL_S))
    if not isinstance(pool, list) or not pool or \
            not all(is_num(x) and x > 0 for x in pool):
        bad.append("t_sps_pool_s")
        pool = list(DEFAULT_T_SPS_POOL_S)

    # The keys read above are the schema: a dotted key's prefix is a
    # section, and anything else in the config is unknown.
    sections = {key.split(".")[0] for key in read if "." in key}
    for key, val in raw.items():
        if key in sections and isinstance(val, dict):
            bad.extend(f"unknown key '{key}.{sub}'" for sub in val
                       if f"{key}.{sub}" not in read)
        elif key in sections:
            bad.append(key)
        elif key not in read:
            bad.append(f"unknown key {key!r}")

    if bad:
        raise ConfigError(sorted(set(bad)))

    return ExperimentConfig(
        grid=ResourceGrid(k=k, l=l, t_ms=float(t_ms), b_hz=float(b_hz)),
        scenario=ScenarioModel(
            kind=kind, mean_db=float(mean_db), std_db=float(std_db),
            bad_mean_db=float(bad_mean_db), p_bad=float(p_bad),
            sinr_floor_db=float(floor_db), sinr_ceil_db=float(ceil_db),
            p_t_dbm=float(p_t_dbm)),
        cluster_sizes=tuple(clusters),
        bits_list=tuple(bits),
        methods=tuple(methods),
        repetitions=repetitions,
        master_seed=master_seed,
        out_dir=out_dir,
        cdf_grid_points=grid_points,
        quant_lo_db=float(lo_db),
        quant_hi_db=float(hi_db),
        sweep_n_vehicles=tuple(sweep_n),
        t_sps_pool_s=tuple(float(x) for x in pool),
    )


def _read_config(path) -> dict:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(["<top level must be an object>"])
    return raw


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_config(path))


def _resolve_seed(config: ExperimentConfig) -> ExperimentConfig:
    seed = config.master_seed
    if seed is None:
        # fresh entropy; the manifest records it so the run stays replayable
        seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
        log.info("no master seed configured, drew %d", seed)
    return replace(config, master_seed=int(seed))


def config_hash(config: ExperimentConfig) -> str:
    """sha256 over the canonical JSON form; changes with any field."""
    blob = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _mbps(x: float) -> float:
    return x / 1e6


def _write_cdf_csv(path, reports):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "bits", "rate_x_mbps", "prob"])
        for rep in reports:
            for x, p in rep.cdf:
                w.writerow([rep.method, rep.bits, _mbps(x), p])


def _write_criteria_csv(path, reports):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "bits", "highest", "average", "worst", "std_dev"])
        for rep in reports:
            w.writerow([rep.method, rep.bits, _mbps(rep.highest_bps),
                        _mbps(rep.average_bps), _mbps(rep.worst_bps),
                        _mbps(rep.std_dev_bps)])


def _write_summary_json(path, reports):
    series = [{
        "method": rep.method,
        "bits": rep.bits,
        "highest_mbps": _mbps(rep.highest_bps),
        "average_mbps": _mbps(rep.average_bps),
        "worst_mbps": _mbps(rep.worst_bps),
        "std_dev_mbps": _mbps(rep.std_dev_bps),
        "cdf": [[_mbps(x), p] for x, p in rep.cdf],
    } for rep in reports]
    with open(path, "w") as fh:
        json.dump({"series": series}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(path, config, runs, extra=None):
    doc = {
        "config": asdict(config),
        "config_hash": config_hash(config),
        "master_seed": config.master_seed,
        "runs": runs,
    }
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _reservations(config: ExperimentConfig, clusters) -> list[dict]:
    """Per-cluster reservation horizon the grants would persist for."""
    out = []
    for ci, cluster in enumerate(clusters):
        rng = np.random.default_rng(
            derive_seed(config.master_seed, TIMER_STREAM, ci))
        t_sps = draw_t_sps(rng, config.t_sps_pool_s)
        out.append({"cluster": cluster.id, "t_sps_s": t_sps,
                    "windows": math.ceil(t_sps * 1000 / config.grid.window_ms)})
    return out


def run_experiment(config: ExperimentConfig) -> dict[str, Path]:
    """Full Monte-Carlo pass; writes cdf.csv, criteria.csv, summary.json,
    manifest.json into the configured output directory."""
    config = _resolve_seed(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    clusters = make_clusters(config.cluster_sizes)
    samples = {(m, b): [] for m in config.methods for b in config.bits_list}
    run_records = []
    points = [(f"cluster {c.id}", c) for c in clusters]
    for rep, cluster, cell in iter_cells(config, points):
        samples[cell.method, cell.bits].append(cell.vehicle_rates_bps)
        run_records.append({
            "method": cell.method, "bits": cell.bits,
            "cluster": cluster.id, "repetition": rep,
            "sum_rate_decision_bps": cell.stats.sum_rate_decision_bps,
            "sum_rate_truth_bps": cell.stats.sum_rate_truth_bps,
            "runtime_s": cell.stats.runtime_s,
        })
    reports = []
    for (method, bits), series in samples.items():
        reports.append(build_report(np.concatenate(series),
                                    config.cdf_grid_points, method, bits))
        log.info("series %s/%d bits done (%d samples)", method, bits,
                 reports[-1].samples.size)
    paths = {
        "cdf": out / "cdf.csv",
        "criteria": out / "criteria.csv",
        "summary": out / "summary.json",
        "manifest": out / "manifest.json",
    }
    _write_cdf_csv(paths["cdf"], reports)
    _write_criteria_csv(paths["criteria"], reports)
    _write_summary_json(paths["summary"], reports)
    _write_manifest(paths["manifest"], config, run_records,
                    extra={"reservations": _reservations(config, clusters)})
    return paths


def run_sweep(config: ExperimentConfig) -> dict[str, Path]:
    """Vehicle-density sweep; writes sweep.csv and manifest.json."""
    config = _resolve_seed(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = sweep_density(config)
    paths = {"sweep": out / "sweep.csv", "manifest": out / "manifest.json"}
    with open(paths["sweep"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "bits", "n_vehicles", "worst_rate_mbps"])
        for row in rows:
            w.writerow([row.method, row.bits, row.n_vehicles,
                        _mbps(row.worst_rate_mean_bps)])
    _write_manifest(paths["manifest"], config, [])
    return paths


ASSIGNMENT_HEADER = ["cluster", "vehicle", "subchannel", "subframe"]


def write_assignment_csv(path, assignments, grid: ResourceGrid):
    """Persist assignments in the four-column exchange format."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ASSIGNMENT_HEADER)
        for assn in assignments:
            for i in sorted(assn.pairs):
                sc = assn.pairs[i]
                w.writerow([assn.cluster_id, i, sc, sc // grid.k])


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

    p_run = sub.add_parser("run", help="run the configured experiment")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
    p_run.add_argument("--out", default=None, help="override the output dir")

    p_sweep = sub.add_parser("sweep", help="vehicle-density sweep")
    p_sweep.add_argument("--config", required=True, help="JSON config file")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="override the master seed")
    p_sweep.add_argument("--out", default=None, help="override the output dir")

    p_val = sub.add_parser("validate", help="check an assignment CSV")
    p_val.add_argument("path", help="assignment CSV file")
    p_val.add_argument("--k", type=int, default=None,
                       help="subchannels per subframe, to recompute subframes")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=getattr(logging, os.environ.get("SIDESCHED_LOG", "WARNING").upper(),
                      logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")

    try:
        if args.command in ("run", "sweep"):
            # overrides go through the same checks as the config's own keys
            raw = _read_config(args.config)
            if args.seed is not None:
                raw["master_seed"] = args.seed
            if args.out is not None:
                raw["out_dir"] = args.out
            runner = run_experiment if args.command == "run" else run_sweep
            paths = runner(config_from_dict(raw))
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
