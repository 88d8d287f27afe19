"""One fresh, single-threaded benchmark process, started by perfbench/run.py.

    child.py setup  CONFIG
    child.py run    CONFIG RUNNER OUT SECONDS
    child.py traced CONFIG RUNNER OUT CALLS

``setup`` imports sidesched, loads the config and prints the seconds from
the first statement up to the first cell. ``run`` calls the runner
(``run_experiment`` or ``run_sweep``) untraced, one call after another,
until SECONDS have passed; call i uses master seed (config seed + i).
``traced`` replays calls 0 .. CALLS-1 under the tracer and its checks.
Both print one JSON line: per-call wall time, reference time, minor page
faults and artifact digests, and the process's peak resident set size.

The reference is a fixed mix of the two kinds of work a cell spends its
time on, interpreter bytecode and numpy calls on small arrays, timed next
to each measurement. The host's speed drifts by tens of percent over
minutes as other tenants load it, and the mix slows about as much as the
program does, so run.py scales each measurement by the reference time.
"""

import time
T0 = time.perf_counter()  # setup_s starts here

import sys

REFERENCE_LOOPS = 20_000
REFERENCE_CALLS = 80
REFERENCE_REPEATS = 5


def reference_s() -> float:
    """Median wall time of the fixed reference mix, in seconds."""
    import numpy as np  # already loaded by sidesched; kept out of set-up
    vec = (np.arange(100) * 37 % 101) / 101
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOPS):
            acc += i * i % 7
        for _ in range(REFERENCE_CALLS):
            idx = np.flatnonzero(vec > 0.5)
            acc += idx[np.argmin(vec[idx])]
        times.append(time.perf_counter() - t0)
    return sorted(times)[REFERENCE_REPEATS // 2]


if sys.argv[1] == "setup":
    import sidesched.cli
    sidesched.cli.load_config(sys.argv[2])
    setup = time.perf_counter() - T0
    print(setup, reference_s())
    sys.exit(0)

import hashlib
import json
import resource
import traceback
from dataclasses import replace
from pathlib import Path

import sidesched.cli as cli

def artifact_facts(paths: dict) -> tuple[dict, int]:
    """sha256 of each artifact but the manifest, which holds wall times,
    and the byte size of all of them."""
    digests = {}
    size = 0
    for p in map(Path, paths.values()):
        data = p.read_bytes()
        size += len(data)
        if p.name != "manifest.json":
            digests[p.name] = hashlib.sha256(data).hexdigest()
    return digests, size


def main() -> int:
    mode, config_path, runner_name, out_dir, budget = sys.argv[1:6]
    src = Path(cli.__file__).resolve().parents[1]
    if src != Path("src").resolve():
        print(f"sidesched imported from {src}, not from ./src", file=sys.stderr)
        return 2
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    runner = getattr(cli, runner_name)
    calls = int(budget) if mode == "traced" else None
    seconds = float(budget) if mode == "run" else None

    records = []
    start = time.perf_counter()
    while (len(records) < calls if calls is not None else
           not records or time.perf_counter() - start < seconds):
        config = cli.load_config(config_path)
        config = replace(config, out_dir=out_dir,
                         master_seed=config.master_seed + len(records))
        excluded0 = tracer.excluded_s if tracer else 0.0
        failed0 = tracer.failed_cells + tracer.failed_outside_cells if tracer else 0
        ref_before = reference_s()
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        try:
            paths = runner(config)
        except Exception:
            records.append({"error": traceback.format_exc()})
            break
        wall = time.perf_counter() - t0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
        record = {"wall_s": wall, "minor_faults": faults,
                  "reference_s": (ref_before + reference_s()) / 2}
        if tracer:
            record["wall_s"] -= tracer.excluded_s - excluded0
            record["failed_cells"] = (tracer.failed_cells
                                      + tracer.failed_outside_cells - failed0)
        record["digests"], record["artifact_bytes"] = artifact_facts(paths)
        records.append(record)

    print(json.dumps({
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tracer": tracer.summary() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
