"""Compare this working tree's artifacts with those of a git revision.

    python tools/compare_artifacts.py REV

REV is exported with ``git archive | tar -x`` into a temporary directory,
which works on a shallow clone and leaves no worktree behind. ``python -W
error -m sidesched run`` and ``sweep`` (``PYTHONPATH=src``) run in the
export and in this tree on the same five configs, all built from this
tree's files. A warning on either side is an error and stops the
comparison. Each command writes to its own directory, so the sweep's
manifest does not overwrite the run's.

- ``smoke``: configs/smoke.json.
- ``full_scale``: configs/full_scale.json at 5 repetitions. It covers
  N = L and tie-saturated quantized tables, which the 8-subframe smoke
  grid never reaches. Each draw's seed depends on the repetition, not on
  the repetition count, so a run at fewer repetitions holds no cell that
  this one lacks.
- ``mixed_density_sweep`` and ``baseline_schedulers``: the benchmark's
  workloads (perfbench/run.py, read, never changed) at 3 repetitions and
  master seed 0. The first (two-state on 7 x 100, N = 10..100) covers
  N < L at L = 100. The second is the only committed config with 1-bit
  and 8-bit widths and N = 60 through greedy.
- ``clamped_range``: the default gaussian (10 +- 8 dB) quantized over
  15..25 dB, strictly inside the scenario's -15..35 dB clamp, so block
  maxima whose 8-bit index clamps at 0 and at 255 are compared too: in
  its run draws 218 of 1920 block maxima are 0 and 372 are 255, in its
  sweep draws 182 and 276 of 1500.

Files are compared byte for byte, line endings and a final newline
included. In a manifest only what differs by output directory or by wall
time is blanked in the raw text first: config.out_dir, config_hash and
each run's runtime_s. Byte identity holds on one numpy build and CPU
dispatch path, so both sides run on one host.

Standard output is markdown: one line per artifact, identical or differs,
with the first differing line on each side of a file that differs, shown
as a Python string literal so that a changed line ending shows; then each
tree's ``ACCEPTANCE`` lines of ``pytest -q -s tests/test_acceptance.py``,
wall times blanked, each marked same or moved. The exit code is 1 when
any file differs, any line moved, or a tree's pytest run errored or
printed no ``ACCEPTANCE`` line. A change may move numbers on purpose;
CHANGES.md then records the shift.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLANKS = ((r'"out_dir": "[^"]*"', '"out_dir": ""'),
          (r'"config_hash": "[0-9a-f]*"', '"config_hash": ""'),
          (r'"runtime_s": [-+.0-9eE]+', '"runtime_s": 0'))
ENV = {**os.environ, "PYTHONPATH": "src"}


def normalise(manifest: str) -> str:
    """``manifest`` with its output directory, config hash and wall times
    blanked."""
    for pattern, blank in BLANKS:
        manifest = re.sub(pattern, blank, manifest)
    return manifest


def config_sets() -> dict[str, dict]:
    """{set name: raw config} of the five compared sets, from this tree."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "run.py"))["WORKLOADS"]
    return {
        "smoke": json.loads((ROOT / "configs" / "smoke.json").read_text()),
        "full_scale": {**json.loads((ROOT / "configs" / "full_scale.json")
                                    .read_text()), "repetitions": 5},
        **{name: {**workloads[name].raw_config(), "repetitions": 3,
                  "master_seed": 0}
           for name in ("mixed_density_sweep", "baseline_schedulers")},
        "clamped_range": {
            "grid": {"k_subchannels": 7, "l_subframes": 20},
            "scenario": {"kind": "gaussian"}, "clusters": [12, 20],
            "sweep": {"n_vehicles": [5, 20]},
            "quant": {"bits": [0, 1, 3, 8], "lo_db": 15.0, "hi_db": 25.0},
            "methods": ["proposed", "greedy", "random"],
            "repetitions": 3, "master_seed": 0},
    }


def content(path: Path) -> bytes | None:
    """The artifact's bytes, a manifest normalised; None when it is missing."""
    if not path.exists():
        return None
    data = path.read_bytes()
    return normalise(data.decode()).encode() if path.name == "manifest.json" else data


def first_difference(old: bytes | None, new: bytes | None) -> tuple[int, str, str]:
    """(line number, old line, new line) of the first line, with its line
    ending, at which two differing contents part."""
    def lines(data):
        return ["(no such file)"] if data is None else [
            repr(line) for line in data.decode().splitlines(keepends=True)]
    return next((i, a, b) for i, (a, b) in enumerate(itertools.zip_longest(
        lines(old), lines(new), fillvalue="(end of file)"), 1) if a != b)


def _acceptance(tree: Path) -> list[str]:
    """The tree's ACCEPTANCE lines, wall times blanked. Under ``-s``
    pytest's progress dots share a line with them. Empty when pytest
    errored (an exit status other than 0 or 1, passed or failed)."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "tests/test_acceptance.py"],
        cwd=tree, env=ENV, stdout=subprocess.PIPE, text=True)
    if done.returncode not in (0, 1):
        return []
    return [re.sub(r"\d+\.\ds", "_s", line)
            for line in re.findall(r"ACCEPTANCE .*", done.stdout)]


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="git revision to compare this tree with")
    rev = parser.parse_args().rev
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        export = tmp / "export"
        export.mkdir()
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(export)], input=archive, check=True)
        dirs = []
        for name, raw in config_sets().items():
            config = tmp / f"{name}.json"
            config.write_text(json.dumps(raw))
            for cmd in ("run", "sweep"):
                dirs.append(f"{name}-{cmd}")
                for tree, side in ((export, "rev"), (ROOT, "tree")):
                    subprocess.run(
                        [sys.executable, "-W", "error", "-m", "sidesched", cmd,
                         "--config", str(config), "--out", str(tmp / side / dirs[-1])],
                        cwd=tree, env=ENV, check=True, stdout=subprocess.DEVNULL)

        print(f"### Artifacts against {rev}")
        files = differ = 0
        for d in dirs:
            names = {p.name for side in ("rev", "tree") for p in (tmp / side / d).iterdir()}
            for name in sorted(names):
                files += 1
                old, new = (content(tmp / side / d / name) for side in ("rev", "tree"))
                if old == new:
                    print(f"- `{d}/{name}`: identical")
                    continue
                differ += 1
                at, a, b = first_difference(old, new)
                print(f"- `{d}/{name}`: differs, first at line {at}\n"
                      f"  - {rev}: `{a}`\n  - tree: `{b}`")

        print(f"\n{files - differ} of {files} files identical\n\n"
              f"### ACCEPTANCE lines against {rev}")
        old, new = _acceptance(export), _acceptance(ROOT)
        pairs = list(itertools.zip_longest(old, new, fillvalue="(none)"))
        for a, b in pairs:
            print(f"- same: `{a}`" if a == b else f"- moved: {rev} `{a}`, tree `{b}`")
        moved = sum(a != b for a, b in pairs)
        print(f"\n{len(pairs) - moved} of {len(pairs)} lines the same")
        silent = [side for side, lines in ((rev, old), ("tree", new)) if not lines]
        for side in silent:
            print(f"\n{side}: pytest errored or printed no ACCEPTANCE line")
    return int(differ > 0 or moved > 0 or bool(silent))


if __name__ == "__main__":
    sys.exit(main())
