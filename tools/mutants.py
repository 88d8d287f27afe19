"""Replay the committed mutation checks: each mutant must fail its tests.

    python tools/mutants.py [NAME ...]

Each entry of ``MUTANTS`` is a file, an exact snippet of it, the
snippet's replacement and the tests that must fail once it is made. For
each entry (every entry, or only those named) the working tree is copied
to a temporary directory, the snippet is replaced there, and only the
entry's tests run, with ``python -m pytest -q -x -p no:cacheprovider``
and ``PYTHONPATH`` set to the copy's ``src``. Before any mutant, an
unmutated copy runs every test the selected entries name; if it does not
pass, no verdict would mean anything and the script exits 1.

One line per mutant reports its verdict:

- ``caught``: pytest exits 1, a named test failed;
- ``survived``: pytest exits 0, every named test passed;
- ``stale``: the snippet is not found exactly once, so the entry no
  longer fits the code and must be restated;
- ``broken``: any other exit (no test collected, a usage or internal
  error, a run past ``TIMEOUT_S``).

The exit code is 0 when every mutant is caught, else 1. A claim that "a
copy with X fails test Y" is made by adding an entry here, not by hand.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600
# left out of each copy: version control, caches and run output
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis", ".benchmarks", ".perfbench_work",
                              "results", "*.egg-info")

# name -> (file, snippet, replacement, tests that must fail)
MUTANTS = {
    # a quantized decision reads its picked slots by SINR, not by level
    "unkeyed-slots": (
        "src/sidesched/assignment.py",
        "        if self.quantizer is not None:\n"
        "            picked = _bin_index(self.quantizer, picked)\n",
        "",
        ["tests/test_sideinfo.py::TestRatedWhereRead::"
         "test_quantized_reads_equal_the_full_index"]),
    # a SINR below the range indexes as far up as it lies below
    "abs-in-the-index": (
        "src/sidesched/sideinfo.py",
        "x = np.maximum(np.subtract(sinr_db, lo_db, dtype=float), 0.0)",
        "x = np.abs(np.subtract(sinr_db, lo_db, dtype=float))",
        ["tests/test_sideinfo.py::TestNestedWidths::"
         "test_bin_index_equals_out_of_place_formula"]),
    # every 8-bit bin is 1/240 of the range, so the top bins run short
    "bin-edge": (
        "src/sidesched/sideinfo.py",
        "np.minimum(x / ((hi_db - lo_db) / 256), 255.0)",
        "np.minimum(x / ((hi_db - lo_db) / 240), 255.0)",
        ["tests/test_expectations.py"]),
    # the rate takes log2(2 + SINR) for log2(1 + SINR)
    "rate-formula": (
        "src/sidesched/sideinfo.py",
        "np.log2(1.0 + 10.0 ** (np.asarray(sinr_db, dtype=float) / 10.0))",
        "np.log2(2.0 + 10.0 ** (np.asarray(sinr_db, dtype=float) / 10.0))",
        ["tests/test_expectations.py"]),
    # the oracle takes the last maximal slot of a block, not the first
    "oracle-last-slot-on-ties": (
        "src/sidesched/solvers.py",
        "    slots = blocks.argmax(axis=2)\n",
        "    slots = grid.k - 1 - blocks[..., ::-1].argmax(axis=2)\n",
        ["tests/test_solvers.py::TestOracle::test_tie_rule_matches_enumeration"]),
    # numpy 2 writes repr(np.float64(0.5)) as "np.float64(0.5)"
    "num-is-repr": (
        "src/sidesched/cli.py",
        "_num = float.__repr__",
        "_num = repr",
        ["tests/test_cli.py::TestArtifactWriters::"
         "test_numpy_floats_are_written_as_floats"]),
    # the loader lets a deleted key through in silence
    "removed-key-accepted": (
        "src/sidesched/config.py",
        "        elif name not in SCHEMA:\n",
        "        elif name not in SCHEMA and name != \"t_sps_pool_s\":\n",
        ["tests/test_cli.py::TestMainEntry::"
         "test_removed_key_is_unknown[t_sps_pool_s]"]),
    # the augmenting path moves no column owner
    "dropped-column-owner-update": (
        "src/sidesched/munkres.py",
        "        col_row[j0] = col_row[j1]\n",
        "        pass\n",
        ["tests/test_munkres.py::TestInsertion"]),
    # a shared subframe goes unreported
    "shared-subframes-silent": (
        "src/sidesched/solvers.py",
        "        if first != j:\n",
        "        if False:\n",
        ["tests/test_solvers.py::TestVerifyAndEvaluate::"
         "test_verify_flags_shared_subframe"]),
    # a sum that overflows passes as inf, in evaluate and in the kernel
    "unchecked-sum": (
        "src/sidesched/errors.py",
        "    if not math.isfinite(total):\n",
        "    if False:\n",
        ["tests/test_solvers.py::TestVerifyAndEvaluate::"
         "test_evaluate_names_the_sum_that_overflows",
         "tests/test_cli.py::TestMainEntry::"
         "test_overflow_past_load_fails_clean_or_runs_clean"]),
    # an edge within 2**44 units of its row's minimum cost counts as tight
    "over-inclusive-tight-set": (
        "src/sidesched/munkres.py",
        "    tight = _row_bits(cost == u[:, None])\n",
        "    tight = _row_bits(cost <= u[:, None] + 2.0 ** 44)\n",
        ["tests/test_munkres.py::TestAgainstEnumeration",
         "tests/test_munkres.py::TestAgainstScipy"]),
}


def copy_tree(dest: Path) -> Path:
    tree = dest / "tree"
    shutil.copytree(ROOT, tree, ignore=SKIP, symlinks=True)
    return tree


def run_tests(tree: Path, tests: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return -1


def verdict(name: str) -> str:
    path, snippet, replacement, tests = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = copy_tree(Path(tmp))
        target = tree / path
        text = target.read_text()
        if text.count(snippet) != 1:
            return "stale"
        target.write_text(text.replace(snippet, replacement))
        code = run_tests(tree, tests)
    return {1: "caught", 0: "survived"}.get(code, "broken")


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    tests = sorted({t for n in names for t in MUTANTS[n][3]})
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        code = run_tests(copy_tree(Path(tmp)), tests)
    if code != 0:
        print(f"unmutated copy: the named tests exit {code}; no verdict given")
        return 1
    results = {}
    for name in names:
        t0 = time.perf_counter()
        results[name] = verdict(name)
        print(f"{results[name]:<9} {name} ({time.perf_counter() - t0:.1f} s)",
              flush=True)
    caught = sum(v == "caught" for v in results.values())
    print(f"{caught} of {len(results)} caught in "
          f"{time.perf_counter() - start:.1f} s")
    return 0 if caught == len(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
