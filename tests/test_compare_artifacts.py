"""tools/compare_artifacts.py: what its manifest normalisation blanks, that
it compares files byte for byte, and the sets it compares."""

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

from sidesched import load_config, run_experiment

ROOT = Path(__file__).resolve().parents[1]


def test_normalising_blanks_only_directory_hash_and_wall_times(compare, tmp_path):
    config = load_config(ROOT / "configs" / "smoke.json")
    raw = [run_experiment(replace(config, out_dir=str(tmp_path / side)))
           ["manifest"].read_text() for side in ("a", "b")]
    assert raw[0] != raw[1]
    normal = [compare.normalise(text) for text in raw]
    assert normal[0] == normal[1]
    for text, blanked in zip(raw, normal):
        old, new = text.splitlines(), blanked.splitlines()
        assert len(old) == len(new)
        changed = Counter(a.split(":")[0].strip() for a, b in zip(old, new) if a != b)
        assert changed == {'"out_dir"': 1, '"config_hash"': 1,
                           '"runtime_s"': len(json.loads(text)["runs"])}


def test_line_endings_and_a_final_newline_differ(compare, tmp_path):
    (tmp_path / "crlf.csv").write_bytes(b"a\r\nb\r\n")
    (tmp_path / "lf.csv").write_bytes(b"a\nb")
    old, new = (compare.content(tmp_path / name) for name in ("crlf.csv", "lf.csv"))
    assert old != new
    assert compare.first_difference(old, new) == (1, repr("a\r\n"), repr("a\n"))
    assert compare.first_difference(b"a\nb\n", b"a\nb") == (2, repr("b\n"), repr("b"))
    assert compare.content(tmp_path / "missing.csv") is None


def test_compared_sets(compare, workloads):
    sets = compare.config_sets()
    assert list(sets) == ["smoke", "full_scale", "mixed_density_sweep",
                          "baseline_schedulers", "clamped_range"]
    assert {"mixed_density_sweep", "baseline_schedulers"} <= set(workloads)
