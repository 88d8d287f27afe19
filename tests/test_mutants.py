"""tools/mutants.py: every entry still fits the tree. Running the mutants
takes about 40 s and stays out of Tier-1; this checks only that each
entry would not be reported stale and names tests that exist."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_entry_fits_the_tree(mutants):
    assert len(mutants.MUTANTS) >= 6
    for name, (path, snippet, replacement, tests) in mutants.MUTANTS.items():
        assert (ROOT / path).read_text().count(snippet) == 1, name
        assert replacement != snippet, name
        assert tests, name
        for test in tests:
            assert (ROOT / test.partition("::")[0]).is_file(), (name, test)
