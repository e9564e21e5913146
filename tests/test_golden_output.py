"""Seeded experiment output against committed reference files.

tests/data/golden/ holds rates.csv and confusion.csv of
`microtopo experiment --seed 7 --reps 1 --jobs 1` on the bundled paper.cfg.
A refactor must leave them byte-identical.
"""
from pathlib import Path

import pytest

from microtopo.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_seeded_output_matches_golden_files(tmp_path, capsys, jobs):
    assert main(["experiment", "--seed", "7", "--reps", "1", "--jobs", jobs,
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    for name in ("rates.csv", "confusion.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), (
            f"{name} differs from tests/data/golden/{name}. If the output change "
            "is intentional, regenerate the golden files with "
            "`microtopo experiment --seed 7 --reps 1 --jobs 1 "
            "--out-dir tests/data/golden` and explain the change in CHANGES.md.")
