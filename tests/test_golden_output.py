"""Seeded output against committed reference files.

tests/data/golden/ holds, generated by the code before the array-first
refactor of the trial path:
- rates.csv and confusion.csv of
  `microtopo experiment --seed 7 --reps 1 --jobs 1` on the bundled paper.cfg;
- detect_III_t30_seed5.txt and detect_III_t30_seed5_matrices.csv, the
  stdout and the `--dump-matrices` CSV of
  `microtopo detect --topo III --t 30 --seed 5`.
LIBRARY_SHA256 is the digest of the `microtopo library --out` CSV.
MULTI_REP_SHA256 holds the digests of rates.csv and confusion.csv of
`microtopo experiment --seed 11 --reps 3` (the same with --jobs 1 and 2),
generated by the code before the trial-tensor refactor; several repetitions
pin true states reused across repetitions and the pool's chunking.
A refactor must leave them byte-identical.
"""
import hashlib
from pathlib import Path

import pytest

from microtopo.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "data" / "golden"
LIBRARY_SHA256 = "a0c5f8cd74cfda3cd9b1b3aa8e6e15635680d71f7974b1ccecbcbaf8e0ac4973"
MULTI_REP_SHA256 = {
    "rates.csv": "e72560ac56554f84f091874ba429fa0e15e90621c24cd7aa4b537ca4ded75cdf",
    "confusion.csv": "9ffd2eee38d420aea0f0e9a097e9f0fa71ceb0b7c3df0f9eecf2472e1625bb6f",
}


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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_multi_rep_output_matches_golden_digests(tmp_path, capsys, jobs):
    assert main(["experiment", "--seed", "11", "--reps", "3", "--jobs", jobs,
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    for name, digest in MULTI_REP_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_detect_output_matches_golden_files(tmp_path, capsys):
    """Pins the μPMU noise draws, the ADM/MDM values and the verdicts of one
    seeded trial."""
    dump = tmp_path / "matrices.csv"
    assert main(["detect", "--topo", "III", "--t", "30", "--seed", "5",
                 "--dump-matrices", str(dump)]) == EXIT_OK
    golden_out = (GOLDEN / "detect_III_t30_seed5.txt").read_text()
    assert capsys.readouterr().out == golden_out + f"wrote {dump}\n"
    assert dump.read_bytes() == (GOLDEN / "detect_III_t30_seed5_matrices.csv").read_bytes()


def test_library_csv_matches_golden_digest(tmp_path, capsys):
    out = tmp_path / "library.csv"
    assert main(["library", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LIBRARY_SHA256
