"""Seeded output against committed reference files.

tests/data/golden/ holds, generated by the code before the array-first
refactor of the trial path:
- rates.csv and confusion.csv of
  `microtopo experiment --seed 7 --reps 1 --jobs 1` on the bundled paper.cfg;
- detect_III_t30_seed5.txt, the stdout of
  `microtopo detect --topo III --t 30 --seed 5`.
detect_III_t30_seed5_matrices.csv, the `--dump-matrices` CSV of that detect
call, and LIBRARY_SHA256, the digest of the `microtopo library --out` CSV,
were regenerated by the chord power flow (the flat-start Jacobian inverse
reused until a case stalls): its converged states differ from full Newton
steps' by up to ~3e-8 degrees and ~1e-9 p.u., which moves last digits of
those two files and none of the verdicts, rates or counts above.
MULTI_REP_SHA256 holds the digests of rates.csv and confusion.csv of
`microtopo experiment --seed 11 --reps 3` (the same with --jobs 1 and 2),
generated by the code before the trial-tensor refactor; several repetitions
pin true states reused across repetitions and the pool's chunking.
TWO_WORD_SEED_SHA256 holds the same digests for
`microtopo experiment --seed 4294967303 --reps 1`, whose seed SeedSequence
hashes as 2 uint32 words, generated by the code before the array hash of
the per-trial RNG streams.
A refactor must leave them byte-identical.
"""
import hashlib
from pathlib import Path

import pytest

from microtopo.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "data" / "golden"
LIBRARY_SHA256 = "8cf92f1c5d8f9fa816c5d7eebc493bf0a3cfb096e3375f149347a4a7a032a9cf"
MULTI_REP_SHA256 = {
    "rates.csv": "e72560ac56554f84f091874ba429fa0e15e90621c24cd7aa4b537ca4ded75cdf",
    "confusion.csv": "9ffd2eee38d420aea0f0e9a097e9f0fa71ceb0b7c3df0f9eecf2472e1625bb6f",
}

TWO_WORD_SEED_SHA256 = {
    "rates.csv": "d57df566bfe4e68d48918895504a71ea5641f8839bc83f69dced9cd055b53d11",
    "confusion.csv": "34eb4f23a5979cb93ab00f7136d00538900b86236bba2872f90fc3753c0ec511",
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


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_two_word_seed_output_matches_golden_digests(tmp_path, capsys, jobs):
    assert main(["experiment", "--seed", str(2**32 + 7), "--reps", "1", "--jobs", jobs,
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    for name, digest in TWO_WORD_SEED_SHA256.items():
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
