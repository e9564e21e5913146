"""Seeded output against committed reference files.

tests/data/golden/ holds:
- rates.csv, bus_rates.csv and confusion.csv of
  `microtopo experiment --seed 7 --reps 1 --jobs 1` on the bundled paper.cfg;
- experiment_seed7_stdout.txt, the stdout of `microtopo experiment --seed 7
  --reps 1` but its closing `wrote ...` line: the printed summary;
- detect_III_t30_seed5.txt, the stdout of
  `microtopo detect --topo III --t 30 --seed 5`, and
  detect_III_t30_seed5_matrices.csv, the `--dump-matrices` CSV of that call;
- detect_I_t0_seed5.txt and detect_I_t0_seed5_matrices.csv, the same for
  `microtopo detect --topo I --t 0 --seed 5`: the first topology and the
  first step, so an off-by-one in the [topology, step] index of the
  repetition's arrays shows. detect plays all five true topologies; it
  played topology Q alone for a while, and printed the same bytes.
MULTI_REP_SHA256 holds the digests of the three CSVs of
`microtopo experiment --seed 11 --reps 3` (the same with --jobs 1 and 2);
several repetitions pin true states reused across repetitions and the
pool's chunking. MULTI_BLOCK_SHA256 holds those of
`microtopo experiment --seed 11 --reps 9`, the same with --jobs 1 (a
serial chunk classified in blocks of 4, 4 and 1 repetitions) and --jobs 2
(chunks of 4 and 5 repetitions), generated before repetitions were
classified in blocks: how a run blocks its repetitions must not move its
output. TWO_WORD_SEED_SHA256 holds the same digests for
`microtopo experiment --seed 4294967303 --reps 1`, whose seed SeedSequence
hashes as 2 uint32 words.
All of these were regenerated when a repetition came to draw one
set of SCADA readings, from the stream keyed (1 + rep, "scada"), for all
five true topologies instead of one per (topology, repetition): the same
seed now draws other SCADA noise, so counts, rates and matrices moved; the
μPMU draws and the detect stdout did not.
rates.csv, with its digests, was regenerated again, and bus_rates.csv
added, when the per-bus row-vote rates moved out of rates.csv: they were
written once per criterion, the same values three times, under a column
named inconclusive_rate that held abstentions. rates.csv kept its
`bus=all` rows without the bus field and bus_rates.csv holds the per-bus
rows once per (true topology, signal, bus); no value changed, and
confusion.csv did not move.
LIBRARY_SHA256, the digest of the `microtopo library --out` CSV, draws no
noise; it was regenerated by the chord power flow (the flat-start Jacobian
inverse reused until a case stalls).
A refactor must leave them byte-identical.
"""
import hashlib
from pathlib import Path

import pytest

from microtopo import scenario
from microtopo.cli import EXIT_OK, main
from microtopo.scenario import fixture_path

GOLDEN = Path(__file__).parent / "data" / "golden"
LIBRARY_SHA256 = "8cf92f1c5d8f9fa816c5d7eebc493bf0a3cfb096e3375f149347a4a7a032a9cf"
MULTI_REP_SHA256 = {
    "rates.csv": "abb1572113c1abb8be5b6d6a0c22cdc6c6f56b471839d70f3f28cb6f80a1f3bf",
    "bus_rates.csv": "2f9a5fc00bb5d0921691c6f93123464e26ca4ba24f35cbe14a0156c8218584f8",
    "confusion.csv": "80ebb07ad506872d5bb44aaf77b0095c61d62c240eaf6e1dd59993e36082a1ec",
}

MULTI_BLOCK_SHA256 = {
    "rates.csv": "3b29d4f901406b196ecae8a4e3678f3d6ce77effa08c541bd8f8b15ae5ec32a7",
    "bus_rates.csv": "0dba53e49e4850789e211be75eb60f1e650e8d3e84a7f749aa838a787a64e913",
    "confusion.csv": "e0857c336be2c077f2e3f76b4c4690f86278c181433100cb47b0da1fcb1c6280",
}

TWO_WORD_SEED_SHA256 = {
    "rates.csv": "99a31d081f6e0ae0dbd659ebb361a02c9d8e8b27d582d06e2a46a1ca5a70993f",
    "bus_rates.csv": "9d5d41826c7a3295865b122c0e9f2c6719ad06cb022cac0e9fcfccdd2d9488a8",
    "confusion.csv": "71ed58707ab0415a566e49a7bb341b39b6dcbde9239795faa7f319fdaa85e77e",
}


@pytest.mark.usefixtures("fork_per_repetition")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_seeded_output_matches_golden_files(tmp_path, capsys, jobs):
    assert main(["experiment", "--seed", "7", "--reps", "1", "--jobs", jobs,
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    for name in ("rates.csv", "bus_rates.csv", "confusion.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), (
            f"{name} differs from tests/data/golden/{name}. If the output change "
            "is intentional, regenerate the golden files with "
            "`microtopo experiment --seed 7 --reps 1 --jobs 1 "
            "--out-dir tests/data/golden` and explain the change in CHANGES.md.")


def test_experiment_summary_matches_golden_file(tmp_path, capsys):
    assert main(["experiment", "--seed", "7", "--reps", "1",
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    *summary, wrote = capsys.readouterr().out.splitlines(keepends=True)
    assert wrote.startswith("wrote ")
    assert "".join(summary) == (GOLDEN / "experiment_seed7_stdout.txt").read_text()


@pytest.mark.usefixtures("fork_per_repetition")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_multi_rep_output_matches_golden_digests(tmp_path, capsys, jobs):
    assert main(["experiment", "--seed", "11", "--reps", "3", "--jobs", jobs,
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    for name, digest in MULTI_REP_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.usefixtures("fork_per_repetition")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_multi_block_output_matches_golden_digests(tmp_path, capsys, monkeypatch, jobs):
    """Nine repetitions span three serial blocks, and two pooled chunks
    whose blocks split the repetitions otherwise."""
    monkeypatch.setattr(scenario.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert main(["experiment", "--seed", "11", "--reps", "9", "--jobs", jobs,
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    for name, digest in MULTI_BLOCK_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.usefixtures("fork_per_repetition")
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_two_word_seed_output_matches_golden_digests(tmp_path, capsys, jobs):
    assert main(["experiment", "--seed", str(2**32 + 7), "--reps", "1", "--jobs", jobs,
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    for name, digest in TWO_WORD_SEED_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_network_base_voltage_does_not_scale_the_noise(tmp_path, capsys, reversed_net):
    """Two copies of fivebus.net give the golden experiment output of the
    bundled file. One states every bus base as 12.47 (kV): the model is
    per-unit, so the μPMU magnitude noise is not 12.47 times larger. The
    other lists its [buses] 5..1: the graph holds the buses in id order, so
    it also gives the golden detect output and the bundled file's library
    and powerflow tables."""
    bundled = fixture_path("fivebus.net").read_text()
    assert bundled.count(",1.0\n") == 5
    kv_net = tmp_path / "kv.net"
    kv_net.write_text(bundled.replace(",1.0\n", ",12.47\n"))
    for net in (kv_net, reversed_net):
        out = tmp_path / f"out_{net.stem}"
        assert main(["experiment", "--seed", "7", "--reps", "1", "--jobs", "1",
                     "--net", str(net), "--out-dir", str(out)]) == EXIT_OK
        for name in ("rates.csv", "bus_rates.csv", "confusion.csv"):
            assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), (net, name)
    capsys.readouterr()
    _check_detect_golden(tmp_path, capsys, "III", 30, "--net", str(reversed_net))
    library = tmp_path / "library.csv"
    assert main(["library", "--net", str(reversed_net), "--out", str(library)]) == EXIT_OK
    assert hashlib.sha256(library.read_bytes()).hexdigest() == LIBRARY_SHA256
    tables = []
    for net in (fixture_path("fivebus.net"), reversed_net):
        capsys.readouterr()
        assert main(["powerflow", "--net", str(net), "--topo", "I", "--t", "40"]) == EXIT_OK
        tables.append(capsys.readouterr().out)
    assert tables[1] == tables[0]


def test_detect_output_matches_golden_files(tmp_path, capsys):
    """Pins the μPMU noise draws, the ADM/MDM values and the verdicts of one
    seeded trial."""
    _check_detect_golden(tmp_path, capsys, "III", 30)


def test_first_topology_first_step_detect_matches_golden_files(tmp_path, capsys):
    """The same for trial (I, 0): position 0 of both the topology and the
    step axis, where an off-by-one in the one-topology index would show."""
    _check_detect_golden(tmp_path, capsys, "I", 0)


def _check_detect_golden(tmp_path, capsys, topo, t, *args):
    dump = tmp_path / "matrices.csv"
    assert main(["detect", "--topo", topo, "--t", str(t), "--seed", "5",
                 "--dump-matrices", str(dump), *args]) == EXIT_OK
    golden_out = (GOLDEN / f"detect_{topo}_t{t}_seed5.txt").read_text()
    assert capsys.readouterr().out == golden_out + f"wrote {dump}\n"
    assert dump.read_bytes() == (GOLDEN / f"detect_{topo}_t{t}_seed5_matrices.csv").read_bytes()


def test_library_csv_matches_golden_digest(tmp_path, capsys):
    out = tmp_path / "library.csv"
    assert main(["library", "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LIBRARY_SHA256
