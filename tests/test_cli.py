import csv
import zlib

import pytest

from microtopo import __version__, cli, scenario
from microtopo.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from microtopo.detector import CRITERIA, INCONCLUSIVE, SIGNALS, LibraryError
from microtopo.scenario import build_context, fixture_path, load_config


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """The parser is built once per process; a detect call and a usage error
    in between leave an experiment call's output as it was, and --version
    still prints."""
    assert cli._build_parser() is cli._build_parser()
    experiment = ["experiment", "--reps", "1", "--seed", "7", "--jobs", "1", "--out-dir"]
    assert main(experiment + [str(tmp_path / "first")]) == EXIT_OK
    assert main(["detect", "--topo", "II", "--t", "5"]) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--reps", "two"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()
    assert main(experiment + [str(tmp_path / "again")]) == EXIT_OK
    for name in ("rates.csv", "bus_rates.csv", "confusion.csv"):
        assert ((tmp_path / "again" / name).read_bytes()
                == (tmp_path / "first" / name).read_bytes())
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out == f"{__version__}\n"


def test_validate_bundled_network(capsys):
    assert main(["validate"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "OK" in out
    assert "5 buses" in out


def test_validate_bad_network(tmp_path, capsys):
    net = tmp_path / "bad.net"
    net.write_text(
        "[buses]\n1,slack,1.0\n2,pq,1.0\n"
        "[lines]\nL12,1,2,-0.01,0.01,S12\n"
        "[topologies]\nI,S12\n")
    assert main(["validate", "--net", str(net)]) == EXIT_VALIDATION
    assert "INVALID" in capsys.readouterr().out


@pytest.mark.parametrize("old, new, lineno, message", [
    ("L12,1,2,0.009", "L12,1,2,nan", 13, "r_pu and x_pu must be finite"),
    ("1,slack,1.0", "1,slack,nan", 5, "base_voltage must be finite and positive, got nan"),
    ("1,slack,1.0", "1,slack,-2", 5, "base_voltage must be finite and positive, got -2"),
], ids=["nan_resistance", "nan_base_voltage", "negative_base_voltage"])
def test_non_finite_or_non_positive_network_value_exits_2(tmp_path, capsys, old, new,
                                                          lineno, message):
    """Such a value once passed `validate` and then failed later: a NaN
    resistance in the power flow, a NaN base voltage with a traceback from
    the μPMU offsets, a negative one with no μPMU magnitude noise at all."""
    bundled = fixture_path("fivebus.net").read_text()
    assert old in bundled
    net = tmp_path / "bad.net"
    net.write_text(bundled.replace(old, new))
    assert main(["validate", "--net", str(net)]) == EXIT_VALIDATION
    assert main(["detect", "--topo", "I", "--net", str(net)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == f"error: {net}:{lineno}: {message}\n" * 2


@pytest.mark.parametrize("command", [
    ["validate"], ["powerflow", "--topo", "A", "--zero-load"], ["library"],
    ["detect", "--topo", "A"], ["experiment", "--reps", "1"],
], ids=["validate", "powerflow", "library", "detect", "experiment"])
def test_slack_only_network_exits_2(tmp_path, capsys, command):
    """A network with only its slack bus once passed `validate` and then
    crashed every solving command with an IndexError traceback."""
    net = tmp_path / "slack_only.net"
    net.write_text("[buses]\n1,slack,1.0\n[lines]\n[topologies]\nA,\n")
    args = command + ["--net", str(net)]
    if command[0] == "experiment":
        args += ["--out-dir", str(tmp_path / "out")]
    assert main(args) == EXIT_VALIDATION
    captured = capsys.readouterr()
    message = "no PQ bus: the power flow has no unknowns"
    if command[0] == "validate":
        assert f"INVALID\n  - {message}" in captured.out
    else:
        assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()


def test_validate_missing_file(capsys):
    assert main(["validate", "--net", "/nonexistent.net"]) == EXIT_VALIDATION


def test_powerflow_zero_load(capsys):
    assert main(["powerflow", "--topo", "V", "--zero-load"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("1.000000") == 5
    assert out.count("0.000000") >= 5


def test_powerflow_unknown_topology(capsys):
    assert main(["powerflow", "--topo", "XII", "--zero-load"]) == EXIT_VALIDATION
    assert "unknown topology" in capsys.readouterr().err


def test_powerflow_needs_load_choice(capsys):
    assert main(["powerflow", "--topo", "I"]) == EXIT_VALIDATION


def test_powerflow_csv_output(tmp_path, capsys):
    out_csv = tmp_path / "pf.csv"
    # t=76 is the evening load peak, after sundown
    assert main(["powerflow", "--topo", "I", "--profile", "default",
                 "--t", "76", "--csv", str(out_csv)]) == EXIT_OK
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    slack = next(r for r in rows if r["bus"] == "1")
    assert float(slack["vm_pu"]) == 1.0
    assert float(slack["va_deg"]) == 0.0
    # loaded bus sits below the slack voltage
    assert float(next(r for r in rows if r["bus"] == "4")["vm_pu"]) < 1.0


def test_library_csv(tmp_path, capsys):
    out_csv = tmp_path / "lib.csv"
    assert main(["library", "--out", str(out_csv)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "library: 5 topologies x 96 steps = 480 solutions", f"wrote {out_csv}"]
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * 96 * 5
    assert {r["topology"] for r in rows} == {"I", "II", "III", "IV", "V"}


@pytest.fixture
def heavy_profile(tmp_path):
    """A profile whose loads no power flow can carry, at every step."""
    heavy = tmp_path / "heavy.csv"
    rows = ["time_index,bus_id,p_pu,q_pu"]
    rows += [f"{t},{bus},-9.0,0.0" for t in range(96) for bus in (2, 3, 4, 5)]
    heavy.write_text("\n".join(rows) + "\n")
    return heavy


def test_library_divergence_is_numerical_error(heavy_profile, capsys):
    assert main(["library", "--profile", str(heavy_profile)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical error:" in err
    assert "power flow failed for topology" in err


def test_powerflow_divergence_names_its_case(heavy_profile, capsys):
    """A diverged `powerflow` reports its case as `library` does."""
    assert main(["powerflow", "--topo", "I", "--profile", str(heavy_profile),
                 "--t", "3"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical error: power flow failed for topology I at t=3: ")


def test_powerflow_and_library_are_one_solve(tmp_path, capsys):
    """`powerflow` solves its case as the library's grid does: its CSV rows
    are that (topology, t) block of the library CSV, byte for byte."""
    lib_csv, pf_csv = tmp_path / "lib.csv", tmp_path / "pf.csv"
    assert main(["library", "--out", str(lib_csv)]) == EXIT_OK
    lines = lib_csv.read_bytes().splitlines(keepends=True)
    header = [b"bus,vm_pu,va_deg\r\n"]
    topo_ids = [line.split(b",", 1)[0].decode() for line in lines[1::5 * 96]]
    assert topo_ids == ["I", "II", "III", "IV", "V"]
    for topo_id in topo_ids:
        for t in (0, 47, 76, 95):
            assert main(["powerflow", "--topo", topo_id, "--t", str(t),
                         "--csv", str(pf_csv)]) == EXIT_OK
            block = [line.split(b",", 2)[2] for line in lines
                     if line.startswith(f"{topo_id},{t},".encode())]
            assert len(block) == 5
            assert pf_csv.read_bytes().splitlines(keepends=True) == header + block
        capsys.readouterr()
        assert main(["powerflow", "--topo", topo_id, "--zero-load",
                     "--csv", str(pf_csv)]) == EXIT_OK
        assert pf_csv.read_bytes().splitlines(keepends=True) == header + [
            f"{bus},1.000000000,0.000000000\r\n".encode() for bus in range(1, 6)]
        assert capsys.readouterr().out.startswith(
            f"topology {topo_id}  converged in 0 iterations  ")


@pytest.mark.parametrize("bad_row, message", [
    ("0,9,-0.1,0.0", "bus 9 is not in the network"),
    ("0,1,-0.1,0.0", "bus 1 is the slack bus"),
    ("500,2,-0.1,0.0", "time_index 500 is outside 0..95"),
    ("0,2,-0.2,0.0", "duplicate row for time_index 0, bus 2 (first on line 2)"),
    ("0,3,abc,0.0", "cannot parse row"),
    ('0,3,"' + "1" * 200_000 + '",0.0', "cannot parse row: field larger than field limit"),
], ids=["unknown_bus", "slack_bus", "time_outside_day", "duplicate", "not_a_number",
        "overlong_field"])
def test_bad_profile_row_is_rejected_with_its_line(tmp_path, capsys, bad_row, message):
    """Each malformed profile row exits 2 with path:line, never a traceback
    or a silently dropped row. The bad row is line 98, after a valid bus-2
    profile."""
    profile = tmp_path / "profile.csv"
    rows = ["time_index,bus_id,p_pu,q_pu"] + [f"{t},2,-0.05,-0.01" for t in range(96)]
    profile.write_text("\n".join(rows + [bad_row]) + "\n")
    assert main(["powerflow", "--topo", "I", "--profile", str(profile),
                 "--t", "0"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"error: {profile}:98: {message}" in err


class _Stop(Exception):
    pass


@pytest.mark.parametrize("key, flag, want", [
    ("jobs = 2\n", [], 2),
    ("jobs = 2\n", ["--jobs", "1"], 1),
    ("", [], 1),
])
def test_experiment_jobs_precedence(tmp_path, monkeypatch, key, flag, want):
    """--jobs beats the config's jobs key, which beats the default of 1."""
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("network = fivebus.net\n" + key)
    seen = []

    def fake_run_experiment(config):
        seen.append(config.jobs)
        raise _Stop

    monkeypatch.setattr(cli, "run_experiment", fake_run_experiment)
    with pytest.raises(_Stop):
        main(["experiment", str(cfg), "--out-dir", str(tmp_path / "out")] + flag)
    assert seen == [want]


def test_out_dir_that_is_a_file_exits_2_before_the_sweep(tmp_path, monkeypatch, capsys):
    """An --out-dir that names an existing file fails before any trial runs,
    with the error the report writer would give after the sweep."""
    afile = tmp_path / "afile"
    afile.write_text("")

    def unreachable(config):
        raise AssertionError("run_experiment reached")

    monkeypatch.setattr(cli, "run_experiment", unreachable)
    assert main(["experiment", "--reps", "1", "--out-dir", str(afile)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"i/o error: [Errno 17] File exists: '{afile}'\n"


def test_failed_sweep_removes_the_out_dir_it_made(tmp_path, monkeypatch, capsys):
    """--out-dir is made before the sweep; a sweep that fails removes it and
    the parents made for it, and leaves a directory that was there."""
    def diverged(config):
        raise LibraryError("power flow failed for topology III at t=40: diverged")

    monkeypatch.setattr(cli, "run_experiment", diverged)
    out = tmp_path / "new" / "out"
    assert main(["experiment", "--reps", "1", "--out-dir", str(out)]) == EXIT_NUMERICAL
    assert not (tmp_path / "new").exists()
    assert main(["experiment", "--reps", "1", "--out-dir", str(tmp_path)]) == EXIT_NUMERICAL
    assert tmp_path.is_dir()


@pytest.mark.parametrize("key, argv, message", [
    ("criteria = rmv\n", ["experiment"], "{cfg}:2: unknown key 'criteria'"),
    ("tol = 1e-9\n", ["experiment"], "{cfg}:2: unknown key 'tol'"),
    ("", ["experiment", "--seed", "-1"], "master_seed must be >= 0"),
    ("", ["detect", "--topo", "I", "--seed", "-1"], "master_seed must be >= 0"),
], ids=["criteria_key", "tol_key", "experiment_negative_seed", "detect_negative_seed"])
def test_bad_config_exits_2_before_any_trial(tmp_path, capsys, key, argv, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("network = fivebus.net\n" + key)
    if argv[0] == "experiment":
        argv = argv[:1] + [str(cfg), "--out-dir", str(tmp_path / "out")] + argv[1:]
    assert main(argv) == EXIT_VALIDATION
    assert f"error: {message.format(cfg=cfg)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# crc32("pmu:" + _SCADA_TWIN) == crc32("scada"), found by solving the
# (affine over GF(2)) crc32 of 40 letters, each "a" or "b", for that value.
_SCADA_TWIN = "babaabbaabbaaabaabbaababaabaaaaaaaaaaaaa"


@pytest.mark.parametrize("renames, devices", [
    ({"I": "plumless", "II": "buckeroo"}, ("pmu:plumless", "pmu:buckeroo")),
    ({"V": _SCADA_TWIN}, (f"pmu:{_SCADA_TWIN}", "scada")),
], ids=["two_topologies", "topology_and_scada"])
def test_noise_streams_that_share_a_key_exit_2_before_any_trial(tmp_path, monkeypatch,
                                                                capsys, renames, devices):
    """A noise stream is keyed by the crc32 of its device id, and distinct
    ids can share one: with fivebus.net's I and II renamed plumless and
    buckeroo, `experiment` once drew the same μPMU noise for both true
    topologies in every repetition. `experiment` and `detect` now exit 2,
    naming both devices, before any trial; `validate` still passes."""
    assert len({zlib.crc32(device.encode()) for device in devices}) == 1
    text = fixture_path("fivebus.net").read_text()
    for old, new in renames.items():
        text = text.replace(f"\n{old},", f"\n{new},")
    net = tmp_path / "renamed.net"
    net.write_text(text)
    assert main(["validate", "--net", str(net)]) == EXIT_OK

    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(scenario, "solve_library_batch", no_trial)
    monkeypatch.setattr(scenario, "draw_readings", no_trial)
    monkeypatch.setattr(cli, "draw_readings", no_trial)
    out = tmp_path / "out"
    for argv in (["experiment", "--reps", "1", "--out-dir", str(out)],
                 ["detect", "--topo", list(renames.values())[0]]):
        capsys.readouterr()
        assert main(argv + ["--net", str(net)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: {net}: devices {devices[0]!r} and {devices[1]!r} would draw the same "
            "noise, as their random stream keys are equal; rename a topology\n")
    assert not out.exists()


def test_detect_zero_noise_and_dump(tmp_path, capsys):
    dump = tmp_path / "matrices.csv"
    assert main(["detect", "--topo", "III", "--t", "30", "--seed", "5",
                 "--pmu-sigma", "0", "--pmu-accuracy", "0",
                 "--scada-sigma", "0", "--scada-accuracy", "0",
                 "--dump-matrices", str(dump)]) == EXIT_OK
    out = capsys.readouterr().out
    # every criterion agrees when measurements are exact
    assert out.count("-> III") == 6
    with dump.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5  # one row per μPMU
    assert {r["bus"] for r in rows} == {"1", "2", "3", "4", "5"}
    # angle and magnitude deltas for every candidate topology
    for prefix in ("adm", "mdm"):
        for topo in ("I", "II", "III", "IV", "V"):
            assert f"{prefix}_{topo}" in rows[0]
    # exact measurements zero out the true-topology column
    assert all(float(r["adm_III"]) == 0.0 for r in rows)


def test_detect_prints_row_t_of_the_task_the_experiment_counts(monkeypatch, capsys):
    """`detect --topo Q --t T --seed S` prints row T of the verdict codes and
    angle row votes that the experiment counts for true topology Q in
    repetition 0 at seed S, as `_run_chunk` hands them to the report."""
    pairs = [("I", 0), ("III", 38), ("V", 95)]
    ctx = build_context(load_config(fixture_path("paper.cfg"), master_seed=5))
    counted = {}
    monkeypatch.setattr(scenario.DetectionRateReport, "record_rep",
                        lambda report, verdicts, votes: counted.update(
                            zip(ctx.topology_ids, zip(verdicts, votes))))
    scenario._run_chunk(ctx, [0])
    labels = ctx.topology_ids + (INCONCLUSIVE,)
    angle = SIGNALS.index("angle")
    for topo, t in pairs:
        assert main(["detect", "--topo", topo, "--t", str(t), "--seed", "5"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"true topology {topo}, t={t}, seed=5"
        verdicts, votes = counted[topo]
        printed = dict(line.split(" -> ") for line in lines[1:-1])
        assert printed == {
            f"  {crit.upper():5s} {sig:9s}": labels[verdicts[t, c, s]]
            for c, crit in enumerate(CRITERIA)
            for s, sig in enumerate(SIGNALS)}
        bus_votes = lines[-1].removeprefix("  per-bus angle votes: ").split(", ")
        assert bus_votes == [f"{bus}:{labels[v] if v < len(ctx.topology_ids) else 'abstain'}"
                             for bus, v in zip(ctx.graph.bus_ids, votes[t, angle])]


def test_detect_bad_time(capsys):
    assert main(["detect", "--topo", "I", "--t", "200"]) == EXIT_VALIDATION


def test_experiment_deterministic(tmp_path, capsys):
    args = ["experiment", "--seed", "7", "--reps", "1", "--jobs", "2"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == EXIT_OK
    for name in ("rates.csv", "bus_rates.csv", "confusion.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_experiment_zero_noise_all_correct(tmp_path, capsys):
    assert main(["experiment", "--seed", "1", "--reps", "1",
                 "--pmu-sigma", "0", "--pmu-accuracy", "0",
                 "--scada-sigma", "0", "--scada-accuracy", "0",
                 "--jobs", "2", "--out-dir", str(tmp_path)]) == EXIT_OK
    with (tmp_path / "rates.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * len(CRITERIA) * len(SIGNALS)
    assert all(row["correct_rate"] == "1.000000" for row in rows)
    with (tmp_path / "bus_rates.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    # Every row votes for the true topology or, the slack bus, abstains.
    assert len(rows) == 5 * len(SIGNALS) * 5
    assert all((row["correct_rate"], row["abstain_rate"])
               == (("0.000000", "1.000000") if row["bus"] == "1" else ("1.000000", "0.000000"))
               for row in rows)


def test_experiment_config_key_given_twice_exits_2(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("network = fivebus.net\nrepetitions = 3\nrepetitions = 2\n")
    out = tmp_path / "out"
    assert main(["experiment", str(cfg), "--out-dir", str(out)]) == EXIT_VALIDATION
    assert (f"error: {cfg}:3: key 'repetitions' given twice (first on line 2)"
            in capsys.readouterr().err)
    assert not out.exists()


def test_experiment_unknown_config(capsys):
    assert main(["experiment", "/nonexistent.cfg"]) == EXIT_VALIDATION


def test_command_line_paths_resolve_against_working_directory(tmp_path, monkeypatch, capsys):
    """`--net` and `--profile` name files relative to the working directory,
    as for `powerflow`; a file named in a .cfg stays relative to the .cfg."""
    (tmp_path / "mygrid.net").write_text(fixture_path("fivebus.net").read_text())
    rows = ["time_index,bus_id,p_pu,q_pu"] + [f"{t},2,-0.05,-0.01" for t in range(96)]
    (tmp_path / "myprofile.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "cfg").mkdir()
    (tmp_path / "cfg" / "grid.net").write_text(fixture_path("fivebus.net").read_text())
    (tmp_path / "cfg" / "exp.cfg").write_text("network = grid.net\nrepetitions = 1\n")
    monkeypatch.chdir(tmp_path)
    files = ["--net", "mygrid.net", "--profile", "myprofile.csv"]
    assert main(["detect", "--topo", "I", "--t", "3"] + files) == EXIT_OK
    assert main(["experiment", "--reps", "1", "--jobs", "1", "--out-dir", "a"]
                + files) == EXIT_OK
    assert main(["experiment", "cfg/exp.cfg", "--jobs", "1", "--out-dir", "b"]) == EXIT_OK
    assert "error" not in capsys.readouterr().err
    assert (tmp_path / "a" / "rates.csv").exists() and (tmp_path / "b" / "rates.csv").exists()
