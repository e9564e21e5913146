import csv
import os

import pytest

from microtopo import cli
from microtopo.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


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
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * 96 * 5
    assert {r["topology"] for r in rows} == {"I", "II", "III", "IV", "V"}


def test_library_divergence_is_numerical_error(tmp_path, capsys):
    heavy = tmp_path / "heavy.csv"
    rows = ["time_index,bus_id,p_pu,q_pu"]
    rows += [f"{t},{bus},-9.0,0.0" for t in range(96) for bus in (2, 3, 4, 5)]
    heavy.write_text("\n".join(rows) + "\n")
    assert main(["library", "--profile", str(heavy)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical error:" in err
    assert "power flow failed for topology" in err


@pytest.mark.parametrize("bad_row, message", [
    ("0,9,-0.1,0.0", "bus 9 is not in the network"),
    ("0,1,-0.1,0.0", "bus 1 is the slack bus"),
    ("500,2,-0.1,0.0", "time_index 500 is outside 0..95"),
    ("0,2,-0.2,0.0", "duplicate row for time_index 0, bus 2 (first on line 2)"),
    ("0,3,abc,0.0", "cannot parse row"),
], ids=["unknown_bus", "slack_bus", "time_outside_day", "duplicate", "not_a_number"])
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


# CPUs this process may run on: under an affinity mask, fewer than cpu_count().
USABLE_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


@pytest.mark.parametrize("key, flag, want", [
    ("jobs = 2\n", [], 2),
    ("jobs = 2\n", ["--jobs", "1"], 1),
    ("", [], USABLE_CPUS),
])
def test_experiment_jobs_precedence(tmp_path, monkeypatch, key, flag, want):
    """--jobs beats the config's jobs key, which beats the usable CPU count."""
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("network = fivebus.net\n" + key)
    seen = []

    def fake_run_experiment(config):
        seen.append(config.jobs)
        raise _Stop

    monkeypatch.setattr(cli, "run_experiment", fake_run_experiment)
    with pytest.raises(_Stop):
        main(["experiment", str(cfg)] + flag)
    assert seen == [want]


@pytest.mark.parametrize("key, argv, message", [
    ("criteria =\n", ["experiment"], "criteria must name at least one criterion"),
    ("signals = angle, angle\n", ["experiment"], "signal 'angle' is listed twice"),
    ("", ["experiment", "--seed", "-1"], "master_seed must be >= 0"),
    ("", ["detect", "--topo", "I", "--seed", "-1"], "master_seed must be >= 0"),
], ids=["empty_criteria", "duplicate_signal", "experiment_negative_seed",
        "detect_negative_seed"])
def test_bad_config_exits_2_before_any_trial(tmp_path, capsys, key, argv, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("network = fivebus.net\n" + key)
    if argv[0] == "experiment":
        argv = argv[:1] + [str(cfg), "--out-dir", str(tmp_path / "out")] + argv[1:]
    assert main(argv) == EXIT_VALIDATION
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_detect_bad_time(capsys):
    assert main(["detect", "--topo", "I", "--t", "200"]) == EXIT_VALIDATION


def test_experiment_deterministic(tmp_path, capsys):
    args = ["experiment", "--seed", "7", "--reps", "1", "--jobs", "2"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == EXIT_OK
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == EXIT_OK
    for name in ("rates.csv", "confusion.csv"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_experiment_zero_noise_all_correct(tmp_path, capsys):
    assert main(["experiment", "--seed", "1", "--reps", "1",
                 "--pmu-sigma", "0", "--pmu-accuracy", "0",
                 "--scada-sigma", "0", "--scada-accuracy", "0",
                 "--jobs", "2", "--out-dir", str(tmp_path)]) == EXIT_OK
    with (tmp_path / "rates.csv").open() as fh:
        for row in csv.DictReader(fh):
            if row["bus"] == "all":
                assert float(row["correct_rate"]) == 1.0


def test_experiment_unknown_config(capsys):
    assert main(["experiment", "/nonexistent.cfg"]) == EXIT_VALIDATION
