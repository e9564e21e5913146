import csv
import re

import numpy as np
import pytest

from microtopo import detector, measurements, powerflow, scenario
from microtopo.detector import INCONCLUSIVE, build_library, solve_library, vote_stack
from microtopo.measurements import derive_rng_stream, sample_scada
from microtopo.powerflow import InjectionSnapshot
from microtopo.scenario import (
    ConfigError,
    build_context,
    fixture_path,
    load_config,
    run_experiment,
    run_trial,
    summarize,
    trial_index_for,
    write_report,
)

PAPER_CFG = fixture_path("paper.cfg")


def _tiny_config(**overrides):
    base = dict(repetitions=1, jobs=1)
    base.update(overrides)
    return load_config(PAPER_CFG, **base)


def test_load_bundled_config():
    cfg = load_config(PAPER_CFG)
    assert cfg.pmu_sigma == 0.00025
    assert cfg.scada_sigma == 0.025
    assert cfg.repetitions == 20
    assert cfg.criteria == ("rmv", "armv", "ormv")
    assert cfg.signals == ("angle", "magnitude")


def test_config_overrides():
    cfg = load_config(PAPER_CFG, master_seed=7, repetitions=3, pmu_sigma=0.0)
    assert cfg.master_seed == 7
    assert cfg.repetitions == 3
    assert cfg.pmu_sigma == 0.0


def test_unknown_config_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("network = fivebus.net\nwibble = 3\n")
    with pytest.raises(ConfigError, match="wibble"):
        load_config(bad)


def test_tol_key_parses(tmp_path):
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("network = fivebus.net\ntol = 1e-9\n")
    assert load_config(cfg).tol == 1e-9


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        load_config(PAPER_CFG, repetitions=0)
    with pytest.raises(ConfigError):
        load_config(PAPER_CFG, pmu_sigma=-1.0)
    with pytest.raises(ConfigError):
        load_config(PAPER_CFG, criteria=("rmv", "bogus"))


@pytest.mark.parametrize("line, message", [
    ("criteria =", "criteria must name at least one criterion"),
    ("signals = ,", "signals must name at least one signal"),
    ("criteria = armv, armv", "criterion 'armv' is listed twice"),
    ("signals = angle, magnitude, angle", "signal 'angle' is listed twice"),
    ("master_seed = -1", "master_seed must be >= 0"),
], ids=["empty_criteria", "empty_signals", "duplicate_criterion", "duplicate_signal",
        "negative_seed"])
def test_bad_lists_and_seed_rejected(tmp_path, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"network = fivebus.net\n{line}\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(cfg)


def test_trial_indices_unique():
    ctx = build_context(_tiny_config(repetitions=3))
    seen = set()
    for pos in range(len(ctx.topologies)):
        for t in range(96):
            for rep in range(3):
                idx = trial_index_for(ctx, pos, t, rep)
                assert idx >= 1  # index 0 is reserved for offset draws
                seen.add(idx)
    assert len(seen) == len(ctx.topologies) * 96 * 3


def test_trial_determinism():
    ctx = build_context(_tiny_config(master_seed=123))
    a = run_trial(ctx, "II", 40, trial_index=77)
    b = run_trial(ctx, "II", 40, trial_index=77)
    assert a.outcomes == b.outcomes
    assert a.votes_by_signal == b.votes_by_signal

    c = run_trial(ctx, "II", 40, trial_index=78)
    ctx2 = build_context(_tiny_config(master_seed=124))
    d = run_trial(ctx2, "II", 40, trial_index=77)
    # different trial index or seed gives different noise; at paper noise
    # levels the raw matrices cannot coincide
    m_a = run_trial(ctx, "II", 40, trial_index=77, collect_matrices=True).matrices
    m_c = run_trial(ctx, "II", 40, trial_index=78, collect_matrices=True).matrices
    assert (m_a.adm != m_c.adm).any()
    assert c.true_topology == d.true_topology == "II"


def test_trial_library_matches_build_library():
    """The trial path solves with the context's Ybus; the public
    build_library builds its own. Both give the same solutions."""
    ctx = build_context(_tiny_config())
    rng = derive_rng_stream(ctx.config.master_seed, 1, "scada")
    injections = {}
    for t in (0, 48, 76):
        scada = sample_scada(ctx.true_injections[t], ctx.scada_spec, rng, ctx.scada_buses)
        injections[t] = InjectionSnapshot.from_bus_map(
            ctx.graph, {m.bus_id: (m.p_meas, m.q_meas) for m in scada})
    trial = solve_library(ctx.ybus_by_topo, injections, ctx.graph.slack_index,
                          tol=ctx.config.tol)
    public = build_library(ctx.graph, list(ctx.topologies), injections,
                           tol=ctx.config.tol)
    assert trial.topology_ids == public.topology_ids == ctx.topology_ids
    assert trial.entries.keys() == public.entries.keys()
    for key, sol in trial.entries.items():
        other = public.entries[key]
        assert (sol.bus_ids, sol.iterations, sol.max_mismatch) == (
            other.bus_ids, other.iterations, other.max_mismatch)
        assert np.array_equal(sol.vm, other.vm)
        assert np.array_equal(sol.va_deg, other.va_deg)


@pytest.mark.parametrize("topo_pos, rep, steps", [
    (0, 0, (0, 47, 95)),
    (2, 1, (12, 76)),
    (4, 1, (30, 60)),
])
def test_run_trial_matches_task_path(topo_pos, rep, steps):
    """A trial run alone (one-case stacks, voted by scalar `detect`) gives
    the matrices, verdicts and per-row votes that the experiment's task path
    (96-step stacks, voted by `vote_stack`) counts for the same trial index."""
    ctx = build_context(_tiny_config(repetitions=2, master_seed=3))
    topo_id = ctx.topology_ids[topo_pos]
    day = range(96)
    stacks = dict(zip(("angle", "magnitude"), scenario._task_stacks(
        ctx, rep, day, [trial_index_for(ctx, topo_pos, t, rep) for t in day],
        *scenario._solve_true_states(ctx, topo_id, day))))
    voted = {signal: vote_stack(stack) for signal, stack in stacks.items()}
    labels = ctx.topology_ids + (INCONCLUSIVE,)
    for t in steps:
        alone = run_trial(ctx, topo_id, t, trial_index_for(ctx, topo_pos, t, rep),
                          rep=rep, collect_matrices=True)
        assert alone.matrices.adm.tobytes() == stacks["angle"][t].tobytes()
        assert alone.matrices.mdm.tobytes() == stacks["magnitude"][t].tobytes()
        for (crit, sig), outcome in alone.outcomes.items():
            assert outcome.verdict == labels[voted[sig][0][crit][t]]
        for sig, votes in alone.votes_by_signal.items():
            assert votes == tuple(None if v == len(ctx.topology_ids) else labels[v]
                                  for v in voted[sig][1][t])


def test_experiment_is_array_program(monkeypatch):
    """A serial 4-repetition run solves each topology's true states once
    (5 stacked calls) and each task's library once (20), and builds no
    per-trial result, verdict or power-flow objects."""
    calls = []
    batch = powerflow.solve_newton_raphson_batch

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return batch(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-trial object built on the experiment path")

    monkeypatch.setattr(scenario, "solve_newton_raphson_batch", counted)
    monkeypatch.setattr(detector, "solve_newton_raphson_batch", counted)
    for module, name in ((scenario, "TrialResult"), (scenario, "DifferenceMatrices"),
                         (detector, "DetectionOutcome"), (powerflow, "PowerFlowSolution"),
                         (measurements, "MeasurementSet"), (measurements, "PhasorSet"),
                         (measurements, "ScadaSet")):
        monkeypatch.setattr(module, name, forbidden)
    report = run_experiment(_tiny_config(repetitions=4, master_seed=2))
    assert sorted(calls) == [96] * 5 + [5 * 96] * 20
    assert report.n_trials("I", "armv", "angle") == 96 * 4


def test_zero_noise_trial_always_correct():
    ctx = build_context(_tiny_config(pmu_sigma=0.0, pmu_accuracy=0.0,
                                     scada_sigma=0.0, scada_accuracy=0.0))
    for true in ("I", "III", "V"):
        for t in (0, 48, 90):
            res = run_trial(ctx, true, t, trial_index=trial_index_for(
                ctx, ["I", "II", "III", "IV", "V"].index(true), t, 0))
            assert all(o.verdict == true for o in res.outcomes.values())


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(_tiny_config(repetitions=2, master_seed=9))


def test_experiment_counts(small_report):
    for true in small_report.topology_ids:
        for crit in small_report.criteria:
            for sig in small_report.signals:
                assert small_report.n_trials(true, crit, sig) == 96 * 2
                rate = small_report.correct_rate(true, crit, sig)
                inc = small_report.inconclusive_rate(true, crit, sig)
                assert 0.0 <= rate <= 1.0
                assert 0.0 <= rate + inc <= 1.0


def test_confusion_counts_sum(small_report):
    for crit in small_report.criteria:
        for sig in small_report.signals:
            counts = small_report.overall_counts(crit, sig)
            assert sum(counts.values()) == 5 * 96 * 2


def test_parallel_matches_serial():
    serial = run_experiment(_tiny_config(repetitions=2, master_seed=31, jobs=1))
    parallel = run_experiment(_tiny_config(repetitions=2, master_seed=31, jobs=4))
    for true in serial.topology_ids:
        for crit in serial.criteria:
            for sig in serial.signals:
                assert (serial.correct_rate(true, crit, sig)
                        == parallel.correct_rate(true, crit, sig))
    assert np.array_equal(serial.confusion, parallel.confusion)
    assert np.array_equal(serial.row_votes, parallel.row_votes)


def test_write_report_schema(small_report, tmp_path):
    rates_path, confusion_path = write_report(small_report, tmp_path)
    with rates_path.open() as fh:
        rows = list(csv.DictReader(fh))
    n_topo = len(small_report.topology_ids)
    n_cells = n_topo * len(small_report.criteria) * len(small_report.signals)
    assert len(rows) == n_cells * (1 + len(small_report.pmu_bus_ids))
    for row in rows:
        assert 0.0 <= float(row["correct_rate"]) <= 1.0
        assert 0.0 <= float(row["inconclusive_rate"]) <= 1.0

    with confusion_path.open() as fh:
        crows = list(csv.DictReader(fh))
    total = sum(int(r["count"]) for r in crows)
    n_cfg = len(small_report.criteria) * len(small_report.signals)
    assert total == n_cfg * n_topo * 96 * 2


def test_report_byte_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    write_report(run_experiment(_tiny_config(repetitions=1, master_seed=55)), out_a)
    write_report(run_experiment(_tiny_config(repetitions=1, master_seed=55, jobs=2)), out_b)
    assert (out_a / "rates.csv").read_bytes() == (out_b / "rates.csv").read_bytes()
    assert (out_a / "confusion.csv").read_bytes() == (out_b / "confusion.csv").read_bytes()


def test_more_noise_does_not_help():
    """ARMV angle accuracy decays as μPMU noise grows."""

    def rate(sigma):
        rep = run_experiment(_tiny_config(
            repetitions=2, master_seed=77, pmu_sigma=sigma,
            pmu_accuracy=0.0, scada_sigma=0.0, scada_accuracy=0.0))
        total = sum(rep.correct_rate(t, "armv", "angle")
                    for t in rep.topology_ids) / 5
        return total

    clean = rate(0.0)
    paper = rate(0.00025)
    loud = rate(0.0025)
    assert clean == 1.0
    assert clean >= paper >= loud


def test_summary_mentions_every_criterion(small_report):
    text = "\n".join(summarize(small_report))
    for crit in ("rmv", "armv", "ormv"):
        assert crit.upper() in text


def test_per_bus_rows_name_their_bus_whatever_the_file_order(tmp_path):
    """rates.csv labels the per-bus rows in bus-id order, the order of the
    ADM/MDM rows, also when the network file lists its buses 5..1. The slack
    bus (1) has the same calculated state under every topology, so its row
    always abstains."""
    text = fixture_path("fivebus.net").read_text()
    head, rest = text.split("[buses]\n", 1)
    buses, tail = rest.split("\n\n", 1)
    reversed_net = tmp_path / "reversed.net"
    reversed_net.write_text(
        head + "[buses]\n" + "\n".join(reversed(buses.splitlines())) + "\n\n" + tail)
    report = run_experiment(_tiny_config(network=str(reversed_net), master_seed=3))
    assert report.pmu_bus_ids == (1, 2, 3, 4, 5)
    write_report(report, tmp_path / "out")
    with (tmp_path / "out" / "rates.csv").open() as fh:
        rows = [r for r in csv.DictReader(fh) if r["bus"] != "all"]
    assert rows[:5] == sorted(rows[:5], key=lambda r: int(r["bus"]))
    for row in rows:
        always_abstains = (row["correct_rate"], row["inconclusive_rate"]) == (
            "0.000000", "1.000000")
        assert always_abstains == (row["bus"] == "1"), row
