import csv

import pytest

from microtopo.detector import build_library, solve_library
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
    assert trial.entries == public.entries


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
    assert serial.confusion == parallel.confusion


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
