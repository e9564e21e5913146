"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
to see them. The Monte Carlo experiment at reference noise levels is shared
across tests through a session fixture.
"""
import math
import time

import numpy as np
import pytest

from microtopo.cli import EXIT_OK, main
from microtopo.detector import CRITERIA, INCONCLUSIVE, SIGNALS, vote_stack
from microtopo.network import build_incidence_matrix, build_ybus, load_network
from microtopo.powerflow import solve_newton_raphson
from microtopo.scenario import fixture_path, load_config, run_experiment
from oracles import compute_mismatch, solve_fixed_point_oracle
from report_rates import correct_rate, n_trials, overall_correct_rate

Z_95 = 1.6448536269514722  # one-sided 5% critical value


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def reference_run():
    """Full experiment at reference noise levels: 5 x 96 x 20 = 9600 trials."""
    config = load_config(fixture_path("paper.cfg"))
    assert config.repetitions >= 20
    return run_experiment(config)


def test_zero_noise_detection_is_perfect():
    config = load_config(fixture_path("paper.cfg"), repetitions=1,
                         pmu_sigma=0.0, pmu_accuracy=0.0,
                         scada_sigma=0.0, scada_accuracy=0.0)
    start = time.perf_counter()
    report = run_experiment(config)
    elapsed = time.perf_counter() - start

    ok = elapsed < 10.0
    worst = 1.0
    for true in report.topology_ids:
        for crit in CRITERIA:
            for sig in SIGNALS:
                rate = correct_rate(report, true, crit, sig)
                worst = min(worst, rate)
                ok = ok and rate == 1.0 and n_trials(report, true, crit, sig) == 96
    _verdict("zero-noise detection 100% on all criteria and signals",
             ok, f"min rate {worst:.3f}, {elapsed:.2f} s")


def test_power_flow_against_independent_oracle(default_day):
    graph, topologies = load_network(fixture_path("fivebus.net"))

    max_dvm = 0.0
    max_dva = 0.0
    max_mis = 0.0
    n_cases = 0
    for topo in topologies:
        ybus = build_ybus(graph, topo)
        for t in range(96):
            inj = default_day[t]
            nr = solve_newton_raphson(ybus, inj, tol=1e-10)
            fp = solve_fixed_point_oracle(ybus, inj, tol=1e-10)
            max_dvm = max(max_dvm, float(np.max(np.abs(np.subtract(nr.vm, fp.vm)))))
            max_dva = max(max_dva, float(np.max(np.abs(np.subtract(nr.va_deg, fp.va_deg)))))
            dp, dq = compute_mismatch(ybus, inj, np.asarray(nr.vm),
                                      np.radians(nr.va_deg))
            max_mis = max(max_mis, float(np.max(np.abs(dp))), float(np.max(np.abs(dq))))
            n_cases += 1

    max_struct = 0.0
    for topo in topologies:
        incidence = build_incidence_matrix(graph, topo)
        y_line = np.diag([line.admittance for line in graph.closed_lines(topo)])
        rebuilt = incidence.T @ y_line @ incidence
        max_struct = max(max_struct,
                         float(np.max(np.abs(build_ybus(graph, topo) - rebuilt))))

    ok = (n_cases == 480 and max_dvm < 1e-8 and max_dva < 1e-6
          and max_mis < 1e-8 and max_struct < 1e-12)
    _verdict("Newton solver matches fixed-point oracle on all 480 cases",
             ok, f"dvm {max_dvm:.1e}, dva {max_dva:.1e} deg, "
                 f"mismatch {max_mis:.1e}, structure {max_struct:.1e}")


def test_reference_noise_detection_rate_band(reference_run):
    rate = correct_rate(reference_run, "I", "armv", "angle")
    n = n_trials(reference_run, "I", "armv", "angle")
    ok = 0.75 <= rate <= 0.95 and n >= 96 * 20
    _verdict("angle ARMV rate for topology I within [0.75, 0.95]",
             ok, f"rate {rate:.4f}, n={n}")


def _one_sided_z(p_a: float, p_b: float, n: int) -> float:
    """z statistic for H1: p_a > p_b with equal per-arm sample size n."""
    pooled = (p_a + p_b) / 2.0
    se = math.sqrt(2.0 * pooled * (1.0 - pooled) / n)
    if se == 0.0:
        return math.inf if p_a > p_b else 0.0
    return (p_a - p_b) / se


def test_criterion_and_signal_ordering(reference_run):
    rep = reference_run
    n = sum(n_trials(rep, t, "armv", "angle") for t in rep.topology_ids)
    assert n >= 9600

    armv_angle = overall_correct_rate(rep, "armv", "angle")
    armv_mag = overall_correct_rate(rep, "armv", "magnitude")
    rmv_angle = overall_correct_rate(rep, "rmv", "angle")
    ormv_angle = overall_correct_rate(rep, "ormv", "angle")

    z_signal = _one_sided_z(armv_angle, armv_mag, n)
    z_rmv = _one_sided_z(rmv_angle, armv_angle, n)  # must NOT be significant
    z_ormv = _one_sided_z(armv_angle, ormv_angle, n)

    ok = z_signal > Z_95 and z_rmv < Z_95 and z_ormv > Z_95
    _verdict("orderings: angle>magnitude, armv>=rmv, ormv<armv (alpha=0.05)",
             ok, f"armv angle {armv_angle:.4f} vs mag {armv_mag:.4f} (z={z_signal:.1f}); "
                 f"rmv {rmv_angle:.4f} (z={z_rmv:.1f}); ormv {ormv_angle:.4f} "
                 f"(z={z_ormv:.1f}); n={n}")


def test_voting_micro_oracles():
    rng = np.random.default_rng(777)
    ids = ("I", "II", "III", "IV", "V")

    def verdict(mat, criterion):
        return (ids + (INCONCLUSIVE,))[vote_stack(mat)[0][criterion]]

    ok = True
    for _ in range(1000):
        mat = rng.uniform(0.0, 1.0, size=(5, 5))

        # brute-force references
        argmins = [int(np.argmin(row)) for row in mat]
        tally = {q: argmins.count(q) for q in set(argmins)}
        top = max(tally.values())
        leaders = [q for q, c in tally.items() if c == top]
        rmv_ref = ids[leaders[0]] if len(leaders) == 1 else INCONCLUSIVE
        armv_ref = ids[int(np.argmin([mat[:, c].sum() for c in range(5)]))]
        ormv_ref = ids[argmins[0]] if len(set(argmins)) == 1 else INCONCLUSIVE

        ok = ok and verdict(mat, "rmv") == rmv_ref
        ok = ok and verdict(mat, "armv") == armv_ref
        ok = ok and verdict(mat, "ormv") == ormv_ref

        # a positive rescale never changes the ARMV verdict
        scale = float(rng.uniform(1e-6, 1e6))
        ok = ok and verdict(mat * scale, "armv") == armv_ref

        # ORMV is conclusive exactly when the row argmins coincide
        ok = ok and ((ormv_ref != INCONCLUSIVE) == (len(set(argmins)) == 1))

    _verdict("voting criteria match brute force on 1000 random matrices", ok)


def test_experiment_output_is_reproducible(tmp_path):
    config = str(fixture_path("paper.cfg"))
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    rc_a = main(["experiment", config, "--seed", "20160517",
                 "--out-dir", str(out_a)])
    rc_b = main(["experiment", config, "--seed", "20160517",
                 "--out-dir", str(out_b)])

    ok = rc_a == EXIT_OK and rc_b == EXIT_OK
    for name in ("rates.csv", "confusion.csv"):
        ok = ok and (out_a / name).read_bytes() == (out_b / name).read_bytes()
    _verdict("repeated experiment runs produce byte-identical CSVs", ok)
