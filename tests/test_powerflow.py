import pickle

import numpy as np
import pytest

from microtopo import powerflow
from microtopo.measurements import DeviceKind, DeviceSpec, draw_scada_offsets, scada_readings
from microtopo.network import NetworkGraph, build_ybus
from microtopo.powerflow import (
    DivergedError,
    InjectionSnapshot,
    SingularJacobianError,
    compute_mismatch,
    solve_fixed_point_oracle,
    solve_newton_raphson,
    solve_newton_raphson_batch,
)

# Oracle-derived reference for topology I with a 0.1 + j0.05 p.u. load at
# bus 3 only (fixed-point solve to 1e-12 mismatch).
BUS3_LOAD_VM = 0.999199297577
BUS3_LOAD_VA = -0.020069593011


def _ybus(graph, topo_by_id, topo_id):
    return build_ybus(graph, topo_by_id[topo_id])


def test_zero_injection_flat_profile(graph, topologies, topo_by_id):
    inj = InjectionSnapshot.from_bus_map(graph, {})
    for topo in topologies:
        sol = solve_newton_raphson(build_ybus(graph, topo), inj)
        assert sol.vm == pytest.approx((1.0,) * 5, abs=1e-12)
        assert sol.va_deg == pytest.approx((0.0,) * 5, abs=1e-12)
        assert sol.iterations == 0


def test_bus3_load_case(graph, topo_by_id):
    inj = InjectionSnapshot.from_bus_map(graph, {3: (-0.1, -0.05)})
    sol = solve_newton_raphson(_ybus(graph, topo_by_id, "I"), inj, tol=1e-10)
    assert sol.vm[graph.bus_index(3)] == pytest.approx(BUS3_LOAD_VM, abs=1e-9)
    assert sol.va_deg[graph.bus_index(3)] == pytest.approx(BUS3_LOAD_VA, abs=1e-7)
    # zero-injection buses hanging off bus 3 sit at the bus-3 voltage
    for bus in (4, 5):
        assert sol.vm[graph.bus_index(bus)] == pytest.approx(sol.vm[graph.bus_index(3)], abs=1e-10)
        assert sol.va_deg[graph.bus_index(bus)] == pytest.approx(sol.va_deg[graph.bus_index(3)], abs=1e-8)
    # no current on L12
    assert sol.vm[graph.bus_index(2)] == pytest.approx(1.0, abs=1e-10)
    assert sol.va_deg[graph.bus_index(2)] == pytest.approx(0.0, abs=1e-8)


def test_slack_bus_pinned(graph, topo_by_id):
    inj = InjectionSnapshot.from_bus_map(graph, {3: (-0.1, -0.05)})
    sol = solve_newton_raphson(_ybus(graph, topo_by_id, "V"), inj)
    assert sol.vm[graph.bus_index(1)] == 1.0
    assert sol.va_deg[graph.bus_index(1)] == 0.0


def test_mismatch_zero_at_solution(graph, topo_by_id):
    ybus = _ybus(graph, topo_by_id, "I")
    inj = InjectionSnapshot.from_bus_map(graph, {3: (-0.1, -0.05)})
    sol = solve_newton_raphson(ybus, inj, tol=1e-10)
    dp, dq = compute_mismatch(ybus, inj, np.asarray(sol.vm),
                              np.radians(sol.va_deg))
    assert np.max(np.abs(dp)) < 1e-10
    assert np.max(np.abs(dq)) < 1e-10


def test_mismatch_flat_start_equals_specified_load(graph, topo_by_id):
    ybus = _ybus(graph, topo_by_id, "I")
    inj = InjectionSnapshot.from_bus_map(graph, {3: (-0.1, -0.05)})
    dp, dq = compute_mismatch(ybus, inj, np.ones(5), np.zeros(5))
    assert dp[2] == pytest.approx(-0.1)
    assert dq[2] == pytest.approx(-0.05)


def test_oracle_agrees_with_nr_on_bus3_case(graph, topo_by_id):
    ybus = _ybus(graph, topo_by_id, "I")
    inj = InjectionSnapshot.from_bus_map(graph, {3: (-0.1, -0.05)})
    nr = solve_newton_raphson(ybus, inj, tol=1e-10)
    fp = solve_fixed_point_oracle(ybus, inj, tol=1e-10)
    assert np.max(np.abs(np.subtract(nr.vm, fp.vm))) < 1e-8
    assert np.max(np.abs(np.subtract(nr.va_deg, fp.va_deg))) < 1e-6
    dp_n, dq_n = compute_mismatch(ybus, inj, np.asarray(nr.vm), np.radians(nr.va_deg))
    dp_f, dq_f = compute_mismatch(ybus, inj, np.asarray(fp.vm), np.radians(fp.va_deg))
    assert np.max(np.abs(dp_n - dp_f)) < 1e-8
    assert np.max(np.abs(dq_n - dq_f)) < 1e-8


@pytest.mark.parametrize("topo_id", ["I", "II", "III", "IV", "V"])
def test_oracle_agrees_with_nr_over_profile(graph, topo_by_id, topo_id, default_day):
    ybus = _ybus(graph, topo_by_id, topo_id)
    for t in range(0, 96, 12):
        inj = default_day[t]
        nr = solve_newton_raphson(ybus, inj, tol=1e-10)
        fp = solve_fixed_point_oracle(ybus, inj, tol=1e-10)
        assert np.max(np.abs(np.subtract(nr.vm, fp.vm))) < 1e-8
        assert np.max(np.abs(np.subtract(nr.va_deg, fp.va_deg))) < 1e-6


def test_oracle_converges_at_meshed_peak(graph, topo_by_id, default_day):
    inj = max(default_day, key=lambda snap: sum(abs(snap.p[i]) for i in range(5)))
    sol = solve_fixed_point_oracle(_ybus(graph, topo_by_id, "V"), inj, tol=1e-10)
    assert sol.max_mismatch < 1e-10


def test_nr_converges_fast_all_fixture_cases(graph, topologies, default_day):
    for topo in topologies:
        ybus = build_ybus(graph, topo)
        for t in range(96):
            sol = solve_newton_raphson(ybus, default_day[t])
            assert sol.iterations <= 10
            assert sol.max_mismatch < 1e-8


def test_complex_power_balance(graph, topologies, default_day):
    tol = 1e-8
    for topo in topologies:
        ybus = build_ybus(graph, topo)
        for t in range(0, 96, 7):
            inj = default_day[t]
            sol = solve_newton_raphson(ybus, inj, tol=tol)
            v = sol.vm * np.exp(1j * np.radians(sol.va_deg))
            s_inj = v * np.conj(ybus @ v)  # includes the slack contribution
            losses = 0.0
            for line in graph.closed_lines(topo):
                i = graph.bus_index(line.from_bus)
                j = graph.bus_index(line.to_bus)
                current = line.admittance * (v[i] - v[j])
                losses += line.impedance * abs(current) ** 2
            assert abs(s_inj.sum() - losses) < 10 * tol


def test_solution_invariant_under_bus_reordering(graph, topo_by_id):
    # same physical network with buses listed in a different order
    order = [2, 4, 1, 5, 3]
    buses = tuple(graph.buses[graph.bus_index(b)] for b in order)
    shuffled = NetworkGraph(buses=buses, lines=graph.lines)
    topo = topo_by_id["V"]
    load = {2: (-0.05, -0.01), 4: (-0.08, -0.02), 5: (-0.03, 0.0)}

    sol_a = solve_newton_raphson(build_ybus(graph, topo),
                                 InjectionSnapshot.from_bus_map(graph, load),
                                 slack_index=graph.slack_index)
    sol_b = solve_newton_raphson(build_ybus(shuffled, topo),
                                 InjectionSnapshot.from_bus_map(shuffled, load),
                                 slack_index=shuffled.slack_index)
    for bus in order:
        assert sol_a.vm[graph.bus_index(bus)] == pytest.approx(sol_b.vm[shuffled.bus_index(bus)], abs=1e-10)
        assert sol_a.va_deg[graph.bus_index(bus)] == pytest.approx(sol_b.va_deg[shuffled.bus_index(bus)], abs=1e-8)


def test_nr_diverges_on_impossible_load(graph, topo_by_id):
    inj = InjectionSnapshot.from_bus_map(graph, {4: (-50.0, -20.0)})
    with pytest.raises(DivergedError) as err:
        solve_newton_raphson(_ybus(graph, topo_by_id, "I"), inj, max_iter=20)
    assert err.value.last_mismatch > 0


def test_diverged_error_survives_pickle():
    """A worker process's exception reaches the caller pickled."""
    err = pickle.loads(pickle.dumps(DivergedError("did not converge", 1.5)))
    assert (type(err), str(err), err.last_mismatch) == (DivergedError, "did not converge", 1.5)


def test_injection_snapshot_validation(graph):
    with pytest.raises(KeyError):
        InjectionSnapshot.from_bus_map(graph, {99: (1.0, 0.0)})
    with pytest.raises(ValueError):
        InjectionSnapshot(bus_ids=(1, 2), p=(0.0, float("nan")), q=(0.0, 0.0))


@pytest.fixture(scope="module")
def fixture_stack(graph, topologies, default_day):
    """All 480 (topology, t) fixture cases as one stack: ybus, p, q, snapshots."""
    cases = [(build_ybus(graph, topo), inj) for topo in topologies for inj in default_day]
    return (np.stack([y for y, _ in cases]), np.array([inj.p for _, inj in cases]),
            np.array([inj.q for _, inj in cases]), cases)


def test_batch_agrees_with_oracle_on_all_fixture_cases(fixture_stack):
    ybus, p, q, cases = fixture_stack
    batch = solve_newton_raphson_batch(ybus, p, q, tol=1e-10)
    assert batch.converged.all()
    for i, (y, inj) in enumerate(cases):
        fp = solve_fixed_point_oracle(y, inj, tol=1e-10)
        assert np.max(np.abs(batch.vm[i] - fp.vm)) < 1e-8
        assert np.max(np.abs(batch.va_deg[i] - fp.va_deg)) < 1e-6


def _assert_rows_equal_solo(batch, ybus, p, q, **kw):
    """Every case of `batch` has the bits of the same case solved alone."""
    for i in range(len(ybus)):
        alone = solve_newton_raphson_batch(ybus[i:i + 1], p[i:i + 1], q[i:i + 1], **kw)
        for name in ("vm", "va_deg", "iterations", "mismatch", "converged", "singular"):
            assert getattr(alone, name)[0].tobytes() == getattr(batch, name)[i].tobytes(), (
                i, name)


def test_batch_case_is_bit_identical_alone_and_in_stack(fixture_stack, graph):
    """Alone or in a stack, a case takes the same steps with the same bits:
    the 480 fixture cases, and a stack of SCADA-noisy injections whose
    topologies interleave, with a diverging and a singular case inside."""
    ybus, p, q, _ = fixture_stack
    _assert_rows_equal_solo(solve_newton_raphson_batch(ybus, p, q), ybus, p, q)

    rng = np.random.default_rng(11)
    pick = rng.choice(len(ybus), 60, replace=False)
    spec = DeviceSpec(kind=DeviceKind.SCADA, sigma=0.025, accuracy=0.0005)
    noisy_p, noisy_q = scada_readings(p[pick], q[pick], spec, rng,
                                      draw_scada_offsets(graph.bus_ids, spec, rng))
    isolated = ybus[0].copy()  # bus 5 cut off: a singular Jacobian
    i5 = graph.bus_index(5)
    isolated[i5, :] = isolated[:, i5] = 0.0
    heavy = p[0].copy()
    heavy[graph.bus_index(4)] = -50.0
    stack_y = np.concatenate([ybus[pick[:20]], ybus[:1], ybus[pick[20:40]], isolated[None],
                              ybus[pick[40:]]])
    stack_p = np.concatenate([noisy_p[:20], heavy[None], noisy_p[20:40], p[:1], noisy_p[40:]])
    stack_q = np.concatenate([noisy_q[:20], q[:1], noisy_q[20:40], q[:1], noisy_q[40:]])
    mixed = solve_newton_raphson_batch(stack_y, stack_p, stack_q, max_iter=20)
    assert mixed.converged.sum() == 60
    assert not mixed.converged[20] and not mixed.singular[20]
    assert mixed.singular[41]
    _assert_rows_equal_solo(mixed, stack_y, stack_p, stack_q, max_iter=20)


@pytest.mark.parametrize("load, newton_converged", [
    (20, 480), (40, 471), (50, 421), (60, 345), (80, 269), (100, 210)])
def test_heavy_load_converged_count_matches_full_newton(fixture_stack, load, newton_converged):
    """At 20x to 100x the fixture loads, as many of the 480 cases converge
    as did with a Jacobian re-evaluated at every step (counted with that
    solver): reusing the flat-start Jacobian loses none of them."""
    ybus, p, q, _ = fixture_stack
    batch = solve_newton_raphson_batch(ybus, load * p, load * q)
    assert batch.converged.sum() == newton_converged


@pytest.mark.parametrize("load, case, steps", [(60, 275, 39), (100, 198, 34)])
def test_singular_jacobian_of_a_diverging_case_reports_divergence(fixture_stack, load,
                                                                  case, steps):
    """At 60x and 100x the fixture loads one case each blows up until its
    refreshed Jacobian is singular. Its mismatch has then grown far past its
    flat-start mismatch, so it stops as diverged, with its last mismatch,
    not as singular; alone it stops the same way."""
    ybus, p, q, cases = fixture_stack
    batch = solve_newton_raphson_batch(ybus, load * p, load * q)
    assert not batch.singular.any()
    assert batch.iterations[case] == steps
    flat = np.abs(np.concatenate([load * p[case], load * q[case]])).max()
    assert batch.mismatch[case] > 1e6 * flat
    err = batch.error(case)
    assert isinstance(err, DivergedError)
    assert err.last_mismatch == batch.mismatch[case]
    inj = InjectionSnapshot(bus_ids=cases[case][1].bus_ids, p=load * p[case], q=load * q[case])
    with pytest.raises(DivergedError) as alone:
        solve_newton_raphson(ybus[case], inj)
    assert alone.value.last_mismatch == batch.mismatch[case]


def test_twenty_times_fixture_load_converges_in_at_most_12_steps(fixture_stack):
    ybus, p, q, _ = fixture_stack
    batch = solve_newton_raphson_batch(ybus, 20 * p, 20 * q)
    assert batch.converged.all()
    assert batch.iterations.max() <= 12


def test_cold_and_warm_flat_start_cache_give_identical_bits(fixture_stack):
    """The flat-start inverse is looked up once per run of equal matrices
    (5 topologies x 96 steps: 5 lookups), and a cached inverse gives the
    bits of a freshly computed one."""
    ybus, p, q, _ = fixture_stack
    cache = powerflow._flat_start_inverse
    cache.cache_clear()
    cold = solve_newton_raphson_batch(ybus, p, q)
    assert (cache.cache_info().hits, cache.cache_info().misses) == (0, 5)
    warm = solve_newton_raphson_batch(ybus, p, q)
    assert (cache.cache_info().hits, cache.cache_info().misses) == (5, 5)
    for name in ("vm", "va_deg", "iterations", "mismatch"):
        assert getattr(cold, name).tobytes() == getattr(warm, name).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_failed_cases_leave_the_others_unchanged(fixture_stack, graph):
    """A diverging, a non-finite and a singular case are flagged per case;
    the converging cases of the same stack keep their solo results."""
    ybus, p, q, cases = fixture_stack
    good = [0, 137, 300, 479]
    isolated = ybus[0].copy()  # bus 5 cut off: a zero Jacobian row
    i5 = graph.bus_index(5)
    isolated[i5, :] = isolated[:, i5] = 0.0
    heavy = p[0].copy()
    heavy[graph.bus_index(4)] = -50.0
    stack_y = np.stack([ybus[good[0]], ybus[0], ybus[good[1]], ybus[0], isolated,
                        ybus[good[2]], ybus[good[3]]])
    stack_p = np.stack([p[good[0]], heavy, p[good[1]], np.full_like(heavy, np.nan),
                        p[0], p[good[2]], p[good[3]]])
    stack_q = np.stack([q[good[0]], q[0], q[good[1]], q[0], q[0], q[good[2]], q[good[3]]])
    mixed = solve_newton_raphson_batch(stack_y, stack_p, stack_q, max_iter=20)
    assert mixed.converged.tolist() == [True, False, True, False, False, True, True]
    assert mixed.singular.tolist() == [False, False, False, False, True, False, False]
    for row, i in zip((0, 2, 5, 6), good):
        alone = solve_newton_raphson_batch(ybus[i:i + 1], p[i:i + 1], q[i:i + 1],
                                           max_iter=20)
        assert mixed.iterations[row] == alone.iterations[0]
        assert np.array_equal(mixed.vm[row], alone.vm[0])
        assert np.array_equal(mixed.va_deg[row], alone.va_deg[0])
    for row in (1, 3):
        assert isinstance(mixed.error(row), DivergedError)
        assert mixed.iterations[row] == 20
    assert mixed.mismatch[1] > 1.0
    assert np.isnan(mixed.mismatch[3])
    assert isinstance(mixed.error(4), SingularJacobianError)
    bus_ids = cases[0][1].bus_ids
    with pytest.raises(SingularJacobianError):
        mixed.solution(4, bus_ids)
    # the scalar solver is the stack of one: the same errors and mismatch
    inj = InjectionSnapshot(bus_ids=bus_ids, p=tuple(heavy), q=tuple(q[0]))
    with pytest.raises(DivergedError) as err:
        solve_newton_raphson(ybus[0], inj, max_iter=20)
    assert err.value.last_mismatch == mixed.mismatch[1]
    with pytest.raises(SingularJacobianError):
        solve_newton_raphson(isolated, cases[0][1])
