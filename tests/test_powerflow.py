import dataclasses
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


# Physical bus -> new id of the fixture network relabelled so that its slack
# bus is bus 3, at position 2.
SLACK_THIRD = {1: 3, 2: 1, 3: 5, 4: 2, 5: 4}


def _slack_third(graph):
    """The fixture network with its buses relabelled by SLACK_THIRD."""
    label = SLACK_THIRD
    buses = tuple(sorted((dataclasses.replace(b, id=label[b.id]) for b in graph.buses),
                         key=lambda b: b.id))
    lines = tuple(dataclasses.replace(line, from_bus=label[line.from_bus],
                                      to_bus=label[line.to_bus]) for line in graph.lines)
    relabelled = NetworkGraph(buses=buses, lines=lines)
    assert relabelled.slack_bus.id == 3 and relabelled.slack_index == 2
    return relabelled


def test_solution_invariant_under_bus_reordering(graph, topo_by_id):
    """The same physical network with its buses relabelled, so that the
    slack bus is bus 3 and sits at position 2, not first: the solver does
    not need the slack bus first."""
    label = SLACK_THIRD
    relabelled = _slack_third(graph)
    topo = topo_by_id["V"]
    load = {2: (-0.05, -0.01), 4: (-0.08, -0.02), 5: (-0.03, 0.0)}

    sol_a = solve_newton_raphson(build_ybus(graph, topo),
                                 InjectionSnapshot.from_bus_map(graph, load),
                                 slack_index=graph.slack_index)
    sol_b = solve_newton_raphson(
        build_ybus(relabelled, topo),
        InjectionSnapshot.from_bus_map(relabelled, {label[b]: pq for b, pq in load.items()}),
        slack_index=relabelled.slack_index)
    for bus in graph.bus_ids:
        a, b = graph.bus_index(bus), relabelled.bus_index(label[bus])
        assert sol_a.vm[a] == pytest.approx(sol_b.vm[b], abs=1e-10)
        assert sol_a.va_deg[a] == pytest.approx(sol_b.va_deg[b], abs=1e-8)


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


@pytest.mark.parametrize("n_bus", [2, 3, 5])
@pytest.mark.parametrize("n_case", [1, 2, 96, 480])
def test_currents_kernel_sums_columns_from_the_left(n_bus, n_case):
    """The currents kernel has the bits of the column-by-column sum from the
    left, slack column first, for any number of cases and buses and for a
    contiguous or a transposed stack of columns: a case's bits alone and in
    a grid rest on this summation order. Each admittance row sums to about
    zero, as in a network without shunts, so another order rounds apart."""
    rng = np.random.default_rng(100 * n_bus + n_case)
    k = n_bus - 1

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    ybus = 100 * draw(n_case, n_bus, n_bus)
    ybus -= ybus.mean(axis=2, keepdims=True)
    v_pq = 1 + 0.05 * draw(n_case, k)
    y_pq = ybus[:, 1:, :]  # (cases, k, n): the PQ rows
    want = y_pq[:, :, 0] + y_pq[:, :, 1] * v_pq[:, None, 0]
    for j in range(2, n_bus):
        want = want + y_pq[:, :, j] * v_pq[:, None, j - 1]
    weights = np.ones((n_bus, 1, n_case), dtype=complex)
    weights[1:, 0] = v_pq.T
    for y_cols in (y_pq.transpose(2, 1, 0), np.ascontiguousarray(y_pq.transpose(2, 1, 0))):
        got = powerflow._injected_currents(y_cols, weights)
        assert got.shape == (k, n_case)
        assert got.T.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def fixture_grid(graph, topologies, default_day):
    """The 5 x 96 fixture (topology, t) grid: the (topologies, n, n) Ybus
    stack and the (steps, n) p and q tables."""
    return (np.stack([build_ybus(graph, topo) for topo in topologies]),
            np.array([inj.p for inj in default_day]), np.array([inj.q for inj in default_day]))


def test_batch_agrees_with_oracle_on_all_fixture_cases(fixture_grid, default_day):
    ybus, p, q = fixture_grid
    batch = solve_newton_raphson_batch(ybus, p, q, tol=1e-10)
    assert batch.vm.shape == batch.va_deg.shape == (5, 96, 5)
    assert batch.converged.all()
    for i, y in enumerate(ybus):
        for t, inj in enumerate(default_day):
            fp = solve_fixed_point_oracle(y, inj, tol=1e-10)
            assert np.max(np.abs(batch.vm[i, t] - fp.vm)) < 1e-8
            assert np.max(np.abs(batch.va_deg[i, t] - fp.va_deg)) < 1e-6


FIELDS = ("vm", "va_deg", "iterations", "mismatch", "converged", "singular")


def _assert_cases_equal_solo(batch, ybus, p, q, **kw):
    """Every (topology, step) case of `batch` has the bits of the same case
    solved alone, in a 1 x 1 grid."""
    assert batch.converged.shape == (len(ybus), len(p))
    for i, t in np.ndindex(batch.converged.shape):
        alone = solve_newton_raphson_batch(ybus[i:i + 1], p[t:t + 1], q[t:t + 1], **kw)
        for name in FIELDS:
            assert getattr(alone, name)[0, 0].tobytes() == getattr(batch, name)[i, t].tobytes(), (
                i, t, name)


def _failing_grid(graph, ybus, p, q, at_topology, steps):
    """`ybus` with an islanded-bus topology (bus 5 cut off: a singular
    Jacobian) inserted at `at_topology`, and the rows `steps` of p and q,
    where "heavy" is the first row with 50 p.u. drawn at bus 4 (it diverges)
    and "nan" a NaN row."""
    isolated = ybus[0].copy()
    i5 = graph.bus_index(5)
    isolated[i5, :] = isolated[:, i5] = 0.0
    heavy = p[0].copy()
    heavy[graph.bus_index(4)] = -50.0
    rows = {"heavy": (heavy, q[0]), "nan": (np.full_like(heavy, np.nan), q[0])}
    grid_p, grid_q = zip(*(rows[t] if t in rows else (p[t], q[t]) for t in steps))
    return np.insert(ybus, at_topology, isolated, axis=0), np.array(grid_p), np.array(grid_q)


def test_batch_case_is_bit_identical_alone_and_in_stack(fixture_grid, graph):
    """Alone or in a grid, a case takes the same steps with the same bits:
    the 5 x 96 fixture grid, and the 5 fixture topologies plus an islanded
    one against SCADA-noisy steps plus a heavy step, where every fixture
    topology diverges at the heavy step and the islanded one is singular at
    every step."""
    ybus, p, q = fixture_grid
    _assert_cases_equal_solo(solve_newton_raphson_batch(ybus, p, q), ybus, p, q)

    rng = np.random.default_rng(11)
    spec = DeviceSpec(kind=DeviceKind.SCADA, sigma=0.025, accuracy=0.0005)
    noisy_p, noisy_q = scada_readings(p, q, spec, rng,
                                      draw_scada_offsets(graph.bus_ids, spec, rng))
    picked = rng.choice(96, 12, replace=False).tolist()
    steps = [*picked[:6], "heavy", *picked[6:]]
    grid_y, grid_p, grid_q = _failing_grid(graph, ybus, noisy_p, noisy_q, 2, steps)
    mixed = solve_newton_raphson_batch(grid_y, grid_p, grid_q, max_iter=20)
    assert mixed.converged.sum() == 5 * 12
    assert not mixed.converged[:, 6].any()
    assert mixed.singular.tolist() == [[topology == 2] * 13 for topology in range(6)]
    _assert_cases_equal_solo(mixed, grid_y, grid_p, grid_q, max_iter=20)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_slack_not_first_grid_is_bit_identical_alone_and_in_stack(graph, topologies,
                                                                  fixture_grid):
    """The fixture grid relabelled with the slack bus at position 2, plus an
    islanded topology, a heavy step and a NaN step: the solver moves the
    slack bus first and puts each case's buses back in place, and every case
    has the bits of the same case solved alone."""
    relabelled = _slack_third(graph)
    columns = [graph.bus_index(b) for b in sorted(graph.bus_ids, key=SLACK_THIRD.get)]
    _, p, q = fixture_grid
    ybus = np.stack([build_ybus(relabelled, topo) for topo in topologies])
    p, q = p[:, columns], q[:, columns]
    kw = dict(slack_index=relabelled.slack_index, max_iter=20)
    _assert_cases_equal_solo(solve_newton_raphson_batch(ybus, p, q, **kw), ybus, p, q, **kw)
    grid_y, grid_p, grid_q = _failing_grid(relabelled, ybus, p, q, 2, [0, "heavy", 37, "nan", 95])
    mixed = solve_newton_raphson_batch(grid_y, grid_p, grid_q, **kw)
    _assert_cases_equal_solo(mixed, grid_y, grid_p, grid_q, **kw)
    assert mixed.singular[2].all() and not mixed.singular[[0, 1, 3, 4, 5]].any()
    assert mixed.converged[[0, 1, 3, 4, 5]][:, [0, 2, 4]].all()
    assert not mixed.converged[:, [1, 3]].any()
    assert (mixed.vm[:, :, relabelled.slack_index] == 1.0).all()
    assert (mixed.va_deg[:, :, relabelled.slack_index] == 0.0).all()


@pytest.mark.parametrize("load, newton_converged", [
    (20, 480), (40, 471), (50, 421), (60, 345), (80, 269), (100, 210)])
def test_heavy_load_converged_count_matches_full_newton(fixture_grid, load, newton_converged):
    """At 20x to 100x the fixture loads, as many of the 480 cases converge
    as did with a Jacobian re-evaluated at every step (counted with that
    solver): reusing the flat-start Jacobian loses none of them."""
    ybus, p, q = fixture_grid
    batch = solve_newton_raphson_batch(ybus, load * p, load * q)
    assert batch.converged.sum() == newton_converged


@pytest.mark.parametrize("load, topology, step, steps", [(60, 2, 83, 39), (100, 2, 6, 34)])
def test_singular_jacobian_of_a_diverging_case_reports_divergence(fixture_grid, graph, load,
                                                                  topology, step, steps):
    """At 60x and 100x the fixture loads one case each blows up until its
    refreshed Jacobian is singular. Its mismatch has then grown far past its
    flat-start mismatch, so it stops as diverged, with its last mismatch,
    not as singular; alone it stops the same way."""
    ybus, p, q = fixture_grid
    batch = solve_newton_raphson_batch(ybus, load * p, load * q)
    case = topology, step
    assert not batch.singular.any()
    assert batch.iterations[case] == steps
    flat = np.abs(np.concatenate([load * p[step], load * q[step]])).max()
    assert batch.mismatch[case] > 1e6 * flat
    err = batch.error(*case)
    assert isinstance(err, DivergedError)
    assert err.last_mismatch == batch.mismatch[case]
    inj = InjectionSnapshot(bus_ids=graph.bus_ids, p=load * p[step], q=load * q[step])
    with pytest.raises(DivergedError) as alone:
        solve_newton_raphson(ybus[topology], inj)
    assert alone.value.last_mismatch == batch.mismatch[case]


def test_twenty_times_fixture_load_converges_in_at_most_12_steps(fixture_grid):
    ybus, p, q = fixture_grid
    batch = solve_newton_raphson_batch(ybus, 20 * p, 20 * q)
    assert batch.converged.all()
    assert batch.iterations.max() <= 12


def test_cold_and_warm_flat_start_cache_give_identical_bits(fixture_grid):
    """The flat-start inverse is looked up once per topology of the grid
    (5 topologies x 96 steps: 5 lookups), and a cached inverse gives the
    bits of a freshly computed one."""
    ybus, p, q = fixture_grid
    cache = powerflow._flat_start_inverse
    cache.cache_clear()
    cold = solve_newton_raphson_batch(ybus, p, q)
    assert (cache.cache_info().hits, cache.cache_info().misses) == (0, 5)
    warm = solve_newton_raphson_batch(ybus, p, q)
    assert (cache.cache_info().hits, cache.cache_info().misses) == (5, 5)
    for name in FIELDS:
        assert getattr(cold, name).tobytes() == getattr(warm, name).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_failed_cases_leave_the_others_unchanged(fixture_grid, graph):
    """A diverging, a non-finite and a singular case are flagged per case;
    the converging cases of the same grid keep their solo results. The grid
    is the 5 fixture topologies plus an islanded one against fixture steps,
    a heavy step and a NaN step, and the first failure in (topology, step)
    order is the heavy step of topology I."""
    ybus, p, q = fixture_grid
    steps = [0, "heavy", 37, "nan", 60, 95]
    grid_y, grid_p, grid_q = _failing_grid(graph, ybus, p, q, 4, steps)
    mixed = solve_newton_raphson_batch(grid_y, grid_p, grid_q, max_iter=20)
    good = [isinstance(t, int) for t in steps]
    assert mixed.converged.tolist() == [[ok and topology != 4 for ok in good]
                                        for topology in range(6)]
    assert mixed.singular.tolist() == [[topology == 4] * 6 for topology in range(6)]
    assert np.argwhere(~mixed.converged)[0].tolist() == [0, 1]
    _assert_cases_equal_solo(mixed, grid_y, grid_p, grid_q, max_iter=20)
    for topology in (0, 1, 2, 3, 5):
        for step in (1, 3):
            assert isinstance(mixed.error(topology, step), DivergedError)
            assert mixed.iterations[topology, step] == 20
        assert mixed.mismatch[topology, 1] > 1.0
        assert np.isnan(mixed.mismatch[topology, 3])
    for step in range(6):
        assert isinstance(mixed.error(4, step), SingularJacobianError)
        with pytest.raises(SingularJacobianError):
            mixed.solution(4, step, graph.bus_ids)
    # the scalar solver is the 1 x 1 grid: the same errors and mismatch
    inj = InjectionSnapshot(bus_ids=graph.bus_ids, p=tuple(grid_p[1]), q=tuple(q[0]))
    with pytest.raises(DivergedError) as err:
        solve_newton_raphson(ybus[0], inj, max_iter=20)
    assert err.value.last_mismatch == mixed.mismatch[0, 1]
    with pytest.raises(SingularJacobianError):
        solve_newton_raphson(grid_y[4], InjectionSnapshot(graph.bus_ids, p[0], q[0]))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_work_buffer_leaves_every_field_unchanged(fixture_grid, graph):
    """The grid of `test_failed_cases_leave_the_others_unchanged` (diverging,
    non-finite and singular cases) gives the same bits in all six fields
    whether the working arrays are views of a caller's buffer or of one the
    solver allocates. What the buffer held before, NaN or an earlier solve's
    arrays, changes nothing, and no field is a view of it."""
    ybus, p, q = fixture_grid
    grid_y, grid_p, grid_q = _failing_grid(graph, ybus, p, q, 4, [0, "heavy", 37, "nan", 60, 95])
    work = np.full(powerflow.batch_work_size(len(grid_y), *grid_p.shape), np.nan)
    fresh = solve_newton_raphson_batch(grid_y, grid_p, grid_q, max_iter=20)
    for _ in range(2):
        reused = solve_newton_raphson_batch(grid_y, grid_p, grid_q, max_iter=20, work=work)
        for name in FIELDS:
            assert getattr(reused, name).tobytes() == getattr(fresh, name).tobytes(), name
            assert not np.shares_memory(getattr(reused, name), work)
