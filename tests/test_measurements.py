import zlib

import numpy as np
import pytest

from microtopo.measurements import (
    DeviceSpec,
    derive_rng_stream,
    draw_pmu_offsets,
    draw_scada_offsets,
    pmu_readings,
    sample_pmu,
    sample_scada,
    scada_readings,
)
from microtopo.network import build_ybus
from microtopo.powerflow import InjectionSnapshot, solve_newton_raphson

PMU = DeviceSpec(sigma=0.00025, accuracy=0.00025)
SCADA = DeviceSpec(sigma=0.025, accuracy=0.0005)


@pytest.fixture(scope="module")
def true_solution(graph, topo_by_id):
    inj = InjectionSnapshot.from_bus_map(graph, {3: (-0.1, -0.05), 4: (-0.08, -0.02)})
    return solve_newton_raphson(build_ybus(graph, topo_by_id["V"]), inj, tol=1e-10)


@pytest.fixture(scope="module")
def true_injections(graph):
    return InjectionSnapshot.from_bus_map(graph, {3: (-0.1, -0.05), 4: (-0.08, -0.02)})


def test_zero_noise_pmu_is_exact(true_solution):
    spec = DeviceSpec(sigma=0.0, accuracy=0.0)
    rng = np.random.default_rng(0)
    meas = sample_pmu(true_solution, spec, rng)
    assert meas.bus_ids == true_solution.bus_ids
    assert np.array_equal(meas.vm, true_solution.vm)
    assert np.array_equal(meas.va_deg, true_solution.va_deg)


def test_zero_noise_scada_is_exact(true_injections):
    spec = DeviceSpec(sigma=0.0, accuracy=0.0)
    rng = np.random.default_rng(0)
    for m in sample_scada(true_injections, spec, rng, measured_buses=(3, 4)):
        idx = true_injections.bus_ids.index(m.bus_id)
        assert m.p_meas == true_injections.p[idx]
        assert m.q_meas == true_injections.q[idx]


def test_pmu_noise_statistics(true_solution):
    """Magnitude and angle errors look Gaussian with the configured std."""
    n = 100_000
    rng = np.random.default_rng(42)
    err_vm = np.empty(n)
    err_va = np.empty(n)
    for i in range(n):
        m = sample_pmu(true_solution, PMU, rng)
        err_vm[i] = m.vm[2] - true_solution.vm[2]
        err_va[i] = m.va_deg[2] - true_solution.va_deg[2]

    sigma_vm = PMU.sigma
    sigma_va = np.degrees(PMU.sigma)
    for err, sigma in ((err_vm, sigma_vm), (err_va, sigma_va)):
        assert abs(err.std() - sigma) / sigma < 0.03
        assert abs(err.mean()) < 4 * sigma / np.sqrt(n)
        z = (err - err.mean()) / err.std()
        assert abs(np.mean(z ** 3)) < 0.1  # skewness
        assert abs(np.mean(z ** 4) - 3.0) < 0.2  # excess kurtosis


@pytest.mark.parametrize("sigma", [0.00025, 0.0])
def test_pmu_draws_match_scalar_sequence(true_solution, sigma):
    """Offsets and noise equal, bit for bit, those of one scalar draw per bus
    and quantity (magnitude before angle), and a zero std draws nothing."""
    spec = DeviceSpec(sigma=sigma, accuracy=0.00025)
    rng, ref = np.random.default_rng(1), np.random.default_rng(1)
    meas = sample_pmu(true_solution, spec, rng,
                      offsets=draw_pmu_offsets(true_solution.bus_ids, spec, rng))
    offsets = [(ref.uniform(-spec.accuracy, spec.accuracy),
                float(np.degrees(ref.uniform(-spec.accuracy, spec.accuracy))))
               for _ in true_solution.bus_ids]
    sigma_vm, sigma_va = sigma, float(np.degrees(sigma))
    for i, (off_vm, off_va) in enumerate(offsets):
        noise_vm = ref.normal(0.0, sigma_vm) if sigma_vm > 0 else 0.0
        noise_va = ref.normal(0.0, sigma_va) if sigma_va > 0 else 0.0
        assert meas.vm[i] == true_solution.vm[i] + off_vm + noise_vm
        assert meas.va_deg[i] == true_solution.va_deg[i] + off_va + noise_va
    assert rng.random() == ref.random()


@pytest.mark.parametrize("sigma", [0.025, 0.0])
def test_scada_draws_match_scalar_sequence(true_injections, sigma):
    spec = DeviceSpec(sigma=sigma, accuracy=0.0005)
    buses = (4, 3)
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    meas = sample_scada(true_injections, spec, rng, buses,
                        offsets=draw_scada_offsets(buses, spec, rng))
    offsets = [ref.uniform(-spec.accuracy, spec.accuracy) for _ in buses]
    assert meas.bus_ids == buses
    for i, (bus, off) in enumerate(zip(buses, offsets)):
        idx = true_injections.bus_ids.index(bus)
        factor_p = 1.0 + off + (ref.normal(0.0, sigma) if sigma > 0 else 0.0)
        factor_q = 1.0 + off + (ref.normal(0.0, sigma) if sigma > 0 else 0.0)
        assert meas.p[i] == true_injections.p[idx] * factor_p
        assert meas.q[i] == true_injections.q[idx] * factor_q
    assert rng.random() == ref.random()


def test_scada_multiplicative(true_injections):
    """Relative SCADA error is independent of the injection size."""
    n = 20_000
    rel = {bus: [] for bus in (3, 4)}
    rng = np.random.default_rng(5)
    for _ in range(n):
        for m in sample_scada(true_injections, SCADA, rng, measured_buses=(3, 4)):
            idx = true_injections.bus_ids.index(m.bus_id)
            rel[m.bus_id].append(m.p_meas / true_injections.p[idx] - 1.0)
    for bus in (3, 4):
        assert np.std(rel[bus]) == pytest.approx(SCADA.sigma, rel=0.05)


def test_scada_zero_injection_measures_zero(graph):
    inj = InjectionSnapshot.from_bus_map(graph, {})
    rng = np.random.default_rng(1)
    for m in sample_scada(inj, SCADA, rng, measured_buses=(2, 3, 4, 5)):
        assert m.p_meas == 0.0
        assert m.q_meas == 0.0


def test_systematic_offsets_within_bounds():
    rng = np.random.default_rng(3)
    for _ in range(50):
        off_vm, off_va_deg = draw_pmu_offsets((1, 2, 3, 4, 5), PMU, rng)
        assert off_vm.shape == off_va_deg.shape == (5,)
        assert np.all(np.abs(off_vm) <= PMU.accuracy)
        assert np.all(np.abs(off_va_deg) <= np.degrees(PMU.accuracy))
        soff = draw_scada_offsets((2, 4), SCADA, rng)
        assert soff.shape == (2,)
        assert np.all(np.abs(soff) <= SCADA.accuracy)


def test_offsets_applied_to_samples(true_solution):
    spec = DeviceSpec(sigma=0.0, accuracy=0.0)
    # offsets are by bus position: bus 2 is position 1
    off = np.array([0.0, 0.001, 0.0, 0.0, 0.0]), np.array([0.0, 0.05, 0.0, 0.0, 0.0])
    rng = np.random.default_rng(0)
    meas = sample_pmu(true_solution, spec, rng, offsets=off)
    assert true_solution.bus_ids[1] == 2
    assert meas.vm[1] == true_solution.vm[1] + 0.001
    assert meas.va_deg[1] == true_solution.va_deg[1] + 0.05
    assert meas.vm[2] == true_solution.vm[2]


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        DeviceSpec(sigma=-0.1)


def test_rng_stream_determinism_and_independence():
    a1 = derive_rng_stream(99, 5, "pmu:2").normal(size=8)
    a2 = derive_rng_stream(99, 5, "pmu:2").normal(size=8)
    assert np.array_equal(a1, a2)

    b = derive_rng_stream(99, 5, "pmu:3").normal(size=8)
    c = derive_rng_stream(99, 6, "pmu:2").normal(size=8)
    d = derive_rng_stream(100, 5, "pmu:2").normal(size=8)
    for other in (b, c, d):
        assert not np.array_equal(a1, other)


@pytest.mark.parametrize("seed, trial, device", [
    (0, 0, "pmu"),
    (20160517, 1, "scada"),
    (7, 9599, "offsets:pmu:3"),
    (2**40, 123456, "library-scada:95"),
    # 32-bit word boundaries: one word, two words, three words.
    (2**32 - 1, 1, "pmu"),
    (2**32, 1, "pmu"),
    (2**64 + 3, 1, "pmu"),
    (5, 2**32, "scada"),
])
def test_rng_stream_is_default_rng_of_its_seed_sequence(seed, trial, device):
    want = np.random.default_rng(
        np.random.SeedSequence([seed, trial, zlib.crc32(device.encode("utf-8"))]))
    got = derive_rng_stream(seed, trial, device)
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.standard_normal(16), want.standard_normal(16))
    assert np.array_equal(got.uniform(size=4), want.uniform(size=4))
    assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("seed, trial", [(-1, 0), (0, -1), (-(2**40), 3)])
def test_rng_stream_rejects_a_negative_key(seed, trial):
    """A negative seed or trial index raises `ValueError`, as numpy's
    `SeedSequence` does for a negative int."""
    with pytest.raises(ValueError, match="non-negative"):
        derive_rng_stream(seed, trial, "pmu")


@pytest.mark.parametrize("sigma", [0.00025, 0.0])
def test_stacked_readings_match_per_trial_samples(true_solution, true_injections, sigma):
    """Readings of a stack of trials drawn from one stream equal, bit for
    bit, the scalar samples of the same trials drawn in turn from an equal
    stream; a stack of one is the scalar sample."""
    pmu = DeviceSpec(sigma=sigma)
    scada = DeviceSpec(sigma=sigma * 100)
    pmu_offsets = np.linspace(-1e-4, 1e-4, 5), np.linspace(2e-3, -2e-3, 5)
    buses = (2, 3, 4, 5)
    scada_offsets = np.array([1e-4, -2e-4, 3e-4, 0.0])
    rows = [true_injections.bus_ids.index(b) for b in buses]
    for n in (1, 4):
        vm, va = pmu_readings(np.tile(true_solution.vm, (n, 1)),
                              np.tile(true_solution.va_deg, (n, 1)), pmu,
                              derive_rng_stream(3, 1, "pmu"), pmu_offsets)
        p, q = scada_readings(np.tile(true_injections.p[rows], (n, 1)),
                              np.tile(true_injections.q[rows], (n, 1)), scada,
                              derive_rng_stream(3, 1, "scada"), scada_offsets)
        pmu_rng = derive_rng_stream(3, 1, "pmu")
        scada_rng = derive_rng_stream(3, 1, "scada")
        for i in range(n):
            one = sample_pmu(true_solution, pmu, pmu_rng, offsets=pmu_offsets)
            assert vm[i].tobytes() == one.vm.tobytes()
            assert va[i].tobytes() == one.va_deg.tobytes()
            meas = sample_scada(true_injections, scada, scada_rng, buses,
                                offsets=scada_offsets)
            assert p[i].tobytes() == meas.p.tobytes()
            assert q[i].tobytes() == meas.q.tobytes()
