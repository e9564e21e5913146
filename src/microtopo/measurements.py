"""Synthetic measurement generation for μPMU and SCADA devices.

Each device adds a per-run systematic offset (uniform within its accuracy
bound) plus per-sample zero-mean Gaussian noise. μPMU magnitude noise is in
p.u. of the 1 p.u. nominal voltage, like every state; SCADA noise is
multiplicative, relative to the measured power itself.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .powerflow import InjectionSnapshot, PowerFlowSolution


@dataclass(frozen=True)
class DeviceSpec:
    """Noise model of the μPMUs or of SCADA, which `pmu_readings` or `scada_readings` applies.

    sigma and accuracy are relative fractions (0.00025 means 0.025%): for
    μPMUs, p.u. of the 1 p.u. nominal for the magnitude, radians for the angle.
    """

    sigma: float
    accuracy: float = 0.0

    def __post_init__(self):
        if self.sigma < 0 or self.accuracy < 0:
            raise ValueError("sigma and accuracy must be nonnegative")


@dataclass(frozen=True)
class PhasorSet:
    """Measured voltage phasors at one time step, one entry per bus."""

    bus_ids: tuple[int, ...]
    vm: np.ndarray  # p.u.
    va_deg: np.ndarray  # degrees
    time_index: int


@dataclass(frozen=True)
class ScadaPowerMeasurement:
    """One bus of a `ScadaSet`, for callers that read bus by bus."""

    bus_id: int
    p_meas: float
    q_meas: float


@dataclass(frozen=True)
class ScadaSet:
    """Measured net injections at one time step, one entry per monitored bus."""

    bus_ids: tuple[int, ...]
    p: np.ndarray
    q: np.ndarray
    time_index: int

    def __iter__(self):
        return map(ScadaPowerMeasurement, self.bus_ids, self.p.tolist(), self.q.tolist())


@dataclass(frozen=True)
class MeasurementSet:
    """All measurements available to the detector at one time step."""

    phasors: PhasorSet
    scada: ScadaSet
    rng_seed: int


def _device_key(device_id: str) -> int:
    return zlib.crc32(device_id.encode("utf-8"))


def _seed_words(n: int) -> list[int]:
    """The 32-bit words `SeedSequence` reads from a nonnegative int, least
    significant first; 0 is the one word 0."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def derive_rng_stream(master_seed: int, trial_index: int, device_id: str) -> np.random.Generator:
    """Independent, reproducible random stream for one (trial index, device)
    key: `np.random.default_rng(SeedSequence([master_seed, trial_index,
    crc32(device_id)]))`, built without the `default_rng` wrapper and from
    the uint32 words numpy derives from that list, so numpy does not split
    the ints itself. A negative seed or index raises `ValueError`.

    A stream depends on its key only, not on when or in which process it is
    derived, so parallel experiment runs stay deterministic. The experiment
    keys by trial index 1 + rep the μPMU noise of each topology, device
    "pmu:<topology id>", and the SCADA noise of the repetition, device
    "scada"; index 0 is reserved for the systematic offsets.
    """
    words = _seed_words(int(master_seed)) + _seed_words(int(trial_index))
    words.append(_device_key(device_id))
    seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(seq))


def shared_stream_key(device_ids) -> tuple[str, str] | None:
    """The first two of `device_ids` whose `derive_rng_stream` keys are
    equal, so that they would draw the same numbers, or None. Distinct ids
    can share one, since the key is their crc32: "pmu:plumless" and
    "pmu:buckeroo" do."""
    seen: dict[int, str] = {}
    for device in device_ids:
        first = seen.setdefault(_device_key(device), device)
        if first != device:
            return first, device
    return None


def draw_pmu_offsets(bus_ids, spec: DeviceSpec,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Systematic (magnitude in p.u., angle in degrees) offsets by bus
    position, uniform within the accuracy bound, drawn bus by bus, the
    magnitude's before the angle's."""
    off = rng.uniform(-spec.accuracy, spec.accuracy, size=(len(bus_ids), 2))
    return off[:, 0], np.degrees(off[:, 1])


def draw_scada_offsets(bus_ids, spec: DeviceSpec, rng: np.random.Generator) -> np.ndarray:
    """Relative offsets by position in `bus_ids`, uniform within the accuracy."""
    return rng.uniform(-spec.accuracy, spec.accuracy, size=len(bus_ids))


def _gaussian(rng: np.random.Generator, sigmas: tuple[float, float], shape) -> np.ndarray:
    """(*shape, 2) zero-mean noise, column j with std sigmas[j], from one
    `standard_normal` draw in C order: the draws of a loop of scalar
    `rng.normal(0, sigma)` calls over `shape`, column 0 before column 1.
    Both stds are zero (no draw, zeros) or both are positive."""
    if sigmas[0] == 0:
        return np.zeros((*shape, 2))
    return rng.standard_normal((*shape, 2)) * sigmas


def pmu_readings(vm: np.ndarray, va_deg: np.ndarray, spec: DeviceSpec,
                 rng: np.random.Generator,
                 offsets: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Noisy (magnitude, angle) readings of (trials, buses) true states given
    by bus position, all drawn from `rng`, trial by trial.

    Magnitude noise std is sigma in p.u.; angle noise std is sigma in
    radians (reported in degrees). Noise is drawn bus by bus, magnitude
    before angle. `offsets` is a (vm, va_deg) pair from `draw_pmu_offsets`.
    """
    noise = _gaussian(rng, (spec.sigma, np.degrees(spec.sigma)), vm.shape)
    if offsets is not None:
        off_vm, off_va_deg = offsets
        vm, va_deg = vm + off_vm, va_deg + off_va_deg
    return vm + noise[..., 0], va_deg + noise[..., 1]


def scada_readings(p: np.ndarray, q: np.ndarray, spec: DeviceSpec,
                   rng: np.random.Generator,
                   offsets: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Noisy (p, q) readings of (trials, buses) true injections at the
    monitored buses, all drawn from `rng`, trial by trial.

    Multiplicative model: p_meas = p_true * (1 + offset + N(0, sigma)),
    so a zero true injection measures exactly zero. `offsets` holds one
    offset per monitored bus. Noise is drawn bus by bus, p before q.
    """
    base = 1.0 if offsets is None else 1.0 + offsets[:, None]
    factor = base + _gaussian(rng, (spec.sigma, spec.sigma), p.shape)
    return p * factor[..., 0], q * factor[..., 1]


def sample_pmu(true_solution: PowerFlowSolution, spec: DeviceSpec,
               rng: np.random.Generator, time_index: int = 0,
               offsets: tuple[np.ndarray, np.ndarray] | None = None) -> PhasorSet:
    """Noisy voltage phasor per bus of one true power-flow state
    (`pmu_readings` of one trial)."""
    vm, va_deg = pmu_readings(true_solution.vm[None], true_solution.va_deg[None], spec, rng,
                              offsets)
    return PhasorSet(bus_ids=true_solution.bus_ids, vm=vm[0], va_deg=va_deg[0],
                     time_index=time_index)


def sample_scada(true_injections: InjectionSnapshot, spec: DeviceSpec,
                 rng: np.random.Generator, measured_buses,
                 time_index: int = 0, offsets: np.ndarray | None = None) -> ScadaSet:
    """Noisy net power injection per bus of `measured_buses` at one step
    (`scada_readings` of one trial); `offsets` follows `measured_buses`."""
    position = {bus: i for i, bus in enumerate(true_injections.bus_ids)}
    rows = [position[bus] for bus in measured_buses]
    p, q = scada_readings(true_injections.p[rows][None], true_injections.q[rows][None], spec,
                          rng, offsets)
    return ScadaSet(bus_ids=tuple(measured_buses), p=p[0], q=q[0], time_index=time_index)
