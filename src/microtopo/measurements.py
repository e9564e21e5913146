"""Synthetic measurement generation for μPMU and SCADA devices.

Each device adds a per-run systematic offset (uniform within its accuracy
bound) plus per-sample zero-mean Gaussian noise. μPMU magnitude noise is
scaled by the nominal voltage; SCADA noise is multiplicative, relative to
the measured power itself.
"""
from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass

import numpy as np

from .network import bus_positions
from .powerflow import InjectionSnapshot, PowerFlowSolution


class DeviceKind:
    MICRO_PMU = "micro_pmu"
    SCADA = "scada"


@dataclass(frozen=True)
class DeviceSpec:
    """Noise model of one measurement device class.

    sigma and accuracy are relative fractions (0.00025 means 0.025%). For
    μPMUs the angle sigma and offset bound are in radians.
    """

    kind: str
    sigma: float
    accuracy: float = 0.0
    nominal_voltage: float = 1.0

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


@functools.lru_cache(maxsize=None)
def _device_key(device_id: str) -> int:
    return zlib.crc32(device_id.encode("utf-8"))


def derive_rng_stream(master_seed: int, trial_index: int, device_id: str) -> np.random.Generator:
    """Independent, reproducible random stream for one (trial, device) pair.

    Streams are collision-free regardless of the order trials execute in,
    so parallel experiment runs stay deterministic. The generator is
    `np.random.default_rng(SeedSequence([master_seed, trial_index,
    crc32(device_id)]))`, built without the `default_rng` wrapper.
    """
    seq = np.random.SeedSequence([int(master_seed), int(trial_index), _device_key(device_id)])
    return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class PmuOffsets:
    """Systematic offsets by bus position, drawn once per experiment run."""

    vm: np.ndarray  # p.u.
    va_deg: np.ndarray  # degrees


def draw_pmu_offsets(bus_ids, spec: DeviceSpec, rng: np.random.Generator) -> PmuOffsets:
    """Offsets uniform within the accuracy bound, drawn bus by bus, the
    magnitude's before the angle's."""
    bound = np.array([spec.accuracy * spec.nominal_voltage, spec.accuracy])
    off = rng.uniform(-bound, bound, size=(len(bus_ids), 2))
    return PmuOffsets(vm=off[:, 0], va_deg=np.degrees(off[:, 1]))


def draw_scada_offsets(bus_ids, spec: DeviceSpec, rng: np.random.Generator) -> np.ndarray:
    """Relative offsets by position in `bus_ids`, uniform within the accuracy."""
    return rng.uniform(-spec.accuracy, spec.accuracy, size=len(bus_ids))


def _gaussian(rngs, sigmas: tuple[float, float], n: int) -> np.ndarray:
    """(len(rngs), n, 2) zero-mean noise, column j with std sigmas[j]; trial
    i draws from rngs[i] as n pairs of scalar `rng.normal(0, sigma)` draws
    would. A zero std draws nothing and gives zeros."""
    live = [j for j, sigma in enumerate(sigmas) if sigma > 0]
    draws = np.empty((len(rngs), n, len(live)))
    for rng, out in zip(rngs, draws):
        rng.standard_normal(out=out)
    if len(live) == len(sigmas):
        return draws * sigmas
    noise = np.zeros((len(rngs), n, len(sigmas)))
    noise[..., live] = draws * np.take(sigmas, live)
    return noise


def _check_kind(spec: DeviceSpec, kind: str):
    if spec.kind != kind:
        raise ValueError(f"expected a {kind} spec, got {spec.kind}")


def pmu_readings(vm: np.ndarray, va_deg: np.ndarray, spec: DeviceSpec, rngs,
                 offsets: PmuOffsets | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Noisy (magnitude, angle) readings of true states given by bus
    position, as (len(rngs), buses) arrays; trial i draws from rngs[i].

    Magnitude noise std is sigma * nominal_voltage (absolute, p.u.); angle
    noise std is sigma in radians (reported in degrees). Noise is drawn bus
    by bus, magnitude before angle.
    """
    _check_kind(spec, DeviceKind.MICRO_PMU)
    noise = _gaussian(rngs, (spec.sigma * spec.nominal_voltage, np.degrees(spec.sigma)),
                      vm.shape[-1])
    if offsets is not None:
        vm, va_deg = vm + offsets.vm, va_deg + offsets.va_deg
    return vm + noise[..., 0], va_deg + noise[..., 1]


def scada_readings(p: np.ndarray, q: np.ndarray, spec: DeviceSpec, rngs,
                   offsets: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Noisy (p, q) readings of true injections at the monitored buses, as
    (len(rngs), buses) arrays; trial i draws from rngs[i].

    Multiplicative model: p_meas = p_true * (1 + offset + N(0, sigma)),
    so a zero true injection measures exactly zero. `offsets` holds one
    offset per monitored bus. Noise is drawn bus by bus, p before q.
    """
    _check_kind(spec, DeviceKind.SCADA)
    base = 1.0 if offsets is None else 1.0 + offsets[:, None]
    factor = base + _gaussian(rngs, (spec.sigma, spec.sigma), p.shape[-1])
    return p * factor[..., 0], q * factor[..., 1]


def sample_pmu(true_solution: PowerFlowSolution, spec: DeviceSpec,
               rng: np.random.Generator, time_index: int = 0,
               offsets: PmuOffsets | None = None) -> PhasorSet:
    """Noisy voltage phasor per bus of one true power-flow state
    (`pmu_readings` of one trial)."""
    vm, va_deg = pmu_readings(true_solution.vm, true_solution.va_deg, spec, (rng,), offsets)
    return PhasorSet(bus_ids=true_solution.bus_ids, vm=vm[0], va_deg=va_deg[0],
                     time_index=time_index)


def sample_scada(true_injections: InjectionSnapshot, spec: DeviceSpec,
                 rng: np.random.Generator, measured_buses,
                 time_index: int = 0, offsets: np.ndarray | None = None) -> ScadaSet:
    """Noisy net power injection per bus of `measured_buses` at one step
    (`scada_readings` of one trial); `offsets` follows `measured_buses`."""
    rows = bus_positions(true_injections.bus_ids, measured_buses)
    p, q = scada_readings(true_injections.p[rows], true_injections.q[rows], spec,
                          (rng,), offsets)
    return ScadaSet(bus_ids=tuple(measured_buses), p=p[0], q=q[0], time_index=time_index)
