"""Synthetic measurement generation for μPMU and SCADA devices.

Each device adds a per-run systematic offset (uniform within its accuracy
bound) plus per-sample zero-mean Gaussian noise. μPMU magnitude noise is
scaled by the nominal voltage; SCADA noise is multiplicative, relative to
the measured power itself.
"""
from __future__ import annotations

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


def derive_rng_stream(master_seed: int, trial_index: int, device_id: str) -> np.random.Generator:
    """Independent, reproducible random stream for one (trial, device) pair.

    Streams are collision-free regardless of the order trials execute in,
    so parallel experiment runs stay deterministic.
    """
    device_key = zlib.crc32(device_id.encode("utf-8"))
    seq = np.random.SeedSequence([int(master_seed), int(trial_index), device_key])
    return np.random.default_rng(seq)


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


def _gaussian(rng: np.random.Generator, sigmas: tuple[float, float], n: int) -> np.ndarray:
    """(n, 2) zero-mean noise, column j with std sigmas[j], equal to n pairs
    of scalar `rng.normal(0, sigma)` draws; a zero std draws nothing and
    gives zeros."""
    sigmas = np.asarray(sigmas)
    live = sigmas > 0
    noise = np.zeros((n, 2))
    noise[:, live] = rng.standard_normal((n, np.count_nonzero(live))) * sigmas[live]
    return noise


def sample_pmu(true_solution: PowerFlowSolution, spec: DeviceSpec,
               rng: np.random.Generator, time_index: int = 0,
               offsets: PmuOffsets | None = None) -> PhasorSet:
    """Noisy voltage phasor per bus of the true power-flow state.

    Magnitude noise std is sigma * nominal_voltage (absolute, p.u.); angle
    noise std is sigma in radians (reported in degrees). Noise is drawn bus
    by bus, magnitude before angle.
    """
    if spec.kind != DeviceKind.MICRO_PMU:
        raise ValueError(f"expected a {DeviceKind.MICRO_PMU} spec, got {spec.kind}")
    noise = _gaussian(rng, (spec.sigma * spec.nominal_voltage, np.degrees(spec.sigma)),
                      len(true_solution.bus_ids))
    vm, va = true_solution.vm, true_solution.va_deg
    if offsets is not None:
        vm, va = vm + offsets.vm, va + offsets.va_deg
    return PhasorSet(bus_ids=true_solution.bus_ids, vm=vm + noise[:, 0],
                     va_deg=va + noise[:, 1], time_index=time_index)


def sample_scada(true_injections: InjectionSnapshot, spec: DeviceSpec,
                 rng: np.random.Generator, measured_buses,
                 time_index: int = 0, offsets: np.ndarray | None = None) -> ScadaSet:
    """Noisy net power injection per monitored bus.

    Multiplicative model: p_meas = p_true * (1 + offset + N(0, sigma)),
    so a zero true injection measures exactly zero. `offsets` holds one
    offset per bus of `measured_buses`, in that order. Noise is drawn bus by
    bus, p before q.
    """
    if spec.kind != DeviceKind.SCADA:
        raise ValueError(f"expected a {DeviceKind.SCADA} spec, got {spec.kind}")
    rows = bus_positions(true_injections.bus_ids, measured_buses)
    base = 1.0 if offsets is None else 1.0 + offsets[:, None]
    factor = base + _gaussian(rng, (spec.sigma, spec.sigma), len(rows))
    return ScadaSet(bus_ids=tuple(measured_buses),
                    p=true_injections.p[rows] * factor[:, 0],
                    q=true_injections.q[rows] * factor[:, 1],
                    time_index=time_index)
