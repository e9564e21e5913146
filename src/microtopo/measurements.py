"""Synthetic measurement generation for μPMU and SCADA devices.

Each device adds a per-run systematic offset (uniform within its accuracy
bound) plus per-sample zero-mean Gaussian noise. μPMU magnitude noise is
scaled by the nominal voltage; SCADA noise is multiplicative, relative to
the measured power itself.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .powerflow import InjectionSnapshot, PowerFlowSolution


class DeviceKind:
    MICRO_PMU = "micro_pmu"
    SCADA = "scada"


@dataclass(frozen=True)
class DeviceSpec:
    """Noise model of one measurement device class.

    sigma and accuracy are relative fractions (0.00025 means 0.025%).
    For μPMUs the angle sigma/offset are interpreted in radians by default
    (angle_in_radians=False switches to degrees).
    """

    kind: str
    sigma: float
    accuracy: float = 0.0
    nominal_voltage: float = 1.0
    angle_in_radians: bool = True

    def __post_init__(self):
        if self.sigma < 0 or self.accuracy < 0:
            raise ValueError("sigma and accuracy must be nonnegative")


@dataclass(frozen=True)
class PhasorMeasurement:
    bus_id: int
    vm_meas: float
    va_meas: float  # degrees
    time_index: int


@dataclass(frozen=True)
class ScadaPowerMeasurement:
    bus_id: int
    p_meas: float
    q_meas: float
    time_index: int


@dataclass(frozen=True)
class MeasurementSet:
    """All measurements available to the detector at one time step."""

    phasors: tuple[PhasorMeasurement, ...]
    scada: tuple[ScadaPowerMeasurement, ...]
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
    """Per-bus systematic offsets, drawn once per experiment run."""

    vm: dict[int, float] = field(default_factory=dict)
    va_deg: dict[int, float] = field(default_factory=dict)


def draw_pmu_offsets(bus_ids, spec: DeviceSpec, rng: np.random.Generator) -> PmuOffsets:
    bound_vm = spec.accuracy * spec.nominal_voltage
    bound_ang = spec.accuracy
    vm = {}
    va = {}
    for bus in bus_ids:
        vm[bus] = float(rng.uniform(-bound_vm, bound_vm))
        off = float(rng.uniform(-bound_ang, bound_ang))
        va[bus] = float(np.degrees(off)) if spec.angle_in_radians else off
    return PmuOffsets(vm=vm, va_deg=va)


def draw_scada_offsets(bus_ids, spec: DeviceSpec, rng: np.random.Generator) -> dict[int, float]:
    return {bus: float(rng.uniform(-spec.accuracy, spec.accuracy)) for bus in bus_ids}


def sample_pmu(true_solution: PowerFlowSolution, spec: DeviceSpec,
               rng: np.random.Generator, time_index: int = 0,
               offsets: PmuOffsets | None = None) -> tuple[PhasorMeasurement, ...]:
    """Noisy voltage phasor per bus of the true power-flow state.

    Magnitude noise std is sigma * nominal_voltage (absolute, p.u.); angle
    noise std is sigma in radians (reported in degrees).
    """
    if spec.kind != DeviceKind.MICRO_PMU:
        raise ValueError(f"expected a {DeviceKind.MICRO_PMU} spec, got {spec.kind}")
    offsets = offsets or PmuOffsets()
    sigma_vm = spec.sigma * spec.nominal_voltage
    sigma_va_deg = float(np.degrees(spec.sigma)) if spec.angle_in_radians else spec.sigma

    out = []
    for bus_id, vm, va in zip(true_solution.bus_ids, true_solution.vm,
                              true_solution.va_deg):
        noise_vm = rng.normal(0.0, sigma_vm) if sigma_vm > 0 else 0.0
        noise_va = rng.normal(0.0, sigma_va_deg) if sigma_va_deg > 0 else 0.0
        out.append(PhasorMeasurement(
            bus_id=bus_id,
            vm_meas=vm + offsets.vm.get(bus_id, 0.0) + noise_vm,
            va_meas=va + offsets.va_deg.get(bus_id, 0.0) + noise_va,
            time_index=time_index,
        ))
    return tuple(out)


def sample_scada(true_injections: InjectionSnapshot, spec: DeviceSpec,
                 rng: np.random.Generator, measured_buses,
                 time_index: int = 0,
                 offsets: dict[int, float] | None = None) -> tuple[ScadaPowerMeasurement, ...]:
    """Noisy net power injection per monitored bus.

    Multiplicative model: p_meas = p_true * (1 + offset + N(0, sigma)),
    so a zero true injection measures exactly zero.
    """
    if spec.kind != DeviceKind.SCADA:
        raise ValueError(f"expected a {DeviceKind.SCADA} spec, got {spec.kind}")
    offsets = offsets or {}
    out = []
    for bus_id in measured_buses:
        idx = true_injections.bus_ids.index(bus_id)
        off = offsets.get(bus_id, 0.0)
        factor_p = 1.0 + off + (rng.normal(0.0, spec.sigma) if spec.sigma > 0 else 0.0)
        factor_q = 1.0 + off + (rng.normal(0.0, spec.sigma) if spec.sigma > 0 else 0.0)
        out.append(ScadaPowerMeasurement(
            bus_id=bus_id,
            p_meas=true_injections.p[idx] * factor_p,
            q_meas=true_injections.q[idx] * factor_q,
            time_index=time_index,
        ))
    return tuple(out)
