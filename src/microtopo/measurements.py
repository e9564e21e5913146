"""Synthetic measurement generation for μPMU and SCADA devices.

Each device adds a per-run systematic offset (uniform within its accuracy
bound) plus per-sample zero-mean Gaussian noise. μPMU magnitude noise is
scaled by the nominal voltage; SCADA noise is multiplicative, relative to
the measured power itself.
"""
from __future__ import annotations

import functools
import operator
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), replayed over
# arrays: a pool of 4 uint32 words, mixed from the entropy words and then
# expanded into the state words.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) constants of `count` successive hash steps:
    step k xors with h_k and multiplies by h_(k+1) = h_k * mult, so they do
    not depend on the data."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h[:-1], dtype=np.uint32), np.array(h[1:], dtype=np.uint32)


@functools.lru_cache(maxsize=None)
def _pool_constants(n_words: int) -> tuple[np.ndarray, np.ndarray]:
    """Hash constants of mixing `n_words` entropy words into the pool: one
    step per pool word, one per ordered pair of pool words, then one per
    pool word for each entropy word past the pool size."""
    steps = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, n_words - _POOL_SIZE)
    return _hash_constants(_INIT_A, _MULT_A, steps)


# generate_state(4, np.uint64) reads the pool twice round, one step a word.
_STATE_XOR, _STATE_MUL = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    out = (values ^ xor) * mul
    return out ^ (out >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ (out >> np.uint32(16))


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """(rows, 4) uint64 words of `SeedSequence(row).generate_state(4,
    np.uint64)` for each row of a (rows, words) uint32 entropy array."""
    n_words = entropy.shape[1]
    xor, mul = _pool_constants(n_words)
    head = np.zeros((len(entropy), _POOL_SIZE), dtype=np.uint32)
    head[:, :n_words] = entropy[:, :_POOL_SIZE]
    pool = _hash(head, xor[:_POOL_SIZE], mul[:_POOL_SIZE])
    k = _POOL_SIZE
    # Each pool word mixes into the others in turn; it does not change
    # while it does, so its 3 targets are mixed at once.
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        step = slice(k, k + len(dst))
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src, None], xor[step], mul[step]))
        k += len(dst)
    for src in range(_POOL_SIZE, n_words):
        step = slice(k, k + _POOL_SIZE)
        pool = _mix(pool, _hash(entropy[:, src, None], xor[step], mul[step]))
        k += _POOL_SIZE
    state = _hash(np.tile(pool, 2), _STATE_XOR, _STATE_MUL)
    # Little-endian word pairs, as SeedSequence joins them.
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _int_words(value: int) -> list[int]:
    """The little-endian uint32 words SeedSequence makes of an int: 0 is [0]."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


class _SeedState(np.random.bit_generator.ISeedSequence):
    """Hands precomputed state words to a bit generator, through numpy's
    ISeedSequence interface; holds only what `PCG64` asks for."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("holds only the 4 uint64 words of a PCG64 seed")
        return self.words


def derive_rng_streams(master_seed: int, trial_indices,
                       device_id: str) -> list[np.random.Generator]:
    """`derive_rng_stream(master_seed, i, device_id)` for each i of
    `trial_indices` (integers in [0, 2**64)), with the same states and
    draws, hashed for all indices at once.

    The generators' `bit_generator.seed_seq` holds their state words, not a
    SeedSequence, so they cannot spawn.
    """
    # An index out of range raises OverflowError, a non-integer TypeError.
    index = np.fromiter(map(operator.index, trial_indices), dtype=np.uint64)
    low = (index & np.uint64(_MASK32)).astype(np.uint32)
    high = (index >> np.uint64(32)).astype(np.uint32)
    seed_words = _int_words(int(master_seed))
    key = _device_key(device_id)
    words = np.empty((len(index), _POOL_SIZE), dtype=np.uint64)
    # An index of 2**32 or more is 2 words, so its entropy row is longer.
    for rows, index_words in ((high == 0, (low,)), (high != 0, (low, high))):
        n = np.count_nonzero(rows)
        if n:
            entropy = np.column_stack([np.full(n, w, dtype=np.uint32) for w in seed_words]
                                      + [w[rows] for w in index_words]
                                      + [np.full(n, key, dtype=np.uint32)])
            words[rows] = _seed_state(entropy)
    return [np.random.Generator(np.random.PCG64(_SeedState(w))) for w in words]


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
