"""Monte Carlo detection-rate experiments.

Plays every candidate topology as the true one across a full day of
15-minute steps, with repeated fresh noise draws, and counts the verdicts
per criterion and signal as a confusion matrix over (true, detected)
topology pairs, and the row votes per signal and μPMU bus the same way.
"""
from __future__ import annotations

import csv
import itertools
import math
import multiprocessing
import os
import traceback
from dataclasses import dataclass, field, fields
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import profiles
from .detector import (
    CRITERIA,
    INCONCLUSIVE,
    SIGNALS,
    difference_stacks,
    solve_library_batch,
    vote_stack,
)
from .measurements import (
    DeviceKind,
    DeviceSpec,
    derive_rng_stream,
    draw_pmu_offsets,
    draw_scada_offsets,
    pmu_readings,
    scada_readings,
)
from .network import NetworkGraph, TopologyConfig, build_ybus, load_network, read_utf8
from .powerflow import TOL, InjectionSnapshot, batch_work_size
# Not called here since trials solve in stacks, but kept importable from this
# module: perfbench/test_perfbench.py checks through this name that the layer
# tracer rebinds a function imported by another module.
from .powerflow import solve_newton_raphson  # noqa: F401


class ConfigError(Exception):
    """Experiment configuration file is invalid; `key` names the config key
    at fault, when there is one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


def fixture_path(name: str) -> Path:
    """Path of a bundled data file (fivebus.net, paper.cfg)."""
    return Path(resources.files("microtopo.data") / name)


@dataclass(frozen=True)
class ScenarioConfig:
    network: str
    profile: str = "default"
    pmu_sigma: float = 0.00025
    pmu_accuracy: float = 0.00025
    scada_sigma: float = 0.025
    scada_accuracy: float = 0.0005
    repetitions: int = 20
    master_seed: int = 20160517
    jobs: int = 1
    tol: ClassVar[float] = TOL  # not a config key: see `powerflow.TOL`

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1", "repetitions")
        for name in ("pmu_sigma", "pmu_accuracy", "scada_sigma", "scada_accuracy"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and nonnegative", name)
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1", "jobs")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0", "master_seed")


def _file_name(value: str) -> str:
    if not value:
        raise ValueError("empty file name")
    return value


# The config keys are the fields of ScenarioConfig, each parsed by its type
# (a string here, under `from __future__ import annotations`).
_CONFIG_PARSERS = {f.name: {"str": _file_name, "float": float, "int": int}[f.type]
                   for f in fields(ScenarioConfig)}


def _resolve_input(key: str, name: str, base_dir: Path) -> str:
    """Resolve the file named by config key `key` against `base_dir`, then
    the bundled data directory."""
    candidate = Path(name)
    if candidate.is_absolute() and candidate.exists():
        return str(candidate)
    local = base_dir / candidate
    if local.exists():
        return str(local)
    bundled = fixture_path(name)
    if bundled.exists():
        return str(bundled)
    raise ConfigError(f"cannot locate input file {name!r}", key)


def load_config(path: str | Path, **overrides) -> ScenarioConfig:
    """Parse a key = value experiment config file, applying overrides.

    A file named in the config resolves against the config's directory and a
    file given as an override (a command-line path) against the working
    directory, each then against the bundled data. A rejected line or value
    read from the file is reported as `path:line:`.
    """
    path = Path(path)
    values: dict = {}
    lines: dict[str, int] = {}  # key -> the file line that set it
    try:
        text = read_utf8(path, ConfigError)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice "
                              f"(first on line {lines[key]})", key)
        lines[key] = lineno
        try:
            values[key] = _CONFIG_PARSERS[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}", key) from exc
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
            lines.pop(key, None)
    if "network" not in values:
        raise ConfigError(f"{path}: missing required key 'network'")
    try:
        for key in ("network", "profile"):
            if key == "network" or values.get(key, "default") != "default":
                base_dir = path.parent if key in lines else Path.cwd()
                values[key] = _resolve_input(key, values[key], base_dir)
        return ScenarioConfig(**values)
    except ConfigError as exc:
        if exc.key not in lines:
            raise
        raise ConfigError(f"{path}:{lines[exc.key]}: {exc}", exc.key) from None


@dataclass(frozen=True)
class ExperimentContext:
    """Everything shared by all trials of one experiment run."""

    config: ScenarioConfig
    graph: NetworkGraph
    topologies: tuple[TopologyConfig, ...]
    ybus_by_topo: dict
    # The day's net injections, (steps, buses) tables from `load_injections`
    true_p: np.ndarray
    true_q: np.ndarray
    scada_buses: tuple[int, ...]
    pmu_spec: DeviceSpec
    scada_spec: DeviceSpec
    # One offset draw per repetition: each repetition models an independent
    # experiment run, and systematic device offsets are fixed within a run.
    pmu_offsets_by_rep: tuple
    scada_offsets_by_rep: tuple

    @cached_property
    def true_injections(self) -> tuple[InjectionSnapshot, ...]:
        """The tables as one `InjectionSnapshot` per step, built on first
        read. Trials read the tables; only the benchmark's online set-up and
        the tests read these."""
        return tuple(InjectionSnapshot(bus_ids=self.graph.bus_ids, p=p, q=q)
                     for p, q in zip(self.true_p, self.true_q))

    @property
    def topology_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.topologies)


def build_context(config: ScenarioConfig) -> ExperimentContext:
    graph, topologies = load_network(config.network)
    true_p, true_q, scada_buses = profiles.load_injections(graph, config.profile)
    pmu_spec = DeviceSpec(kind=DeviceKind.MICRO_PMU, sigma=config.pmu_sigma,
                          accuracy=config.pmu_accuracy)
    scada_spec = DeviceSpec(kind=DeviceKind.SCADA, sigma=config.scada_sigma,
                            accuracy=config.scada_accuracy)
    # Trial index 0 is reserved for offset draws; repetition noise streams use
    # 1 + rep.
    pmu_offsets = tuple(
        draw_pmu_offsets(graph.bus_ids, pmu_spec,
                         derive_rng_stream(config.master_seed, 0, f"offsets:pmu:{rep}"))
        for rep in range(config.repetitions))
    scada_offsets = tuple(
        draw_scada_offsets(scada_buses, scada_spec,
                           derive_rng_stream(config.master_seed, 0, f"offsets:scada:{rep}"))
        for rep in range(config.repetitions))
    return ExperimentContext(
        config=config, graph=graph, topologies=tuple(topologies),
        ybus_by_topo={t.id: build_ybus(graph, t) for t in topologies},
        true_p=true_p, true_q=true_q,
        scada_buses=scada_buses, pmu_spec=pmu_spec, scada_spec=scada_spec,
        pmu_offsets_by_rep=pmu_offsets, scada_offsets_by_rep=scada_offsets)


def solve_true_states(ctx: ExperimentContext, true_ids: tuple[str, ...] | None = None,
                      work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """True (vm, va_deg) of each topology of `true_ids` (default: all of
    `topology_ids`) over the day, as (true topologies, steps, buses) arrays
    from one grid solve of the noise-free library, given `work`; the first
    failed case raises its `LibraryError`."""
    true_ids = ctx.topology_ids if true_ids is None else true_ids
    batch = solve_library_batch({q: ctx.ybus_by_topo[q] for q in true_ids},
                                ctx.true_p, ctx.true_q, range(len(ctx.true_p)),
                                ctx.graph.slack_index, work=work)
    return batch.vm, batch.va_deg


def _rep_arrays(ctx: ExperimentContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`run_rep`'s `work` for all of `ctx`'s topologies as true: the solver's
    `work`, a stack and its absolute values, as views of one block, since
    glibc's malloc then keeps up to twice that block's size on its heap."""
    n_topo, (n_step, n_bus) = len(ctx.topologies), ctx.true_p.shape
    # laid out as a new `difference_stacks` of a repetition: steps innermost
    stacks = (2, n_bus, len(SIGNALS), n_topo, n_topo, n_step)
    block = np.empty(math.prod(stacks) + batch_work_size(n_topo, n_step, n_bus))
    stack, sizes = block[:math.prod(stacks)].reshape(stacks).transpose(0, 3, 5, 2, 1, 4)
    return block[math.prod(stacks):], stack, sizes


def run_rep(ctx: ExperimentContext, rep: int, true_vm: np.ndarray, true_va: np.ndarray,
            true_ids: tuple[str, ...] | None = None, *,
            work: tuple[np.ndarray, ...] | None = None) -> tuple[np.ndarray, ...]:
    """Repetition `rep`: the trials of each true topology of `true_ids`
    (default: all of `topology_ids`) at every step of the day, with true
    states (true_vm, true_va) by true topology and step, from
    `solve_true_states` of the same `true_ids`. Trial (T, t, rep) of the
    experiment is [T, t] of every array the repetition returns, T a
    position in `true_ids`; the candidates are always all `topology_ids`.

    Returns (stack, verdicts, votes): the signed ADM and MDM as one (true
    topologies, steps, signals, rows, topologies) stack, from one
    `difference_stacks` call of the readings against the library; the
    verdict codes, (true topologies, steps, criteria, signals); and the row
    votes, (true topologies, steps, signals, rows). Criteria and signals are
    in `CRITERIA` and `SIGNALS` order, and the codes are `vote_stack`'s, from
    one call over the stack.

    SCADA reads the loads, which do not depend on the switch state, so the
    repetition draws one set of SCADA readings, from the stream keyed (1 +
    rep, "scada"), and solves from them one candidate library, one grid
    power flow for all true topologies. Each true topology draws its μPMU
    readings from the stream keyed (1 + rep, "pmu:<topology id>"). Each
    stream makes one full-day draw, of which step t reads row t, so a
    trial's noise depends only on the seed, its topology, step and rep.
    Given `work` from `_rep_arrays`, it returns the stack in `work`, where
    the next repetition given `work` overwrites it.
    """
    config = ctx.config
    graph = ctx.graph
    true_ids = ctx.topology_ids if true_ids is None else true_ids
    pmu_vm, pmu_va = np.array([
        pmu_readings(vm, va, ctx.pmu_spec,
                     derive_rng_stream(config.master_seed, 1 + rep, f"pmu:{topology_id}"),
                     ctx.pmu_offsets_by_rep[rep])
        for topology_id, vm, va in zip(true_ids, true_vm, true_va, strict=True)]).swapaxes(0, 1)
    p, q = ctx.true_p, ctx.true_q
    rows = [graph.bus_index(bus) for bus in ctx.scada_buses]
    scada_p, scada_q = scada_readings(
        p[:, rows], q[:, rows], ctx.scada_spec,
        derive_rng_stream(config.master_seed, 1 + rep, "scada"),
        ctx.scada_offsets_by_rep[rep])
    lib_p = np.zeros_like(p)
    lib_q = np.zeros_like(q)
    lib_p[:, rows] = scada_p
    lib_q[:, rows] = scada_q
    solver, out, sizes = work or (None,) * 3
    library = solve_library_batch(ctx.ybus_by_topo, lib_p, lib_q, range(len(p)),
                                  graph.slack_index, work=solver)
    # Every true topology's readings meet the same (topologies, steps, buses) library.
    stack = difference_stacks(pmu_vm, pmu_va, library.vm, library.va_deg, out=out)
    del library, pmu_vm, pmu_va  # in the stack now: freed before the vote's peak
    by_criterion, votes = vote_stack(stack, work=sizes)
    return stack, np.stack([by_criterion[c] for c in CRITERIA], axis=2), votes


def _tally(codes: np.ndarray, n_codes: int) -> np.ndarray:
    """How often each code 0..n_codes-1 occurs in each cell of a (true
    topologies, trials, ...) code array, summed over the trials, as a (true
    topologies, ..., n_codes) count array: one `bincount`."""
    cells = codes.shape[:1] + codes.shape[2:]
    cell_base = n_codes * np.arange(math.prod(cells)).reshape(cells[:1] + (1,) + cells[1:])
    return np.bincount((codes + cell_base).ravel(),
                       minlength=n_codes * math.prod(cells)).reshape(cells + (n_codes,))


def _rates(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per (true, a, b) cell of a `_tally` table whose labels are the topologies
    then one more: the counts of the true topology, of the last label and of all."""
    true = np.arange(len(table))
    return table[true, :, :, true], table[..., -1], table.sum(axis=-1)


@dataclass
class DetectionRateReport:
    """Aggregated Monte Carlo outcome counts, as integer arrays indexed by
    position in `topology_ids`, `criteria`, `signals` and `pmu_bus_ids`."""

    topology_ids: tuple[str, ...]
    pmu_bus_ids: tuple[int, ...]  # the graph's bus ids, one per ADM/MDM row
    criteria: ClassVar[tuple[str, ...]] = CRITERIA
    signals: ClassVar[tuple[str, ...]] = SIGNALS
    # (true, criterion, signal, detected) and (true, signal, row, voted) counts; the
    # last label, position len(topology_ids), counts inconclusive verdicts or abstentions
    confusion: np.ndarray = field(init=False)
    row_votes: np.ndarray = field(init=False)

    def __post_init__(self):
        n_topo = len(self.topology_ids)
        self.confusion = np.zeros(
            (n_topo, len(self.criteria), len(self.signals), n_topo + 1), dtype=np.int64)
        self.row_votes = np.zeros(
            (n_topo, len(self.signals), len(self.pmu_bus_ids), n_topo + 1), dtype=np.int64)

    def record_rep(self, verdicts: np.ndarray, votes: np.ndarray):
        """Count the outcome arrays of a repetition, such as `run_rep`'s: verdict
        codes (true topologies, steps, criteria, signals) and row votes (true
        topologies, steps, signals, rows), both `vote_stack` codes, tallied alike."""
        n_codes = len(self.topology_ids) + 1
        self.confusion += _tally(verdicts, n_codes)
        self.row_votes += _tally(votes, n_codes)

    def merge(self, other: "DetectionRateReport"):
        self.confusion += other.confusion
        self.row_votes += other.row_votes

    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (correct, inconclusive, n) verdict counts, each a (true,
        criterion, signal) array."""
        return _rates(self.confusion)

    def _at(self, true: str, criterion: str, signal: str) -> tuple[int, int, int]:
        return (self.topology_ids.index(true), self.criteria.index(criterion),
                self.signals.index(signal))

    def n_trials(self, true: str, criterion: str, signal: str) -> int:
        return int(self.counts()[2][self._at(true, criterion, signal)])

    def correct_rate(self, true: str, criterion: str, signal: str) -> float:
        correct, _, n = (int(a[self._at(true, criterion, signal)]) for a in self.counts())
        return correct / max(1, n)

    def overall_correct_rate(self, criterion: str, signal: str) -> float:
        at = (slice(None), self.criteria.index(criterion), self.signals.index(signal))
        correct, _, n = (int(a[at].sum()) for a in self.counts())
        return correct / max(1, n)


def _run_chunk(ctx: ExperimentContext, reps: list[int]) -> DetectionRateReport:
    """Run and count each repetition of `reps`, one at a time: a
    repetition's stacks are its unit of work. The true states are solved
    once per chunk, and its repetitions fill one `_rep_arrays` in turn."""
    report = DetectionRateReport(topology_ids=ctx.topology_ids, pmu_bus_ids=ctx.graph.bus_ids)
    work = _rep_arrays(ctx)
    true_states = solve_true_states(ctx, work=work[0])
    for rep in reps:
        report.record_rep(*run_rep(ctx, rep, *true_states, work=work)[1:])
    return report


def _chunk_child(ctx: ExperimentContext, reps: list[int], conn):
    """A worker process's body: run one chunk and send back (True, report)
    or (False, (the exception it raised, its formatted traceback))."""
    try:
        reply = (True, _run_chunk(ctx, reps))
    except Exception as exc:
        reply = (False, (exc, traceback.format_exc()))
    conn.send(reply)
    conn.close()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_experiment(config: ScenarioConfig) -> DetectionRateReport:
    """Full Monte Carlo sweep: every topology x 96 steps x R repetitions.

    The repetitions split into contiguous chunks, at most one per job, per
    repetition and per usable CPU. The calling process runs the first chunk,
    and each other chunk runs in one `multiprocessing.Process` that sends
    its report back over a one-way pipe, so a serial run (`jobs` = 1 or one
    repetition) is one chunk and starts no process. An error in any chunk
    stops the other processes and is raised here, a worker's exception with
    the worker's traceback as its cause; a worker that exits without
    replying raises a RuntimeError that names its repetitions and exit code.

    Deterministic for a given config (including master_seed) regardless of
    the job count, because every repetition derives its own RNG streams and
    the chunks' integer counts are summed.
    """
    ctx = build_context(config)
    reps = list(range(config.repetitions))
    # One contiguous run of repetitions per process: repetitions cost alike,
    # and each chunk solves the true states once.
    n_chunks = min(config.jobs, len(reps), _usable_cpus())
    chunks = [reps[i * len(reps) // n_chunks:(i + 1) * len(reps) // n_chunks]
              for i in range(n_chunks)]
    workers = []
    try:
        for chunk in chunks[1:]:
            receiver, sender = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(target=_chunk_child, args=(ctx, chunk, sender))
            process.start()
            workers.append((process, receiver, chunk))
            sender.close()  # so the receiver reads EOF once the worker is gone
        report = _run_chunk(ctx, chunks[0])
        for process, receiver, chunk in workers:
            try:
                ok, payload = receiver.recv()
            except EOFError:
                process.join()
                raise RuntimeError(
                    f"worker process for repetitions {chunk[0]}..{chunk[-1]} exited "
                    f"with code {process.exitcode} without sending its counts") from None
            if not ok:
                exc, worker_traceback = payload
                raise exc from RuntimeError(f"in the worker process:\n{worker_traceback}")
            report.merge(payload)
    except BaseException:
        for process, _, _ in workers:
            process.terminate()
        raise
    finally:
        for process, receiver, _ in workers:
            process.join()
            receiver.close()
    return report


# -- reporting ----------------------------------------------------------


def write_report(report: DetectionRateReport, out_dir: str | Path) -> tuple[Path, Path, Path]:
    """Write rates.csv, bus_rates.csv and confusion.csv, one row per cell of
    the report's tables; output is byte-stable per seed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ids, criteria, signals = report.topology_ids, report.criteria, report.signals

    def rate_rows(table, *axes):  # one row per (true, *axes) cell of `_rates(table)`
        return [[*cell, f"{ok / max(1, n):.6f}", f"{last / max(1, n):.6f}", n]
                for cell, ok, last, n in zip(itertools.product(ids, *axes),
                                              *(a.ravel().tolist() for a in _rates(table)))]

    tables = {
        "rates.csv": (["criterion", "signal", "correct_rate", "inconclusive_rate", "n"],
                      rate_rows(report.confusion, criteria, signals)),
        "bus_rates.csv": (["signal", "bus", "correct_rate", "abstain_rate", "n"],
                          rate_rows(report.row_votes, signals, report.pmu_bus_ids)),
        "confusion.csv": (["criterion", "signal", "detected", "count"], [
            [*cell, count] for cell, count in zip(
                itertools.product(ids, criteria, signals, ids + (INCONCLUSIVE,)),
                report.confusion.ravel().tolist())]),
    }
    for name, (header, rows) in tables.items():
        with (out_dir / name).open("w", newline="") as fh:
            csv.writer(fh).writerows([["true_topology", *header], *rows])
    return tuple(out_dir / name for name in tables)


def summarize(report: DetectionRateReport) -> list[str]:
    """Human-readable per-criterion aggregate rates."""
    correct, inconclusive, n = (a.sum(axis=0).tolist() for a in report.counts())
    return [f"{crit.upper():5s} {sig:9s}  correct {correct[c][s] / max(1, n[c][s]):6.1%}  "
            f"inconclusive {inconclusive[c][s] / max(1, n[c][s]):6.1%}  n={n[c][s]}"
            for c, crit in enumerate(report.criteria)
            for s, sig in enumerate(report.signals)]


def dump_matrices_csv(stack: np.ndarray, pmu_bus_ids, topology_ids, path: str | Path):
    """One trial's (signals, rows, topologies) stack from `difference_stacks`
    as CSV of its absolute values, the sizes `vote_stack` votes on: one row
    per μPMU bus, the ADM columns then the MDM columns, one per topology."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bus"] + [f"{m}_{q}" for m in ("adm", "mdm") for q in topology_ids])
        for bus, row in zip(pmu_bus_ids, np.hstack(np.abs(stack))):
            writer.writerow([bus] + [f"{v:.9e}" for v in row])
