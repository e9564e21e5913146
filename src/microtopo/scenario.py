"""Monte Carlo detection-rate experiments.

Plays every candidate topology as the true one across a full day of
15-minute steps, with repeated fresh noise draws, and aggregates correct /
incorrect / inconclusive rates per criterion, signal, and μPMU bus, plus a
confusion matrix over (true, detected) topology pairs.
"""
from __future__ import annotations

import concurrent.futures
import csv
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import profiles
from .detector import (
    CRITERIA,
    INCONCLUSIVE,
    SIGNALS,
    DifferenceMatrices,
    detect,
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
from .network import NetworkGraph, TopologyConfig, build_ybus, bus_positions, load_network
from .powerflow import InjectionSnapshot, solve_newton_raphson_batch
# Not called here since trials solve in stacks, but kept importable from this
# module: perfbench/test_perfbench.py checks through this name that the layer
# tracer rebinds a function imported by another module.
from .powerflow import solve_newton_raphson  # noqa: F401


class ConfigError(Exception):
    """Experiment configuration file is invalid."""


def _usable_cpus() -> int:
    """CPUs this process may run on, which under an affinity mask (taskset,
    container CPU sets) can be fewer than the machine has."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


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
    criteria: tuple[str, ...] = CRITERIA
    signals: tuple[str, ...] = SIGNALS
    jobs: int = field(default_factory=_usable_cpus)
    tol: float = 1e-8

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        for name in ("pmu_sigma", "pmu_accuracy", "scada_sigma", "scada_accuracy"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be >= 0")
        for key, kind, known in (("criteria", "criterion", CRITERIA),
                                 ("signals", "signal", SIGNALS)):
            names = getattr(self, key)
            if not names:
                raise ConfigError(f"{key} must name at least one {kind}")
            for i, name in enumerate(names):
                if name not in known:
                    raise ConfigError(f"unknown {kind} {name!r}")
                if name in names[:i]:
                    raise ConfigError(f"{kind} {name!r} is listed twice")


_CONFIG_PARSERS = {
    "network": str,
    "profile": str,
    "pmu_sigma": float,
    "pmu_accuracy": float,
    "scada_sigma": float,
    "scada_accuracy": float,
    "repetitions": int,
    "master_seed": int,
    "criteria": lambda v: tuple(x.strip() for x in v.split(",") if x.strip()),
    "signals": lambda v: tuple(x.strip() for x in v.split(",") if x.strip()),
    "jobs": int,
    "tol": float,
}


def _resolve_input(name: str, base_dir: Path) -> str:
    """Resolve a file reference against the config directory, then the
    bundled data directory."""
    candidate = Path(name)
    if candidate.is_absolute() and candidate.exists():
        return str(candidate)
    local = base_dir / candidate
    if local.exists():
        return str(local)
    bundled = fixture_path(name)
    if bundled.exists():
        return str(bundled)
    raise ConfigError(f"cannot locate input file {name!r}")


def load_config(path: str | Path, **overrides) -> ScenarioConfig:
    """Parse a key = value experiment config file, applying overrides."""
    path = Path(path)
    values: dict = {}
    try:
        text = path.read_text()
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
        try:
            values[key] = _CONFIG_PARSERS[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    values.update({k: v for k, v in overrides.items() if v is not None})
    if "network" not in values:
        raise ConfigError(f"{path}: missing required key 'network'")
    values["network"] = _resolve_input(values["network"], path.parent)
    if values.get("profile", "default") != "default":
        values["profile"] = _resolve_input(values["profile"], path.parent)
    return ScenarioConfig(**values)


@dataclass(frozen=True)
class ExperimentContext:
    """Everything shared by all trials of one experiment run."""

    config: ScenarioConfig
    graph: NetworkGraph
    topologies: tuple[TopologyConfig, ...]
    ybus_by_topo: dict
    true_injections: tuple[InjectionSnapshot, ...]
    scada_buses: tuple[int, ...]
    pmu_spec: DeviceSpec
    scada_spec: DeviceSpec
    # One offset draw per repetition: each repetition models an independent
    # experiment run, and systematic device offsets are fixed within a run.
    pmu_offsets_by_rep: tuple
    scada_offsets_by_rep: tuple

    @property
    def topology_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.topologies)

    @property
    def pmu_bus_ids(self) -> tuple[int, ...]:
        """The μPMU buses in ADM/MDM row order: sorted by bus id."""
        return tuple(sorted(self.graph.bus_ids))


def build_context(config: ScenarioConfig) -> ExperimentContext:
    graph, topologies = load_network(config.network)
    profs = profiles.load_profiles(graph, config.profile)
    true_inj = profiles.injections_by_step(graph, profs)
    scada_buses = profiles.profile_buses(profs)
    pmu_spec = DeviceSpec(kind=DeviceKind.MICRO_PMU, sigma=config.pmu_sigma,
                          accuracy=config.pmu_accuracy,
                          nominal_voltage=graph.slack_bus.base_voltage)
    scada_spec = DeviceSpec(kind=DeviceKind.SCADA, sigma=config.scada_sigma,
                            accuracy=config.scada_accuracy)
    # Trial index 0 is reserved for offset draws; trials count from 1.
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
        true_injections=true_inj,
        scada_buses=scada_buses, pmu_spec=pmu_spec, scada_spec=scada_spec,
        pmu_offsets_by_rep=pmu_offsets, scada_offsets_by_rep=scada_offsets)


@dataclass(frozen=True)
class TrialResult:
    true_topology: str
    time_index: int
    trial_index: int
    outcomes: dict
    votes_by_signal: dict
    matrices: DifferenceMatrices | None = None


def trial_index_for(ctx: ExperimentContext, topo_pos: int, t: int, rep: int) -> int:
    r = ctx.config.repetitions
    return 1 + (topo_pos * profiles.N_STEPS + t) * r + rep


def run_trial(ctx: ExperimentContext, true_topology_id: str, t: int,
              trial_index: int, rep: int = 0,
              collect_matrices: bool = False) -> TrialResult:
    """One end-to-end detection trial: the task path over a single step,
    voted by the single-matrix `detect`."""
    true_vm, true_va = _solve_true_states(ctx, true_topology_id, [t])
    adm, mdm = _task_stacks(ctx, rep, [t], [trial_index], true_vm, true_va)
    matrices = DifferenceMatrices(adm=adm[0], mdm=mdm[0], pmu_bus_ids=ctx.pmu_bus_ids,
                                  topology_ids=ctx.topology_ids)
    config = ctx.config
    return TrialResult(
        true_topology=true_topology_id, time_index=t, trial_index=trial_index,
        outcomes={(c, s): detect(matrices, c, s)
                  for c in config.criteria for s in config.signals},
        votes_by_signal={s: matrices.votes(s) for s in config.signals},
        matrices=matrices if collect_matrices else None)


def _injection_table(ctx: ExperimentContext, steps) -> tuple[np.ndarray, np.ndarray]:
    """True (p, q) injections as (steps, buses) arrays."""
    return (np.array([ctx.true_injections[t].p for t in steps]),
            np.array([ctx.true_injections[t].q for t in steps]))


def _solve_true_states(ctx: ExperimentContext, topology_id: str,
                       steps) -> tuple[np.ndarray, np.ndarray]:
    """True (vm, va_deg) of one topology at `steps`, as (steps, buses)
    arrays from one stacked power flow; the first failed step raises its
    error."""
    ybus = ctx.ybus_by_topo[topology_id]
    p, q = _injection_table(ctx, steps)
    batch = solve_newton_raphson_batch(
        np.broadcast_to(ybus, (len(steps),) + ybus.shape), p, q,
        tol=ctx.config.tol, slack_index=ctx.graph.slack_index)
    failed = np.flatnonzero(~batch.converged)
    if failed.size:
        raise batch.error(failed[0])
    return batch.vm, batch.va_deg


def _task_stacks(ctx: ExperimentContext, rep: int, steps, trial_indices,
                 true_vm: np.ndarray, true_va: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ADM and MDM stacks, (trials, rows, topologies), of the trials of one
    repetition at `steps`, trial i having index trial_indices[i] and true
    state (true_vm[i], true_va[i]).

    Each trial samples its μPMU and SCADA readings from its own two
    streams; the candidate library of every trial is solved from its SCADA
    readings in one stacked power flow. A case's power flow does not depend
    on the other cases of its stack, so the results are those of solving
    each trial alone.
    """
    config = ctx.config
    graph = ctx.graph
    pmu_vm, pmu_va = pmu_readings(
        true_vm, true_va, ctx.pmu_spec,
        [derive_rng_stream(config.master_seed, i, "pmu") for i in trial_indices],
        ctx.pmu_offsets_by_rep[rep])
    p, q = _injection_table(ctx, steps)
    rows = bus_positions(graph.bus_ids, ctx.scada_buses)
    scada_p, scada_q = scada_readings(
        p[:, rows], q[:, rows], ctx.scada_spec,
        [derive_rng_stream(config.master_seed, i, "scada") for i in trial_indices],
        ctx.scada_offsets_by_rep[rep])
    lib_p = np.zeros_like(p)
    lib_q = np.zeros_like(q)
    lib_p[:, rows] = scada_p
    lib_q[:, rows] = scada_q
    library = solve_library_batch(ctx.ybus_by_topo, lib_p, lib_q, steps,
                                  graph.slack_index, tol=config.tol)
    shape = (len(ctx.topologies), len(steps), len(graph.bus_ids))
    return difference_stacks(pmu_vm, pmu_va, library.vm.reshape(shape),
                             library.va_deg.reshape(shape), graph.bus_ids)


ROW_OUTCOMES = ("correct", "incorrect", "abstain")


@dataclass
class DetectionRateReport:
    """Aggregated Monte Carlo outcome counts, as integer arrays indexed by
    position in `topology_ids`, `criteria`, `signals` and `pmu_bus_ids`."""

    topology_ids: tuple[str, ...]
    pmu_bus_ids: tuple[int, ...]  # sorted by bus id, like the ADM/MDM rows
    criteria: tuple[str, ...]
    signals: tuple[str, ...]
    # (true, criterion, signal, detected); detected position
    # len(topology_ids) counts inconclusive verdicts
    confusion: np.ndarray = field(init=False)
    # (true, signal, row, outcome), outcomes in ROW_OUTCOMES order
    row_votes: np.ndarray = field(init=False)

    def __post_init__(self):
        n_topo = len(self.topology_ids)
        self.confusion = np.zeros(
            (n_topo, len(self.criteria), len(self.signals), n_topo + 1), dtype=np.int64)
        self.row_votes = np.zeros(
            (n_topo, len(self.signals), len(self.pmu_bus_ids), len(ROW_OUTCOMES)),
            dtype=np.int64)

    def record_task(self, true_pos: int, stacks: dict[str, np.ndarray]):
        """Count the verdicts and row votes of a stack of trials whose true
        topology is `topology_ids[true_pos]`; `stacks` maps each signal to
        its (trials, rows, topologies) difference matrices."""
        n_topo = len(self.topology_ids)
        for s, signal in enumerate(self.signals):
            verdicts, votes = vote_stack(stacks[signal])
            for c, criterion in enumerate(self.criteria):
                self.confusion[true_pos, c, s] += np.bincount(verdicts[criterion],
                                                              minlength=n_topo + 1)
            outcome = np.where(votes == true_pos, 0, np.where(votes == n_topo, 2, 1))
            self.row_votes[true_pos, s] += np.count_nonzero(
                outcome[:, :, None] == np.arange(len(ROW_OUTCOMES)), axis=0)

    def merge(self, other: "DetectionRateReport"):
        self.confusion += other.confusion
        self.row_votes += other.row_votes

    # -- rate accessors -------------------------------------------------

    def _cell(self, true: str, criterion: str, signal: str) -> np.ndarray:
        return self.confusion[self.topology_ids.index(true),
                              self.criteria.index(criterion), self.signals.index(signal)]

    def n_trials(self, true: str, criterion: str, signal: str) -> int:
        return int(self._cell(true, criterion, signal).sum())

    def correct_rate(self, true: str, criterion: str, signal: str) -> float:
        cell = self._cell(true, criterion, signal)
        return int(cell[self.topology_ids.index(true)]) / max(1, int(cell.sum()))

    def inconclusive_rate(self, true: str, criterion: str, signal: str) -> float:
        cell = self._cell(true, criterion, signal)
        return int(cell[-1]) / max(1, int(cell.sum()))

    def overall_counts(self, criterion: str, signal: str) -> dict[str, int]:
        cells = self.confusion[:, self.criteria.index(criterion), self.signals.index(signal)]
        correct = int(np.trace(cells))
        inconclusive = int(cells[:, -1].sum())
        return {"correct": correct, "incorrect": int(cells.sum()) - correct - inconclusive,
                "inconclusive": inconclusive}

    def overall_correct_rate(self, criterion: str, signal: str) -> float:
        c = self.overall_counts(criterion, signal)
        return c["correct"] / max(1, sum(c.values()))


def _run_chunk(ctx: ExperimentContext, tasks: list[tuple[int, int]]) -> DetectionRateReport:
    """Run all 96 steps for each (topology position, repetition) task, one
    task at a time: a task's stacks are its unit of work. The true states of
    a topology are solved once per chunk and shared by its repetitions."""
    report = _empty_report(ctx)
    steps = range(profiles.N_STEPS)
    true_states = {}  # topology position -> (vm, va_deg)
    for topo_pos, rep in tasks:
        if topo_pos not in true_states:
            true_states[topo_pos] = _solve_true_states(ctx, ctx.topology_ids[topo_pos], steps)
        adm, mdm = _task_stacks(ctx, rep, steps,
                                [trial_index_for(ctx, topo_pos, t, rep) for t in steps],
                                *true_states[topo_pos])
        report.record_task(topo_pos, {"angle": adm, "magnitude": mdm})
    return report


def _empty_report(ctx: ExperimentContext) -> DetectionRateReport:
    return DetectionRateReport(
        topology_ids=ctx.topology_ids,
        pmu_bus_ids=ctx.pmu_bus_ids,
        criteria=ctx.config.criteria,
        signals=ctx.config.signals)


def run_experiment(config: ScenarioConfig) -> DetectionRateReport:
    """Full Monte Carlo sweep: every topology x 96 steps x R repetitions.

    Deterministic for a given config (including master_seed) regardless of
    the job count, because every trial derives its own RNG streams and the
    chunks' integer counts are summed.
    """
    ctx = build_context(config)
    tasks = [(pos, rep)
             for pos in range(len(ctx.topologies))
             for rep in range(config.repetitions)]
    if config.jobs <= 1 or len(tasks) == 1:
        return _run_chunk(ctx, tasks)

    report = _empty_report(ctx)
    # One contiguous chunk of the topology-major task list per worker: tasks
    # cost alike, and a chunk spans few topologies, so it solves few
    # true-state stacks.
    n_chunks = min(config.jobs, len(tasks))
    chunks = [tasks[i * len(tasks) // n_chunks:(i + 1) * len(tasks) // n_chunks]
              for i in range(n_chunks)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
        for partial in pool.map(_run_chunk, [ctx] * len(chunks), chunks):
            report.merge(partial)
    return report


# -- reporting ----------------------------------------------------------


def write_report(report: DetectionRateReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write rates.csv and confusion.csv; output is byte-stable per seed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rates_path = out_dir / "rates.csv"
    confusion_path = out_dir / "confusion.csv"

    with rates_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true_topology", "criterion", "signal", "bus",
                         "correct_rate", "inconclusive_rate", "n"])
        for q, true in enumerate(report.topology_ids):
            for crit in report.criteria:
                for s, sig in enumerate(report.signals):
                    n = report.n_trials(true, crit, sig)
                    writer.writerow([true, crit, sig, "all",
                                     f"{report.correct_rate(true, crit, sig):.6f}",
                                     f"{report.inconclusive_rate(true, crit, sig):.6f}",
                                     n])
                    for bus, (correct, incorrect, abstain) in zip(
                            report.pmu_bus_ids, report.row_votes[q, s].tolist()):
                        nb = correct + incorrect + abstain
                        writer.writerow([true, crit, sig, bus,
                                         f"{correct / max(1, nb):.6f}",
                                         f"{abstain / max(1, nb):.6f}",
                                         nb])

    with confusion_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true_topology", "criterion", "signal", "detected", "count"])
        detected_labels = list(report.topology_ids) + [INCONCLUSIVE]
        for q, true in enumerate(report.topology_ids):
            for c, crit in enumerate(report.criteria):
                for s, sig in enumerate(report.signals):
                    for label, count in zip(detected_labels,
                                            report.confusion[q, c, s].tolist()):
                        writer.writerow([true, crit, sig, label, count])

    return rates_path, confusion_path


def summarize(report: DetectionRateReport) -> list[str]:
    """Human-readable per-criterion aggregate rates."""
    lines = []
    for crit in report.criteria:
        for sig in report.signals:
            counts = report.overall_counts(crit, sig)
            n = max(1, sum(counts.values()))
            lines.append(
                f"{crit.upper():5s} {sig:9s}  correct {counts['correct'] / n:6.1%}  "
                f"inconclusive {counts['inconclusive'] / n:6.1%}  n={sum(counts.values())}")
    return lines


def dump_matrices_csv(matrices: DifferenceMatrices, path: str | Path):
    """ADM and MDM side by side: one row per μPMU bus, columns per topology."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["bus"]
        header += [f"adm_{q}" for q in matrices.topology_ids]
        header += [f"mdm_{q}" for q in matrices.topology_ids]
        writer.writerow(header)
        for i, bus in enumerate(matrices.pmu_bus_ids):
            row = [bus]
            row += [f"{v:.9e}" for v in matrices.adm[i]]
            row += [f"{v:.9e}" for v in matrices.mdm[i]]
            writer.writerow(row)
