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
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import profiles
from .detector import (
    CRITERIA,
    INCONCLUSIVE,
    SIGNALS,
    DifferenceMatrices,
    compute_difference_matrices,
    detect,
    solve_library,
)
from .measurements import (
    DeviceKind,
    DeviceSpec,
    MeasurementSet,
    derive_rng_stream,
    draw_pmu_offsets,
    draw_scada_offsets,
    sample_pmu,
    sample_scada,
)
from .network import NetworkGraph, TopologyConfig, build_ybus, load_network
from .powerflow import InjectionSnapshot, solve_newton_raphson


class ConfigError(Exception):
    """Experiment configuration file is invalid."""


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
    jobs: int = os.cpu_count() or 1
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
        for c in self.criteria:
            if c not in CRITERIA:
                raise ConfigError(f"unknown criterion {c!r}")
        for s in self.signals:
            if s not in SIGNALS:
                raise ConfigError(f"unknown signal {s!r}")


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


def build_context(config: ScenarioConfig) -> ExperimentContext:
    graph, topologies = load_network(config.network)
    profs = profiles.load_profiles(graph, config.profile)
    true_inj = tuple(profiles.injections_at(graph, profs, t)
                     for t in range(profiles.N_STEPS))
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
    """One end-to-end detection trial.

    True state from true injections and the true topology; measurements
    sampled with device noise; candidate library solved from the SCADA
    readings; voting applied to the difference matrices.
    """
    config = ctx.config
    inj_true = ctx.true_injections[t]
    true_sol = solve_newton_raphson(ctx.ybus_by_topo[true_topology_id], inj_true,
                                    tol=config.tol, slack_index=ctx.graph.slack_index)

    pmu_rng = derive_rng_stream(config.master_seed, trial_index, "pmu")
    phasors = sample_pmu(true_sol, ctx.pmu_spec, pmu_rng, time_index=t,
                         offsets=ctx.pmu_offsets_by_rep[rep])
    scada_rng = derive_rng_stream(config.master_seed, trial_index, "scada")
    scada = sample_scada(inj_true, ctx.scada_spec, scada_rng, ctx.scada_buses,
                         time_index=t, offsets=ctx.scada_offsets_by_rep[rep])
    meas = MeasurementSet(phasors=phasors, scada=scada, rng_seed=config.master_seed)

    lib_inj = InjectionSnapshot.from_bus_map(
        ctx.graph, {m.bus_id: (m.p_meas, m.q_meas) for m in scada})
    library = solve_library(ctx.ybus_by_topo, {t: lib_inj}, ctx.graph.slack_index,
                            tol=config.tol)
    matrices = compute_difference_matrices(meas, library, t)

    outcomes = {(c, s): detect(matrices, c, s)
                for c in config.criteria for s in config.signals}
    return TrialResult(true_topology=true_topology_id, time_index=t,
                       trial_index=trial_index, outcomes=outcomes,
                       votes_by_signal={s: matrices.votes(s) for s in config.signals},
                       matrices=matrices if collect_matrices else None)


@dataclass
class DetectionRateReport:
    """Aggregated Monte Carlo outcome counts."""

    topology_ids: tuple[str, ...]
    pmu_bus_ids: tuple[int, ...]
    criteria: tuple[str, ...]
    signals: tuple[str, ...]
    repetitions: int
    # (true, criterion, signal) -> Counter with correct/incorrect/inconclusive
    agg: dict = field(default_factory=dict)
    # (true, criterion, signal) -> Counter over detected topology id / inconclusive
    confusion: dict = field(default_factory=dict)
    # (true, signal, bus) -> Counter with correct/incorrect/abstain
    per_bus: dict = field(default_factory=dict)

    def _counter(self, table: dict, key) -> Counter:
        if key not in table:
            table[key] = Counter()
        return table[key]

    def record(self, result: TrialResult):
        true = result.true_topology
        for (crit, sig), outcome in result.outcomes.items():
            c = self._counter(self.agg, (true, crit, sig))
            if outcome.verdict == true:
                c["correct"] += 1
            elif outcome.verdict == INCONCLUSIVE:
                c["inconclusive"] += 1
            else:
                c["incorrect"] += 1
            self._counter(self.confusion, (true, crit, sig))[outcome.verdict] += 1
        for sig, votes in result.votes_by_signal.items():
            for bus, vote in zip(self.pmu_bus_ids, votes):
                c = self._counter(self.per_bus, (true, sig, bus))
                if vote is None:
                    c["abstain"] += 1
                elif vote == true:
                    c["correct"] += 1
                else:
                    c["incorrect"] += 1

    def merge(self, other: "DetectionRateReport"):
        for key, counter in other.agg.items():
            self._counter(self.agg, key).update(counter)
        for key, counter in other.confusion.items():
            self._counter(self.confusion, key).update(counter)
        for key, counter in other.per_bus.items():
            self._counter(self.per_bus, key).update(counter)

    # -- rate accessors -------------------------------------------------

    def n_trials(self, true: str, criterion: str, signal: str) -> int:
        return sum(self.agg[(true, criterion, signal)].values())

    def correct_rate(self, true: str, criterion: str, signal: str) -> float:
        c = self.agg[(true, criterion, signal)]
        return c["correct"] / max(1, sum(c.values()))

    def inconclusive_rate(self, true: str, criterion: str, signal: str) -> float:
        c = self.agg[(true, criterion, signal)]
        return c["inconclusive"] / max(1, sum(c.values()))

    def overall_counts(self, criterion: str, signal: str) -> Counter:
        total = Counter()
        for true in self.topology_ids:
            total.update(self.agg[(true, criterion, signal)])
        return total

    def overall_correct_rate(self, criterion: str, signal: str) -> float:
        c = self.overall_counts(criterion, signal)
        return c["correct"] / max(1, sum(c.values()))


def _run_chunk(ctx: ExperimentContext, tasks: list[tuple[int, int]]) -> DetectionRateReport:
    """Run all 96 steps for each (topology position, repetition) task."""
    report = _empty_report(ctx)
    for topo_pos, rep in tasks:
        topo_id = ctx.topology_ids[topo_pos]
        for t in range(profiles.N_STEPS):
            result = run_trial(ctx, topo_id, t,
                               trial_index_for(ctx, topo_pos, t, rep), rep=rep)
            report.record(result)
    return report


def _empty_report(ctx: ExperimentContext) -> DetectionRateReport:
    return DetectionRateReport(
        topology_ids=ctx.topology_ids,
        pmu_bus_ids=ctx.graph.bus_ids,
        criteria=ctx.config.criteria,
        signals=ctx.config.signals,
        repetitions=ctx.config.repetitions)


def run_experiment(config: ScenarioConfig) -> DetectionRateReport:
    """Full Monte Carlo sweep: every topology x 96 steps x R repetitions.

    Deterministic for a given config (including master_seed) regardless of
    the job count, because every trial derives its own RNG streams.
    """
    ctx = build_context(config)
    tasks = [(pos, rep)
             for pos in range(len(ctx.topologies))
             for rep in range(config.repetitions)]
    if config.jobs <= 1 or len(tasks) == 1:
        return _run_chunk(ctx, tasks)

    report = _empty_report(ctx)
    n_chunks = min(config.jobs * 4, len(tasks))
    chunks = [tasks[i::n_chunks] for i in range(n_chunks)]
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
        for true in report.topology_ids:
            for crit in report.criteria:
                for sig in report.signals:
                    n = report.n_trials(true, crit, sig)
                    writer.writerow([true, crit, sig, "all",
                                     f"{report.correct_rate(true, crit, sig):.6f}",
                                     f"{report.inconclusive_rate(true, crit, sig):.6f}",
                                     n])
                    for bus in report.pmu_bus_ids:
                        c = report.per_bus[(true, sig, bus)]
                        nb = sum(c.values())
                        writer.writerow([true, crit, sig, bus,
                                         f"{c['correct'] / max(1, nb):.6f}",
                                         f"{c['abstain'] / max(1, nb):.6f}",
                                         nb])

    with confusion_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true_topology", "criterion", "signal", "detected", "count"])
        detected_labels = list(report.topology_ids) + [INCONCLUSIVE]
        for true in report.topology_ids:
            for crit in report.criteria:
                for sig in report.signals:
                    counter = report.confusion[(true, crit, sig)]
                    for label in detected_labels:
                        writer.writerow([true, crit, sig, label, counter.get(label, 0)])

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
