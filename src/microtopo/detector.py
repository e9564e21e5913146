"""Voting-based topology detection from phasor measurements.

Compares measured voltage phasors against a library of power-flow states
computed for every candidate topology, forms angle and magnitude
difference matrices (one row per μPMU, one column per candidate), and
applies three voting criteria over the row minima.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import NetworkGraph, TopologyConfig, bus_positions, build_ybus
from .powerflow import (
    BatchPowerFlow,
    InjectionSnapshot,
    PowerFlowError,
    PowerFlowSolution,
    solve_newton_raphson_batch,
)

CRITERIA = ("rmv", "armv", "ormv")
SIGNALS = ("angle", "magnitude")
INCONCLUSIVE = "inconclusive"


class LibraryError(PowerFlowError):
    """A library power flow failed for a specific (topology, time) pair."""


@dataclass(frozen=True)
class TopologyLibrary:
    """Power-flow state per candidate topology per time step."""

    topology_ids: tuple[str, ...]
    entries: dict[tuple[str, int], PowerFlowSolution]

    def solution(self, topology_id: str, t: int) -> PowerFlowSolution:
        try:
            return self.entries[(topology_id, t)]
        except KeyError:
            raise KeyError(f"no library entry for topology {topology_id} at t={t}") from None


@dataclass(frozen=True)
class DifferenceMatrices:
    """|measured - calculated| per μPMU row and candidate-topology column.

    adm holds angle deltas in degrees, mdm magnitude deltas in p.u.
    """

    adm: np.ndarray
    mdm: np.ndarray
    pmu_bus_ids: tuple[int, ...]
    topology_ids: tuple[str, ...]
    _votes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def matrix(self, signal: str) -> np.ndarray:
        if signal == "angle":
            return self.adm
        if signal == "magnitude":
            return self.mdm
        raise ValueError(f"unknown signal {signal!r}")

    def votes(self, signal: str) -> tuple[str | None, ...]:
        """Per-row votes of one signal, computed on first use and shared by
        RMV, ORMV and the per-bus tallies."""
        if signal not in self._votes:
            self._votes[signal] = row_votes(self.matrix(signal), self.topology_ids)
        return self._votes[signal]


@dataclass(frozen=True)
class DetectionOutcome:
    criterion: str
    signal: str
    verdict: str  # topology id or INCONCLUSIVE
    per_row_votes: tuple[str | None, ...] = ()  # None = row abstained (tied)


def build_library(graph: NetworkGraph, topologies: list[TopologyConfig],
                  injections_by_step: dict[int, InjectionSnapshot],
                  tol: float = 1e-8) -> TopologyLibrary:
    """Solve the power flow for every (candidate topology, time step) pair."""
    return solve_library({topo.id: build_ybus(graph, topo) for topo in topologies},
                         injections_by_step, graph.slack_index, tol=tol)


def solve_library(ybus_by_topo: dict[str, np.ndarray],
                  injections_by_step: dict[int, InjectionSnapshot],
                  slack_index: int, tol: float = 1e-8) -> TopologyLibrary:
    """Library from prebuilt admittance matrices (`solve_library_batch`);
    columns follow the order of `ybus_by_topo`."""
    steps = list(injections_by_step)
    snapshots = list(injections_by_step.values())
    batch = solve_library_batch(ybus_by_topo, [inj.p for inj in snapshots],
                                [inj.q for inj in snapshots], steps, slack_index, tol=tol)
    cases = [(topo_id, t) for topo_id in ybus_by_topo for t in steps]
    entries = {case: batch.solution(i, snapshots[i % len(steps)].bus_ids)
               for i, case in enumerate(cases)}
    return TopologyLibrary(topology_ids=tuple(ybus_by_topo), entries=entries)


def solve_library_batch(ybus_by_topo: dict[str, np.ndarray], p, q, steps,
                        slack_index: int, tol: float = 1e-8) -> BatchPowerFlow:
    """Every (topology, step) case as one stacked Newton-Raphson call.

    `p` and `q` are (steps, buses) injections. Case i is topology
    i // len(steps) and step i % len(steps), so `vm`/`va_deg` reshape to
    (topology, step, bus). The first failed case in (topology, step) order
    raises `LibraryError`.
    """
    n_step = len(steps)
    batch = solve_newton_raphson_batch(
        np.repeat(np.stack(list(ybus_by_topo.values())), n_step, axis=0),
        np.tile(p, (len(ybus_by_topo), 1)), np.tile(q, (len(ybus_by_topo), 1)),
        tol=tol, slack_index=slack_index)
    failed = np.flatnonzero(~batch.converged)
    if failed.size:
        topo, step = divmod(int(failed[0]), n_step)
        err = batch.error(failed[0])
        raise LibraryError(f"power flow failed for topology {list(ybus_by_topo)[topo]} "
                           f"at t={steps[step]}: {err}") from err
    return batch


def compute_difference_matrices(measurements, library: TopologyLibrary,
                                t: int) -> DifferenceMatrices:
    """ADM/MDM at time step t for one measurement set; rows sorted by bus id."""
    phasors = measurements.phasors
    topo_ids = library.topology_ids
    solutions = [library.solution(q, t) for q in topo_ids]
    order = np.argsort(phasors.bus_ids, kind="stable")
    bus_ids = tuple(phasors.bus_ids[i] for i in order)
    try:
        rows = bus_positions(solutions[0].bus_ids, bus_ids)
    except KeyError as exc:
        raise LibraryError(f"μPMU bus {exc.args[0]} missing from library solution "
                           f"for topology {topo_ids[0]} at t={t}") from None
    va_calc = np.stack([sol.va_deg for sol in solutions], axis=1)[rows]
    vm_calc = np.stack([sol.vm for sol in solutions], axis=1)[rows]
    return DifferenceMatrices(adm=np.abs(phasors.va_deg[order, None] - va_calc),
                              mdm=np.abs(phasors.vm[order, None] - vm_calc),
                              pmu_bus_ids=bus_ids, topology_ids=topo_ids)


def difference_stacks(vm: np.ndarray, va_deg: np.ndarray, lib_vm: np.ndarray,
                      lib_va_deg: np.ndarray, bus_ids) -> tuple[np.ndarray, np.ndarray]:
    """ADM and MDM of many trials at once, as (trials, rows, topologies)
    stacks with rows sorted by bus id.

    `vm`/`va_deg` are measured (trials, buses) arrays and `lib_vm`/
    `lib_va_deg` the (topologies, trials, buses) library states, all by
    position in `bus_ids`.
    """
    order = np.argsort(bus_ids, kind="stable")
    va_calc = lib_va_deg[:, :, order].transpose(1, 2, 0)
    vm_calc = lib_vm[:, :, order].transpose(1, 2, 0)
    return (np.abs(va_deg[:, order, None] - va_calc),
            np.abs(vm[:, order, None] - vm_calc))


def row_votes(matrix: np.ndarray, topology_ids: tuple[str, ...]) -> tuple[str | None, ...]:
    """Argmin vote per row; a row whose minimum is tied abstains (None).

    A tied row cannot discriminate between candidates, which happens
    systematically for the slack bus (its calculated state is identical
    under every topology).
    """
    n_min = np.count_nonzero(matrix == matrix.min(axis=1, keepdims=True), axis=1)
    return tuple(topology_ids[w] if n == 1 else None
                 for w, n in zip(matrix.argmin(axis=1).tolist(), n_min.tolist()))


def detect_rmv(matrices: DifferenceMatrices, signal: str) -> DetectionOutcome:
    """Row-minimum voting: majority over per-row argmin votes.

    A tie in the vote count (or no informative row) is inconclusive.
    """
    votes = matrices.votes(signal)
    counts: dict[str, int] = {}
    for v in votes:
        if v is not None:
            counts[v] = counts.get(v, 0) + 1
    if not counts:
        return DetectionOutcome("rmv", signal, INCONCLUSIVE, votes)
    best = max(counts.values())
    leaders = [q for q, c in counts.items() if c == best]
    verdict = leaders[0] if len(leaders) == 1 else INCONCLUSIVE
    return DetectionOutcome("rmv", signal, verdict, votes)


def detect_armv(matrices: DifferenceMatrices, signal: str) -> DetectionOutcome:
    """Average-row-minimum voting: argmin over per-topology column means."""
    matrix = matrices.matrix(signal)
    col_means = matrix.mean(axis=0)
    verdict = matrices.topology_ids[int(np.argmin(col_means))]
    return DetectionOutcome("armv", signal, verdict, ())


def detect_ormv(matrices: DifferenceMatrices, signal: str) -> DetectionOutcome:
    """Overall-row-minimum voting: conclusive only on unanimous row votes."""
    votes = matrices.votes(signal)
    informative = [v for v in votes if v is not None]
    if informative and all(v == informative[0] for v in informative):
        return DetectionOutcome("ormv", signal, informative[0], votes)
    return DetectionOutcome("ormv", signal, INCONCLUSIVE, votes)


def detect(matrices: DifferenceMatrices, criterion: str, signal: str) -> DetectionOutcome:
    if criterion == "rmv":
        return detect_rmv(matrices, signal)
    if criterion == "armv":
        return detect_armv(matrices, signal)
    if criterion == "ormv":
        return detect_ormv(matrices, signal)
    raise ValueError(f"unknown criterion {criterion!r}")


def vote_stack(stack: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """All three criteria over a (trials, rows, topologies) stack of ADM or
    MDM matrices, with the rules of `detect`.

    Returns the verdict codes per criterion, each a (trials,) array, and the
    (trials, rows) row votes. A code is a topology column, or the number of
    topologies for an inconclusive verdict or an abstaining row.
    """
    n_trial, _, n_topo = stack.shape
    n_min = np.count_nonzero(stack == stack.min(axis=2, keepdims=True), axis=2)
    votes = np.where(n_min == 1, stack.argmin(axis=2), n_topo)
    counts = np.count_nonzero(votes[:, :, None] == np.arange(n_topo), axis=1)
    informative = counts.sum(axis=1)
    best = counts.max(axis=1)
    leader = counts.argmax(axis=1)
    n_leaders = np.count_nonzero(counts == best[:, None], axis=1)
    inconclusive = np.full(n_trial, n_topo)
    verdicts = {
        "rmv": np.where((informative > 0) & (n_leaders == 1), leader, inconclusive),
        "armv": stack.mean(axis=1).argmin(axis=1),
        "ormv": np.where((informative > 0) & (best == informative), leader, inconclusive),
    }
    return verdicts, votes
