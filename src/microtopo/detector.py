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
    """Library from prebuilt admittance matrices, solved as one stacked
    Newton-Raphson call over every (topology, step) case; columns follow the
    order of `ybus_by_topo`. The first failed case in (topology, step) order
    raises `LibraryError`."""
    cases = [(topo_id, t) for topo_id in ybus_by_topo for t in injections_by_step]
    snapshots = list(injections_by_step.values())
    batch = solve_newton_raphson_batch(
        np.repeat(np.stack(list(ybus_by_topo.values())), len(snapshots), axis=0),
        np.tile([inj.p for inj in snapshots], (len(ybus_by_topo), 1)),
        np.tile([inj.q for inj in snapshots], (len(ybus_by_topo), 1)),
        tol=tol, slack_index=slack_index)
    entries: dict[tuple[str, int], PowerFlowSolution] = {}
    for i, (topo_id, t) in enumerate(cases):
        try:
            entries[(topo_id, t)] = batch.solution(i, injections_by_step[t].bus_ids)
        except PowerFlowError as exc:
            raise LibraryError(
                f"power flow failed for topology {topo_id} at t={t}: {exc}"
            ) from exc
    return TopologyLibrary(topology_ids=tuple(ybus_by_topo), entries=entries)


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
