"""Voting-based topology detection from phasor measurements.

Compares measured voltage phasors against a library of power-flow states
computed for every candidate topology, forms angle and magnitude
difference matrices (one row per μPMU, one column per candidate), and
applies three voting criteria over the row minima.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import NetworkGraph, TopologyConfig, build_ybus
from .powerflow import (
    TOL,
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

    @cached_property
    def _stacked(self) -> tuple[tuple[int, ...], dict[int, int], np.ndarray]:
        """The library side of `compute_difference_matrices`, built on first
        use: its bus ids, the position of each time step, and a read-only
        (steps, signals, rows, topologies) array from `_library_stack`."""
        steps = sorted({t for _, t in self.entries})
        sols = [[self.solution(q, t) for t in steps] for q in self.topology_ids]
        stack = np.ascontiguousarray(_library_stack(  # from (topologies, steps, buses)
            np.array([[sol.vm for sol in row] for row in sols]),
            np.array([[sol.va_deg for sol in row] for row in sols])))
        stack.flags.writeable = False
        return sols[0][0].bus_ids, {t: i for i, t in enumerate(steps)}, stack


@dataclass(frozen=True)
class DifferenceMatrices:
    """One snapshot's ADM and MDM as a (signal, row, topology) stack from
    `difference_stacks`: measured minus calculated per μPMU row and
    candidate-topology column, angles in degrees, magnitudes in p.u."""

    stack: np.ndarray
    topology_ids: tuple[str, ...]

    @cached_property
    def _outcomes(self) -> dict[tuple[str, str], DetectionOutcome]:
        """Every (criterion, signal) outcome, from one `vote_stack` call."""
        verdicts, _ = vote_stack(self.stack)
        labels = self.topology_ids + (INCONCLUSIVE,)
        return {(criterion, signal): DetectionOutcome(labels[code])
                for criterion in CRITERIA
                for signal, code in zip(SIGNALS, verdicts[criterion].tolist())}


@dataclass(frozen=True)
class DetectionOutcome:
    verdict: str  # topology id or INCONCLUSIVE


def build_library(graph: NetworkGraph, topologies: list[TopologyConfig],
                  injections_by_step: dict[int, InjectionSnapshot],
                  tol: float = TOL) -> TopologyLibrary:
    """Solve the power flow for every (candidate topology, time step) pair,
    as one `solve_library_batch` call; columns follow `topologies`."""
    steps = list(injections_by_step)
    snapshots = list(injections_by_step.values())
    batch = solve_library_batch({topo.id: build_ybus(graph, topo) for topo in topologies},
                                [inj.p for inj in snapshots], [inj.q for inj in snapshots],
                                steps, graph.slack_index, tol=tol)
    entries = {(topo.id, t): batch.solution(i, j, snapshots[j].bus_ids)
               for i, topo in enumerate(topologies) for j, t in enumerate(steps)}
    return TopologyLibrary(topology_ids=tuple(topo.id for topo in topologies),
                           entries=entries)


def solve_library_batch(ybus_by_topo: dict[str, np.ndarray], p, q, steps, slack_index: int,
                        tol: float = TOL) -> BatchPowerFlow:
    """Every (topology, step) case of `ybus_by_topo` and the (..., steps,
    buses) injections `p`, `q` as one `solve_newton_raphson_batch` grid,
    indexed [topology, step, ...], any leading axes of the injections joined
    into its step axis, outermost first. `steps` names the steps of the last
    step axis. The first failed case in (leading axes, topology, step) order
    raises `LibraryError`, naming its topology and step."""
    p, q = np.asarray(p), np.asarray(q)
    batch = solve_newton_raphson_batch(np.stack(list(ybus_by_topo.values())),
                                       p.reshape(-1, p.shape[-1]), q.reshape(-1, q.shape[-1]),
                                       tol=tol, slack_index=slack_index)
    lead = p.shape[:-1]  # the leading axes and the steps
    failed = np.argwhere(~np.moveaxis(batch.converged.reshape(-1, *lead), 0, -2))
    if failed.size:
        *outer, topo, step = failed[0].tolist()
        err = batch.error(topo, int(np.ravel_multi_index((*outer, step), lead)))
        raise LibraryError(f"power flow failed for topology {list(ybus_by_topo)[topo]} "
                           f"at t={steps[step]}: {err}") from err
    return batch


def compute_difference_matrices(measurements, library: TopologyLibrary,
                                t: int) -> DifferenceMatrices:
    """ADM/MDM at time step t for one measurement set whose μPMUs are the
    library's buses, in id order (else `LibraryError`): the stack
    `difference_stacks` gives, with the library side stacked once and kept
    on the library, so a request stacks only its snapshot."""
    phasors = measurements.phasors
    topo_ids = library.topology_ids
    bus_ids, step, states = library._stacked
    if tuple(phasors.bus_ids) != bus_ids:
        raise LibraryError(f"μPMU buses {list(phasors.bus_ids)} are not the library's "
                           f"buses {list(bus_ids)}")
    if t not in step:
        raise KeyError(f"no library entry for topology {topo_ids[0]} at t={t}")
    return DifferenceMatrices(_measured_stack(phasors.vm, phasors.va_deg)[..., None]
                              - states[step[t]], topo_ids)


def difference_stacks(vm: np.ndarray, va_deg: np.ndarray, lib_vm: np.ndarray,
                      lib_va_deg: np.ndarray) -> np.ndarray:
    """Signed ADM and MDM, measured minus library, of many trials at once,
    as one (..., signals, rows, topologies) stack: signals in `SIGNALS`
    order, so [..., 0, :, :] is the ADM and [..., 1, :, :] the MDM, and one
    row per bus. Its helpers `_measured_stack` and `_library_stack` decide
    this layout, in one place; `vote_stack` votes it.

    `vm`/`va_deg` are measured (..., buses) arrays and `lib_vm`/`lib_va_deg`
    the (topologies, ..., buses) library states, all with the buses in id
    order; the leading axes broadcast, so one snapshot (buses,) meets a
    (topologies, buses) library, and the (true topologies, steps, buses)
    readings of a repetition meet its (topologies, steps, buses) library.
    """
    return _measured_stack(vm, va_deg)[..., None] - _library_stack(lib_vm, lib_va_deg)


def _measured_stack(vm: np.ndarray, va_deg: np.ndarray) -> np.ndarray:
    """Measured (..., buses) arrays as one (..., signals, rows) array, stored
    with the buses outermost. A stack takes the layout of its sides, and
    `vote_stack` runs slower on the rows-innermost one of a plain `np.array`:
    300-340 µs against 160-180 µs on a repetition's (5, 96, 2, 5, 5) stack
    (best of 9 x 200 calls, 2-core Xeon, numpy 2.4)."""
    m = vm.ndim  # copied as (buses, signals, ...), then viewed as (..., signals, rows)
    return np.array((va_deg, vm)).transpose(m, 0, *range(1, m)).copy().transpose(
        *range(2, m + 1), 1, 0)


def _library_stack(lib_vm: np.ndarray, lib_va_deg: np.ndarray) -> np.ndarray:
    """(topologies, ..., buses) library states as one (..., signals, rows,
    topologies) array: their `_measured_stack`, the topologies moved last."""
    stack = _measured_stack(lib_vm, lib_va_deg)
    return stack.transpose(*range(1, stack.ndim), 0)


def detect(matrices: DifferenceMatrices, criterion: str, signal: str) -> DetectionOutcome:
    """Verdict of one criterion on one signal. All six (criterion, signal)
    outcomes come from one `vote_stack` call, made on first use and kept on
    `matrices`."""
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    if signal not in SIGNALS:
        raise ValueError(f"unknown signal {signal!r}")
    return matrices._outcomes[criterion, signal]


def vote_stack(stack: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """RMV, ARMV and ORMV over a (..., rows, topologies) stack of ADM or MDM
    matrices: the one place the voting and tie rules are coded. Any leading
    axes are trials and signals, such as the (true topologies, steps,
    signals) of a repetition's `difference_stacks`.

    Each row votes for the topology of its minimum |residual|. RMV takes the
    majority of the row votes, ORMV a unanimous row vote, and ARMV the
    smallest column mean of |residual|, so a stack and its negation vote
    alike; the caller's stack is left as it is. Ties:
    - a row whose minimum is tied abstains (it cannot tell the candidates
      apart, as for the slack bus, whose state is the same in every
      topology);
    - an RMV vote-count tie, or no informative row, is inconclusive;
    - ORMV needs all informative rows, and at least one, to agree;
    - an exact ARMV column-mean tie is inconclusive.

    Returns the verdict codes per criterion, each a (...) array, and the
    (..., rows) row votes. A code is a topology column, or the number of
    topologies for an inconclusive verdict or an abstaining row. A stack
    without rows has nothing to vote on and raises `ValueError`.

    The stack's layout picks the route to the row votes and their (..., rows,
    topologies) mask of wins, which one reduction counts: a snapshot's
    stack, topologies contiguous, takes `_unique_argmin` and compares its
    votes with each topology; a block of repetitions' (`scenario.classify`),
    topologies strided, takes `_unique_minima`, reductions over that axis,
    which `argmin` would copy.
    Sizes must be finite: on NaN the routes differ (`argmin` votes a lone
    NaN, the reductions tie); a failed library case raises `LibraryError`.
    """
    *_, rows, n_topo = stack.shape
    if not rows:
        raise ValueError("a stack to vote needs at least one row")
    stack = np.abs(stack)
    # Each criterion is the unique argmin of one key per topology: RMV its
    # row-vote count negated, ARMV its column mean (add.reduce / rows rounds
    # as .mean does), ORMV whether it got no row vote, unique only when one
    # topology got every informative vote. With no informative row (only
    # possible with two or more topologies) every count is 0, a tie, so RMV
    # and ORMV are inconclusive.
    mean = np.add.reduce(stack, -2) / rows
    if contiguous := stack.strides[-1] == stack.itemsize:
        votes = _unique_argmin(stack, n_topo)
        wins = votes[..., None] == np.arange(n_topo)  # an abstention, n_topo, wins none
    else:
        votes, wins = _unique_minima(stack, n_topo)
    counts = np.add.reduce(wins, -2)  # each topology's row votes
    keys = (-counts, mean, counts == 0)  # laid out as the stack's topology axis
    codes = (_unique_argmin(np.array(keys), n_topo) if contiguous
             else [_unique_minima(key, n_topo)[0] for key in keys])
    return {"rmv": codes[0], "armv": codes[1], "ormv": codes[2]}, votes


def _unique_argmin(a: np.ndarray, tied: int) -> np.ndarray:
    """Argmin over the last axis, or `tied` where the minimum is not unique
    (its first and last position differ), by two `argmin`s, which loop row
    by row: the route for a contiguous last axis."""
    first = a.argmin(-1)
    np.putmask(first, first + a[..., ::-1].argmin(-1) != a.shape[-1] - 1, tied)
    return first


def _unique_minima(a: np.ndarray, tied: int) -> tuple[np.ndarray, np.ndarray]:
    """`_unique_argmin`, and the (..., n) mask of each unique minimum, by
    reductions over whole contiguous slabs: the route for a strided last
    axis, which `argmin` would copy first. Both only compare values, so
    they agree wherever `a` is finite."""
    n = a.shape[-1]
    small = np.min_scalar_type(n)
    wins = a == np.minimum.reduce(a, -1, keepdims=True)
    unique = np.add.reduce(wins, -1, dtype=small) == 1
    wins &= unique[..., None]
    index = np.add.reduce(wins * np.arange(n, dtype=small), -1, dtype=small)
    return np.where(unique, index, np.intp(tied)), wins
