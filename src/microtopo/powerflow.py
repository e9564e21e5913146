"""AC power flow for a slack + PQ-bus network in per-unit.

The production solver is a polar Newton-Raphson with flat start that reuses
each admittance matrix's flat-start Jacobian while it converges fast
enough. A Gauss-Seidel-style successive-substitution solver is kept
alongside as an independent cross-check; the test suite requires both to
agree.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .network import NetworkGraph


# Max mismatch (p.u.) at which a solve has converged, for every solve of the
# experiment. Fixed, not configurable: the exact tie rule of
# `detector.vote_stack` holds only while solved states are this close to
# the true ones (README, "How it works", step 5).
TOL = 1e-8


class PowerFlowError(Exception):
    """Base class for power flow failures."""


class DivergedError(PowerFlowError):
    """Solver did not reach the mismatch tolerance within max_iter."""

    def __init__(self, message: str, last_mismatch: float):
        super().__init__(message)
        self.last_mismatch = last_mismatch

    def __reduce__(self):
        return type(self), (str(self), self.last_mismatch)


class SingularJacobianError(PowerFlowError):
    """Jacobian (or diagonal) became singular; topology likely degenerate."""


@dataclass(frozen=True)
class InjectionSnapshot:
    """Net per-bus power injection (generation minus load), per-unit.

    `p` and `q` are float arrays ordered like the network buses; the slack
    entry is fixed at zero (the slack bus carries no injection specification).
    """

    bus_ids: tuple[int, ...]
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        if not (len(self.bus_ids) == len(self.p) == len(self.q)):
            raise ValueError("bus_ids, p and q must have equal length")
        if not np.isfinite((self.p, self.q)).all():
            raise ValueError("injections must be finite")

    @classmethod
    def from_bus_map(cls, graph: NetworkGraph,
                     injections: dict[int, tuple[float, float]]) -> "InjectionSnapshot":
        """Build a snapshot from {bus_id: (p, q)}; unlisted PQ buses get zero."""
        unknown = set(injections) - set(graph.bus_ids)
        if unknown:
            raise KeyError(f"injections reference unknown buses: {sorted(unknown)}")
        bus_ids = graph.bus_ids
        pq = np.array([injections.get(bus, (0.0, 0.0)) for bus in bus_ids], dtype=float)
        pq[graph.slack_index] = 0.0
        return cls(bus_ids=bus_ids, p=pq[:, 0], q=pq[:, 1])


@dataclass(frozen=True)
class PowerFlowSolution:
    """Converged bus voltages by bus position: magnitude in p.u., angle in
    degrees."""

    bus_ids: tuple[int, ...]
    vm: np.ndarray
    va_deg: np.ndarray
    iterations: int
    max_mismatch: float


def compute_mismatch(ybus: np.ndarray, inj: InjectionSnapshot,
                     vm: np.ndarray, va_rad: np.ndarray,
                     slack_index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Per-bus power mismatch (specified minus implied) at PQ buses.

    Returns (dP, dQ) full-length arrays with zeros at the slack position,
    where the implied injection is s_k = v_k * conj((Y v)_k).
    """
    v = vm * np.exp(1j * va_rad)
    s_calc = v * np.conj(ybus @ v)
    dp = np.asarray(inj.p) - s_calc.real
    dq = np.asarray(inj.q) - s_calc.imag
    dp[slack_index] = 0.0
    dq[slack_index] = 0.0
    return dp, dq


@dataclass(frozen=True)
class BatchPowerFlow:
    """Per-case outcome of `solve_newton_raphson_batch` over the grid of T
    topologies and S steps: every array is indexed [topology, step, ...].

    `iterations` counts the Newton steps taken: to convergence, to the
    singular Jacobian, or max_iter for a case that diverged. A case whose
    Jacobian turns singular once its mismatch has grown past its flat-start
    mismatch has diverged; it stops there and is not flagged `singular`.
    `mismatch` is the last max mismatch of each case (NaN when its state
    went non-finite).
    """

    vm: np.ndarray  # (T, S, n) p.u.
    va_deg: np.ndarray  # (T, S, n) degrees
    iterations: np.ndarray  # (T, S) int
    mismatch: np.ndarray  # (T, S)
    converged: np.ndarray  # (T, S) bool
    singular: np.ndarray  # (T, S) bool: stopped on a singular Jacobian

    def error(self, topology: int, step: int) -> PowerFlowError | None:
        """The exception case (topology, step) failed with, None if it converged."""
        at = topology, step
        if self.converged[at]:
            return None
        if self.singular[at]:
            return SingularJacobianError(f"singular Jacobian at iteration {self.iterations[at]}")
        mism = float(self.mismatch[at])
        return DivergedError(
            f"Newton-Raphson did not converge in {self.iterations[at]} iterations "
            f"(last mismatch {mism:.3e} p.u.)", last_mismatch=mism)

    def solution(self, topology: int, step: int, bus_ids: tuple[int, ...]) -> PowerFlowSolution:
        """Case (topology, step) as a `PowerFlowSolution`; raises its error if it failed."""
        at = topology, step
        err = self.error(*at)
        if err is not None:
            raise err
        return PowerFlowSolution(bus_ids=bus_ids, vm=self.vm[at], va_deg=self.va_deg[at],
                                 iterations=int(self.iterations[at]),
                                 max_mismatch=float(self.mismatch[at]))


# A case whose max mismatch does not fall below STALL_RATIO times its
# previous one re-evaluates its Jacobian at its current state.
STALL_RATIO = 0.1
# Flat-start Jacobian inverses kept by admittance matrix: enough for the
# topologies of a few networks.
FLAT_START_CACHE_SIZE = 64

# The solver below works on slack-first stacks: the slack bus is at position
# 0 and held at 1 p.u., 0 rad, so only the k = n - 1 PQ buses are unknowns.
# Their unknowns are interleaved as (va_1, vm_1, va_2, vm_2, ...) and their
# mismatches as (dP_1, dQ_1, dP_2, dQ_2, ...): the real view of a complex
# power mismatch array, with no copy.


def _injected_currents(y_cols: np.ndarray, weights: np.ndarray, work=None, out=None) -> np.ndarray:
    """(Y v) at the PQ buses, from the columns `y_cols` of the PQ rows and
    the bus voltages `weights` (the slack's 1), broadcast against each other
    with the buses on axis 0: (n, k, B) and (n, 1, B) give (k, B). The
    products are laid out C-contiguous, in `work` if given, so that
    `np.add.reduce` over axis 0 adds them column after column from the left
    (into `out` if given), and a case rounds alike in any grid."""
    return np.add.reduce(np.multiply(y_cols, weights, out=work, order="C"), axis=0, out=out)


def _jacobian(ybus: np.ndarray, v_pq: np.ndarray, i_pq: np.ndarray) -> np.ndarray:
    """Polar Jacobian d(P, Q)/d(va, vm) of a slack-first (B, n, n) stack at
    PQ voltages v_pq and currents i_pq: MATPOWER's dSbus_dV, as (B, 2k, 2k)
    with interleaved rows and columns."""
    n_case, k = v_pq.shape
    y_pq = ybus[:, 1:, 1:]
    e_pq = v_pq / np.abs(v_pq)
    ds_dva = -1j * v_pq[:, :, None] * np.conj(y_pq * v_pq[:, None, :])
    ds_dvm = v_pq[:, :, None] * np.conj(y_pq * e_pq[:, None, :])
    np.einsum("bii->bi", ds_dva)[...] += 1j * v_pq * np.conj(i_pq)  # diagonals
    np.einsum("bii->bi", ds_dvm)[...] += np.conj(i_pq) * e_pq
    jac = np.empty((n_case, 2 * k, 2 * k))
    jac[:, 0::2, 0::2] = ds_dva.real
    jac[:, 1::2, 0::2] = ds_dva.imag
    jac[:, 0::2, 1::2] = ds_dvm.real
    jac[:, 1::2, 1::2] = ds_dvm.imag
    return jac


def _inverses(jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of each matrix of a (B, m, m) stack, inverted one by one, and
    which are singular (their inverse is left NaN)."""
    inv = np.full_like(jac, np.nan)
    singular = np.zeros(len(jac), dtype=bool)
    for row, matrix in enumerate(jac):
        try:
            inv[row] = np.linalg.inv(matrix)
        except np.linalg.LinAlgError:
            singular[row] = True
    return inv, singular


@functools.lru_cache(maxsize=FLAT_START_CACHE_SIZE)
def _flat_start_inverse(ybus_bytes: bytes, n: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Inverse of the flat-start Jacobian of one slack-first admittance
    matrix, given by its bytes, the PQ buses' currents (Y v) at 1∠0 it is
    evaluated at, both read-only, and whether that Jacobian is singular."""
    ybus = np.frombuffer(ybus_bytes, dtype=complex).reshape(1, n, n)
    flat = np.ones((1, n - 1), dtype=complex)
    i_flat = _injected_currents(ybus[:, 1:, :].transpose(2, 0, 1),
                                np.ones((n, 1, 1), dtype=complex))
    inv, singular = _inverses(_jacobian(ybus, flat, i_flat))
    inv.flags.writeable = i_flat.flags.writeable = False
    return inv[0], i_flat[0], bool(singular[0])


def solve_newton_raphson_batch(ybus: np.ndarray, p: np.ndarray, q: np.ndarray,
                               tol: float = TOL, max_iter: int = 50,
                               slack_index: int = 0) -> BatchPowerFlow:
    """Polar Newton-Raphson from a flat start over the (topology, step) grid.

    `ybus` is the (T, n, n) stack of the topologies' admittance matrices and
    `p`, `q` the (S, n) injections of the steps, shared by every topology;
    slack entries are ignored. Each case starts from its topology's currents
    at flat start and steps with the inverse of its Jacobian there, both of
    which depend on the admittance matrix only: one cached lookup per
    topology, broadcast over its steps (a chord method). A
    case whose max mismatch did not fall below STALL_RATIO times the
    previous one takes a full Newton step instead: its Jacobian is
    re-evaluated at its current state and its inverse is used from then on.
    A case leaves when its mismatch is under `tol`, its Jacobian is singular
    or at `max_iter`: its state, iteration count and last mismatch are
    recorded then, once, and its state turns NaN, so its mismatch is never
    again under `tol` nor stalled. Every operation is per case (currents
    summed over the columns from the left by `_injected_currents`, one
    inverse and one matrix-vector product per case), so a case takes the
    same steps, with the same arithmetic, as in a 1 x 1 grid; a diverging,
    non-finite or singular case leaves the other cases' results unchanged.
    `vm`/`va_deg` hold the solution of converged cases only; no result is a
    view of the solver's working arrays.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n_step, n = p.shape
    order = [slack_index] + [i for i in range(n) if i != slack_index]
    ybus = np.asarray(ybus, dtype=complex)
    if slack_index:  # move the slack bus first
        ybus, p, q = ybus[:, order][:, :, order], p[:, order], q[:, order]
    n_topo, k = len(ybus), n - 1
    grid = (n_topo, n_step)
    flat_inv, flat_i, flat_singular = zip(*(_flat_start_inverse(y.tobytes(), n) for y in ybus))
    j_inv = np.array(flat_inv)[:, None]  # (T, 1, 2k, 2k) until a case stalls
    no_inverse = np.array(flat_singular)[:, None].repeat(n_step, axis=1)
    y_cols = ybus[:, 1:, :, None].transpose(2, 0, 1, 3)  # (n, T, k, 1)
    s_spec = (p + 1j * q)[:, 1:]  # (S, k), shared by the topologies
    # The working arrays are views of one block per solve, each iteration
    # writing into them: n + 7 rows of 2k floats per case, then the bus
    # voltages. One block keeps the heap: an `experiment --reps 4` call takes
    # under 1 minor page fault, against 100-151 with separate arrays and ~1,790
    # with arrays allocated per iteration (README, "How it works", step 2).
    work = np.empty(2 * n_topo * n_step * ((n + 7) * k + n))
    rows = work[:2 * k * n_topo * n_step * (n + 7)].reshape(n + 7, -1)
    products = rows[:n].view(complex).reshape(n, n_topo, k, n_step)
    v_pq, i_pq, ds = rows[n:n + 3].view(complex).reshape(3, *grid, k)  # ds = S - v conj(i)
    mags, step = rows[n + 3].reshape(2 * k, *grid), rows[n + 4].reshape(*grid, 2 * k, 1)
    x, x_out = xs = rows[n + 5:].reshape(2, *grid, 2 * k)
    rhs = ds.view(float)  # interleaved (dP, dQ) as x interleaves (va, vm) of the PQ buses
    currents, rhs_t, rhs_col = i_pq.transpose(0, 2, 1), rhs.transpose(2, 0, 1), rhs[..., None]
    xs.reshape(-1, 2)[...] = 0.0, 1.0  # flat start; x_out records a case when it leaves
    va, vm = x[..., 0::2], x[..., 1::2]
    v_pq[...] = 1.0  # flat start's voltages and cached currents; each step rewrites both
    i_pq[...] = np.array(flat_i)[:, None]
    # bus voltages: row 0, the slack's, stays 1; rows 1: are rewritten each step
    weights = work[rows.size:].view(complex).reshape(n, n_topo, 1, n_step)
    weights[0] = 1.0
    v_re, v_im = v_pq.real, v_pq.imag
    limit = np.inf  # STALL_RATIO x the previous max mismatch

    iterations = np.empty(grid, dtype=int)
    mismatch = np.empty(grid)
    converged = np.zeros(grid, dtype=bool)
    singular = np.zeros(grid, dtype=bool)
    live = np.ones(grid, dtype=bool)  # cases that have not left

    for iteration in range(max_iter + 1):
        np.subtract(s_spec, np.multiply(v_pq, np.conj(i_pq, out=ds), out=ds), out=ds)
        # reduced over the outer axis of a transposed copy: a row-wise max of
        # a few values each is several times slower on a large stack
        mism = np.maximum.reduce(np.abs(rhs_t, out=mags), axis=0)
        if iteration == 0:
            flat_mism = mism
        done = mism < tol
        stalled = mism >= limit
        last = iteration == max_iter
        if not last and np.count_nonzero(stalled):
            stalled &= ~done
            if j_inv.shape[1] < n_step:  # per-case inverses from the first stall on
                j_inv = j_inv.repeat(n_step, axis=1)
            j_inv[stalled], no_inverse[stalled] = _inverses(
                _jacobian(ybus[stalled.nonzero()[0]], v_pq[stalled], i_pq[stalled]))
        if last or np.count_nonzero(done) or np.count_nonzero(no_inverse):
            if not last and np.count_nonzero(no_inverse):
                # a Jacobian that turns singular once the mismatch has grown
                # past its flat-start value marks a diverging case
                singular[no_inverse & ~done & ~(mism > flat_mism)] = True
            leave = live if last else done | no_inverse  # at max_iter every case leaves
            iterations[leave] = iteration
            mismatch[leave] = mism[leave]
            converged[done] = True
            np.copyto(x_out, x, where=done[..., None])
            live &= ~leave
            if not np.count_nonzero(live):
                break
            x[leave] = np.nan
            no_inverse &= live
        limit = STALL_RATIO * mism
        x += np.matmul(j_inv, rhs_col, out=step)[..., 0]
        # vm (cos va + j sin va), at less cost than vm exp(j va) and with its
        # bits where the C library's cexp of a purely imaginary argument is
        # exp(0) (cos, sin), as measured on glibc (numpy 2.4, x86-64); the
        # goldens and LIBRARY_SHA256 guard it elsewhere
        np.multiply(vm, np.cos(va, out=v_re), out=v_re)
        np.multiply(vm, np.sin(va, out=v_im), out=v_im)
        weights[1:, :, 0] = v_pq.transpose(2, 0, 1)
        _injected_currents(y_cols, weights, products, out=currents)

    state = np.zeros((2, *grid, n))  # (va, vm) of every case, slack included
    state[1] = 1.0
    state[..., order[1:]] = x_out.reshape(*grid, n - 1, 2).transpose(3, 0, 1, 2)
    return BatchPowerFlow(state[1], np.degrees(state[0]), iterations, mismatch, converged,
                          singular)


def solve_newton_raphson(ybus: np.ndarray, inj: InjectionSnapshot,
                         tol: float = TOL, max_iter: int = 50,
                         slack_index: int = 0) -> PowerFlowSolution:
    """Polar Newton-Raphson power flow from a flat start (1.0 p.u., 0 deg):
    `solve_newton_raphson_batch` over the 1 x 1 grid."""
    batch = solve_newton_raphson_batch(ybus[None], np.asarray(inj.p)[None],
                                       np.asarray(inj.q)[None], tol=tol,
                                       max_iter=max_iter, slack_index=slack_index)
    return batch.solution(0, 0, inj.bus_ids)


def solve_fixed_point_oracle(ybus: np.ndarray, inj: InjectionSnapshot,
                             tol: float = TOL, max_iter: int = 50000,
                             slack_index: int = 0) -> PowerFlowSolution:
    """Successive-substitution (Gauss-Seidel) solver, used as a cross-check.

    Deliberately shares no code with the Newton-Raphson path beyond the
    mismatch definition.
    """
    n = len(inj.bus_ids)
    pq = [i for i in range(n) if i != slack_index]
    v = np.ones(n, dtype=complex)
    s_spec = np.asarray(inj.p) + 1j * np.asarray(inj.q)
    if np.any(np.abs(np.diag(ybus)[pq]) == 0):
        raise SingularJacobianError("zero diagonal admittance at a PQ bus")

    mism = np.inf
    for iteration in range(1, max_iter + 1):
        for k in pq:
            rest = ybus[k] @ v - ybus[k, k] * v[k]
            v[k] = (np.conj(s_spec[k] / v[k]) - rest) / ybus[k, k]
        s_calc = v * np.conj(ybus @ v)
        err = s_spec - s_calc
        mism = np.max(np.abs(np.concatenate([err.real[pq], err.imag[pq]])))
        if mism < tol:
            return PowerFlowSolution(bus_ids=inj.bus_ids, vm=np.abs(v),
                                     va_deg=np.degrees(np.angle(v)), iterations=iteration,
                                     max_mismatch=float(mism))

    raise DivergedError(
        f"fixed-point oracle did not converge in {max_iter} sweeps "
        f"(last mismatch {mism:.3e} p.u.)", last_mismatch=float(mism))
