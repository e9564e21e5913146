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


def _injected_currents(y_cols: np.ndarray, v_pq: np.ndarray) -> np.ndarray:
    """(Y v) at the PQ buses, from the columns `y_cols` (n, B, k) of the PQ
    rows: summed column by column from the left, the slack column's voltage
    being 1, so that a case rounds alike in any stack."""
    i_pq = y_cols[0] + y_cols[1] * v_pq[:, None, 0]
    for j in range(2, len(y_cols)):
        i_pq += y_cols[j] * v_pq[:, None, j - 1]
    return i_pq


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
def _flat_start_inverse(ybus_bytes: bytes, n: int) -> tuple[np.ndarray, bool]:
    """Inverse of the flat-start Jacobian of one slack-first admittance
    matrix, given by its bytes, and whether that Jacobian is singular."""
    ybus = np.frombuffer(ybus_bytes, dtype=complex).reshape(1, n, n)
    flat = np.ones((1, n - 1), dtype=complex)
    i_flat = _injected_currents(ybus[:, 1:, :].transpose(2, 0, 1), flat)
    inv, singular = _inverses(_jacobian(ybus, flat, i_flat))
    inv.flags.writeable = False
    return inv[0], bool(singular[0])


def solve_newton_raphson_batch(ybus: np.ndarray, p: np.ndarray, q: np.ndarray,
                               tol: float = TOL, max_iter: int = 50,
                               slack_index: int = 0) -> BatchPowerFlow:
    """Polar Newton-Raphson from a flat start over the (topology, step) grid.

    `ybus` is the (T, n, n) stack of the topologies' admittance matrices and
    `p`, `q` the (S, n) injections of the steps, shared by every topology;
    slack entries are ignored. Each case steps with the inverse of its
    Jacobian at flat start, which depends on the admittance matrix only:
    one cached lookup per topology (a chord method). A case whose max
    mismatch did not fall below STALL_RATIO times the previous one takes a
    full Newton step instead: its Jacobian is re-evaluated at its current
    state and its inverse is used from then on. A case leaves the active set
    as soon as its own mismatch is under `tol`. Every operation is per case
    (column by column sums, one inverse and one matrix-vector product per
    case), so a case takes the same steps, with the same arithmetic, as in a
    1 x 1 grid; a diverging, non-finite or singular case leaves the other
    cases' results unchanged. `vm`/`va_deg` hold the solution of converged
    cases only.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n_step, n = p.shape
    order = [slack_index] + [i for i in range(n) if i != slack_index]
    ybus = np.asarray(ybus, dtype=complex)
    if slack_index:  # move the slack bus first
        ybus = ybus[:, order][:, :, order]
    grid = (len(ybus), n_step)
    n_case = len(ybus) * n_step  # case c is topology c // n_step at step c % n_step
    flat_inv, flat_singular = zip(*(_flat_start_inverse(y.tobytes(), n) for y in ybus))
    j_inv = np.repeat(flat_inv, n_step, axis=0)
    no_inverse = np.repeat(flat_singular, n_step)
    y_cols = np.repeat(ybus[:, 1:, :].transpose(2, 0, 1), n_step, axis=1)  # (n, cases, k)
    s_spec = np.tile((p + 1j * q)[:, order[1:]], (len(ybus), 1))
    x = np.zeros((n_case, 2 * n - 2))  # interleaved (va, vm) of the PQ buses
    x[:, 1::2] = 1.0
    limit = np.full(n_case, np.inf)  # STALL_RATIO x the previous max mismatch

    x_out = x.copy()
    iterations = np.full(n_case, max_iter)
    mismatch = np.full(n_case, np.inf)
    converged = np.zeros(n_case, dtype=bool)
    singular = np.zeros(n_case, dtype=bool)
    case = np.arange(n_case)  # case number of each active row

    for iteration in range(max_iter + 1):
        v_pq = x[:, 1::2] * np.exp(1j * x[:, 0::2])
        i_pq = _injected_currents(y_cols, v_pq)
        rhs = (s_spec - v_pq * np.conj(i_pq)).view(float)
        # reduced over the outer axis of a transposed copy: a row-wise max of
        # a few values each is several times slower on a large stack
        mism = np.abs(rhs.T, order="C").max(axis=0)
        mismatch[case] = mism
        if iteration == 0:
            flat_mism = mism
        done = mism < tol
        stalled = mism >= limit
        if done.any():
            finished = case[done]
            converged[finished] = True
            iterations[finished] = iteration
            x_out[finished] = x[done]
            if done.all():
                break
            stalled &= ~done
        if iteration == max_iter:
            break

        if stalled.any():
            j_inv[stalled], no_inverse[stalled] = _inverses(
                _jacobian(ybus[case[stalled] // n_step], v_pq[stalled], i_pq[stalled]))
        leave = done | no_inverse
        if leave.any():
            failed = no_inverse & ~done
            # a Jacobian that turns singular once the mismatch has grown past
            # its flat-start value marks a diverging case
            singular[case[failed & ~(mism > flat_mism)]] = True
            iterations[case[failed]] = iteration
            stay = ~leave
            if not stay.any():
                break
            case, j_inv, no_inverse, s_spec, x, rhs, mism, flat_mism = (
                a[stay] for a in (case, j_inv, no_inverse, s_spec, x, rhs, mism, flat_mism))
            y_cols = y_cols[:, stay]
        limit = STALL_RATIO * mism
        x += np.matmul(j_inv, rhs[:, :, None])[:, :, 0]

    vm = np.ones((n_case, n))
    va = np.zeros((n_case, n))
    vm[:, order[1:]] = x_out[:, 1::2]
    va[:, order[1:]] = x_out[:, 0::2]
    return BatchPowerFlow(vm.reshape(*grid, n), np.degrees(va).reshape(*grid, n),
                          *(a.reshape(grid) for a in (iterations, mismatch, converged, singular)))


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
