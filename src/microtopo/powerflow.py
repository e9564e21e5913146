"""AC power flow for a slack + PQ-bus network in per-unit.

The production solver is a polar Newton-Raphson with flat start. A
Gauss-Seidel-style successive-substitution solver is kept alongside as an
independent cross-check; the test suite requires both to agree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import NetworkGraph


class PowerFlowError(Exception):
    """Base class for power flow failures."""


class DivergedError(PowerFlowError):
    """Solver did not reach the mismatch tolerance within max_iter."""

    def __init__(self, message: str, last_mismatch: float):
        super().__init__(message)
        self.last_mismatch = last_mismatch


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
    """Per-case outcome of `solve_newton_raphson_batch` over B cases.

    `iterations` counts the Newton steps taken: to convergence, to the
    singular Jacobian, or max_iter for a case that diverged. `mismatch` is
    the last max mismatch of each case (NaN when its state went non-finite).
    """

    vm: np.ndarray  # (B, n) p.u.
    va_deg: np.ndarray  # (B, n) degrees
    iterations: np.ndarray  # (B,) int
    mismatch: np.ndarray  # (B,)
    converged: np.ndarray  # (B,) bool
    singular: np.ndarray  # (B,) bool: stopped on a singular Jacobian

    def error(self, i: int) -> PowerFlowError | None:
        """The exception case i failed with, None when it converged."""
        if self.converged[i]:
            return None
        if self.singular[i]:
            return SingularJacobianError(f"singular Jacobian at iteration {self.iterations[i]}")
        mism = float(self.mismatch[i])
        return DivergedError(
            f"Newton-Raphson did not converge in {self.iterations[i]} iterations "
            f"(last mismatch {mism:.3e} p.u.)", last_mismatch=mism)

    def solution(self, i: int, bus_ids: tuple[int, ...]) -> PowerFlowSolution:
        """Case i as a `PowerFlowSolution`; raises its error if it failed."""
        err = self.error(i)
        if err is not None:
            raise err
        return PowerFlowSolution(bus_ids=bus_ids, vm=self.vm[i], va_deg=self.va_deg[i],
                                 iterations=int(self.iterations[i]),
                                 max_mismatch=float(self.mismatch[i]))


def solve_newton_raphson_batch(ybus: np.ndarray, p: np.ndarray, q: np.ndarray,
                               tol: float = 1e-8, max_iter: int = 50,
                               slack_index: int = 0) -> BatchPowerFlow:
    """Polar Newton-Raphson over a stack of B cases from a flat start.

    `ybus` is (B, n, n); `p` and `q` are (B, n) specified injections, whose
    slack entries are ignored. The Jacobian is MATPOWER's dSbus_dV in polar
    form, built by broadcasting over the stack, and each iteration makes one
    stacked solve. A case leaves the active set as soon as its own mismatch
    is under `tol`, so it takes the same steps, with the same arithmetic, as
    when solved alone; a diverging, non-finite or singular case leaves the
    other cases' results unchanged. `vm`/`va_deg` hold the solution of
    converged cases only.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n_case, n = p.shape
    # Work with the slack bus moved to position 0, so that the PQ buses are
    # the slice 1: and their blocks are views, not per-iteration copies.
    order = np.r_[slack_index, np.delete(np.arange(n), slack_index)]
    k = n - 1
    diag = np.arange(k)
    ybus = np.asarray(ybus)[:, order][:, :, order]
    y_rows = ybus[:, 1:, :]  # PQ rows, every column: injected currents
    y_pq = ybus[:, 1:, 1:]  # PQ rows and columns: Jacobian
    p_spec = p[:, order[1:]]
    q_spec = q[:, order[1:]]
    vm = np.ones((n_case, n))
    va = np.zeros((n_case, n))

    vm_out = np.ones((n_case, n))
    va_out = np.zeros((n_case, n))
    iterations = np.full(n_case, max_iter)
    mismatch = np.full(n_case, np.inf)
    converged = np.zeros(n_case, dtype=bool)
    singular = np.zeros(n_case, dtype=bool)
    case = np.arange(n_case)  # case number of each active row

    for iteration in range(max_iter + 1):
        v = vm * np.exp(1j * va)
        v_pq = v[:, 1:]
        i_pq = (y_rows * v[:, None, :]).sum(axis=2)
        s_calc = v_pq * np.conj(i_pq)
        rhs = np.concatenate([p_spec - s_calc.real, q_spec - s_calc.imag], axis=1)
        mism = np.abs(rhs).max(axis=1)
        mismatch[case] = mism
        done = mism < tol
        if done.any():
            finished = case[done]
            converged[finished] = True
            iterations[finished] = iteration
            vm_out[finished] = vm[done]
            va_out[finished] = va[done]
            if done.all():
                break
            active = ~done
            case, y_rows, y_pq, p_spec, q_spec, vm, va, v_pq, i_pq, rhs = (
                x[active] for x in (case, y_rows, y_pq, p_spec, q_spec,
                                    vm, va, v_pq, i_pq, rhs))
        if iteration == max_iter:
            break

        e_pq = v_pq / vm[:, 1:]
        ds_dvm = v_pq[:, :, None] * np.conj(y_pq * e_pq[:, None, :])
        ds_dvm[:, diag, diag] += np.conj(i_pq) * e_pq
        ds_dva = -1j * v_pq[:, :, None] * np.conj(y_pq * v_pq[:, None, :])
        ds_dva[:, diag, diag] += 1j * v_pq * np.conj(i_pq)
        ds = np.concatenate([ds_dva, ds_dvm], axis=2)
        jac = np.concatenate([ds.real, ds.imag], axis=1)
        try:
            dx = np.linalg.solve(jac, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # A singular case fails the whole stacked call: solve case by
            # case so the others still step, and stop the singular ones.
            dx = np.zeros_like(rhs)
            ok = np.ones(len(case), dtype=bool)
            for row in range(len(case)):
                try:
                    dx[row] = np.linalg.solve(jac[row], rhs[row])
                except np.linalg.LinAlgError:
                    ok[row] = False
            singular[case[~ok]] = True
            iterations[case[~ok]] = iteration
            if not ok.any():
                break
            case, y_rows, y_pq, p_spec, q_spec, vm, va, dx = (
                x[ok] for x in (case, y_rows, y_pq, p_spec, q_spec, vm, va, dx))
        va[:, 1:] += dx[:, :k]
        vm[:, 1:] += dx[:, k:]

    bus_order = np.argsort(order)
    return BatchPowerFlow(vm=vm_out[:, bus_order], va_deg=np.degrees(va_out[:, bus_order]),
                          iterations=iterations, mismatch=mismatch,
                          converged=converged, singular=singular)


def solve_newton_raphson(ybus: np.ndarray, inj: InjectionSnapshot,
                         tol: float = 1e-8, max_iter: int = 50,
                         slack_index: int = 0) -> PowerFlowSolution:
    """Polar Newton-Raphson power flow from a flat start (1.0 p.u., 0 deg):
    `solve_newton_raphson_batch` over a stack of one case."""
    batch = solve_newton_raphson_batch(ybus[None], np.asarray(inj.p)[None],
                                       np.asarray(inj.q)[None], tol=tol,
                                       max_iter=max_iter, slack_index=slack_index)
    return batch.solution(0, inj.bus_ids)


def solve_fixed_point_oracle(ybus: np.ndarray, inj: InjectionSnapshot,
                             tol: float = 1e-8, max_iter: int = 50000,
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
