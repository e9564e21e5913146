"""Independent power-flow references the tests check the solver against.

They share no code with `microtopo.powerflow`'s Newton-Raphson path beyond
its types and the mismatch definition, so an error in the solver does not
carry over into them.
"""
import numpy as np

from microtopo.powerflow import (
    TOL,
    DivergedError,
    InjectionSnapshot,
    PowerFlowSolution,
    SingularJacobianError,
)


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
