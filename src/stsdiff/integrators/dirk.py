"""Diagonally implicit Runge-Kutta baselines (orders 2 and 3) with
inexact-Newton stage solves and a matrix-free Jacobi-preconditioned
conjugate-gradient linear solver.

These are wired to the finite-difference problem only: its Jacobian is
symmetric negative semidefinite, so every stage operator I - h A_ii J
is symmetric positive definite and CG is applicable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..domeig import _dq
from ..errors import StepFailure
from ..state import StateVector, ToleranceSpec, wrms


@dataclass(frozen=True)
class DirkScheme:
    name: str
    order: int
    embedded_order: int
    a: np.ndarray
    b: np.ndarray
    b_embedded: np.ndarray
    c: np.ndarray

    @property
    def s(self) -> int:
        return len(self.b)


def _dirk2() -> DirkScheme:
    # implicit half of a classic second-order additive pair
    g = 1.0 - 1.0 / np.sqrt(2.0)
    d = np.sqrt(2.0) / 4.0
    a = np.array([
        [0.0, 0.0, 0.0],
        [g, g, 0.0],
        [d, d, g],
    ])
    b = np.array([d, d, g])
    b_embedded = np.array([0.8 - d, 0.8 - d, np.sqrt(2.0) / 2.0 - 0.6])
    return DirkScheme("dirk2", 2, 1, a, b, b_embedded,
                      c=np.array([0.0, 2.0 * g, 1.0]))


def _dirk3() -> DirkScheme:
    # stiffly accurate L-stable 5-stage ESDIRK, gamma = 9/40, with an
    # A-stable second-order embedding that also vanishes at infinity
    g = 9.0 / 40.0
    a = np.array([
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [g, g, 0.0, 0.0, 0.0],
        [821.0 / 3240.0, 115.0 / 324.0, g, 0.0, 0.0],
        [1159.0 / 6000.0, 923.0 / 2760.0, -4719.0 / 46000.0, g, 0.0],
        [105229.0 / 643500.0, 75157.0 / 182160.0, -606297.0 / 2783000.0,
         52443.0 / 125840.0, g],
    ])
    b = a[-1].copy()
    b_embedded = np.array([
        76200953.0 / 340879500.0,
        37165949.0 / 96495120.0,
        209228871.0 / 1474231000.0,
        7802451.0 / 66660880.0,
        30843.0 / 233080.0,
    ])
    c = np.array([0.0, 9.0 / 20.0, 5.0 / 6.0, 13.0 / 20.0, 1.0])
    return DirkScheme("dirk3", 3, 2, a, b, b_embedded, c)


DIRK_SCHEMES = {2: _dirk2(), 3: _dirk3()}


def dirk_tableau(order: int) -> DirkScheme:
    try:
        return DIRK_SCHEMES[order]
    except KeyError:
        raise ValueError(f"no DIRK scheme of order {order}; choose 2 or 3")


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-2
    max_newton: int = 10
    max_cg: int = 200
    cg_tol_factor: float = 0.1

    def __post_init__(self):
        if self.tol <= 0 or self.cg_tol_factor <= 0:
            raise ValueError("solver tolerances must be positive")


def cg_solve(apply_A, rhs_vec: np.ndarray, precond_diag: np.ndarray,
             tol: float, max_iters: int) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients on an SPD operator,
    run to relative residual tol.  Raises StepFailure when the operator
    is not positive definite along a search direction or tol is not
    reached within max_iters."""
    bnorm = np.linalg.norm(rhs_vec)
    if bnorm == 0.0:
        return np.zeros_like(rhs_vec)
    x = np.zeros_like(rhs_vec)
    r = rhs_vec.copy()
    z = r / precond_diag
    p = z.copy()
    rz = float(np.dot(r, z))
    for _ in range(max_iters):
        ap = apply_A(p)
        pap = float(np.dot(p, ap))
        if pap <= 0.0:
            raise StepFailure("CG operator is not positive definite "
                              "along the search direction")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol * bnorm:
            return x
        z = r / precond_diag
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise StepFailure(f"no convergence within {max_iters} CG iterations")


def dirk_step(rhs, t_n: float, f_n: StateVector, h: float,
              scheme: DirkScheme, newton: NewtonConfig,
              precond_diag: StateVector, tol: ToleranceSpec,
              norm_kind: str = "component"):
    """One DIRK step; returns (f_next, error_estimate).

    Each implicit stage solves F(z) = z - h A_ii G(t_i, z) - a_i = 0 by
    inexact Newton from the predictor z = a_i + h A_ii g_{i-1}, which
    takes the previous stage's derivative for G(t_i, z).  The linearized
    systems (I - h A_ii J) delta = -F use matrix-free CG with the Jacobi
    preconditioner diag(1 - h A_ii jac_diag).  J v is the
    difference-quotient product around z, weighted by f_n."""
    lay = f_n.layout
    s = scheme.s
    gs = np.zeros((s, lay.n_dof))
    cg_tol = newton.cg_tol_factor * newton.tol

    for i in range(s):
        t_i = t_n + scheme.c[i] * h
        a_i = f_n.values + h * (scheme.a[i, :i].T @ gs[:i]
                                if i else np.zeros(lay.n_dof))
        aii = scheme.a[i, i]
        if aii == 0.0:
            gs[i] = rhs(t_i, StateVector(a_i, lay)).values
            if not np.all(np.isfinite(gs[i])):
                raise StepFailure("non-finite explicit-stage derivative")
            continue
        pd = 1.0 - h * aii * precond_diag.values
        z = a_i + h * aii * gs[i - 1]
        g_z = rhs(t_i, StateVector(z, lay)).values
        converged = False
        for _ in range(newton.max_newton):
            resid = z - h * aii * g_z - a_i
            rnorm = wrms(norm_kind, StateVector(resid, lay), f_n, tol)
            if not np.isfinite(rnorm):
                raise StepFailure("non-finite Newton residual")
            if rnorm <= newton.tol:
                converged = True
                break

            def apply_op(v, z=StateVector(z, lay), g_z=g_z, aii=aii,
                         t_i=t_i):
                return v - h * aii * _dq(rhs, t_i, z, g_z, v, f_n, tol,
                                         norm_kind)

            z = z + cg_solve(apply_op, -resid, pd, cg_tol, newton.max_cg)
            g_z = rhs(t_i, StateVector(z, lay)).values
        if not converged:
            raise StepFailure(
                f"Newton did not reach tolerance {newton.tol} within "
                f"{newton.max_newton} iterations")
        gs[i] = g_z

    f_next = f_n.values + h * (scheme.b @ gs)
    if not np.all(np.isfinite(f_next)):
        raise StepFailure("non-finite values in DIRK combination")
    err = h * ((scheme.b - scheme.b_embedded) @ gs)
    return StateVector(f_next, lay), StateVector(err, lay)
