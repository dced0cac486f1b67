"""Diagonally implicit Runge-Kutta baselines (orders 2 and 3) with
inexact-Newton stage solves and a matrix-free, unpreconditioned
conjugate-gradient linear solver.

They run on both problems.  The FD operator and the SIPG operator with
identity mass are both symmetric negative semidefinite, so every stage
operator I - h A_ii J is symmetric positive definite and CG applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..domeig import _dq
from ..errors import StepFailure
from ..state import StateVector, ToleranceSpec, wrms


@dataclass(frozen=True)
class DirkScheme:
    """A tableau with an explicit first stage (a[0] = 0, c[0] = 0) that
    is stiffly accurate (b = a[-1], c[-1] = 1), so a step ends on its
    last stage's solve; any other tableau raises ValueError.  The
    weights b are the last row of a, not a field of their own."""

    name: str
    order: int
    embedded_order: int
    a: np.ndarray
    b_embedded: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        if np.any(self.a[0] != 0.0) or self.c[0] != 0.0:
            raise ValueError(f"{self.name}: the first stage must be explicit")
        if self.c[-1] != 1.0:
            raise ValueError(f"{self.name}: the tableau must be stiffly "
                             f"accurate, c[-1] = 1")

    @property
    def b(self) -> np.ndarray:
        return self.a[-1]

    @property
    def s(self) -> int:
        return len(self.a)


def _dirk2() -> DirkScheme:
    # implicit half of a classic second-order additive pair
    g = 1.0 - 1.0 / np.sqrt(2.0)
    d = np.sqrt(2.0) / 4.0
    a = np.array([
        [0.0, 0.0, 0.0],
        [g, g, 0.0],
        [d, d, g],
    ])
    b_embedded = np.array([0.8 - d, 0.8 - d, np.sqrt(2.0) / 2.0 - 0.6])
    return DirkScheme("dirk2", 2, 1, a, b_embedded,
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
    b_embedded = np.array([
        76200953.0 / 340879500.0,
        37165949.0 / 96495120.0,
        209228871.0 / 1474231000.0,
        7802451.0 / 66660880.0,
        30843.0 / 233080.0,
    ])
    c = np.array([0.0, 9.0 / 20.0, 5.0 / 6.0, 13.0 / 20.0, 1.0])
    return DirkScheme("dirk3", 3, 2, a, b_embedded, c)


DIRK_SCHEMES = {2: _dirk2(), 3: _dirk3()}


# the stage solves: Newton stops at WRMS residual NEWTON_TOL or fails
# after MAX_NEWTON solves, each solve a CG run to relative residual
# CG_TOL_FACTOR * NEWTON_TOL in at most MAX_CG iterations
NEWTON_TOL = 1e-2
MAX_NEWTON = 10
MAX_CG = 200
CG_TOL_FACTOR = 0.1


def cg_solve(apply_A, rhs_vec: np.ndarray, tol: float,
             max_cg: int) -> np.ndarray:
    """Conjugate gradients on an SPD operator, run to relative residual
    tol.  Raises StepFailure at the first curvature p.Ap that is
    non-finite or not positive, or when tol is not reached within
    max_cg."""
    bnorm = np.linalg.norm(rhs_vec)
    if bnorm == 0.0:
        return np.zeros_like(rhs_vec)
    x = np.zeros_like(rhs_vec)
    r = rhs_vec.copy()
    p = r.copy()
    rr = float(np.dot(r, r))
    for _ in range(max_cg):
        ap = apply_A(p)
        pap = float(np.dot(p, ap))
        if not np.isfinite(pap):
            raise StepFailure("non-finite CG curvature")
        if pap <= 0.0:
            raise StepFailure("CG operator is not positive definite "
                              "along the search direction")
        alpha = rr / pap
        x += alpha * p
        r -= alpha * ap
        rr_new = float(np.dot(r, r))
        if np.sqrt(rr_new) <= tol * bnorm:
            return x
        p = r + (rr_new / rr) * p
        rr = rr_new
    raise StepFailure(f"no convergence within {max_cg} CG iterations")


def dirk_step(rhs, t_n: float, f_n: StateVector, h: float,
              scheme: DirkScheme, g_n: StateVector, tol: ToleranceSpec,
              norm_kind: str = "component"):
    """One DIRK step; returns (f_next, error_estimate, g_next).

    Stage 0 of both tableaus is explicit, a[0, :] = 0 and c[0] = 0, so
    its derivative is g_n = rhs(t_n, f_n), which the caller supplies and
    the step only reads; the step calls rhs for the implicit stages only.
    Each of them solves F(z) = z - h A_ii G(t_i, z) - a_i = 0 by inexact
    Newton from the predictor z = a_i + h A_ii g_{i-1}, which takes the
    previous stage's derivative for G(t_i, z).  The linearized systems
    (I - h A_ii J) delta = -F use matrix-free CG.  J v is the
    difference-quotient product around z, weighted by f_n.

    The tableaus are stiffly accurate, so f_next is the last stage's
    solve z_s itself, and g_next = rhs(t_n + h, z_s) is the derivative
    the step already evaluated there, for the next step's stage 0."""
    lay = f_n.layout
    s = scheme.s
    gs = np.zeros((s, lay.n_dof))
    gs[0] = g_n.values
    if not np.all(np.isfinite(gs[0])):
        raise StepFailure("non-finite derivative at the step's start")
    cg_tol = CG_TOL_FACTOR * NEWTON_TOL

    for i in range(1, s):
        t_i = t_n + scheme.c[i] * h
        a_i = f_n.values + h * (scheme.a[i, :i].T @ gs[:i])
        aii = scheme.a[i, i]
        z = a_i + h * aii * gs[i - 1]
        g_z = rhs(t_i, StateVector(z, lay)).values
        # the residual is checked before the first solve and after every
        # solve, so MAX_NEWTON bounds the number of solves
        for n_solves in range(MAX_NEWTON + 1):
            resid = z - h * aii * g_z - a_i
            rnorm = wrms(norm_kind, StateVector(resid, lay), f_n, tol)
            if not np.isfinite(rnorm):
                raise StepFailure("non-finite Newton residual")
            if rnorm <= NEWTON_TOL:
                break
            if n_solves == MAX_NEWTON:
                raise StepFailure(
                    f"Newton did not reach tolerance {NEWTON_TOL} within "
                    f"{MAX_NEWTON} iterations")

            def apply_op(v, z=StateVector(z, lay), g_z=g_z, aii=aii,
                         t_i=t_i):
                return v - h * aii * _dq(rhs, t_i, z, g_z, v, f_n, tol,
                                         norm_kind)

            z = z + cg_solve(apply_op, -resid, cg_tol, MAX_CG)
            g_z = rhs(t_i, StateVector(z, lay)).values
        gs[i] = g_z

    err = h * ((scheme.b - scheme.b_embedded) @ gs)
    # z and g_z are arrays of their own, so the stage block gs dies here
    return StateVector(z, lay), StateVector(err, lay), StateVector(g_z, lay)
