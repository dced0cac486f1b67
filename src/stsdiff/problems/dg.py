"""Piecewise-linear modal DG discretization of variable-coefficient
diffusion along v, interior-penalty form, on a periodic n_v x n_x mesh.

Basis per cell: orthonormal tensor products {1, psi(xi_v), psi(xi_x),
psi(xi_v) psi(xi_x)} with psi(xi) = sqrt(3) xi under the cell-averaged
inner product, so the mass matrix is the identity.  Diffusion acts only
in v: the x-constant family {1, psi_v} and the psi_x family
{psi_x, psi_v psi_x} are hit by identical 1-D operators, one per
(x-cell, x-mode) line.
"""

from __future__ import annotations

import numpy as np

from ..state import GridLayout, StateVector
from .fd import diffusion_coefficient
from .lines import LineOperator

SQ3 = np.sqrt(3.0)
STIFFNESS_QUAD = 2
PROJECTION_QUAD = 8


class DgProblem(LineOperator):
    """Symmetric interior-penalty (SIPG) operator for d/dv(D(v) d/dv).

    Face penalty tau_f = penalty_c * (p+1)^2 * D(v_f) / dv with p = 1.
    penalty_c >= 1 makes the form coercive for linear elements; smaller
    values are accepted so the loss of coercivity can be demonstrated.
    modulation=0 is the uniform-coefficient test fixture.

    The operator is stored as three (n_v, 2, 2) block arrays, assembled
    face by face, and rhs applies it as a block-tridiagonal stencil at
    O(N) cost.  Each (x-cell, x-mode) pair is one line of the
    LineOperator views, with the (avg, slope) dofs of every v-cell.
    """

    modes = 2

    def __init__(self, layout: GridLayout, nu: float, penalty_c: float = 2.0,
                 modulation: float = 0.99):
        if layout.kind != "dg":
            raise ValueError("DgProblem requires a DG layout")
        if penalty_c <= 0:
            raise ValueError("penalty constant must be positive")
        self.layout = layout
        self.nu = nu
        self.penalty_c = penalty_c
        self.modulation = modulation

        n_v = layout.n_v
        dv = layout.dv
        self.edges = -np.pi + dv * np.arange(n_v + 1)
        # cell integrals of D with a 2-point rule (exact enough for the
        # linear-basis stiffness term; projections use PROJECTION_QUAD)
        xq, wq = np.polynomial.legendre.leggauss(STIFFNESS_QUAD)
        centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        vq = centers[:, None] + 0.5 * dv * xq[None, :]
        self.cell_d_integral = 0.5 * dv * np.sum(
            wq * self._d(vq), axis=1)
        self.cell_average_d = self.cell_d_integral / dv
        # face i sits at edges[i+1], between cells i and i+1 (periodic)
        self.face_d = self._d(self.edges[1:])
        self._diag, self._left, self._right = self._assemble_blocks()
        # right-multiplying forms for rows of dofs (see rhs)
        self._stencil = tuple(np.ascontiguousarray(blk.transpose(0, 2, 1))
                              for blk in (self._diag, self._left, self._right))

    def _d(self, v):
        return diffusion_coefficient(v, self.nu, self.modulation)

    def _assemble_blocks(self):
        """1-D SIPG operator of one family on dofs (avg, slope) per cell,
        as (n_v, 2, 2) blocks: D[i] acts on cell i itself, L[i] on its
        left neighbour i-1 and R[i] on its right neighbour i+1 (periodic).

        Face f sits between cells f and f+1.  Its traces are
        u- = g_L0 + sq3 g_L1 and u+ = g_R0 - sq3 g_R1, so the jump has
        the per-side weights jl = (1, sq3), jr = (-1, sq3); the flux mean
        has m_f = (0, D(v_f) sq3 / dv) on both sides.  Side pair (p, q)
        of face f contributes -(m_f jq^T + jp m_f^T) + tau_f jp jq^T.
        """
        n_v = self.layout.n_v
        dv = self.layout.dv
        tau = self.penalty_c * 4.0 * self.face_d / dv
        jl = np.array([1.0, SQ3])
        jr = np.array([-1.0, SQ3])
        m = np.zeros((n_v, 2))
        m[:, 1] = self.face_d * SQ3 / dv

        def face(jp, jq):
            return -(m[:, :, None] * jq + jp[:, None] * m[:, None, :]) \
                + tau[:, None, None] * np.outer(jp, jq)

        # cell i is the left side of face i and the right side of face i-1
        diag = face(jl, jl) + np.roll(face(jr, jr), 1, axis=0)
        diag[:, 1, 1] += 12.0 / dv**2 * self.cell_d_integral
        left = np.roll(face(jr, jl), 1, axis=0)
        right = face(jl, jr)
        return -diag / dv, -left / dv, -right / dv

    def rhs(self, t: float, u: StateVector) -> StateVector:
        """Block-tridiagonal stencil on the cell-major layout: row (i, m)
        of the (n_v, 2 n_x, 2) view holds the (avg, slope) dofs of v-cell
        i on line m, and gets D[i] u_i + L[i] u_(i-1) + R[i] u_(i+1)."""
        if u.layout != self.layout:
            raise ValueError("state layout does not match problem layout")
        n_v, n_x = self.layout.n_v, self.layout.n_x
        diag_t, left_t, right_t = self._stencil
        g = u.values.reshape(n_v, 2 * n_x, 2)
        padded = np.concatenate((g[-1:], g, g[:1]))
        out = g @ diag_t
        out += padded[:-2] @ left_t
        out += padded[2:] @ right_t
        return StateVector(out.reshape(-1), self.layout)

    def initial_condition(self) -> StateVector:
        """L2 projection of the modulated Gaussian onto the v basis;
        x-mode dofs are exactly zero."""
        n_v, n_x = self.layout.n_v, self.layout.n_x
        dv = self.layout.dv
        xq, wq = np.polynomial.legendre.leggauss(PROJECTION_QUAD)
        centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        vq = centers[:, None] + 0.5 * dv * xq[None, :]
        fq = (1.0 + 0.3 * np.sin(2.0 * vq)) / np.sqrt(5.5 * np.pi) \
            * np.exp(-vq**2 / 5.5)
        g0 = 0.5 * np.sum(wq * fq, axis=1)
        g1 = 0.5 * np.sum(wq * SQ3 * xq * fq, axis=1)
        g = np.zeros((n_v, n_x, 2, 2))
        g[:, :, 0, 0] = g0[:, None]
        g[:, :, 0, 1] = g1[:, None]
        return StateVector(g.reshape(-1), self.layout)

    def lambda_user(self) -> float:
        """A-priori bound on the dominant eigenvalue magnitude.

        (48 penalty_c - 12) is the sharp frozen-coefficient symbol
        maximum of this interior-penalty form for linear elements, so
        the bound is max local diffusivity times that constant over
        dv^2 (the FD analogue has constant 4).
        """
        dmax = max(float(np.max(self.cell_average_d)),
                   float(np.max(self.face_d)))
        return (48.0 * self.penalty_c - 12.0) * dmax / self.layout.dv**2
