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
from .lines import LineOperator, initial_profile

SQ3 = np.sqrt(3.0)
STIFFNESS_QUAD = 2
PROJECTION_QUAD = 8


class DgProblem(LineOperator):
    """Symmetric interior-penalty (SIPG) operator for d/dv(D(v) d/dv).

    Face penalty tau_f = penalty_c * (p+1)^2 * D(v_f) / dv with p = 1.
    penalty_c >= 1 makes the form coercive for linear elements; smaller
    values are accepted so the loss of coercivity can be demonstrated.
    modulation=0 is the uniform-coefficient test fixture.

    The operator is assembled face by face as (n_v, 2, 2) blocks and
    stored as the (n_v, 6, 2) LineOperator stencil that acts on the
    (avg, slope) dofs of a cell and its two neighbours; LineOperator.rhs
    applies it at O(N) cost.  Each (x-cell, x-mode) pair is one line of
    the LineOperator views, with the (avg, slope) dofs of every v-cell.
    """

    kind = "dg"
    modes = 2

    def __init__(self, layout: GridLayout, nu: float, penalty_c: float = 2.0,
                 modulation: float = 0.99):
        super().__init__(layout, nu, modulation)
        if not 0.0 < penalty_c < np.inf:
            raise ValueError("penalty constant must be positive and finite")
        self.penalty_c = penalty_c

        n_v = layout.n_v
        dv = layout.dv
        self.edges = -np.pi + dv * np.arange(n_v + 1)
        # cell integrals of D with a 2-point rule (exact enough for the
        # linear-basis stiffness term; projections use PROJECTION_QUAD)
        xq, wq = np.polynomial.legendre.leggauss(STIFFNESS_QUAD)
        centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        vq = centers[:, None] + 0.5 * dv * xq[None, :]
        self.cell_d_integral = 0.5 * dv * np.sum(
            wq * self.diffusivity(vq), axis=1)
        self.cell_average_d = self.cell_d_integral / dv
        # face i sits at edges[i+1], between cells i and i+1 (periodic)
        self.face_d = self.diffusivity(self.edges[1:])
        # right-multiplying forms of L, D and R, stacked in the row
        # order of the LineOperator stencil
        diag, left, right = self._assemble_blocks()
        self._stencil = np.concatenate(
            (left, diag, right), axis=2).transpose(0, 2, 1).copy()

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

    def initial_condition(self) -> StateVector:
        """L2 projection of the modulated Gaussian onto the v basis;
        x-mode dofs are exactly zero."""
        n_v, n_x = self.layout.n_v, self.layout.n_x
        dv = self.layout.dv
        xq, wq = np.polynomial.legendre.leggauss(PROJECTION_QUAD)
        centers = 0.5 * (self.edges[:-1] + self.edges[1:])
        vq = centers[:, None] + 0.5 * dv * xq[None, :]
        fq = initial_profile(vq)
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
