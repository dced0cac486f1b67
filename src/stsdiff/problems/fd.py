"""Centered finite-difference discretization of variable-coefficient
diffusion along v on a periodic 2-D grid.

The 3-point stencil takes its weights from the diffusivity D(v) (see
lines.py) at the faces between grid points.  D acts only in the v
direction; x-lines are decoupled and carried as replicated copies so
that dof counts match the 2-D benchmark sizes.
"""

from __future__ import annotations

import numpy as np

from ..state import GridLayout, StateVector
from .lines import LineOperator, initial_profile


class FdProblem(LineOperator):
    """3-point stencil with face-centred diffusivity:
    du_i = [D_{i-1/2} u_{i-1} - (D_{i-1/2} + D_{i+1/2}) u_i
            + D_{i+1/2} u_{i+1}] / dv^2.

    Each face weight enters the two rows it couples with opposite
    signs, so the operator conserves the sum of u in exact arithmetic
    and is symmetric to the bit: the weight of u_{i+1} in row i and of
    u_i in row i+1 are the same float.  It is negative semidefinite,
    which the CG stage solver relies on.  modulation=0 is the
    uniform-coefficient test fixture.  Each x-line is one line of the
    LineOperator views.
    """

    kind = "fd"
    modes = 1

    def __init__(self, layout: GridLayout, nu: float, modulation: float = 0.99):
        super().__init__(layout, nu, modulation)
        # face i sits at v_i + dv/2, between points i and i+1 (periodic)
        faces = -np.pi + (np.arange(layout.n_v) + 0.5) * layout.dv
        self.face_d = self.diffusivity(faces)
        dv2 = layout.dv**2
        lo = np.roll(self.face_d, 1)
        self._stencil = np.stack(
            (lo / dv2, -(lo + self.face_d) / dv2, self.face_d / dv2),
            axis=1)[:, :, None]

    def initial_condition(self) -> StateVector:
        """The initial profile sampled at the grid points."""
        v = -np.pi + np.arange(self.layout.n_v) * self.layout.dv
        return StateVector(np.repeat(initial_profile(v), self.layout.n_x),
                           self.layout)

    def lambda_user(self) -> float:
        """Analytic bound 4 max(D_face)/dv^2 on the dominant eigenvalue
        magnitude of the rhs Jacobian."""
        return 4.0 * float(np.max(self.face_d)) / self.layout.dv**2
