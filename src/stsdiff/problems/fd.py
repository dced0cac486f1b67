"""Centered finite-difference discretization of variable-coefficient
diffusion along v on a periodic 2-D grid.

The diffusion coefficient D(v) (see lines.py) acts only in the v
direction; x-lines are decoupled and carried as replicated copies so
that dof counts match the 2-D benchmark sizes.
"""

from __future__ import annotations

import numpy as np

from ..state import GridLayout, StateVector
from .lines import LineOperator, initial_profile


class FdProblem(LineOperator):
    """Flux-form 3-point stencil with face-centered diffusivity.

    Face-centered D gives exact discrete conservation and a symmetric
    negative-semidefinite operator, which the CG stage solver relies on.
    modulation=0 is the uniform-coefficient test fixture.  Each x-line
    is one line of the LineOperator views.
    """

    kind = "fd"
    modes = 1

    def __init__(self, layout: GridLayout, nu: float, modulation: float = 0.99):
        super().__init__(layout, nu, modulation)
        faces = -np.pi + (np.arange(layout.n_v) + 0.5) * layout.dv
        self.face_d = self.diffusivity(faces)

    def rhs(self, t: float, u: StateVector) -> StateVector:
        """du_i = [D_{i+1/2}(u_{i+1}-u_i) - D_{i-1/2}(u_i-u_{i-1})] / dv^2."""
        if u.layout != self.layout:
            raise ValueError("state layout does not match problem layout")
        n_v, n_x = self.layout.n_v, self.layout.n_x
        g = u.values.reshape(n_v, n_x)
        # row k holds the flux through face k-1/2; row 0 is the periodic
        # copy of row n_v
        flux = np.empty((n_v + 1, n_x))
        np.subtract(g[1:], g[:-1], out=flux[1:-1])
        np.subtract(g[0], g[-1], out=flux[-1])
        flux[1:] *= self.face_d[:, None]
        flux[0] = flux[-1]
        du = np.subtract(flux[1:], flux[:-1])
        du /= self.layout.dv**2
        return StateVector(du.reshape(-1), self.layout)

    def initial_condition(self) -> StateVector:
        """The initial profile sampled at the grid points."""
        v = -np.pi + np.arange(self.layout.n_v) * self.layout.dv
        return StateVector(np.repeat(initial_profile(v), self.layout.n_x),
                           self.layout)

    def lambda_user(self) -> float:
        """Analytic bound 4 max(D_face)/dv^2 on the dominant eigenvalue
        magnitude of the rhs Jacobian."""
        return 4.0 * float(np.max(self.face_d)) / self.layout.dv**2
