"""Dense views of a line-decoupled operator, all derived from its rhs.

Both discretizations act only along v, so the operator repeats one
line block on every (x-cell, x-mode) line.  A subclass states the
operator once, as its matrix-free rhs(t, u), and sets `layout` and
`modes`, the number of dofs per cell along each direction (1 for FD,
2 for DG).  The line
views, the line block, the Jacobian diagonal and the dense N x N oracle
all follow from rhs here.
"""

from __future__ import annotations

import numpy as np

from ..state import StateVector

DENSE_GUARD = 4096


class LineOperator:
    """Base of FdProblem and DgProblem: the dense views of rhs."""

    modes: int

    def to_lines(self, values: np.ndarray) -> np.ndarray:
        """(m n_x, m n_v) array of a flat state with m = modes: row
        m k + a is the line of x-cell k and x-mode a, holding dofs
        m i + b of v-cell i and v-mode b."""
        m = self.modes
        n_v, n_x = self.layout.n_v, self.layout.n_x
        g = values.reshape(n_v, n_x, m, m)
        return g.transpose(1, 2, 0, 3).reshape(n_x * m, n_v * m)

    def from_lines(self, lines: np.ndarray) -> np.ndarray:
        """Flat state of a to_lines array."""
        m = self.modes
        n_v, n_x = self.layout.n_v, self.layout.n_x
        return lines.reshape(n_x, m, n_v, m).transpose(2, 0, 1, 3).reshape(-1)

    def line_matrix(self) -> np.ndarray:
        """Dense line block, probed from rhs.

        The lines are independent, so one rhs call probes as many
        columns as there are lines: line l carries the unit vector of
        column c + l (Curtis, Powell & Reid 1974).  That is one call for
        FD 64x64 and six for DG 120x20.
        """
        n_lines = self.modes * self.layout.n_x
        n = self.modes * self.layout.n_v
        # flat index of every line entry
        at = self.to_lines(np.arange(self.layout.n_dof))
        a = np.empty((n, n))
        for c in range(0, n, n_lines):
            k = min(n_lines, n - c)
            e = np.zeros(self.layout.n_dof)
            e[at[np.arange(k), c + np.arange(k)]] = 1.0
            out = self.rhs(0.0, StateVector(e, self.layout)).values
            a[:, c:c + k] = out[at[:k]].T
        return a

    def jacobian_diagonal(self) -> StateVector:
        """Diagonal of the rhs Jacobian, for Jacobi preconditioning."""
        d = np.diagonal(self.line_matrix())
        n_lines = self.modes * self.layout.n_x
        return StateVector(self.from_lines(np.tile(d, (n_lines, 1))),
                           self.layout)

    def assemble_matrix(self) -> np.ndarray:
        """Dense N x N oracle built column by column from rhs.  Intended
        for small grids only."""
        n = self.layout.n_dof
        if n > DENSE_GUARD:
            raise ValueError(
                f"dense assembly limited to N <= {DENSE_GUARD}, got {n}")
        cols = np.empty((n, n))
        e = np.zeros(n)
        for j in range(n):
            e[j] = 1.0
            cols[:, j] = self.rhs(0.0, StateVector(e.copy(), self.layout)).values
            e[j] = 0.0
        return cols
