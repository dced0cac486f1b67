"""The problem both discretizations solve, its operator, and the dense
views of that operator, all derived from one stencil.

The problem, du/dt = d/dv(D(v) du/dv) on the periodic square with
D(v) = nu (1 + modulation sin v), is stated once here: LineOperator
checks the layout kind and admits (nu, modulation) exactly when
D(v) > 0 at every v, and `initial_profile` is the start in v, constant
in x.  A subclass sets `kind` and `modes`, the number of dofs per cell
along each direction (1 for FD, 2 for DG), and states its operator
once, as `_stencil`: per v-cell, the weights on the dofs of the cell
and its two periodic neighbours.  LineOperator applies it as the
matrix-free rhs(t, u).  Both operators act only along v, so the
operator repeats one line block on every (x-cell, x-mode) line; the
line views, the line block and the dense N x N oracle follow from rhs.
"""

from __future__ import annotations

import numpy as np

from ..state import GridLayout, StateVector

DENSE_GUARD = 4096


def initial_profile(v):
    """Modulated Gaussian in v, the initial state of both problems."""
    return (1.0 + 0.3 * np.sin(2.0 * v)) / np.sqrt(5.5 * np.pi) \
        * np.exp(-v**2 / 5.5)


class LineOperator:
    """Base of FdProblem and DgProblem: the problem, rhs and its views.

    A subclass builds `_stencil` at construction, shape (n_v, 3 m, m)
    with m = modes: rows 0 to m-1 act on the v-modes of the left
    neighbour i-1, rows m to 2m-1 on cell i itself and rows 2m to 3m-1
    on the right neighbour i+1, periodically.
    """

    kind: str
    modes: int
    _stencil: np.ndarray

    def __init__(self, layout: GridLayout, nu: float, modulation: float):
        if layout.kind != self.kind:
            raise ValueError(f"layout kind must be {self.kind!r}")
        # D(v) > 0 at every v exactly when nu > 0 and |modulation| < 1
        if not (0.0 < nu < np.inf and abs(modulation) < 1.0):
            raise ValueError("diffusivity must be positive everywhere: need "
                             "nu positive and finite and |modulation| < 1")
        self.layout = layout
        self.nu = nu
        self.modulation = modulation

    def diffusivity(self, v):
        """D(v) = nu (1 + modulation sin v)."""
        return self.nu * (1.0 + self.modulation * np.sin(v))

    def rhs(self, t: float, u: StateVector) -> StateVector:
        """The stencil as one batched product over a three-cell window.

        With m = modes and L = m n_x lines, row (i, l) of the cell-major
        (n_v, L, m) view holds the v-modes of v-cell i on line l.  The
        state is copied once into a periodically padded, v-mode-major
        buffer pad of shape (n_v + 2, m, L), whose row r is v-cell r - 1.
        Viewed with strides (m L, 1, L) items as (n_v, L, 3 m), column
        m k + b of row (i, l) is v-mode b of cell i - 1 + k on line l, so
        one product with the stencil gives the cell-major result.

        Every call returns a new array that the caller owns and may
        overwrite: ssp_step scales some of them in place."""
        if u.layout != self.layout:
            raise ValueError("state layout does not match problem layout")
        m = self.modes
        n_v = self.layout.n_v
        n_l = m * self.layout.n_x
        pad = np.empty((n_v + 2, m, n_l))
        pad[1:-1] = u.values.reshape(n_v, n_l, m).transpose(0, 2, 1)
        pad[0] = pad[-2]
        pad[-1] = pad[1]
        # a plain ndarray over pad: as_strided builds the same view
        # through an interface object, at several times the cost
        item = pad.itemsize
        window = np.ndarray((n_v, n_l, 3 * m), float, pad, 0,
                            (m * n_l * item, item, n_l * item))
        out = window @ self._stencil
        return StateVector(out.reshape(-1), self.layout)

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
