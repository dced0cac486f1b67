"""State vectors, grid layouts, tolerances, and the two weighted-RMS norms.

Everything downstream (step acceptance, difference-quotient scaling, cell
partitioning for DG) is defined in terms of the types in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridLayout:
    """Discretization descriptor on the periodic rectangle [-pi,pi]^2.

    kind is "fd" (one dof per grid point) or "dg" (4 modal dofs per cell).
    Dof ordering is cell-major: all dofs of cell (i, k) are contiguous,
    with cells enumerated v-major (cell index = i * n_x + k) and basis
    index last.  For DG the basis order is [1, psi(xi_v), psi(xi_x),
    psi(xi_v) psi(xi_x)].
    """

    kind: str
    n_v: int
    n_x: int

    def __post_init__(self):
        if self.kind not in ("fd", "dg"):
            raise ValueError(f"unknown layout kind {self.kind!r}")
        if self.n_v < 1 or self.n_x < 1:
            raise ValueError("grid counts must be positive")

    @property
    def n_b(self) -> int:
        return 1 if self.kind == "fd" else 4

    @property
    def n_cells(self) -> int:
        return self.n_v * self.n_x

    @property
    def n_dof(self) -> int:
        return self.n_cells * self.n_b

    @property
    def dv(self) -> float:
        return TWO_PI / self.n_v

    @property
    def dx(self) -> float:
        return TWO_PI / self.n_x


@dataclass
class StateVector:
    """Flat dof array tied to a grid layout."""

    values: np.ndarray
    layout: GridLayout

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.layout.n_dof,):
            raise ValueError(
                f"state length {self.values.shape} does not match layout "
                f"dof count {self.layout.n_dof}")

    def copy(self) -> "StateVector":
        return StateVector(self.values.copy(), self.layout)

    def cells(self) -> np.ndarray:
        """View of the values as (n_cells, n_b)."""
        return self.values.reshape(self.layout.n_cells, self.layout.n_b)


@dataclass(frozen=True)
class ToleranceSpec:
    rtol: float
    atol: float = 1e-11

    def __post_init__(self):
        if not self.rtol > 0:
            raise ValueError("rtol must be positive")
        if self.atol < 0:
            raise ValueError("atol must be non-negative")


def _check_layouts(err: StateVector, ref: StateVector):
    if err.layout != ref.layout:
        raise ValueError("err and ref must share a layout")


def _cell_rms(cells: np.ndarray) -> np.ndarray:
    """Per-cell RMS of a (n_cells, n_b) array.

    The mean over the n_b dofs is a product with a vector of 1/n_b:
    np.mean along a short axis costs several times as much.
    """
    n_b = cells.shape[1]
    return np.sqrt((cells * cells) @ np.full(n_b, 1.0 / n_b))


def _wrms_cells(err_cells: np.ndarray, ref_cells: np.ndarray,
                rtol: float, atol: float) -> float:
    """Cell-grouped weighted RMS on (n_cells, n_b) arrays."""
    ec = _cell_rms(err_cells)
    rc = _cell_rms(ref_cells)
    ratios = ec / (rtol * rc + atol)
    # np.sum uses pairwise accumulation; tolerance-sensitive reductions
    # must not drift with N
    return float(np.sqrt(np.sum(ratios * ratios) / ratios.size))


def wrms_component(err: StateVector, ref: StateVector, tol: ToleranceSpec) -> float:
    """Component-wise weighted RMS norm.

    sqrt( (1/N) sum_i (err_i / (rtol |ref_i| + atol))^2 ).  Weights are
    built from the step's starting state, never the trial solution.
    """
    _check_layouts(err, ref)
    w = tol.rtol * np.abs(ref.values) + tol.atol
    r = err.values / w
    return float(np.sqrt(np.sum(r * r) / r.size))


def wrms_cellwise(err: StateVector, ref: StateVector, tol: ToleranceSpec) -> float:
    """Cell-wise weighted RMS norm.

    Groups dofs per cell before weighting: each cell contributes
    ||err_cell||_C / (rtol ||ref_cell||_C + atol) with ||.||_C the RMS
    over the cell's dofs, so small slope dofs are measured against the
    cell's overall scale rather than their own magnitude.
    """
    _check_layouts(err, ref)
    return _wrms_cells(err.cells(), ref.cells(), tol.rtol, tol.atol)


def wrms(kind: str, err: StateVector, ref: StateVector, tol: ToleranceSpec) -> float:
    """Dispatch on norm kind: "component" or "cell"."""
    if kind == "component":
        return wrms_component(err, ref, tol)
    if kind == "cell":
        return wrms_cellwise(err, ref, tol)
    raise ValueError(f"unknown norm kind {kind!r}")
