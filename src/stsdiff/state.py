"""State vectors, grid layouts, tolerances, and the weighted-RMS norm.

Everything downstream (step acceptance, difference-quotient scaling, cell
partitioning for DG) is defined in terms of the types in this module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
NORM_NAMES = ("component", "cell")


def is_count(n, least: int) -> bool:
    """Whether n is an integer, numpy integers included, of at least
    least: the rule for every count a setting gives."""
    return isinstance(n, numbers.Integral) and n >= least


@dataclass(frozen=True)
class GridLayout:
    """Discretization descriptor on the periodic rectangle [-pi,pi]^2.

    kind is "fd" (one dof per grid point) or "dg" (4 modal dofs per cell).
    Dof ordering is cell-major: all dofs of cell (i, k) are contiguous,
    with cells enumerated v-major (cell index = i * n_x + k) and basis
    index last.  For DG the basis order is [1, psi(xi_v), psi(xi_x),
    psi(xi_v) psi(xi_x)].

    Besides its fields it carries the sizes derived from them, set at
    construction: n_b dofs per cell, n_cells cells and n_dof dofs.
    StateVector reads n_dof on every construction.
    """

    kind: str
    n_v: int
    n_x: int

    def __post_init__(self):
        if self.kind not in ("fd", "dg"):
            raise ValueError(f"unknown layout kind {self.kind!r}")
        if not (is_count(self.n_v, 1) and is_count(self.n_x, 1)):
            raise ValueError("grid counts must be positive integers")
        n_b = 1 if self.kind == "fd" else 4
        n_cells = self.n_v * self.n_x
        object.__setattr__(self, "n_b", n_b)
        object.__setattr__(self, "n_cells", n_cells)
        object.__setattr__(self, "n_dof", n_cells * n_b)

    @property
    def dv(self) -> float:
        return TWO_PI / self.n_v


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

    def cells(self) -> np.ndarray:
        """View of the values as (n_cells, n_b)."""
        return self.values.reshape(self.layout.n_cells, self.layout.n_b)


@dataclass(frozen=True)
class ToleranceSpec:
    rtol: float
    atol: float = 1e-11

    def __post_init__(self):
        if not 0.0 < self.rtol < math.inf:
            raise ValueError("rtol must be positive and finite")
        if not 0.0 <= self.atol < math.inf:
            raise ValueError("atol must be non-negative and finite")


def _cell_rms(cells: np.ndarray) -> np.ndarray:
    """Per-cell RMS of a (n_cells, n_b) array.

    The mean over the n_b dofs is a product with a vector of 1/n_b:
    np.mean along a short axis costs several times as much.
    """
    n_b = cells.shape[1]
    return np.sqrt((cells * cells) @ np.full(n_b, 1.0 / n_b))


def wrms(kind: str, err: StateVector, ref: StateVector, tol: ToleranceSpec) -> float:
    """Weighted RMS norm sqrt(mean(r^2)), r = E / (rtol R + atol).

    kind "component" weighs every dof by itself: E = err, R = |ref|.
    kind "cell" groups dofs per cell first: E and R are the per-cell
    RMS of err and of ref, so small slope dofs are measured against the
    cell's overall scale rather than their own magnitude.  The weights
    come from ref, the step's starting state, never the trial solution.
    """
    if kind not in NORM_NAMES:
        raise ValueError(f"unknown norm kind {kind!r}")
    if err.layout != ref.layout:
        raise ValueError("err and ref must share a layout")
    if kind == "component":
        e, r = err.values, np.abs(ref.values)
    else:
        e, r = _cell_rms(err.cells()), _cell_rms(ref.cells())
    # r is the norm's own buffer: the ratios and their squares reuse it
    r *= tol.rtol
    r += tol.atol
    np.divide(e, r, out=r)
    r *= r
    # add.reduce is np.sum's pairwise accumulation, so tolerance-sensitive
    # reductions do not drift with N
    return math.sqrt(np.add.reduce(r) / r.size)
