"""Exact semi-discrete solutions, built independently of the program's
reference path.

Both operators are block diagonal: one symmetric line matrix acts on
every decoupled line of the grid.  One `eigh` of that matrix gives the
exact solution exp(A t) f0 at any time and the true dominant eigenvalue.

Line layouts (see `stsdiff.state.GridLayout`, cell index i * n_x + k):
  fd: values.reshape(n_v, n_x); line k is column k.
  dg: values.reshape(n_v, n_x, 2, 2) indexed (i, k, a, b), with a the
      x-mode and b the v-mode; line (k, a) holds dofs 2 i + b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODULATION = 0.99


def fd_line_matrix(n_v: int, nu: float) -> np.ndarray:
    """3-point flux stencil with face diffusivity
    D(v) = nu (1 + 0.99 sin v) at v_{i+1/2} = -pi + (i + 1/2) dv:
    (A g)_i = [D_{i+1/2}(g_{i+1} - g_i) - D_{i-1/2}(g_i - g_{i-1})] / dv^2.
    """
    dv = 2.0 * np.pi / n_v
    d = nu * (1.0 + MODULATION * np.sin(-np.pi + (np.arange(n_v) + 0.5) * dv))
    i = np.arange(n_v)
    a = np.zeros((n_v, n_v))
    a[i, (i + 1) % n_v] += d
    a[i, i] -= d + np.roll(d, 1)
    a[i, (i - 1) % n_v] += np.roll(d, 1)
    return a / dv**2


def to_lines(kind: str, n_v: int, n_x: int, values: np.ndarray) -> np.ndarray:
    """(n_lines, line_length) view of a flat state, one line per row."""
    if kind == "fd":
        return values.reshape(n_v, n_x).T
    return values.reshape(n_v, n_x, 2, 2).transpose(1, 2, 0, 3).reshape(
        2 * n_x, 2 * n_v)


def from_lines(kind: str, n_v: int, n_x: int, lines: np.ndarray) -> np.ndarray:
    if kind == "fd":
        return np.ascontiguousarray(lines.T).reshape(-1)
    return lines.reshape(n_x, 2, n_v, 2).transpose(2, 0, 1, 3).reshape(-1)


def apply_lines(kind: str, n_v: int, n_x: int, mat: np.ndarray,
                values: np.ndarray) -> np.ndarray:
    """The block-diagonal operator with line block `mat` applied to a
    flat state."""
    lines = to_lines(kind, n_v, n_x, values)
    return from_lines(kind, n_v, n_x, lines @ mat.T)


def mass(kind: str, n_v: int, n_x: int, values: np.ndarray) -> float:
    """Total mass up to the constant cell area: the grid sum on FD, the
    sum of cell averages (basis function 1) on DG."""
    if kind == "fd":
        return float(np.sum(values))
    return float(np.sum(values.reshape(n_v * n_x, 4)[:, 0]))


@dataclass(frozen=True)
class ExactSolution:
    kind: str
    n_v: int
    n_x: int
    times: np.ndarray
    snapshots: np.ndarray   # (n_times, n_dof)
    lam_true: float         # |most negative eigenvalue| of the line block
    mass0: float


def exact_solution(kind: str, n_v: int, n_x: int, line: np.ndarray,
                   f0: np.ndarray, times) -> ExactSolution:
    sym = 0.5 * (line + line.T)
    w, v = np.linalg.eigh(sym)
    coeffs = to_lines(kind, n_v, n_x, f0) @ v      # (n_lines, m)
    times = np.asarray(times, dtype=float)
    snaps = np.stack([
        from_lines(kind, n_v, n_x, (coeffs * np.exp(w * t)) @ v.T)
        for t in times])
    return ExactSolution(kind, n_v, n_x, times, snaps,
                         float(-w.min()), mass(kind, n_v, n_x, f0))


def relative_linf(samples: np.ndarray, exact: np.ndarray) -> float:
    """max over samples of ||s_k - e_k||_inf / ||e_k||_inf."""
    diff = np.max(np.abs(samples - exact), axis=1)
    return float(np.max(diff / np.max(np.abs(exact), axis=1)))
