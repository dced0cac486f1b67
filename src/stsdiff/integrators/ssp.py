"""Strong-stability-preserving explicit Runge-Kutta methods in Shu-Osher
form with embedded error estimators: SSP2 (2 stages, order 2), SSP3
(4 stages, order 3), SSP4 (10 stages, order 4).

Each stage is a convex combination of earlier stages plus forward-Euler
pieces; the embedded solution reuses the same stage derivatives, so the
error estimate costs one running register and no extra rhs calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import StepFailure
from ..state import StateVector


@dataclass(frozen=True)
class ShuOsherScheme:
    """rows[i] = (alpha_i, beta_i) produces stage i+2 (1-based stage
    numbering, stage 1 is f_n) or, for the last row, the step result:
        z = sum_j alpha[j] z_j + h sum_j beta[j] F_j.

    The rows and the embedded weights are the only coefficient data;
    the stage count and the Butcher arrays are derived from the rows.
    """

    name: str
    order: int
    embedded_order: int
    rows: tuple
    b_embedded: np.ndarray

    @property
    def s(self) -> int:
        return len(self.rows)

    def ssp_coefficient(self) -> float:
        """Monotonicity radius: min alpha/beta over paired entries."""
        ratios = []
        for alpha, beta in self.rows:
            for j, bj in beta.items():
                if bj > 0:
                    ratios.append(alpha.get(j, 0.0) / bj)
        return min(ratios)

    def butcher(self):
        """Equivalent Butcher arrays (A, b, c), derived from the rows."""
        return self._butcher

    @cached_property
    def _butcher(self):
        a = [np.zeros(self.s)]
        for alpha, beta in self.rows:
            row = np.zeros(self.s)
            for j, w in alpha.items():
                row += w * a[j - 1]
            for j, w in beta.items():
                row[j - 1] += w
            a.append(row)
        mat = np.array(a[:self.s])
        arrays = (mat, np.array(a[self.s]), mat.sum(axis=1))
        for x in arrays:
            x.flags.writeable = False
        return arrays

    @cached_property
    def _drops(self) -> tuple:
        """drops[i]: the stages that no row after row i reads."""
        last = {}
        for i, (alpha, beta) in enumerate(self.rows):
            for j in (*alpha, *beta):
                last[j] = i
        return tuple(tuple(j for j, k in last.items() if k == i)
                     for i in range(self.s))

    @cached_property
    def real_axis_bound(self) -> float:
        """Length beta of the negative real interval [-beta, 0] on which
        the stability function stays in the unit disk, |R(z)| <= 1.

        For an explicit method R(z) = sum_k (b^T A^(k-1) 1) z^k up to
        degree s; the boundary is the exceedance nearest the origin,
        found on a scan of [-2 s^2, 0] (no explicit s-stage method is
        stable beyond 2 s^2) and refined by bisection.
        """
        a, b, _ = self.butcher()
        coeffs = [1.0]
        v = np.ones(self.s)
        for _ in range(self.s):
            coeffs.append(float(b @ v))
            v = a @ v
        amp = np.polynomial.Polynomial(coeffs)
        z = np.linspace(-2.0 * self.s**2, 0.0, 200 * self.s**2 + 1)
        i = int(np.nonzero(np.abs(amp(z)) > 1.0)[0].max())
        lo, hi = z[i], z[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if abs(amp(mid)) > 1.0:
                lo = mid
            else:
                hi = mid
        return float(-hi)


def _ssp2() -> ShuOsherScheme:
    rows = (
        ({1: 1.0}, {1: 1.0}),
        ({1: 0.5, 2: 0.5}, {2: 0.5}),
    )
    return ShuOsherScheme("ssp2", 2, 1, rows,
                          b_embedded=np.array([0.75, 0.25]))


def _ssp3() -> ShuOsherScheme:
    rows = (
        ({1: 1.0}, {1: 0.5}),
        ({2: 1.0}, {2: 0.5}),
        ({1: 2.0 / 3.0, 3: 1.0 / 3.0}, {3: 1.0 / 6.0}),
        ({4: 1.0}, {4: 0.5}),
    )
    return ShuOsherScheme("ssp3", 3, 2, rows, b_embedded=np.full(4, 0.25))


def _ssp4() -> ShuOsherScheme:
    rows = []
    for i in range(1, 5):
        rows.append(({i: 1.0}, {i: 1.0 / 6.0}))
    rows.append(({1: 3.0 / 5.0, 5: 2.0 / 5.0}, {5: 1.0 / 15.0}))
    for i in range(6, 10):
        rows.append(({i: 1.0}, {i: 1.0 / 6.0}))
    rows.append(({1: 1.0 / 25.0, 5: 9.0 / 25.0, 10: 3.0 / 5.0},
                 {5: 3.0 / 50.0, 10: 1.0 / 10.0}))
    b_embedded = np.array([7.0, 18.0, 4.0, 10.0, 11.0,
                           10.0, 10.0, 10.0, 10.0, 10.0]) / 100.0
    return ShuOsherScheme("ssp4", 4, 3, tuple(rows), b_embedded)


SSP_SCHEMES = {2: _ssp2(), 3: _ssp3(), 4: _ssp4()}


def ssp_scheme(order: int) -> ShuOsherScheme:
    try:
        return SSP_SCHEMES[order]
    except KeyError:
        raise ValueError(f"no SSP scheme of order {order}; choose 2, 3 or 4")


def ssp_step(rhs, t_n: float, f_n: StateVector, h: float,
             scheme: ShuOsherScheme):
    """One SSP step; returns (f_next, error_estimate) where the estimate
    is the difference to the embedded lower-order solution.

    Each row's combination starts from its first alpha term, and a stage
    value or derivative is dropped after the last row that reads it.
    """
    lay = f_n.layout
    _, b, c = scheme.butcher()
    d = b - scheme.b_embedded
    live = {1: f_n.values}
    fs = {}
    err = np.zeros(lay.n_dof)
    for i, (alpha, beta) in enumerate(scheme.rows):
        for j in beta:
            if j not in fs:
                fj = rhs(t_n + c[j - 1] * h, StateVector(live[j], lay)).values
                err += d[j - 1] * fj
                fs[j] = fj
        (j0, w0), *rest = alpha.items()
        z = w0 * live[j0]
        for j, w in rest:
            z += w * live[j]
        for j, w in beta.items():
            z += (h * w) * fs[j]
        for j in scheme._drops[i]:
            del live[j]
            fs.pop(j, None)
        live[i + 2] = z
    if not np.all(np.isfinite(z)):
        raise StepFailure("non-finite values in SSP stages")
    return StateVector(z, lay), StateVector(h * err, lay)
