"""Strong-stability-preserving explicit Runge-Kutta methods in Shu-Osher
form with embedded error estimators: SSP2 (2 stages, order 2), SSP3
(4 stages, order 3), SSP4 (10 stages, order 4).

Each stage is a convex combination of earlier stages plus forward-Euler
pieces; the embedded solution reuses the same stage derivatives, so the
error estimate costs one running register and no extra rhs calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..errors import StepFailure
from ..state import StateVector


class _Row(NamedTuple):
    """One Shu-Osher row as ssp_step runs it.  A key names what the row
    reads: j > 0 is stage j's value and -j its derivative F_j."""

    evals: tuple    # (j, c_j, d_j, starts_err) per F_j first read here
    head: tuple     # (key, w), the first alpha term
    terms: tuple    # (key, w, times_h) for the other terms, in row order
    last: tuple | None  # (key, w) of a fresh F_j that no later row reads
    drops: tuple    # keys that no later row reads


@dataclass(frozen=True)
class ShuOsherScheme:
    """rows[i] = (alpha_i, beta_i) produces stage i+2 (1-based stage
    numbering, stage 1 is f_n) or, for the last row, the step result:
        z = sum_j alpha[j] z_j + h sum_j beta[j] F_j.

    The rows and the embedded weights are the only coefficient data;
    the stage count and the Butcher arrays are derived from the rows.
    The rows hold exact fractions: the Butcher arrays are derived in
    rational arithmetic and rounded once, so weights that are equal in
    exact arithmetic, such as b and b_embedded at six of SSP4's ten
    stages, are equal as floats too.
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
                    ratios.append(alpha.get(j, 0) / bj)
        return float(min(ratios))

    def butcher(self):
        """Equivalent Butcher arrays (A, b, c), derived from the rows."""
        return self._butcher

    @cached_property
    def _butcher(self):
        a = [[Fraction(0)] * self.s]
        for alpha, beta in self.rows:
            row = [sum(w * a[j - 1][k] for j, w in alpha.items())
                   for k in range(self.s)]
            for j, w in beta.items():
                row[j - 1] += w
            a.append(row)
        arrays = (np.array(a[:self.s], dtype=float),
                  np.array(a[self.s], dtype=float),
                  np.array([sum(row) for row in a[:self.s]], dtype=float))
        for x in arrays:
            x.flags.writeable = False
        return arrays

    @cached_property
    def _plan(self) -> tuple:
        """The rows compiled once for ssp_step, one _Row each.

        A row evaluates the derivatives it is the first to read, each
        with its abscissa c_j and error weight d_j = b_j - b_embedded_j;
        the first nonzero d_j starts the estimate.  Its terms keep the
        row's order, alpha then beta, with float weights.  A last term
        whose derivative the row evaluates and no later row reads is
        held apart: the step scales that derivative in place and adds
        the rest of the row into it.
        """
        _, b, c = self.butcher()
        d = b - self.b_embedded
        last_read = {}
        for i, (alpha, beta) in enumerate(self.rows):
            for k in (*alpha, *(-j for j in beta)):
                last_read[k] = i
        plan, evaluated, started = [], set(), False
        for i, (alpha, beta) in enumerate(self.rows):
            fresh = [j for j in beta if j not in evaluated]
            evaluated.update(fresh)
            evals = []
            for j in fresh:
                dj = float(d[j - 1])
                evals.append((j, float(c[j - 1]), dj,
                              bool(dj) and not started))
                started = started or bool(dj)
            (k0, w0, _), *terms = (
                [(k, float(w), False) for k, w in alpha.items()]
                + [(-j, float(w), True) for j, w in beta.items()])
            last = None
            if terms:
                k, w, _ = terms[-1]
                # F_1 is the caller's g_n, which the step only reads
                if -k in fresh and k != -1 and last_read[k] == i:
                    last = (k, w)
                    terms.pop()
            plan.append(_Row(tuple(evals), (k0, w0), tuple(terms), last,
                             tuple(k for k, r in last_read.items()
                                   if r == i)))
        return tuple(plan)

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
    half = Fraction(1, 2)
    rows = (
        ({1: Fraction(1)}, {1: Fraction(1)}),
        ({1: half, 2: half}, {2: half}),
    )
    return ShuOsherScheme("ssp2", 2, 1, rows,
                          b_embedded=np.array([0.75, 0.25]))


def _ssp3() -> ShuOsherScheme:
    half = Fraction(1, 2)
    rows = (
        ({1: Fraction(1)}, {1: half}),
        ({2: Fraction(1)}, {2: half}),
        ({1: Fraction(2, 3), 3: Fraction(1, 3)}, {3: Fraction(1, 6)}),
        ({4: Fraction(1)}, {4: half}),
    )
    return ShuOsherScheme("ssp3", 3, 2, rows, b_embedded=np.full(4, 0.25))


def _ssp4() -> ShuOsherScheme:
    sixth = Fraction(1, 6)
    rows = []
    for i in range(1, 5):
        rows.append(({i: Fraction(1)}, {i: sixth}))
    rows.append(({1: Fraction(3, 5), 5: Fraction(2, 5)}, {5: Fraction(1, 15)}))
    for i in range(6, 10):
        rows.append(({i: Fraction(1)}, {i: sixth}))
    rows.append(({1: Fraction(1, 25), 5: Fraction(9, 25), 10: Fraction(3, 5)},
                 {5: Fraction(3, 50), 10: Fraction(1, 10)}))
    b_embedded = np.array([7.0, 18.0, 4.0, 10.0, 11.0,
                           10.0, 10.0, 10.0, 10.0, 10.0]) / 100.0
    return ShuOsherScheme("ssp4", 4, 3, tuple(rows), b_embedded)


SSP_SCHEMES = {2: _ssp2(), 3: _ssp3(), 4: _ssp4()}


def ssp_step(rhs, t_n: float, f_n: StateVector, h: float,
             scheme: ShuOsherScheme, g_n: StateVector):
    """One SSP step; returns (f_next, error_estimate) where the estimate
    is the difference to the embedded lower-order solution.

    Stage 1 is f_n itself, and its derivative is g_n = rhs(t_n, f_n),
    which the caller supplies and the step only reads; so an s-stage
    step costs s - 1 right-hand-side calls.  Every other rhs call must
    return a new array that the caller owns: the step may scale it in
    place.

    The step runs the scheme's compiled rows (ShuOsherScheme._plan) in
    row order, with the floating-point operations of a term-by-term
    evaluation: a unit first weight is exact, so that term is read, not
    multiplied, and a fresh derivative that no later row reads is scaled
    in place, since fl(w F) + z equals z + fl(w F).  A stage value or
    derivative is dropped after the last row that reads it, and stages
    whose solution and embedded weights agree add nothing to the
    estimate.
    """
    lay = f_n.layout
    vals = {1: f_n.values}
    for i, (evals, (k0, w0), terms, last, drops) in enumerate(scheme._plan):
        for j, cj, dj, starts_err in evals:
            fj = g_n.values if j == 1 else rhs(
                t_n + cj * h, StateVector(vals[j], lay)).values
            if starts_err:
                err = dj * fj
            elif dj:
                err += dj * fj
            vals[-j] = fj
        z = vals[k0] if w0 == 1.0 else w0 * vals[k0]
        owned = w0 != 1.0          # z is a buffer of this step's own
        for k, w, times_h in terms:
            if times_h:
                w = h * w
            # the product stays unnamed, so it is freed before the next
            # row's rhs call
            if owned:
                z += w * vals[k]
            else:
                z, owned = z + w * vals[k], True
        if last:
            k, w = last
            fk = vals[k]
            fk *= h * w
            fk += z
            z = fk
        for k in drops:
            del vals[k]
        vals[i + 2] = z
    if not np.all(np.isfinite(z)):
        raise StepFailure("non-finite values in SSP stages")
    err *= h
    return StateVector(z, lay), StateVector(err, lay)
