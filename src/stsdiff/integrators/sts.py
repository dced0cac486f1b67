"""Super-time-stepping: second-order Runge-Kutta-Chebyshev (RKC2) and
Runge-Kutta-Legendre (RKL2) single-step methods.

Both run the same three-register recursion

    z_0 = f_n
    z_1 = z_0 + h a~_1 G(t_n, z_0)
    z_j = a_j z_{j-1} + b_j z_{j-2} + (1 - a_j - b_j) z_0
          + h a~_j G(t_{n,j-1}, z_{j-1}) + h g~_j G(t_n, z_0)

and differ only in the coefficient construction (shifted Legendre vs
damped Chebyshev).  The caller supplies G(t_n, z_0), the state's
right-hand side, so a step costs s right-hand-side calls: s - 1 for the
stages and one for G(t_n + h, f_next), which the error estimate needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import StepFailure
from ..state import StateVector

RKC_DAMPING = 2.0 / 13.0
STAGE_CAP = 10_000


@dataclass(frozen=True)
class StsCoefficients:
    """Arrays indexed by stage number j; entries below the first valid j
    are zero-filled.  alpha_tilde[1] is the first-stage h-multiplier and
    c[j] the internal abscissa fraction of stage j (c[s] = 1)."""

    s: int
    alpha: np.ndarray
    beta: np.ndarray
    alpha_tilde: np.ndarray
    gamma_tilde: np.ndarray
    c: np.ndarray


def _abscissae(s, alpha, beta, alpha_tilde, gamma_tilde) -> np.ndarray:
    # run the recursion on f' = 1: the stage values are the internal
    # time fractions consistent with the implemented scheme
    c = np.zeros(s + 1)
    c[1] = alpha_tilde[1]
    for j in range(2, s + 1):
        c[j] = alpha[j] * c[j - 1] + beta[j] * c[j - 2] \
            + alpha_tilde[j] + gamma_tilde[j]
    return c


def rkl2_coefficients(s: int) -> StsCoefficients:
    """Shifted-Legendre construction, b_j = (j^2+j-2)/(2j(j+1))."""
    if s < 2:
        raise ValueError("RKL2 needs at least 2 stages")
    j = np.arange(s + 1, dtype=float)
    b = np.empty(s + 1)
    b[0] = b[1] = 1.0 / 3.0
    jj = j[2:]
    b[2:] = (jj**2 + jj - 2.0) / (2.0 * jj * (jj + 1.0))
    a = 1.0 - b
    w1 = 4.0 / (s**2 + s - 2.0)

    alpha = np.zeros(s + 1)
    beta = np.zeros(s + 1)
    alpha_tilde = np.zeros(s + 1)
    gamma_tilde = np.zeros(s + 1)
    alpha_tilde[1] = b[1] * w1
    for k in range(2, s + 1):
        alpha[k] = (2.0 * k - 1.0) / k * b[k] / b[k - 1]
        beta[k] = -(k - 1.0) / k * b[k] / b[k - 2]
        alpha_tilde[k] = alpha[k] * w1
        gamma_tilde[k] = -a[k - 1] * alpha_tilde[k]
    c = _abscissae(s, alpha, beta, alpha_tilde, gamma_tilde)
    return StsCoefficients(s, alpha, beta, alpha_tilde, gamma_tilde, c)


def _chebyshev_table(s: int, x: float):
    """T_j(x), T_j'(x), T_j''(x) for j = 0..s by three-term recurrences."""
    t = np.empty(s + 1)
    tp = np.empty(s + 1)
    tpp = np.empty(s + 1)
    t[0], tp[0], tpp[0] = 1.0, 0.0, 0.0
    t[1], tp[1], tpp[1] = x, 1.0, 0.0
    for k in range(2, s + 1):
        t[k] = 2.0 * x * t[k - 1] - t[k - 2]
        tp[k] = 2.0 * t[k - 1] + 2.0 * x * tp[k - 1] - tp[k - 2]
        tpp[k] = 4.0 * tp[k - 1] + 2.0 * x * tpp[k - 1] - tpp[k - 2]
    return t, tp, tpp


def rkc2_coefficients(s: int) -> StsCoefficients:
    """Damped-Chebyshev construction with damping 2/13."""
    if s < 2:
        raise ValueError("RKC2 needs at least 2 stages")
    w0 = 1.0 + RKC_DAMPING / s**2
    t, tp, tpp = _chebyshev_table(s, w0)
    w1 = tp[s] / tpp[s]

    b = np.empty(s + 1)
    b[2:] = tpp[2:] / tp[2:]**2
    b[0] = b[1] = b[2]
    a = 1.0 - b * t

    alpha = np.zeros(s + 1)
    beta = np.zeros(s + 1)
    alpha_tilde = np.zeros(s + 1)
    gamma_tilde = np.zeros(s + 1)
    alpha_tilde[1] = b[1] * w1
    for k in range(2, s + 1):
        alpha[k] = 2.0 * w0 * b[k] / b[k - 1]
        beta[k] = -b[k] / b[k - 2]
        alpha_tilde[k] = 2.0 * w1 * b[k] / b[k - 1]
        gamma_tilde[k] = -a[k - 1] * alpha_tilde[k]
    c = _abscissae(s, alpha, beta, alpha_tilde, gamma_tilde)
    return StsCoefficients(s, alpha, beta, alpha_tilde, gamma_tilde, c)


def stability_interval(family: str, s: int) -> float:
    """Length of the negative-real-axis stability interval.

    RKL2 admits the closed form (s^2+s-2)/2.  For RKC2 the damped
    interval is (1+w0)/w1 = (1+w0) T_s''(w0)/T_s'(w0); the often-quoted
    0.653 s^2 slightly overshoots it at small even s, so the exact
    expression is used.  With w0 = cosh(theta), T_s(w0) = cosh(s theta)
    gives it in closed form,
        (1+w0) (s coth(s theta) - coth(theta)) / sinh(theta),
    which stays within a few ulps where the Chebyshev recurrence drifts
    (1e-9 near s = 10^4) and costs O(1) instead of O(s).
    """
    if s < 2:
        raise ValueError("stabilized families start at 2 stages")
    if family == "rkl2":
        return (s * s + s - 2.0) / 2.0
    if family == "rkc2":
        x = RKC_DAMPING / s**2
        # theta = acosh(1 + x), without the rounding of forming 1 + x
        theta = math.log1p(x + math.sqrt(x * (2.0 + x)))
        return ((2.0 + x) * (s / math.tanh(s * theta) - 1.0 / math.tanh(theta))
                / math.sinh(theta))
    raise ValueError(f"unknown family {family!r}")


def stage_count(h: float, lambda_eff: float, family: str) -> int:
    """Smallest s >= 2 whose stability interval covers h * lambda_eff;
    raises StepFailure when that s exceeds STAGE_CAP."""
    if h <= 0:
        raise ValueError("step size must be positive")
    if lambda_eff < 0:
        raise ValueError("lambda_eff is a magnitude")
    target = h * lambda_eff
    if target <= stability_interval(family, 2):
        return 2
    if target > stability_interval(family, STAGE_CAP):
        raise StepFailure(
            f"step needs more than {STAGE_CAP} stages "
            f"(h*lambda = {target:.3g}); reduce the step size")
    # both families scale as ~0.65 s^2; start near the answer and walk
    s = max(2, int(np.sqrt(target / 0.65)) - 2)
    while stability_interval(family, s) < target:
        s += 1
    while s > 2 and stability_interval(family, s - 1) >= target:
        s -= 1
    return s


def sts_step(rhs, t_n: float, f_n: StateVector, h: float,
             coeffs: StsCoefficients, g_n: StateVector):
    """One super-time-step from f_n, whose right-hand side
    g_n = rhs(t_n, f_n) the caller supplies and the step only reads.

    Returns (f_next, g_next) where g_next = rhs(t_n + h, f_next); with
    g_n they feed the cubic-Hermite error estimator.  The five arrays a
    stage reads, z_{j-1}, z_{j-2}, z_0, g = G(t_{n,j-1}, z_{j-1}) and
    g_0, are the rows of one (5, N) block, so each stage is one weighted
    sum of its rows; the two z rows swap roles after every stage.
    """
    lay = f_n.layout
    s = coeffs.s
    alpha, beta = coeffs.alpha.tolist(), coeffs.beta.tolist()
    alpha_tilde = coeffs.alpha_tilde.tolist()
    gamma_tilde = coeffs.gamma_tilde.tolist()
    c = coeffs.c.tolist()
    g0 = g_n.values
    rows = np.empty((5, lay.n_dof))
    rows[0] = f_n.values + (h * alpha_tilde[1]) * g0
    rows[1] = f_n.values
    rows[2] = f_n.values
    rows[4] = g0
    prev, older = 0, 1
    w = np.empty(5)
    for j in range(2, s + 1):
        t_stage = t_n + c[j - 1] * h
        rows[3] = rhs(t_stage, StateVector(rows[prev], lay)).values
        a, b = alpha[j], beta[j]
        w[2:] = (1.0 - a - b, h * alpha_tilde[j], h * gamma_tilde[j])
        w[prev] = a
        w[older] = b
        rows[older] = w @ rows
        prev, older = older, prev
    z = rows[prev].copy()
    if not np.all(np.isfinite(z)):
        raise StepFailure("non-finite values in super-time-step stages")
    f_next = StateVector(z, lay)
    g_next = rhs(t_n + h, f_next)
    if not np.all(np.isfinite(g_next.values)):
        raise StepFailure("non-finite right-hand side after step")
    return f_next, g_next


def hermite_error(f_n: StateVector, f_next: StateVector, g_n: StateVector,
                  g_next: StateVector, h: float) -> StateVector:
    """Cubic-Hermite temporal error estimate
    (1/15) [12 (f_n - f_next) + 6 h (g_n + g_next)]."""
    eps = (12.0 * (f_n.values - f_next.values)
           + 6.0 * h * (g_n.values + g_next.values)) / 15.0
    return StateVector(eps, f_n.layout)
