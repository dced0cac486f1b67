"""The Jacobian-free difference-quotient product, matrix-free
dominant-eigenvalue estimation by power iteration with it, and the
eigensafety factor policy.  This module only forms estimates; the time
loop's tracker turns them into the lam_eff that drives a step."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import StepFailure
from .state import GridLayout, StateVector, ToleranceSpec, is_count, wrms


# an estimate that has not met its tau stop after this many iterations
# did not converge
MAX_POWER_ITERS = 100


@dataclass(frozen=True)
class PowerIterConfig:
    tau: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        if not is_count(self.seed, 0):
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class DomEigEstimate:
    lambda_approx: float
    iters: int
    converged: bool


def min_safe_q(tau: float) -> float:
    """Smallest q that offsets an estimate at most a relative tau below
    the dominant eigenvalue: q > 1/(1-tau).

    The tau stop of power_iterate bounds the last relative change of the
    Rayleigh quotient, not its error.  It bounds the error only when the
    spectrum has a clear gap below the dominant eigenvalue; on a
    clustered spectrum the quotient stalls further down (13.4% on the
    interior-penalty operator at 120x20 with tau = 0.1), and a q above
    this threshold can still be too small.
    """
    return 1.0 / (1.0 - tau)


def warn_if_unsafe(q_lambda: float, tau: float) -> bool:
    """Warn, and return True, when q is at or below min_safe_q(tau).

    Silence is not a guarantee: the threshold holds only where the tau
    stop bounds the estimate's error, i.e. for a spectrum with a clear
    gap (see min_safe_q).
    """
    threshold = min_safe_q(tau)
    if q_lambda <= threshold:
        warnings.warn(
            f"eigensafety factor {q_lambda} is at or below "
            f"1/(1-tau) = {threshold:.4f}; eigenvalue underestimation can "
            f"cause step failures", stacklevel=2)
        return True
    return False


def constant_mode(layout: GridLayout) -> np.ndarray:
    """Unit vector along the globally constant function (the operator
    nullspace direction shared by both discretizations)."""
    e = np.zeros(layout.n_dof)
    e.reshape(layout.n_cells, layout.n_b)[:, 0] = 1.0
    return e / np.linalg.norm(e)


def _dq(rhs, t: float, x: StateVector, base: np.ndarray, v: np.ndarray,
        ref: StateVector, tol: ToleranceSpec, norm_kind: str) -> np.ndarray:
    """Jacobian-free product J(x) v ~ (rhs(t, x + sigma v) - base) /
    sigma with base = rhs(t, x) and sigma = 1/||v||_WRMS, weighted by
    the state ref (Knoll & Keyes, J. Comput. Phys. 193, 2004).  Every
    Jacobian product of the package is formed here, at one rhs call."""
    nrm = wrms(norm_kind, StateVector(v, x.layout), ref, tol)
    if nrm == 0.0:
        raise ValueError("perturbation direction has zero weighted norm")
    sigma = 1.0 / nrm
    pert = StateVector(x.values + sigma * v, x.layout)
    return (rhs(t, pert).values - base) / sigma


def _start_vector(layout: GridLayout, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, layout.n_dof)
    e0 = constant_mode(layout)
    # deflate the known zero mode; the operator removes it anyway after
    # one product, but a deflated start keeps the degenerate all-null
    # draw out of the loop
    return v - (v @ e0) * e0


def power_iterate(rhs, t: float, f: StateVector, g: StateVector,
                  cfg: PowerIterConfig, tol: ToleranceSpec,
                  v0: np.ndarray | None = None) -> DomEigEstimate:
    """Power iteration with Euclidean renormalization and a Rayleigh
    quotient that reuses the update product.  Every product is taken
    around g = rhs(t, f), which the caller supplies and the iteration
    only reads, so an estimate of `iters` iterations costs `iters` rhs
    calls.

    Stops when the relative Rayleigh change drops below cfg.tau, which
    bounds the error only for a spectrum with a clear gap (see
    min_safe_q).  v0 overrides the seeded start vector.  An operator
    that annihilates the start vector gives the exact estimate 0, and so
    does a zero start vector, at no rhs call: on a one-dof grid the
    seeded draw is the constant mode, which deflation removes.  A
    non-finite product raises StepFailure.
    """
    v = _start_vector(f.layout, cfg.seed) if v0 is None else np.array(
        v0, dtype=float)
    if not np.any(v):
        return DomEigEstimate(0.0, 0, True)
    lam = 0.0
    lam_prev = None
    for k in range(1, MAX_POWER_ITERS + 1):
        w = _dq(rhs, t, f, g.values, v, f, tol, "component")
        if not np.all(np.isfinite(w)):
            raise StepFailure("non-finite values in power iteration product")
        wnorm = np.linalg.norm(w)
        if wnorm == 0.0:
            return DomEigEstimate(0.0, k, True)
        lam = float(np.dot(v, w) / np.dot(v, v))
        if lam_prev is not None and lam != 0.0 \
                and abs(lam - lam_prev) / abs(lam) < cfg.tau:
            return DomEigEstimate(lam, k, True)
        v = w / wnorm
        lam_prev = lam
    return DomEigEstimate(lam, MAX_POWER_ITERS, False)

