"""Correctness checks applied to every operation of a run.

Each check returns a list of reasons; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

from exact import ExactSolution, mass, relative_linf

# Relative drift of total mass allowed at any sample.  Both operators
# conserve mass exactly in exact arithmetic; the largest drift measured
# on these workloads is 7.8e-13 (dg-ssp4-capped).
MASS_RTOL = 1e-11
# The program's reference must agree with the exact solution this well.
REFERENCE_TOL = 1e-8
# Global error of per-step error control for an order-p method grows
# like rtol^(p/(p+1)); fixed steps of size h give h^p.  The constants
# sit 4-11 times above the largest value measured on the workloads (see
# README.md); the fixed-step ones are per method.
ADAPTIVE_LAW_CONST = 1.0
FIXED_LAW_CONST = {"rkl": 100.0, "ssp3": 1000.0}


def error_bound(method: str, order: int, rtol: float | None = None,
                h: float | None = None) -> float:
    if (rtol is None) == (h is None):
        raise ValueError("give exactly one of rtol and h")
    if h is not None:
        return FIXED_LAW_CONST[method] * h**order
    return ADAPTIVE_LAW_CONST * rtol ** (order / (order + 1.0))


def check_samples(samples: np.ndarray, exact: ExactSolution,
                  bound: float) -> tuple[list[str], float]:
    """Checks one integration's (n_samples, n_dof) output; returns
    (reasons, relative L-inf error against the exact solution)."""
    if samples.shape != exact.snapshots.shape:
        return [f"expected samples of shape {exact.snapshots.shape}, "
                f"got {samples.shape}"], float("nan")
    if not np.all(np.isfinite(samples)):
        return ["non-finite sample values"], float("nan")
    reasons = []
    drift = max(abs(mass(exact.kind, exact.n_v, exact.n_x, s) / exact.mass0
                    - 1.0) for s in samples)
    if drift > MASS_RTOL:
        reasons.append(f"mass drift {drift:.3e} above {MASS_RTOL:.0e}")
    err = relative_linf(samples, exact.snapshots)
    if not err <= bound:
        reasons.append(f"error {err:.3e} above the law bound {bound:.3e}")
    return reasons, err


def check_reference(snapshots: np.ndarray, exact: ExactSolution
                    ) -> tuple[list[str], float]:
    """The program's reference snapshots against the exact solution."""
    if snapshots.shape != exact.snapshots.shape:
        return ["reference shape differs from the exact solution"], \
            float("nan")
    err = relative_linf(snapshots, exact.snapshots)
    if not err <= REFERENCE_TOL:
        return [f"program reference off by {err:.3e}"], err
    return [], err
