"""Stabilized explicit, strong-stability-preserving, and diagonally implicit
time integrators for stiff variable-coefficient diffusion, with matrix-free
dominant-eigenvalue estimation and a benchmarking harness."""

__version__ = "0.1.0"

from .state import (
    GridLayout,
    StateVector,
    ToleranceSpec,
    wrms,
)
from .timeloop import (
    ControllerConfig,
    EigPolicy,
    RunStats,
    advance_adaptive,
    advance_fixed,
    make_method,
)

__all__ = [
    "ControllerConfig",
    "EigPolicy",
    "GridLayout",
    "RunStats",
    "StateVector",
    "ToleranceSpec",
    "advance_adaptive",
    "advance_fixed",
    "make_method",
    "wrms",
]
