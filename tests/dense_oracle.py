"""The tests' dense oracle: exp(A t) f0 from one eigendecomposition of
the whole N x N matrix that a problem's assemble_matrix probes from rhs.

It shares only rhs with the package's reference, which decomposes one
line block, so each route checks the other.  Small grids only.
"""

import numpy as np


def dense_expm(problem, times) -> np.ndarray:
    """exp(A t) f0 at each of times, one row per time."""
    a = problem.assemble_matrix()
    assert np.array_equal(a, a.T), "the dense oracle needs a symmetric A"
    w, v = np.linalg.eigh(a)
    coeffs = v.T @ problem.initial_condition().values
    return np.stack([v @ (np.exp(w * t) * coeffs) for t in times])
