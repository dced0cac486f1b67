import numpy as np
import pytest

from stsdiff.problems import DgProblem, FdProblem
from stsdiff.state import GridLayout

PROBLEMS = {"fd": FdProblem, "dg": DgProblem}


def make(kind, n_v, n_x):
    return PROBLEMS[kind](GridLayout(kind, n_v, n_x), 1.0)


@pytest.mark.parametrize("kind", ["fd", "dg"])
@pytest.mark.parametrize("n_v", [1, 2, 3, 8])
def test_jacobian_diagonal_is_the_assembled_diagonal(kind, n_v):
    # FD at n_v = 1 is the zero operator: its single face couples the
    # point to itself
    p = make(kind, n_v, 3)
    np.testing.assert_array_equal(p.jacobian_diagonal().values,
                                  np.diag(p.assemble_matrix()))


@pytest.mark.parametrize("kind", ["fd", "dg"])
@pytest.mark.parametrize("n_v,n_x", [(1, 1), (2, 5), (5, 2), (7, 3)])
def test_line_block_repeats_on_every_line(kind, n_v, n_x):
    # covers a last probe call with fewer columns than lines, and more
    # lines than columns
    p = make(kind, n_v, n_x)
    a = p.line_matrix()
    dense = p.assemble_matrix()
    lines = p.to_lines(np.arange(p.layout.n_dof))
    assert lines.shape == (p.modes * n_x, p.modes * n_v)
    for at in lines:
        assert np.array_equal(dense[np.ix_(at, at)], a)


@pytest.mark.parametrize("kind,n_v,n_x,calls",
                         [("fd", 64, 64, 1), ("fd", 64, 8, 8),
                          ("dg", 120, 20, 6), ("dg", 8, 2, 4)])
def test_line_block_probes_one_column_per_line_and_call(kind, n_v, n_x,
                                                       calls, monkeypatch):
    p = make(kind, n_v, n_x)
    seen = []
    rhs = p.rhs

    def counted(t, u):
        seen.append(t)
        return rhs(t, u)

    monkeypatch.setattr(p, "rhs", counted)
    p.line_matrix()
    assert len(seen) == calls
