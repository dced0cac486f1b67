import math

import numpy as np
import pytest

from stsdiff.bench import PROBLEMS
from stsdiff.problems import DgProblem, FdProblem
from stsdiff.problems.lines import initial_profile
from stsdiff.state import GridLayout, StateVector


def make(kind, n_v, n_x):
    return PROBLEMS[kind](GridLayout(kind, n_v, n_x), 1.0)


@pytest.mark.parametrize("kind", ["fd", "dg"])
@pytest.mark.parametrize("n_v", [1, 2, 3, 8])
def test_jacobian_diagonal_is_the_assembled_diagonal(kind, n_v):
    # the line block's diagonal, repeated on every line, is the diagonal
    # of the assembled Jacobian.  FD at n_v = 1 is the zero operator: its
    # single face couples the point to itself
    p = make(kind, n_v, 3)
    d = np.diagonal(p.line_matrix())
    np.testing.assert_array_equal(p.to_lines(np.diag(p.assemble_matrix())),
                                  np.broadcast_to(d, (p.modes * 3, d.size)))


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


SMALL_GRIDS = pytest.mark.parametrize(
    "n_v,n_x", [(n_v, n_x) for n_v in (1, 2, 3) for n_x in (1, 3)])


@pytest.mark.parametrize("kind", ["fd", "dg"])
@SMALL_GRIDS
def test_rhs_leaves_its_input_untouched(kind, n_v, n_x):
    # at n_v <= 2 a cell's two periodic neighbours coincide
    p = make(kind, n_v, n_x)
    rng = np.random.default_rng(n_v * 10 + n_x)
    x = rng.standard_normal(p.layout.n_dof)
    before = x.copy()
    p.rhs(0.0, StateVector(x, p.layout))
    np.testing.assert_array_equal(x, before)
    # sts_step passes one row of its (5, N) block of stage states
    block = rng.standard_normal((5, p.layout.n_dof))
    before = block.copy()
    p.rhs(0.0, StateVector(block[2], p.layout))
    np.testing.assert_array_equal(block, before)


@pytest.mark.parametrize("kind", ["fd", "dg"])
@SMALL_GRIDS
def test_rhs_output_is_fresh_and_contiguous(kind, n_v, n_x):
    p = make(kind, n_v, n_x)
    block = np.random.default_rng(n_v * 10 + n_x).standard_normal(
        (5, p.layout.n_dof))
    for x in (block[2], block[2].copy()):
        du = p.rhs(0.0, StateVector(x, p.layout)).values
        assert du.flags.c_contiguous
        assert not np.shares_memory(du, x)
        assert not np.shares_memory(du, block)


@pytest.mark.parametrize("kind", ["fd", "dg"])
@pytest.mark.parametrize("nu,modulation", [
    (1.0, 1.5), (1.0, 1.0), (1.0, -1.0), (1.0, math.nan), (0.0, 0.5),
    (-1.0, 0.5), (math.nan, 0.5), (math.inf, 0.5)])
def test_rejects_a_diffusivity_not_positive_everywhere(kind, nu, modulation):
    # D(v) = nu (1 + modulation sin v) > 0 at every v exactly when nu is
    # positive and |modulation| < 1, whether or not a grid point samples
    # the zero of D: FD 16x1 has no face at v = -pi/2 or pi/2
    with pytest.raises(ValueError, match="positive everywhere"):
        PROBLEMS[kind](GridLayout(kind, 16, 1), nu, modulation=modulation)


@pytest.mark.parametrize("kind", ["fd", "dg"])
@pytest.mark.parametrize("modulation", [-0.999999, 0.0, 0.999999])
def test_admits_modulation_inside_the_unit_interval(kind, modulation):
    p = PROBLEMS[kind](GridLayout(kind, 16, 1), 1e-3, modulation=modulation)
    assert np.all(p.face_d > 0.0)
    v = np.linspace(-np.pi, np.pi, 7)
    np.testing.assert_array_equal(p.diffusivity(v),
                                  1e-3 * (1.0 + modulation * np.sin(v)))


@pytest.mark.parametrize("penalty_c", [0.0, -1.0, math.nan, math.inf])
def test_dg_penalty_must_be_positive_and_finite(penalty_c):
    with pytest.raises(ValueError, match="penalty"):
        DgProblem(GridLayout("dg", 8, 1), 1.0, penalty_c=penalty_c)


def test_both_initial_states_come_from_the_one_profile():
    # FD samples the profile at v_i = -pi + i dv; DG's cell averages are
    # its 8-point Gauss means over each cell
    fd = FdProblem(GridLayout("fd", 32, 1), 1.0)
    v = -np.pi + np.arange(32) * fd.layout.dv
    np.testing.assert_array_equal(fd.initial_condition().values,
                                  initial_profile(v))
    dg = DgProblem(GridLayout("dg", 32, 1), 1.0)
    avg = dg.initial_condition().values.reshape(32, 4)[:, 0]
    xq, wq = np.polynomial.legendre.leggauss(8)
    vq = (dg.edges[:-1, None] + dg.edges[1:, None]) / 2 \
        + dg.layout.dv / 2 * xq
    np.testing.assert_allclose(avg, 0.5 * initial_profile(vq) @ wq,
                               rtol=1e-14)
