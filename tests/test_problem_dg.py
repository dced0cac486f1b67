import numpy as np
import pytest

from stsdiff.state import GridLayout, StateVector
from stsdiff.problems.dg import SQ3, DgProblem


def uniform_problem(n_v, n_x, nu=1.0, penalty_c=2.0):
    return DgProblem(GridLayout("dg", n_v, n_x), nu, penalty_c,
                     modulation=0.0)


def bench_problem(n_v, n_x, nu=1.0, penalty_c=2.0):
    return DgProblem(GridLayout("dg", n_v, n_x), nu, penalty_c)


def f0(v):
    return (1.0 + 0.3 * np.sin(2.0 * v)) / np.sqrt(5.5 * np.pi) \
        * np.exp(-v**2 / 5.5)


def outer_line_matrix(p):
    """Face-by-face dense assembly with outer products: the reference
    the block assembly is checked against."""
    n_v = p.layout.n_v
    dv = p.layout.dv
    n = 2 * n_v
    a = np.zeros((n, n))
    tau = p.penalty_c * 4.0 * p.face_d / dv
    for i in range(n_v):
        a[2 * i + 1, 2 * i + 1] += 12.0 / dv**2 * p.cell_d_integral[i]
    for i in range(n_v):
        left, right = i, (i + 1) % n_v
        d = p.face_d[i]
        # traces at the face: u- = g_L0 + sq3 g_L1, u+ = g_R0 - sq3 g_R1
        jump = np.zeros(n)
        jump[2 * left] += 1.0
        jump[2 * left + 1] += SQ3
        jump[2 * right] -= 1.0
        jump[2 * right + 1] += SQ3
        mean = np.zeros(n)
        mean[2 * left + 1] += d * SQ3 / dv
        mean[2 * right + 1] += d * SQ3 / dv
        a -= np.outer(mean, jump) + np.outer(jump, mean)
        a += tau[i] * np.outer(jump, jump)
    return -a / dv


def scattered_blocks(p):
    """The blocks of _assemble_blocks scattered into the dense line
    block, left neighbour, cell and right neighbour in turn; with
    n_v <= 2 the periodic neighbours coincide and their blocks add."""
    n_v = p.layout.n_v
    diag, left, right = p._assemble_blocks()
    a = np.zeros((2 * n_v, 2 * n_v))
    for i in range(n_v):
        for blk, j in ((left, i - 1), (diag, i), (right, i + 1)):
            j %= n_v
            a[2 * i:2 * i + 2, 2 * j:2 * j + 2] += blk[i]
    return a


STENCIL_GRIDS = pytest.mark.parametrize("n_v", [1, 2, 3, 8, 120])
STENCIL_FORMS = pytest.mark.parametrize(
    "modulation,penalty_c", [(0.0, 0.01), (0.0, 2.0), (0.99, 0.01),
                             (0.99, 2.0)])


def max_rel_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestLineOperator:
    def test_two_cell_uniform_fixture(self):
        # hand-assembled SIPG for two linear elements, uniform D = 1,
        # penalty constant 2: entries in units of 1/dv^2
        p = uniform_problem(2, 1)
        expected = np.array([
            [-16.0, 0.0, 16.0, 0.0],
            [0.0, -48.0, 0.0, -36.0],
            [16.0, 0.0, -16.0, 0.0],
            [0.0, -36.0, 0.0, -48.0],
        ]) / p.layout.dv**2
        np.testing.assert_allclose(p.line_matrix(), expected, rtol=1e-13)

    def test_symmetric(self):
        a = bench_problem(16, 1).line_matrix()
        assert np.max(np.abs(a - a.T)) < 1e-10 * np.max(np.abs(a))

    def test_negative_semidefinite_with_default_penalty(self):
        for nu in (0.1, 1.0):
            a = bench_problem(12, 1, nu).line_matrix()
            lam = np.linalg.eigvalsh(a)
            assert lam[-1] < 1e-8 * abs(lam[0])

    def test_weak_penalty_loses_coercivity(self):
        a = bench_problem(12, 1, penalty_c=0.01).line_matrix()
        lam = np.linalg.eigvalsh(a)
        assert lam[-1] > 1e-6 * abs(lam[0])

    @STENCIL_GRIDS
    @STENCIL_FORMS
    def test_blocks_scatter_to_outer_product_assembly(self, n_v, modulation,
                                                      penalty_c):
        p = DgProblem(GridLayout("dg", n_v, 1), 1.0, penalty_c,
                      modulation=modulation)
        assert max_rel_gap(p.line_matrix(), outer_line_matrix(p)) <= 1e-13

    @STENCIL_GRIDS
    @STENCIL_FORMS
    @pytest.mark.parametrize("n_x", [1, 3])
    def test_line_matrix_is_the_scattered_blocks_exactly(self, n_v, n_x,
                                                         modulation,
                                                         penalty_c):
        # each unit-vector probe meets one nonzero stencil entry, so the
        # probed block carries the assembled blocks bit for bit
        p = DgProblem(GridLayout("dg", n_v, n_x), 1.0, penalty_c,
                      modulation=modulation)
        np.testing.assert_array_equal(p.line_matrix(), scattered_blocks(p))


class TestRhs:
    def test_global_constant_in_kernel(self):
        p = bench_problem(8, 3)
        g = np.zeros((8, 3, 2, 2))
        g[:, :, 0, 0] = 4.2
        du = p.rhs(0.0, StateVector(g.reshape(-1), p.layout))
        assert np.max(np.abs(du.values)) < 1e-10

    def test_per_family_constant_in_kernel(self):
        # constant-in-v data carried on the psi_x family is annihilated too
        p = bench_problem(8, 3)
        g = np.zeros((8, 3, 2, 2))
        g[:, :, 1, 0] = -1.3
        du = p.rhs(0.0, StateVector(g.reshape(-1), p.layout))
        assert np.max(np.abs(du.values)) < 1e-10

    def test_mass_conservation(self):
        p = bench_problem(16, 4)
        rng = np.random.default_rng(5)
        scale = np.max(np.abs(p.line_matrix()))
        for _ in range(10):
            u = StateVector(rng.standard_normal(p.layout.n_dof), p.layout)
            du = p.rhs(0.0, u).values.reshape(16, 4, 2, 2)
            assert abs(np.sum(du[:, :, 0, 0])) < 1e-12 * scale
            assert abs(np.sum(du[:, :, 1, 0])) < 1e-12 * scale

    def test_lines_act_independently(self):
        p = bench_problem(8, 3)
        rng = np.random.default_rng(6)
        line = rng.standard_normal((8, 2))
        g = np.zeros((8, 3, 2, 2))
        g[:, 1, 1, :] = line
        du = p.rhs(0.0, StateVector(g.reshape(-1), p.layout))
        dg = du.values.reshape(8, 3, 2, 2)
        assert np.all(dg[:, 0] == 0.0)
        assert np.all(dg[:, 2] == 0.0)
        assert np.all(dg[:, 1, 0, :] == 0.0)
        expected = (line.reshape(-1) @ p.line_matrix().T).reshape(8, 2)
        np.testing.assert_allclose(dg[:, 1, 1, :], expected, rtol=1e-13)

    @STENCIL_GRIDS
    @STENCIL_FORMS
    @pytest.mark.parametrize("n_x", [1, 3])
    def test_stencil_matches_dense_line_product(self, n_v, n_x, modulation,
                                                penalty_c):
        p = DgProblem(GridLayout("dg", n_v, n_x), 1.0, penalty_c,
                      modulation=modulation)
        a = outer_line_matrix(p)
        rng = np.random.default_rng(n_v * 10 + n_x)
        for _ in range(3):
            x = rng.standard_normal(p.layout.n_dof)
            want = p.from_lines(p.to_lines(x) @ a.T)
            got = p.rhs(0.0, StateVector(x, p.layout)).values
            assert max_rel_gap(got, want) <= 1e-13

    def test_line_view_round_trip(self):
        p = bench_problem(8, 3)
        x = np.random.default_rng(7).standard_normal(p.layout.n_dof)
        lines = p.to_lines(x)
        assert lines.shape == (6, 16)
        g = x.reshape(8, 3, 2, 2)
        np.testing.assert_array_equal(lines[2 * 1 + 1],
                                      g[:, 1, 1, :].reshape(-1))
        np.testing.assert_array_equal(p.from_lines(lines), x)

    def test_layout_mismatch(self):
        p = bench_problem(8, 2)
        with pytest.raises(ValueError):
            p.rhs(0.0, StateVector(np.zeros(8), GridLayout("fd", 8, 1)))


class TestInitialCondition:
    def test_cell_average_against_fine_quadrature(self):
        p = bench_problem(24, 2)
        u = p.initial_condition().values.reshape(24, 2, 2, 2)
        xq, wq = np.polynomial.legendre.leggauss(50)
        i = 12  # cell [0 - dv, 0 + ...) nearest the origin
        lo, hi = p.edges[i], p.edges[i + 1]
        vq = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xq
        oracle = 0.5 * np.sum(wq * f0(vq))
        assert u[i, 0, 0, 0] == pytest.approx(oracle, rel=1e-12)

    def test_x_mode_dofs_zero(self):
        p = bench_problem(16, 4)
        u = p.initial_condition().values.reshape(16, 4, 2, 2)
        assert np.all(u[:, :, 1, :] == 0.0)

    def test_x_independent(self):
        p = bench_problem(16, 4)
        u = p.initial_condition().values.reshape(16, 4, 2, 2)
        for k in range(1, 4):
            np.testing.assert_array_equal(u[:, k], u[:, 0])

    def test_reconstruction_second_order(self):
        errs = []
        for n in (16, 32, 64, 128):
            p = bench_problem(n, 1)
            u = p.initial_condition().values.reshape(n, 1, 2, 2)
            centers = 0.5 * (p.edges[:-1] + p.edges[1:])
            errs.append(np.max(np.abs(u[:, 0, 0, 0] - f0(centers))))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        for o in orders:
            assert abs(o - 2.0) <= 0.15


class TestLambdaUser:
    def test_uniform_value(self):
        p = uniform_problem(120, 1, nu=1.0)
        assert p.lambda_user() == pytest.approx(302400.0 / np.pi**2, rel=1e-13)

    def test_scales_with_nu(self):
        a = bench_problem(32, 1, nu=1.0).lambda_user()
        b = bench_problem(32, 1, nu=10.0).lambda_user()
        assert b == pytest.approx(10.0 * a, rel=1e-13)

    def test_upper_bound_on_line_spectrum(self):
        for n in (8, 16, 32):
            for nu in (0.1, 1.0):
                p = bench_problem(n, 1, nu)
                lam = np.linalg.eigvalsh(p.line_matrix())
                assert p.lambda_user() >= np.max(np.abs(lam)) * (1 - 1e-12)

    def test_bound_is_tight_not_loose(self):
        # the margin over the true dominant eigenvalue stays modest
        p = bench_problem(120, 1)
        lam = np.linalg.eigvalsh(p.line_matrix())
        ratio = p.lambda_user() / np.max(np.abs(lam))
        assert 1.0 <= ratio < 1.1


class TestAssembleMatrix:
    def test_matches_rhs_action(self):
        p = bench_problem(6, 2)
        a = p.assemble_matrix()
        oracle = outer_line_matrix(p)
        rng = np.random.default_rng(7)
        for _ in range(10):
            u = rng.standard_normal(p.layout.n_dof)
            want = p.from_lines(p.to_lines(u) @ oracle.T)
            np.testing.assert_allclose(a @ u, want, rtol=1e-12, atol=1e-9)

    def test_symmetric(self):
        a = bench_problem(6, 2).assemble_matrix()
        assert np.max(np.abs(a - a.T)) < 1e-10 * np.max(np.abs(a))

    def test_spectrum_nonpositive_with_per_line_null_modes(self):
        p = bench_problem(8, 2)
        lam = np.linalg.eigvalsh(p.assemble_matrix())
        scale = abs(lam[0])
        assert lam[-1] < 1e-10 * scale
        # one constant mode per (x-cell, x-mode) line
        assert np.sum(np.abs(lam) < 1e-10 * scale) == 2 * p.layout.n_x

    def test_guard_threshold(self):
        with pytest.raises(ValueError):
            bench_problem(120, 20).assemble_matrix()


def test_jacobian_diagonal_matches_assembled():
    p = bench_problem(6, 2)
    want = np.diag(outer_line_matrix(p))
    got = p.to_lines(np.diag(p.assemble_matrix()))
    np.testing.assert_allclose(got, np.broadcast_to(want, got.shape),
                               rtol=1e-12)


@STENCIL_GRIDS
@STENCIL_FORMS
def test_jacobian_diagonal_matches_line_matrix(n_v, modulation, penalty_c):
    p = DgProblem(GridLayout("dg", n_v, 3), 1.0, penalty_c,
                  modulation=modulation)
    oracle = outer_line_matrix(p)
    want = np.diag(oracle)
    got = p.to_lines(np.diag(p.assemble_matrix()))
    np.testing.assert_allclose(got, np.broadcast_to(want, got.shape),
                               rtol=0.0, atol=1e-13 * np.max(np.abs(oracle)))


def test_rejects_fd_layout():
    with pytest.raises(ValueError):
        DgProblem(GridLayout("fd", 8, 1), 1.0)
