import numpy as np
import pytest

from stsdiff.state import GridLayout, StateVector
from stsdiff.problems.fd import FdProblem, initial_condition_fd


def uniform_problem(n_v, n_x, nu=1.0):
    # modulation 0 turns off the sinusoidal variation for hand-checkable
    # stencils
    return FdProblem(GridLayout("fd", n_v, n_x), nu, modulation=0.0)


def bench_problem(n_v, n_x, nu=1.0):
    return FdProblem(GridLayout("fd", n_v, n_x), nu)


def roll_rhs(p, values):
    """The rhs formula with rolled copies: the reference the sliced flux
    stencil must match bit for bit."""
    g = values.reshape(p.layout.n_v, p.layout.n_x)
    flux = p.face_d[:, None] * (np.roll(g, -1, axis=0) - g)
    return ((flux - np.roll(flux, 1, axis=0)) / p.layout.dv**2).reshape(-1)


def loop_line_matrix(p):
    """The line block entry by entry from the face diffusivities: the
    reference the block probed from rhs is checked against."""
    n = p.layout.n_v
    dv2 = p.layout.dv**2
    a = np.zeros((n, n))
    for i in range(n):
        fr = p.face_d[i]
        fl = p.face_d[i - 1]
        a[i, (i + 1) % n] += fr / dv2
        a[i, i] -= (fr + fl) / dv2
        a[i, (i - 1) % n] += fl / dv2
    return a


def loop_dense_matrix(p):
    return np.kron(loop_line_matrix(p), np.eye(p.layout.n_x))


class TestRhs:
    @pytest.mark.parametrize("n_v", [1, 2, 3, 8, 64, 128])
    @pytest.mark.parametrize("modulation", [0.0, 0.99])
    @pytest.mark.parametrize("n_x", [1, 3, 64])
    def test_sliced_stencil_is_bitwise_the_rolled_formula(self, n_v, n_x,
                                                          modulation):
        p = FdProblem(GridLayout("fd", n_v, n_x), 1.0, modulation=modulation)
        rng = np.random.default_rng(n_v * 100 + n_x)
        for scale in (1e-100, 1.0, 1e100):
            x = scale * rng.standard_normal(p.layout.n_dof)
            got = p.rhs(0.0, StateVector(x, p.layout)).values
            assert np.array_equal(got, roll_rhs(p, x))

    def test_constant_in_kernel(self):
        p = bench_problem(16, 4)
        u = StateVector(np.full(64, 2.7), p.layout)
        du = p.rhs(0.0, u)
        assert np.max(np.abs(du.values)) < 1e-13

    def test_conservation(self):
        p = bench_problem(32, 4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = StateVector(rng.standard_normal(p.layout.n_dof), p.layout)
            total = np.sum(p.rhs(0.0, u).values)
            bound = 1e-12 * np.sum(np.abs(u.values)) / p.layout.dv**2
            assert abs(total) <= bound

    def test_unit_impulse_stencil(self):
        # periodic 3-point stencil on a unit impulse: (-2, 1, 0, 1)/dv^2
        p = uniform_problem(4, 1)
        u = StateVector(np.array([1.0, 0.0, 0.0, 0.0]), p.layout)
        du = p.rhs(0.0, u)
        dv2 = p.layout.dv**2
        np.testing.assert_allclose(
            du.values, np.array([-2.0, 1.0, 0.0, 1.0]) / dv2, rtol=1e-14)

    def test_layout_mismatch(self):
        p = bench_problem(8, 2)
        u = StateVector(np.zeros(8), GridLayout("fd", 8, 1))
        with pytest.raises(ValueError):
            p.rhs(0.0, u)

    def test_x_lines_decoupled(self):
        p = bench_problem(16, 3)
        rng = np.random.default_rng(1)
        line = rng.standard_normal(16)
        g = np.zeros((16, 3))
        g[:, 1] = line
        du = p.rhs(0.0, StateVector(g.reshape(-1), p.layout))
        dg = du.values.reshape(16, 3)
        assert np.all(dg[:, 0] == 0.0)
        assert np.all(dg[:, 2] == 0.0)

    def test_line_view_round_trip(self):
        p = bench_problem(16, 3)
        x = np.random.default_rng(2).standard_normal(p.layout.n_dof)
        lines = p.to_lines(x)
        assert lines.shape == (3, 16)
        np.testing.assert_array_equal(lines[1], x.reshape(16, 3)[:, 1])
        np.testing.assert_array_equal(p.from_lines(lines), x)
        a = loop_line_matrix(p)
        np.testing.assert_allclose(
            p.from_lines(lines @ a.T),
            p.rhs(0.0, StateVector(x, p.layout)).values,
            rtol=1e-12, atol=1e-12 * np.max(np.abs(a)))

    def test_second_order_convergence(self):
        # manufactured solution: f = exp(sin v), analytic (D f')'
        nu = 1.0
        errs = []
        sizes = [32, 64, 128, 256]
        for n in sizes:
            p = bench_problem(n, 1, nu)
            v = -np.pi + np.arange(n) * p.layout.dv
            f = np.exp(np.sin(v))
            d = nu * (1.0 + 0.99 * np.sin(v))
            dprime = 0.99 * nu * np.cos(v)
            fprime = np.cos(v) * f
            fsecond = (np.cos(v) ** 2 - np.sin(v)) * f
            exact = dprime * fprime + d * fsecond
            got = p.rhs(0.0, StateVector(f, p.layout)).values
            errs.append(np.max(np.abs(got - exact)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
        for o in orders:
            assert abs(o - 2.0) <= 0.1


class TestInitialCondition:
    def test_value_at_origin(self):
        # profile at v = 0 is 1/sqrt(5.5 pi)
        lay = GridLayout("fd", 64, 2)
        u = initial_condition_fd(lay)
        g = u.values.reshape(64, 2)
        i0 = 32  # v_i = -pi + i dv hits 0 at i = n_v/2
        assert g[i0, 0] == pytest.approx(1.0 / np.sqrt(5.5 * np.pi), rel=1e-14)
        assert g[i0, 0] == pytest.approx(0.2405712, abs=5e-8)

    def test_x_independent(self):
        lay = GridLayout("fd", 32, 5)
        g = initial_condition_fd(lay).values.reshape(32, 5)
        for k in range(1, 5):
            np.testing.assert_array_equal(g[:, k], g[:, 0])

    def test_positive(self):
        lay = GridLayout("fd", 128, 1)
        assert np.min(initial_condition_fd(lay).values) > 0.0

    def test_problem_method_agrees(self):
        p = bench_problem(16, 2)
        np.testing.assert_array_equal(
            p.initial_condition().values, initial_condition_fd(p.layout).values)


class TestJacobianDiagonal:
    def test_uniform_value(self):
        p = uniform_problem(8, 2)
        d = p.jacobian_diagonal()
        np.testing.assert_allclose(
            d.values, -2.0 / p.layout.dv**2, rtol=1e-14)

    def test_strictly_negative(self):
        p = bench_problem(64, 2, nu=0.1)
        assert np.max(p.jacobian_diagonal().values) < 0.0

    def test_matches_assembled_diagonal(self):
        p = bench_problem(8, 2)
        np.testing.assert_allclose(
            p.jacobian_diagonal().values, np.diag(loop_dense_matrix(p)),
            rtol=1e-13)


class TestLineMatrix:
    @pytest.mark.parametrize("n_v", [3, 4, 8, 64, 128])
    @pytest.mark.parametrize("modulation", [0.0, 0.99])
    @pytest.mark.parametrize("n_x", [1, 3, 64])
    def test_probed_block_is_bitwise_the_loop_assembly(self, n_v, n_x,
                                                       modulation):
        p = FdProblem(GridLayout("fd", n_v, n_x), 1.0, modulation=modulation)
        assert np.array_equal(p.line_matrix(), loop_line_matrix(p))

    @pytest.mark.parametrize("n_v", [1, 2])
    def test_coinciding_neighbours_match_the_loop_assembly(self, n_v):
        # one or two points: both faces reach the same neighbour, and the
        # loop adds their entries in another order
        p = bench_problem(n_v, 3)
        np.testing.assert_allclose(p.line_matrix(), loop_line_matrix(p),
                                   rtol=1e-15, atol=1e-15)


class TestLambdaUser:
    def test_uniform_value(self):
        p = uniform_problem(64, 1)
        assert p.lambda_user() == pytest.approx(4096.0 / np.pi**2, rel=1e-14)
        assert p.lambda_user() == pytest.approx(415.0, abs=0.2)

    def test_upper_bound_on_spectrum(self):
        for nu in (0.1, 1.0, 10.0):
            p = bench_problem(16, 1, nu)
            lam = np.linalg.eigvalsh(p.assemble_matrix())
            assert p.lambda_user() >= np.max(np.abs(lam))

    def test_linear_in_nu(self):
        a = bench_problem(32, 1, nu=1.0).lambda_user()
        b = bench_problem(32, 1, nu=2.0).lambda_user()
        assert b == pytest.approx(2.0 * a, rel=1e-14)


class TestAssembleMatrix:
    def test_matches_rhs_action(self):
        p = bench_problem(12, 3)
        a = loop_dense_matrix(p)
        assert np.array_equal(p.assemble_matrix(), a)
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = rng.standard_normal(p.layout.n_dof)
            got = p.rhs(0.0, StateVector(u, p.layout)).values
            np.testing.assert_allclose(a @ u, got, rtol=1e-13, atol=1e-13)

    def test_symmetric(self):
        a = bench_problem(16, 2).assemble_matrix()
        assert np.max(np.abs(a - a.T)) == 0.0

    def test_spectrum_nonpositive_with_one_null_mode_per_line(self):
        p = bench_problem(8, 2)
        lam = np.linalg.eigvalsh(p.assemble_matrix())
        assert np.max(lam) < 1e-10
        # one constant null mode per decoupled x-line
        assert np.sum(np.abs(lam) < 1e-10) == p.layout.n_x

    def test_guard_threshold(self):
        with pytest.raises(ValueError):
            bench_problem(128, 64).assemble_matrix()

    def test_difference_quotient_consistency(self):
        # the operator is linear, so difference quotients are exact
        p = bench_problem(16, 2)
        a = loop_dense_matrix(p)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(p.layout.n_dof)
        w = rng.standard_normal(p.layout.n_dof)
        sigma = 1e-4
        dq = (p.rhs(0.0, StateVector(u + sigma * w, p.layout)).values
              - p.rhs(0.0, StateVector(u, p.layout)).values) / sigma
        rel = np.linalg.norm(dq - a @ w) / np.linalg.norm(a @ w)
        assert rel < 1e-6


def test_face_positivity_guard():
    with pytest.raises(ValueError):
        FdProblem(GridLayout("fd", 16, 1), nu=1.0, modulation=1.5)
