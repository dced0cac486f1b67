import tracemalloc

import numpy as np
import pytest

from stsdiff.errors import StepFailure
from stsdiff.integrators.ssp import SSP_SCHEMES, ssp_step
from stsdiff.problems.dg import DgProblem
from stsdiff.problems.fd import FdProblem
from stsdiff.state import GridLayout, StateVector

LAY1 = GridLayout("fd", 1, 1)

ORDER_CONDITIONS = {
    1: [(lambda A, b, c: b.sum(), 1.0)],
    2: [(lambda A, b, c: b @ c, 0.5)],
    3: [(lambda A, b, c: b @ c**2, 1.0 / 3.0),
        (lambda A, b, c: b @ (A @ c), 1.0 / 6.0)],
    4: [(lambda A, b, c: b @ c**3, 0.25),
        (lambda A, b, c: b @ (c * (A @ c)), 0.125),
        (lambda A, b, c: b @ (A @ c**2), 1.0 / 12.0),
        (lambda A, b, c: b @ (A @ (A @ c)), 1.0 / 24.0)],
}


def order_residuals(A, b, c, p):
    out = []
    for q in range(1, p + 1):
        for fn, want in ORDER_CONDITIONS[q]:
            out.append(fn(A, b, c) - want)
    return np.array(out)


def violates_next_order(A, b, c, p):
    res = []
    for fn, want in ORDER_CONDITIONS[p + 1]:
        res.append(fn(A, b, c) - want)
    return np.max(np.abs(res)) > 1e-6


def scalar_amp(scheme, z):
    def rhs(t, u):
        return StateVector(z * u.values, u.layout)

    f = StateVector(np.array([1.0]), LAY1)
    out, _ = ssp_step(rhs, 0.0, f, 1.0, scheme, rhs(0.0, f))
    return out.values[0]


def term_by_term_step(rhs, t_n, f_n, h, scheme, g_n):
    """The rows evaluated term by term from the scheme's fractions: the
    arithmetic ssp_step's compiled plan must reproduce bit for bit."""
    lay = f_n.layout
    _, b, c = scheme.butcher()
    d = b - scheme.b_embedded
    rows = [({j: float(w) for j, w in alpha.items()},
             {j: float(w) for j, w in beta.items()})
            for alpha, beta in scheme.rows]
    last = {}
    for i, (alpha, beta) in enumerate(rows):
        for j in (*alpha, *beta):
            last[j] = i
    live = {1: f_n.values}
    fs = {}
    err = np.zeros(lay.n_dof)
    for i, (alpha, beta) in enumerate(rows):
        for j in beta:
            if j not in fs:
                fj = g_n.values if j == 1 else rhs(
                    t_n + c[j - 1] * h, StateVector(live[j], lay)).values
                if d[j - 1]:
                    err += d[j - 1] * fj
                fs[j] = fj
        (j0, w0), *rest = alpha.items()
        z = w0 * live[j0]
        for j, w in rest:
            z += w * live[j]
        for j, w in beta.items():
            z += (h * w) * fs[j]
        for j in [j for j, k in last.items() if k == i]:
            del live[j]
            fs.pop(j, None)
        live[i + 2] = z
    return z, h * err


class TestSchemes:
    def test_selector(self):
        assert SSP_SCHEMES[2].s == 2
        assert SSP_SCHEMES[3].s == 4
        assert SSP_SCHEMES[4].s == 10

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_convexity_and_nonnegativity(self, order):
        sch = SSP_SCHEMES[order]
        for alpha, beta in sch.rows:
            assert sum(alpha.values()) == pytest.approx(1.0, rel=1e-14)
            assert all(w >= 0 for w in alpha.values())
            assert all(w >= 0 for w in beta.values())

    # published solution weights and abscissae of each scheme
    PUBLISHED = {
        2: (np.array([0.5, 0.5]), np.array([0.0, 1.0])),
        3: (np.array([1.0, 1.0, 1.0, 3.0]) / 6.0,
            np.array([0.0, 0.5, 1.0, 0.5])),
        4: (np.full(10, 0.1),
            np.array([0, 1, 2, 3, 4, 2, 3, 4, 5, 6]) / 6.0),
    }

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_solution_weights_satisfy_order(self, order):
        sch = SSP_SCHEMES[order]
        A, b, c = sch.butcher()
        want_b, want_c = self.PUBLISHED[order]
        np.testing.assert_allclose(b, want_b, atol=1e-14)
        np.testing.assert_allclose(c, want_c, atol=1e-14)
        np.testing.assert_allclose(order_residuals(A, b, c, order), 0.0,
                                   atol=1e-13)
        if order < 4:
            assert violates_next_order(A, b, c, order)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_embedding_one_order_lower(self, order):
        sch = SSP_SCHEMES[order]
        A, _, c = sch.butcher()
        bt = sch.b_embedded
        assert sch.embedded_order == order - 1
        np.testing.assert_allclose(
            order_residuals(A, bt, c, sch.embedded_order), 0.0, atol=1e-13)
        assert violates_next_order(A, bt, c, sch.embedded_order)

    def test_ssp4_error_weights_exactly_zero_where_weights_agree(self):
        # b = 1/10 and b_embedded = 10/100 at stages 4 and 6-10; weights
        # derived from float rows left b - b_embedded at -1.4e-17 there
        sch = SSP_SCHEMES[4]
        _, b, _ = sch.butcher()
        d = b - sch.b_embedded
        zero = np.array([4, 6, 7, 8, 9, 10]) - 1
        assert np.all(d[zero] == 0.0)
        assert np.all(np.delete(d, zero) != 0.0)

    def test_ssp_coefficients(self):
        assert SSP_SCHEMES[2].ssp_coefficient() == pytest.approx(1.0)
        assert SSP_SCHEMES[3].ssp_coefficient() == pytest.approx(2.0)
        assert SSP_SCHEMES[4].ssp_coefficient() == pytest.approx(6.0)


class TestStep:
    def test_quiescent(self):
        lay = GridLayout("fd", 3, 1)

        def rhs(t, u):
            return StateVector(np.zeros(3), lay)

        f = StateVector(np.array([1.0, -2.0, 0.5]), lay)
        for sch in SSP_SCHEMES.values():
            out, err = ssp_step(rhs, 0.0, f, 0.3, sch, rhs(0.0, f))
            np.testing.assert_allclose(out.values, f.values, rtol=1e-14)
            np.testing.assert_array_equal(err.values, 0.0)

    def test_ssp2_amplification(self):
        for z in (-2.0, -1.0, -0.5, -0.1):
            assert scalar_amp(SSP_SCHEMES[2], z) == pytest.approx(
                1.0 + z + 0.5 * z * z, abs=1e-15)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_rhs_call_count_equals_stages(self, order):
        # stage 1 is f_n, whose derivative the caller supplies; the step
        # reads it, never writes it, and pays for the other s - 1 stages
        sch = SSP_SCHEMES[order]
        calls = {"n": 0}

        def rhs(t, u):
            calls["n"] += 1
            return StateVector(-u.values, u.layout)

        f = StateVector(np.ones(1), LAY1)
        g_n = StateVector(-f.values, LAY1)
        ssp_step(rhs, 0.0, f, 0.1, sch, g_n)
        assert calls["n"] == sch.s - 1
        assert np.all(g_n.values == -1.0)

    def test_linear_in_time_exact_for_ssp2(self):
        lay = GridLayout("fd", 2, 1)
        a = np.array([0.4, -1.0])
        b = np.array([2.0, 1.5])

        def rhs(t, u):
            return StateVector(a + b * t, lay)

        t_n, h = 0.3, 0.25
        f = StateVector(np.array([1.0, 2.0]), lay)
        out, err = ssp_step(rhs, t_n, f, h, SSP_SCHEMES[2], rhs(t_n, f))
        want = f.values + a * h + 0.5 * b * ((t_n + h)**2 - t_n**2)
        np.testing.assert_allclose(out.values, want, rtol=1e-14)
        # the embedding is first order, so the estimate is driven purely
        # by the b/b~ difference on the time-dependent part
        assert np.linalg.norm(err.values) > 0.0

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_step_matches_butcher_evaluation(self, order):
        p = FdProblem(GridLayout("fd", 16, 1), 1.0)
        rng = np.random.default_rng(0)
        f = StateVector(rng.uniform(0.5, 1.5, 16), p.layout)
        sch = SSP_SCHEMES[order]
        A, b, c = sch.butcher()
        t_n, h = 0.1, 1e-3
        ks = []
        for i in range(sch.s):
            y = f.values + h * sum(A[i, j] * ks[j] for j in range(i))
            ks.append(p.rhs(t_n + c[i] * h, StateVector(y, p.layout)).values)
        ks = np.array(ks)
        out, err = ssp_step(p.rhs, t_n, f, h, sch, p.rhs(t_n, f))
        np.testing.assert_allclose(out.values, f.values + h * (b @ ks),
                                   rtol=1e-13)
        np.testing.assert_allclose(err.values,
                                   h * ((b - sch.b_embedded) @ ks),
                                   atol=1e-18)

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("problem", [
        FdProblem(GridLayout("fd", 16, 3), 1.0),
        DgProblem(GridLayout("dg", 8, 2), 1.0)], ids=["fd16x3", "dg8x2"])
    def test_step_is_bitwise_the_term_by_term_evaluation(self, order,
                                                         problem):
        sch = SSP_SCHEMES[order]
        rng = np.random.default_rng(order)
        f = StateVector(rng.standard_normal(problem.layout.n_dof),
                        problem.layout)
        g = problem.rhs(0.2, f)
        f_before, g_before = f.values.copy(), g.values.copy()
        out, err = ssp_step(problem.rhs, 0.2, f, 0.01, sch, g)
        want_out, want_err = term_by_term_step(problem.rhs, 0.2, f, 0.01,
                                               sch, g)
        assert np.array_equal(out.values, want_out)
        assert np.array_equal(err.values, want_err)
        # the step reads f_n and g_n and writes neither
        assert f.values.tobytes() == f_before.tobytes()
        assert g.values.tobytes() == g_before.tobytes()

    # tracemalloc peak of one step on FD 64x64, in state vectors, of the
    # term-by-term evaluation; a plan that dropped no stage peaked at
    # 5.03, 6.10 and 14.11, so the ssp3 and ssp4 bounds catch it
    PEAK_VECTORS = {2: 5.04, 3: 5.10, 4: 7.11}

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_working_set_does_not_grow(self, order):
        p = FdProblem(GridLayout("fd", 64, 64), 10.0)
        sch = SSP_SCHEMES[order]
        f = p.initial_condition()
        g = p.rhs(0.0, f)
        ssp_step(p.rhs, 0.0, f, 1e-5, sch, g)   # warm-up
        tracemalloc.start()
        try:
            ssp_step(p.rhs, 0.0, f, 1e-5, sch, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / f.values.nbytes <= self.PEAK_VECTORS[order] + 0.25

    def test_nonfinite_raises(self):
        def rhs(t, u):
            return StateVector(np.full(1, np.nan), u.layout)

        f = StateVector(np.ones(1), LAY1)
        with pytest.raises(StepFailure):
            ssp_step(rhs, 0.0, f, 0.1, SSP_SCHEMES[3], rhs(0.0, f))


class TestStability:
    def test_ssp2_boundary_at_two(self):
        assert abs(scalar_amp(SSP_SCHEMES[2], -2.0)) <= 1.0 + 1e-14
        assert abs(scalar_amp(SSP_SCHEMES[2], -2.1)) > 1.0

    def test_real_axis_bounds(self):
        # frozen from a bisection sweep of the scalar amplification
        bounds = {2: 2.0, 3: 5.149, 4: 13.917}
        for order, bound in bounds.items():
            sch = SSP_SCHEMES[order]
            zs = np.linspace(-bound, 0.0, 400)
            assert max(abs(scalar_amp(sch, z)) for z in zs) <= 1.0 + 1e-10
            assert abs(scalar_amp(sch, -(bound * 1.05))) > 1.0

    def test_real_axis_bound_from_butcher_arrays(self):
        bounds = {2: 2.0, 3: 5.149, 4: 13.917}
        for order, bound in bounds.items():
            assert abs(SSP_SCHEMES[order].real_axis_bound - bound) <= 1e-3


class TestAccuracy:
    def test_embedded_error_scales_at_embedding_order(self):
        lam = -1.0

        def rhs(t, u):
            return StateVector(lam * u.values, u.layout)

        f = StateVector(np.array([1.0]), LAY1)
        for order, sch in SSP_SCHEMES.items():
            errs = []
            for h in (0.4, 0.2, 0.1, 0.05, 0.025):
                _, e = ssp_step(rhs, 0.0, f, h, sch, rhs(0.0, f))
                errs.append(abs(e.values[0]))
            slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(4)]
            want = sch.embedded_order + 1
            for sl in slopes:
                assert abs(sl - want) <= 0.2

    def test_fixed_step_convergence_orders(self):
        p = FdProblem(GridLayout("fd", 16, 1), 1.0)
        a = p.assemble_matrix()
        w, v = np.linalg.eigh(a)
        u0 = p.initial_condition().values
        tf = 0.04
        exact = v @ (np.exp(w * tf) * (v.T @ u0))
        for order, sch in SSP_SCHEMES.items():
            errs = []
            for nsteps in (8, 16, 32, 64):
                h = tf / nsteps
                f = StateVector(u0.copy(), p.layout)
                for k in range(nsteps):
                    f, _ = ssp_step(p.rhs, k * h, f, h, sch,
                                    p.rhs(k * h, f))
                errs.append(np.max(np.abs(f.values - exact)))
            orders = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
            for o in orders:
                assert abs(o - order) <= 0.2


class TestMonotonicity:
    def test_total_variation_on_upwind_advection(self):
        # first-order upwind advection keeps total variation
        # non-increasing for h <= C h_FE with h_FE = dx
        n = 64
        lay = GridLayout("fd", n, 1)
        dx = lay.dv

        def rhs(t, u):
            g = u.values
            return StateVector(-(g - np.roll(g, 1)) / dx, lay)

        u0 = np.where(np.arange(n) < n // 2, 1.0, 0.0)

        def tv(x):
            return np.sum(np.abs(np.diff(np.append(x, x[0]))))

        for sch in SSP_SCHEMES.values():
            h = sch.ssp_coefficient() * dx
            f = StateVector(u0.copy(), lay)
            for k in range(20):
                prev = tv(f.values)
                f, _ = ssp_step(rhs, k * h, f, h, sch, rhs(k * h, f))
                assert tv(f.values) <= prev + 1e-12
