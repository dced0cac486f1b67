import numpy as np
import pytest

from stsdiff.errors import StepFailure
from stsdiff.integrators import sts
from stsdiff.integrators.sts import (
    RKC_DAMPING,
    STAGE_CAP,
    _chebyshev_table,
    hermite_error,
    rkc2_coefficients,
    rkl2_coefficients,
    stability_interval,
    stage_count,
    sts_step,
)
from stsdiff.state import GridLayout, StateVector

LAY1 = GridLayout("fd", 1, 1)


def coeffs(family, s):
    return rkl2_coefficients(s) if family == "rkl2" else rkc2_coefficients(s)


def amp_step(family, s, z):
    """Amplification of the actual step function on f' = lambda f."""
    co = coeffs(family, s)

    def rhs(t, u):
        return StateVector(z * u.values, u.layout)

    f = StateVector(np.array([1.0]), LAY1)
    f_next, _ = sts_step(rhs, 0.0, f, 1.0, co, rhs(0.0, f))
    return f_next.values[0]


def amp_recursion(co, zs):
    """Scalar three-register recursion vectorized over many z values."""
    zs = np.asarray(zs, dtype=float)
    z0 = np.ones_like(zs)
    g0 = zs * z0
    zm1 = z0 + co.alpha_tilde[1] * g0
    zm2 = z0
    for j in range(2, co.s + 1):
        zj = co.alpha[j] * zm1 + co.beta[j] * zm2 \
            + (1.0 - co.alpha[j] - co.beta[j]) * z0 \
            + co.alpha_tilde[j] * zs * zm1 + co.gamma_tilde[j] * g0
        zm2, zm1 = zm1, zj
    return zm1


def legendre(s, x):
    p0, p1 = np.ones_like(x), x
    for k in range(2, s + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1 if s >= 1 else p0


def chebyshev(s, x):
    t0, t1 = np.ones_like(x), x
    for k in range(2, s + 1):
        t0, t1 = t1, 2.0 * x * t1 - t0
    return t1 if s >= 1 else t0


def rkl2_oracle(s, z):
    b_s = (s * s + s - 2.0) / (2.0 * s * (s + 1.0))
    w1 = 4.0 / (s * s + s - 2.0)
    return (1.0 - b_s) + b_s * legendre(s, 1.0 + w1 * np.asarray(z, float))


def rkc2_oracle(s, z):
    w0 = 1.0 + RKC_DAMPING / s**2
    ts = chebyshev(s, np.array(w0))
    # derivative values at w0 via the recurrences in closed form
    tp0, tp1 = 0.0, 1.0
    tpp0, tpp1 = 0.0, 0.0
    t0, t1 = 1.0, w0
    for k in range(2, s + 1):
        t2 = 2 * w0 * t1 - t0
        tp2 = 2 * t1 + 2 * w0 * tp1 - tp0
        tpp2 = 4 * tp1 + 2 * w0 * tpp1 - tpp0
        t0, t1 = t1, t2
        tp0, tp1 = tp1, tp2
        tpp0, tpp1 = tpp1, tpp2
    w1 = tp1 / tpp1
    b_s = tpp1 / tp1**2
    a_s = 1.0 - b_s * ts
    return a_s + b_s * chebyshev(s, w0 + w1 * np.asarray(z, float))


class TestCoefficients:
    @pytest.mark.parametrize("s", [2, 3, 5, 8, 13, 21])
    def test_rkl2_matches_legendre_closed_form(self, s):
        beta = stability_interval("rkl2", s)
        zs = np.linspace(-beta, 0.0, 17)
        got = np.array([amp_step("rkl2", s, z) for z in zs])
        np.testing.assert_allclose(got, rkl2_oracle(s, zs), atol=1e-11)

    @pytest.mark.parametrize("s", [2, 3, 5, 8, 13, 21])
    def test_rkc2_matches_chebyshev_closed_form(self, s):
        beta = stability_interval("rkc2", s)
        zs = np.linspace(-beta, 0.0, 17)
        got = np.array([amp_step("rkc2", s, z) for z in zs])
        np.testing.assert_allclose(got, rkc2_oracle(s, zs), atol=1e-11)

    @pytest.mark.parametrize("family", ["rkl2", "rkc2"])
    @pytest.mark.parametrize("s", [2, 5, 13])
    def test_order_conditions_at_zero(self, family, s):
        dz = 1e-5
        r0 = amp_step(family, s, 0.0)
        rp = (amp_step(family, s, dz) - amp_step(family, s, -dz)) / (2 * dz)
        rpp = (amp_step(family, s, dz) - 2 * r0
               + amp_step(family, s, -dz)) / dz**2
        assert r0 == pytest.approx(1.0, abs=1e-13)
        assert rp == pytest.approx(1.0, abs=1e-8)
        assert rpp == pytest.approx(1.0, abs=5e-4)

    @pytest.mark.parametrize("family", ["rkl2", "rkc2"])
    def test_two_stage_amplification_is_heun_quadratic(self, family):
        for z in (-2.0, -1.0, -0.5, -0.1):
            want = 1.0 + z + 0.5 * z * z
            assert amp_step(family, 2, z) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("family", ["rkl2", "rkc2"])
    def test_abscissae_terminate_at_one(self, family):
        for s in (2, 4, 9, 25):
            co = coeffs(family, s)
            assert co.c[s] == pytest.approx(1.0, abs=1e-11)
            assert co.c[1] == pytest.approx(co.alpha_tilde[1], rel=1e-15)

    def test_minimum_stage_count_enforced(self):
        with pytest.raises(ValueError):
            rkl2_coefficients(1)
        with pytest.raises(ValueError):
            rkc2_coefficients(1)


class TestStability:
    @pytest.mark.parametrize("family", ["rkl2", "rkc2"])
    def test_bounded_on_stability_interval(self, family):
        for s in range(2, 51):
            co = coeffs(family, s)
            beta = stability_interval(family, s)
            zs = np.linspace(-beta, 0.0, 1000)
            assert np.max(np.abs(amp_recursion(co, zs))) <= 1.0 + 1e-10

    def test_rkl2_closed_form_edge(self):
        for s in range(2, 51):
            edge = -(s * s + s - 2.0) / 2.0
            co = rkl2_coefficients(s)
            assert abs(amp_recursion(co, np.array([edge]))[0]) <= 1.0 + 1e-10

    def test_rkc2_strict_interior_damping(self):
        # measured worst interior amplitude is 0.9615 at s=2
        for s in range(2, 51):
            co = rkc2_coefficients(s)
            beta = stability_interval("rkc2", s)
            zs = np.linspace(-0.98 * beta, -0.02 * beta, 400)
            assert np.max(np.abs(amp_recursion(co, zs))) <= 0.97

    @pytest.mark.parametrize("family", ["rkl2", "rkc2"])
    def test_interval_is_near_tight(self, family):
        # just beyond the interval the polynomial must leave the unit
        # band somewhere before 1.3 beta
        for s in range(3, 31):
            co = coeffs(family, s)
            beta = stability_interval(family, s)
            zs = np.linspace(-1.3 * beta, -1.0001 * beta, 300)
            assert np.max(np.abs(amp_recursion(co, zs))) > 1.0

    def test_interval_input_validation(self):
        with pytest.raises(ValueError, match="start at 2 stages"):
            stability_interval("rkl2", 1)
        with pytest.raises(ValueError, match="unknown family"):
            stability_interval("rk4", 3)

    def test_rkc2_closed_form_matches_chebyshev_recurrence(self):
        # (1+w0) T_s''(w0)/T_s'(w0) from the three-term recurrence
        for s in range(2, 61):
            w0 = 1.0 + RKC_DAMPING / s**2
            _, tp, tpp = _chebyshev_table(s, w0)
            want = (1.0 + w0) * tpp[s] / tp[s]
            assert stability_interval("rkc2", s) == pytest.approx(
                want, rel=1e-13)

    def test_recursion_helper_matches_step(self):
        for family in ("rkl2", "rkc2"):
            co = coeffs(family, 7)
            for z in (-20.0, -5.0, -0.3):
                assert amp_recursion(co, np.array([z]))[0] == pytest.approx(
                    amp_step(family, 7, z), rel=1e-12)


class TestStageCount:
    def test_floor_is_two(self):
        assert stage_count(1.0, 0.0, "rkl2") == 2
        assert stage_count(1e-8, 1.0, "rkc2") == 2

    def test_rkl2_hundred(self):
        # (14^2+14-2)/2 = 104 >= 100 while 13 stages give only 90
        assert stage_count(1.0, 100.0, "rkl2") == 14

    def test_rkc2_hundred(self):
        assert stage_count(1.0, 100.0, "rkc2") == 13

    def test_scaling_with_h(self):
        assert stage_count(4.0, 100.0, "rkl2") >= stage_count(
            1.0, 100.0, "rkl2")

    def test_minimality(self):
        for family in ("rkl2", "rkc2"):
            for hl in (17.0, 250.0, 4000.0):
                s = stage_count(1.0, hl, family)
                assert stability_interval(family, s) >= hl
                if s > 2:
                    assert stability_interval(family, s - 1) < hl

    @pytest.mark.parametrize("family", ["rkl2", "rkc2"])
    def test_minimal_within_five_interval_calls(self, family, monkeypatch):
        # the start guess is at most one stage off, so a call costs the
        # floor and cap checks plus at most three steps of the walk
        intervals = np.array([stability_interval(family, s)
                              for s in range(2, STAGE_CAP + 1)])
        calls = {"n": 0}

        def counted(fam, s):
            calls["n"] += 1
            return stability_interval(fam, s)

        monkeypatch.setattr(sts, "stability_interval", counted)
        for target in np.geomspace(1.0, intervals[-1], 2000):
            calls["n"] = 0
            want = 2 + int(np.argmax(intervals >= target))
            assert stage_count(1.0, float(target), family) == want
            assert calls["n"] <= 5

    def test_cap(self):
        with pytest.raises(StepFailure, match="reduce the step size"):
            stage_count(1.0, 1e9, "rkl2")

    @pytest.mark.parametrize("family", ["rkl2", "rkc2"])
    def test_cap_holds_at_and_past_the_cap_interval(self, family):
        # RKC2's start guess covers the target past about 5e5 on its
        # own, so the cap must hold without any upward walk
        edge = stability_interval(family, STAGE_CAP)
        assert stage_count(1.0, edge, family) == STAGE_CAP
        for factor in (1.0001, 100.0):
            with pytest.raises(StepFailure, match="reduce the step size"):
                stage_count(1.0, factor * edge, family)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            stage_count(0.0, 1.0, "rkl2")
        with pytest.raises(ValueError):
            stage_count(1.0, -1.0, "rkl2")


class TestStep:
    def test_quiescent(self):
        lay = GridLayout("fd", 4, 1)

        def rhs(t, u):
            return StateVector(np.zeros(4), lay)

        f = StateVector(np.array([1.0, -2.0, 3.0, 0.5]), lay)
        for family in ("rkl2", "rkc2"):
            f_next, g_next = sts_step(rhs, 0.0, f, 0.3, coeffs(family, 6),
                                      rhs(0.0, f))
            np.testing.assert_allclose(f_next.values, f.values, rtol=1e-13)
            assert np.all(g_next.values == 0.0)

    @pytest.mark.parametrize("s", [2, 3, 7, 20])
    def test_rhs_evaluation_count(self, s):
        # the caller supplies F(t_n, f_n); the step reads it, never
        # writes it, and pays for its s - 1 stages and F(t_n + h, f_next)
        calls = {"n": 0}
        lay = GridLayout("fd", 2, 1)

        def rhs(t, u):
            calls["n"] += 1
            return StateVector(-u.values, lay)

        f = StateVector(np.ones(2), lay)
        g_n = StateVector(-f.values, lay)
        sts_step(rhs, 0.0, f, 0.1, rkl2_coefficients(s), g_n)
        assert calls["n"] == s
        assert np.all(g_n.values == -1.0)

    @pytest.mark.parametrize("family", ["rkl2", "rkc2"])
    def test_exact_on_linear_in_time_rhs(self, family):
        # order two means f'(t) = a + b t is integrated exactly; this
        # also pins the internal abscissae wiring
        lay = GridLayout("fd", 2, 1)
        a = np.array([0.3, -1.2])
        b = np.array([2.0, 0.7])

        def rhs(t, u):
            return StateVector(a + b * t, lay)

        t_n, h = 0.4, 0.7
        f = StateVector(np.array([1.0, 2.0]), lay)
        f_next, _ = sts_step(rhs, t_n, f, h, coeffs(family, 6),
                             rhs(t_n, f))
        want = f.values + a * h + 0.5 * b * ((t_n + h)**2 - t_n**2)
        np.testing.assert_allclose(f_next.values, want, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_stage_raises(self):
        lay = GridLayout("fd", 2, 1)

        def rhs(t, u):
            return StateVector(np.full(2, np.inf), lay)

        f = StateVector(np.ones(2), lay)
        with pytest.raises(StepFailure):
            sts_step(rhs, 0.0, f, 0.1, rkl2_coefficients(4), rhs(0.0, f))

    def test_nonfinite_rhs_after_the_step_raises(self):
        # every stage is finite; only F(t_n + h, f_next) is not
        lay = GridLayout("fd", 2, 1)
        t_n, h = 0.4, 0.1

        def rhs(t, u):
            return StateVector(np.full(2, np.nan) if t == t_n + h
                               else -u.values, lay)

        f = StateVector(np.ones(2), lay)
        with pytest.raises(StepFailure, match="right-hand side after step"):
            sts_step(rhs, t_n, f, h, rkl2_coefficients(4), rhs(t_n, f))


class TestHermiteError:
    def test_zero_case(self):
        lay = GridLayout("fd", 3, 1)
        f = StateVector(np.array([1.0, 2.0, 3.0]), lay)
        z = StateVector(np.zeros(3), lay)
        eps = hermite_error(f, f, z, z, 0.5)
        assert np.all(eps.values == 0.0)

    def test_vanishes_on_linear_solutions(self):
        lay = GridLayout("fd", 2, 1)
        b = np.array([2.0, -0.3])
        h = 0.7
        f_n = StateVector(np.array([1.0, 1.0]), lay)
        f_next = StateVector(f_n.values + b * h, lay)
        g = StateVector(b, lay)
        eps = hermite_error(f_n, f_next, g, g, h)
        np.testing.assert_allclose(eps.values, 0.0, atol=1e-15)

    def test_scalar_oracle_value(self):
        # h lambda = -0.1, s = 4, RKL2: all four estimator inputs follow
        # from the closed-form amplification
        h, lam, s = 0.1, -1.0, 4
        r = float(rkl2_oracle(s, np.array(h * lam)))
        f_n = StateVector(np.array([1.0]), LAY1)

        def rhs(t, u):
            return StateVector(lam * u.values, u.layout)

        g_n = rhs(0.0, f_n)
        f_next, g_next = sts_step(rhs, 0.0, f_n, h, rkl2_coefficients(s), g_n)
        eps = hermite_error(f_n, f_next, g_n, g_next, h)
        want = (12.0 * (1.0 - r) + 6.0 * h * lam * (1.0 + r)) / 15.0
        assert eps.values[0] == pytest.approx(want, rel=1e-10)
