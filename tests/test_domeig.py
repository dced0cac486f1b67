import numpy as np
import pytest

from stsdiff import domeig
from stsdiff.domeig import (
    DomEigEstimate,
    PowerIterConfig,
    _dq,
    constant_mode,
    min_safe_q,
    power_iterate,
    warn_if_unsafe,
)
from stsdiff.problems.dg import DgProblem
from stsdiff.problems.fd import FdProblem
from stsdiff.errors import IntegrationAbort, StepFailure
from stsdiff.state import GridLayout, StateVector, ToleranceSpec
from stsdiff.timeloop import EigPolicy, RunStats, _EigTracker

TOL = ToleranceSpec(1e-6, 1e-6)


def matrix_rhs(a):
    def rhs(t, u):
        return StateVector(a @ u.values, u.layout)
    return rhs


def fixture_state(n, fill=1.0):
    lay = GridLayout("fd", n, 1)
    return StateVector(np.full(n, fill), lay)


def dq_at(rhs, f, v, tol):
    """J(f) v by the difference quotient, base rhs(0, f), weights from f."""
    return _dq(rhs, 0.0, f, rhs(0.0, f).values, v.values, f, tol,
               "component")


class TestConfigs:
    def test_tau_range(self):
        with pytest.raises(ValueError):
            PowerIterConfig(tau=0.0)
        with pytest.raises(ValueError):
            PowerIterConfig(tau=1.0)

    def test_negative_seed(self):
        for bad in (-1, 1.5, 0.0):
            with pytest.raises(ValueError, match="seed"):
                PowerIterConfig(seed=bad)
        assert PowerIterConfig(seed=np.int64(3)).seed == 3

    def test_min_safe_q(self):
        assert min_safe_q(0.1) == pytest.approx(1.0 / 0.9, rel=1e-15)

    def test_warning_fires_at_or_below_threshold(self):
        with pytest.warns(UserWarning):
            assert warn_if_unsafe(1.1, tau=0.1)

    def test_no_warning_above_threshold(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not warn_if_unsafe(1.2, tau=0.1)


class TestMatvecDq:
    def test_matches_assembled_fd(self):
        p = FdProblem(GridLayout("fd", 16, 2), 1.0)
        a = p.assemble_matrix()
        rng = np.random.default_rng(0)
        f = StateVector(rng.uniform(0.5, 1.5, p.layout.n_dof), p.layout)
        for _ in range(5):
            v = StateVector(rng.standard_normal(p.layout.n_dof), p.layout)
            got = dq_at(p.rhs, f, v, TOL)
            want = a @ v.values
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel < 1e-6

    def test_matches_assembled_dg(self):
        p = DgProblem(GridLayout("dg", 6, 2), 1.0)
        a = p.assemble_matrix()
        rng = np.random.default_rng(1)
        f = StateVector(rng.uniform(0.5, 1.5, p.layout.n_dof), p.layout)
        v = StateVector(rng.standard_normal(p.layout.n_dof), p.layout)
        got = dq_at(p.rhs, f, v, TOL)
        want = a @ v.values
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6

    def test_identity_rhs_returns_direction(self):
        def rhs(t, u):
            return StateVector(u.values.copy(), u.layout)
        f = fixture_state(4, 2.0)
        v = StateVector(np.array([1.0, -2.0, 0.5, 3.0]), f.layout)
        got = dq_at(rhs, f, v, TOL)
        np.testing.assert_allclose(got, v.values, rtol=1e-9)

    def test_perturbation_magnitude_is_reciprocal_norm(self):
        seen = {}

        def rhs(t, u):
            seen["arg"] = u.values.copy()
            return StateVector(np.zeros_like(u.values), u.layout)

        lay = GridLayout("fd", 2, 1)
        f = StateVector(np.zeros(2), lay)
        # weights are rtol*0 + atol = 1, so the norm of (2, 2) is 2 and
        # sigma must be 0.5
        v = StateVector(np.array([2.0, 2.0]), lay)
        dq_at(rhs, f, v, ToleranceSpec(1.0, 1.0))
        np.testing.assert_allclose(seen["arg"], [1.0, 1.0], rtol=1e-15)

    def test_zero_direction_rejected(self):
        p = FdProblem(GridLayout("fd", 8, 1), 1.0)
        f = p.initial_condition()
        v = StateVector(np.zeros(8), p.layout)
        with pytest.raises(ValueError):
            dq_at(p.rhs, f, v, TOL)


class TestPowerIterate:
    def test_two_by_two_fixture(self):
        # symmetric with spectrum {-1, -3}
        a = np.array([[-2.0, 1.0], [1.0, -2.0]])
        f = fixture_state(2)
        rhs = matrix_rhs(a)
        est = power_iterate(rhs, 0.0, f, rhs(0.0, f), PowerIterConfig(seed=0),
                            TOL)
        assert est.converged
        assert est.lambda_approx == pytest.approx(-3.0, rel=0.1)

    def test_exact_eigenvector_start(self):
        a = np.array([[-2.0, 1.0], [1.0, -2.0]])
        f = fixture_state(2)
        v0 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        rhs = matrix_rhs(a)
        est = power_iterate(rhs, 0.0, f, rhs(0.0, f), PowerIterConfig(seed=0),
                            TOL, v0=v0)
        assert est.converged
        assert est.iters <= 2
        assert est.lambda_approx == pytest.approx(-3.0, rel=1e-9)

    def test_accuracy_within_tau_over_seeds(self):
        # well-separated spectrum: every consecutive gap is a factor 2
        rng = np.random.default_rng(99)
        eigs = np.array([-10.0, -2.0, -1.0, -0.5, -0.25, -0.125])
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = q @ np.diag(eigs) @ q.T
        lay = GridLayout("fd", 6, 1)
        f = StateVector(rng.standard_normal(6), lay)
        cfgtau = 0.1
        rhs = matrix_rhs(a)
        for seed in range(50):
            est = power_iterate(rhs, 0.0, f, rhs(0.0, f),
                                PowerIterConfig(tau=cfgtau, seed=seed), TOL)
            assert est.converged
            assert abs(est.lambda_approx + 10.0) / 10.0 < cfgtau

    def test_iters_monotone_in_spectral_gap(self):
        f3 = fixture_state(3)
        v0 = np.array([0.6, 0.55, 0.58])
        iters = []
        for r in (0.9, 0.7, 0.5, 0.3, 0.1):
            rhs = matrix_rhs(np.diag([-1.0, -r, -r / 2]))
            est = power_iterate(rhs, 0.0, f3, rhs(0.0, f3),
                                PowerIterConfig(tau=1e-6, seed=1),
                                TOL, v0=v0)
            assert est.converged
            iters.append(est.iters)
        assert iters == sorted(iters, reverse=True)
        # frozen from a reference run of this exact fixture
        assert iters == [48, 19, 12, 8, 5]

    def test_contraction_rate_tracks_subdominant_ratio(self, monkeypatch):
        f3 = fixture_state(3)
        monkeypatch.setattr(domeig, "MAX_POWER_ITERS", 22)
        for r in (0.5, 0.7):
            a3 = np.diag([-1.0, -r, -r / 2])
            args = []

            def rhs(t, u):
                args.append(u.values.copy())
                return StateVector(a3 @ u.values, u.layout)

            est = power_iterate(rhs, 0.0, f3,
                                StateVector(a3 @ f3.values, f3.layout),
                                PowerIterConfig(tau=1e-14, seed=2),
                                TOL)
            # the caller supplies the base rhs(0, f3), so every call is
            # a product: product k is evaluated at f3 + sigma_k v_k, and
            # its offset recovers the iterate's direction
            assert len(args) == est.iters
            e1 = np.array([1.0, 0.0, 0.0])
            hist = []
            for u in args:
                d = u - f3.values
                v = d / np.linalg.norm(d)
                hist.append(min(np.linalg.norm(v - e1),
                                np.linalg.norm(v + e1)))
            ratios = [hist[i + 1] / hist[i]
                      for i in range(1, len(hist) - 1) if hist[i] > 1e-9]
            assert len(ratios) >= 10
            gm = float(np.exp(np.mean(np.log(ratios))))
            assert r / 2 < gm < 2 * r

    def test_estimate_independent_of_state(self):
        p = FdProblem(GridLayout("fd", 32, 2), 1.0)
        rng = np.random.default_rng(4)
        tol = ToleranceSpec(1e-6, 1e-9)
        vals = []
        for _ in range(2):
            f = StateVector(rng.uniform(0.5, 1.5, p.layout.n_dof), p.layout)
            est = power_iterate(p.rhs, 0.0, f, p.rhs(0.0, f),
                                PowerIterConfig(seed=3), tol)
            assert est.converged
            vals.append(est.lambda_approx)
        assert abs(vals[0] - vals[1]) / abs(vals[0]) < 1e-8

    def test_deterministic_for_fixed_seed(self):
        p = DgProblem(GridLayout("dg", 16, 2), 1.0)
        f = p.initial_condition()
        tol = ToleranceSpec(1e-6, 1e-9)
        g = p.rhs(0.0, f)
        a = power_iterate(p.rhs, 0.0, f, g, PowerIterConfig(seed=7), tol)
        b = power_iterate(p.rhs, 0.0, f, g, PowerIterConfig(seed=7), tol)
        assert a == b

    def test_nullspace_start_reseeds(self):
        # the zero operator maps the deflated seed start to zero, and so
        # would any other start, so the first product ends the iteration
        # with the exact estimate 0
        def rhs(t, u):
            return StateVector(np.zeros_like(u.values), u.layout)
        f = fixture_state(4)
        est = power_iterate(rhs, 0.0, f, rhs(0.0, f), PowerIterConfig(seed=0),
                            TOL)
        assert est == DomEigEstimate(0.0, 1, True)

    @pytest.mark.parametrize("n, v0", [(1, None), (4, np.zeros(4))])
    def test_zero_start_gives_zero_without_a_product(self, n, v0):
        # on one dof the seeded draw is the constant mode, which the
        # deflation removes; the difference quotient refuses a zero
        # direction, so the iteration must not take one
        calls = []

        def rhs(t, u):
            calls.append(t)
            return StateVector(-u.values, u.layout)
        f = fixture_state(n)
        est = power_iterate(rhs, 0.0, f, StateVector(-f.values, f.layout),
                            PowerIterConfig(seed=0), TOL, v0=v0)
        assert est == DomEigEstimate(0.0, 0, True)
        assert calls == []

    def test_nonfinite_fails(self):
        def rhs(t, u):
            out = u.values.copy()
            out[0] = np.nan
            return StateVector(out, u.layout)
        f = fixture_state(4)
        with pytest.raises(StepFailure):
            power_iterate(rhs, 0.0, f, rhs(0.0, f), PowerIterConfig(seed=0),
                          TOL)


def tracked_lambda(monkeypatch, est, q_lambda):
    """lam_eff the time loop's tracker forms from the estimate est."""
    monkeypatch.setattr("stsdiff.timeloop.power_iterate",
                        lambda *a, **kw: est)
    prob = FdProblem(GridLayout("fd", 8, 1), nu=1.0)
    tracker = _EigTracker(prob, prob.rhs, EigPolicy(q_lambda=q_lambda), TOL,
                          RunStats(), active=True)
    f = prob.initial_condition()
    return tracker.current(0.0, f, prob.rhs(0.0, f))


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestEffectiveLambda:
    def test_magnitude_with_safety(self, monkeypatch):
        est = DomEigEstimate(-100.0, 3, True)
        assert tracked_lambda(monkeypatch, est, 1.1) == pytest.approx(110.0)

    def test_requires_convergence(self, monkeypatch):
        with pytest.raises(IntegrationAbort, match="converge"):
            tracked_lambda(monkeypatch, DomEigEstimate(-5.0, 100, False), 1.1)

    def test_positive_eigenvalue_rejected(self, monkeypatch):
        with pytest.raises(IntegrationAbort, match="positive"):
            tracked_lambda(monkeypatch, DomEigEstimate(2.5, 3, True), 1.1)

    def test_roundoff_positive_tolerated(self, monkeypatch):
        est = DomEigEstimate(1e-14, 3, True)
        assert tracked_lambda(monkeypatch, est, 1.1) == pytest.approx(
            1.1e-14, abs=1e-20)


def test_constant_mode_is_unit_and_constant():
    for lay in (GridLayout("fd", 8, 2), GridLayout("dg", 4, 2)):
        e = constant_mode(lay)
        assert np.linalg.norm(e) == pytest.approx(1.0, rel=1e-15)
        cells = e.reshape(lay.n_cells, lay.n_b)
        assert np.all(cells[:, 0] == cells[0, 0])
        if lay.n_b > 1:
            assert np.all(cells[:, 1:] == 0.0)
