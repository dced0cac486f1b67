import numpy as np
import pytest

from stsdiff import (GridLayout, StateVector, ToleranceSpec,
                     advance_adaptive, make_method, wrms)
from stsdiff.bench import PROBLEMS
from stsdiff.errors import StepFailure
from stsdiff.integrators import dirk
from stsdiff.integrators.dirk import (
    NewtonConfig,
    cg_solve,
    dirk_step,
    dirk_tableau,
)
from stsdiff.problems import FdProblem


def stability_function(scheme, z, weights=None):
    w = scheme.b if weights is None else weights
    s = scheme.s
    return 1.0 + z * (w @ np.linalg.solve(np.eye(s) - z * scheme.a,
                                          np.ones(s)))


def order_residuals(a, b, c):
    return {
        1: abs(b.sum() - 1.0),
        2: abs(b @ c - 0.5),
        3: max(abs(b @ c**2 - 1 / 3), abs(b @ (a @ c) - 1 / 6)),
        4: max(abs(b @ c**3 - 0.25), abs((b * c) @ (a @ c) - 1 / 8),
               abs(b @ (a @ c**2) - 1 / 12), abs(b @ (a @ (a @ c)) - 1 / 24)),
    }


def scalar_problem(lam):
    lay = GridLayout("fd", 1, 1)

    def rhs(t, f):
        return StateVector(lam * f.values, f.layout)

    return lay, rhs


def counted(apply_A):
    """apply_A and a one-element list holding its call count."""
    calls = [0]

    def wrapped(v):
        calls[0] += 1
        return apply_A(v)

    return wrapped, calls


def counting_cg(monkeypatch):
    """Wraps dirk_step's cg_solve; the returned list gets each solve's
    iteration count."""
    solves = []

    def cg(apply_A, *args):
        wrapped, calls = counted(apply_A)
        try:
            return cg_solve(wrapped, *args)
        finally:
            solves.append(calls[0])

    monkeypatch.setattr(dirk, "cg_solve", cg)
    return solves


# ---------------------------------------------------------------- tableaus

@pytest.mark.parametrize("order", [2, 3])
def test_row_sums_match_abscissae(order):
    sch = dirk_tableau(order)
    np.testing.assert_allclose(sch.a.sum(axis=1), sch.c, atol=1e-14)
    assert sch.c[0] == 0.0 and sch.c[-1] == 1.0


@pytest.mark.parametrize("order", [2, 3])
def test_order_conditions(order):
    sch = dirk_tableau(order)
    res = order_residuals(sch.a, sch.b, sch.c)
    for p in range(1, order + 1):
        assert res[p] <= 1e-13
    assert res[order + 1] > 1e-4


@pytest.mark.parametrize("order", [2, 3])
def test_embedded_weights_one_order_lower(order):
    sch = dirk_tableau(order)
    res = order_residuals(sch.a, sch.b_embedded, sch.c)
    assert sch.embedded_order == order - 1
    for p in range(1, sch.embedded_order + 1):
        assert res[p] <= 1e-13
    assert res[order] > 1e-3
    assert np.max(np.abs(sch.b - sch.b_embedded)) > 1e-3


def test_dirk3_embedding_order3_defect():
    sch = dirk_tableau(3)
    assert abs(sch.b_embedded @ sch.c**2 - 1 / 3 - 1 / 40) < 1e-13


@pytest.mark.parametrize("order", [2, 3])
def test_stiffly_accurate_with_explicit_first_stage(order):
    # dirk_step takes stage 0's derivative from the caller's F(t_n, f_n),
    # which needs a[0, :] = 0 and c[0] = 0; every later stage is implicit
    sch = dirk_tableau(order)
    np.testing.assert_array_equal(sch.a[-1], sch.b)
    np.testing.assert_array_equal(sch.a[0], 0.0)
    assert sch.c[0] == 0.0
    diag = np.diag(sch.a)[1:]
    assert np.all(diag == diag[0]) and diag[0] > 0
    assert np.max(np.abs(np.triu(sch.a, 1))) == 0.0


@pytest.mark.parametrize("order", [2, 3])
def test_l_stable_and_damped_on_negative_axis(order):
    sch = dirk_tableau(order)
    assert abs(stability_function(sch, -1e6)) < 1e-4
    zs = -np.logspace(-2, 8, 400)
    amps = np.array([abs(stability_function(sch, z)) for z in zs])
    assert np.all(amps <= 1.0 + 1e-12)


def test_dirk3_embedding_also_vanishes_at_stiff_limit():
    sch = dirk_tableau(3)
    assert abs(stability_function(sch, -1e6, sch.b_embedded)) < 1e-4
    zs = -np.logspace(-2, 8, 400)
    amps = [abs(stability_function(sch, z, sch.b_embedded)) for z in zs]
    assert max(amps) <= 1.0 + 1e-12


def test_tableau_selector_rejects_unknown_order():
    with pytest.raises(ValueError):
        dirk_tableau(4)


# ---------------------------------------------------------------- cg_solve

def test_cg_identity_converges_in_one_iteration():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(40)
    apply_A, calls = counted(lambda v: v)
    x = cg_solve(apply_A, b, 1e-12, 50)
    assert calls == [1]
    np.testing.assert_allclose(x, b, atol=1e-12)


def test_cg_matches_dense_solve_on_stage_operator():
    lay = GridLayout("fd", 32, 4)
    prob = FdProblem(lay, nu=1.0)
    J = prob.assemble_matrix()
    h, g = 0.01, 0.5
    rng = np.random.default_rng(2)
    b = rng.standard_normal(lay.n_dof)
    ref = np.linalg.solve(np.eye(lay.n_dof) - h * g * J, b)
    x = cg_solve(lambda v: v - h * g * (J @ v), b, 1e-12, 500)
    assert np.linalg.norm(x - ref) / np.linalg.norm(ref) < 1e-8


def test_cg_zero_rhs_returns_zero_without_iterating():
    apply_A, calls = counted(lambda v: v)
    x = cg_solve(apply_A, np.zeros(7), 1e-12, 50)
    assert calls == [0] and np.all(x == 0.0)


def test_cg_rejects_indefinite_operator():
    b = np.ones(5)
    with pytest.raises(StepFailure):
        cg_solve(lambda v: -v, b, 1e-10, 50)


def test_cg_stops_at_the_first_nonfinite_curvature():
    # NaN compares False against 0, so a sign test alone would run the
    # whole budget on NaN
    d = np.arange(1.0, 7.0)

    def nan_after_first(v):
        return d * v if calls[0] == 1 else np.full_like(v, np.nan)

    apply_A, calls = counted(nan_after_first)
    rng = np.random.default_rng(3)
    with pytest.raises(StepFailure, match="non-finite"):
        cg_solve(apply_A, rng.standard_normal(6), 1e-14, 200)
    assert calls == [2]


def test_cg_raises_when_iteration_budget_exhausted():
    lay = GridLayout("fd", 64, 1)
    prob = FdProblem(lay, nu=1.0)
    J = prob.assemble_matrix()
    b = prob.initial_condition().values
    with pytest.raises(StepFailure):
        cg_solve(lambda v: v - 0.1 * (J @ v), b, 1e-14, 2)


# --------------------------------------------------------------- dirk_step

@pytest.mark.parametrize("order", [2, 3])
def test_scalar_step_matches_rational_stability_function(order):
    lay, rhs = scalar_problem(-3.7)
    sch = dirk_tableau(order)
    tol = ToleranceSpec(1e-6, atol=0.0)
    newton = NewtonConfig(tol=1e-7, cg_tol_factor=1e-3, max_newton=20)
    h = 0.3
    f0 = StateVector(np.array([1.0]), lay)
    f1, err, _ = dirk_step(rhs, 0.0, f0, h, sch, rhs(0.0, f0), newton, tol)
    z = h * -3.7
    r = stability_function(sch, z)
    r_hat = stability_function(sch, z, sch.b_embedded)
    assert abs(f1.values[0] - r) < 1e-12
    assert abs(err.values[0] - (r - r_hat)) < 1e-12


@pytest.mark.parametrize("order", [2, 3])
def test_one_huge_implicit_step_contracts(order):
    lay, rhs = scalar_problem(-1e6)
    f0 = StateVector(np.array([1.0]), lay)
    f1, _, _ = dirk_step(rhs, 0.0, f0, 1.0, dirk_tableau(order), rhs(0.0, f0),
                         NewtonConfig(), ToleranceSpec(1e-6, atol=0.0))
    assert abs(f1.values[0]) <= 1e-3


def fd_step(order, h, newton):
    """One DIRK step from the FD 32x2, nu=1 initial state; returns
    (f0, f1)."""
    lay = GridLayout("fd", 32, 2)
    prob = FdProblem(lay, nu=1.0)
    f0 = prob.initial_condition()
    f1, _, _ = dirk_step(prob.rhs, 0.0, f0, h, dirk_tableau(order),
                         prob.rhs(0.0, f0), newton, ToleranceSpec(1e-6))
    return f0, f1


def test_newton_takes_one_iteration_per_implicit_stage_when_linear(
        monkeypatch):
    solves = counting_cg(monkeypatch)
    fd_step(3, 1e-3, NewtonConfig(tol=1e-6, cg_tol_factor=1e-4, max_cg=2000))
    # one linear solve per Newton iteration
    assert len(solves) == 4


@pytest.mark.parametrize("order,implicit_stages", [(2, 2), (3, 4)])
def test_stage_predictor_needs_one_solve_per_implicit_stage(
        order, implicit_stages, monkeypatch):
    assert np.count_nonzero(np.diag(dirk_tableau(order).a)) == implicit_stages
    solves = counting_cg(monkeypatch)
    fd_step(order, 1e-3, NewtonConfig())
    assert len(solves) == implicit_stages


@pytest.mark.parametrize("order,implicit_stages", [(2, 2), (3, 4)])
def test_max_newton_bounds_solves_and_the_last_solve_counts(
        order, implicit_stages, monkeypatch):
    # one solve per stage reaches tolerance here, so a budget of one
    # solve suffices: the residual after the last solve is checked
    solves = counting_cg(monkeypatch)
    fd_step(order, 1e-3, NewtonConfig(max_newton=1))
    assert len(solves) == implicit_stages
    # with no solve allowed, the predictor alone is not enough
    solves.clear()
    with pytest.raises(StepFailure, match="within 0 iterations"):
        fd_step(order, 1e-3, NewtonConfig(max_newton=0))
    assert solves == []


@pytest.mark.parametrize("h", [1e-3, 1e-2])
@pytest.mark.parametrize("order", [2, 3])
def test_predicted_step_matches_a_tightly_solved_step(order, h):
    f0, f1 = fd_step(order, h, NewtonConfig())
    _, ref = fd_step(order, h, NewtonConfig(tol=1e-10, cg_tol_factor=1e-3,
                                            max_newton=30, max_cg=2000))
    # the tight step is the dense stage solve of the linear operator
    J = FdProblem(f0.layout, nu=1.0).assemble_matrix()
    sch = dirk_tableau(order)
    gs = np.zeros((sch.s, f0.layout.n_dof))
    for i in range(sch.s):
        a_i = f0.values + h * (sch.a[i, :i] @ gs[:i])
        gs[i] = J @ np.linalg.solve(np.eye(len(a_i)) - h * sch.a[i, i] * J,
                                    a_i)
    dense = f0.values + h * (sch.b @ gs)

    def dist(u, v):
        return wrms("component", StateVector(u - v, f0.layout), f0,
                    ToleranceSpec(1e-6))

    assert dist(ref.values, dense) <= 1e-8
    assert dist(f1.values, ref.values) <= NewtonConfig().tol


def test_quiescent_state_is_preserved_exactly():
    lay = GridLayout("fd", 16, 2)
    f0 = FdProblem(lay, nu=1.0).initial_condition()

    def rhs(t, f):
        return StateVector(np.zeros_like(f.values), f.layout)

    f1, err, _ = dirk_step(rhs, 0.0, f0, 0.5, dirk_tableau(2), rhs(0.0, f0),
                           NewtonConfig(), ToleranceSpec(1e-6))
    np.testing.assert_array_equal(f1.values, f0.values)
    assert np.all(err.values == 0.0)


@pytest.mark.parametrize("kind,n_v,n_x,norm,budget", [
    # FD: 2,316 products with plain CG, 4,187 with Jacobi preconditioning
    ("fd", 64, 4, "component", 3000),
    # DG: 5,383 products
    ("dg", 32, 4, "cell", 7000),
], ids=["fd", "dg"])
def test_adaptive_dirk3_run_stays_within_its_cg_budget(
        kind, n_v, n_x, norm, budget, monkeypatch):
    # a whole error-controlled run, not one step from the initial state
    prob = PROBLEMS[kind](GridLayout(kind, n_v, n_x), nu=10.0)
    tol = ToleranceSpec(1e-6)
    solves = counting_cg(monkeypatch)
    _, stats = advance_adaptive(prob, make_method("dirk3", prob, tol, norm),
                                tol, norm, t_f=0.25)
    assert stats.rejected == 0
    assert sum(solves) <= budget


@pytest.mark.parametrize("kind", ["fd", "dg"])
@pytest.mark.parametrize("order,band", [(2, (1.8, 2.2)), (3, (2.7, 3.2))])
def test_fixed_step_convergence_on_diffusion(order, band, kind):
    lay = GridLayout(kind, 16, 1)
    prob = PROBLEMS[kind](lay, nu=1.0)
    J = prob.assemble_matrix()
    w, V = np.linalg.eigh((J + J.T) / 2)
    f0 = prob.initial_condition()
    tf = 0.04
    ref = V @ (np.exp(w * tf) * (V.T @ f0.values))
    sch = dirk_tableau(order)
    newton = NewtonConfig(tol=1e-5, cg_tol_factor=1e-3, max_cg=2000,
                          max_newton=30)
    tol = ToleranceSpec(1e-9)
    errs = []
    for nsteps in (8, 16, 32, 64):
        h = tf / nsteps
        f, t = f0, 0.0
        for _ in range(nsteps):
            f, _, _ = dirk_step(prob.rhs, t, f, h, sch, prob.rhs(t, f), newton,
                                tol)
            t += h
        errs.append(np.max(np.abs(f.values - ref)))
    rate = np.log2(errs[-2] / errs[-1])
    assert band[0] <= rate <= band[1]


@pytest.mark.parametrize("order", [2, 3])
def test_nonlinear_decay_keeps_design_order(order):
    # f' = -f^3 from f(0)=1 has the closed form 1/sqrt(1+2t)
    lay = GridLayout("fd", 1, 1)

    def rhs(t, f):
        return StateVector(-f.values**3, f.layout)

    newton = NewtonConfig(tol=1e-6, cg_tol_factor=1e-3, max_newton=30)
    tol = ToleranceSpec(1e-8, atol=1e-12)
    sch = dirk_tableau(order)
    tf = 1.0
    exact = 1.0 / np.sqrt(1.0 + 2.0 * tf)
    errs = []
    for nsteps in (32, 64, 128, 256):
        h = tf / nsteps
        f, t = StateVector(np.array([1.0]), lay), 0.0
        for _ in range(nsteps):
            f, _, _ = dirk_step(rhs, t, f, h, sch, rhs(t, f), newton, tol)
            t += h
        errs.append(abs(f.values[0] - exact))
    rate = np.log2(errs[-2] / errs[-1])
    assert order - 0.25 <= rate <= order + 0.25


def test_newton_nonconvergence_raises_step_failure():
    lay = GridLayout("fd", 1, 1)

    def rhs(t, f):
        return StateVector(-f.values**3, f.layout)

    f0 = StateVector(np.array([2.0]), lay)
    # one Newton iteration cannot solve the cubic stage equation this far
    with pytest.raises(StepFailure):
        dirk_step(rhs, 0.0, f0, 0.5, dirk_tableau(2), rhs(0.0, f0),
                  NewtonConfig(tol=1e-8, max_newton=1), ToleranceSpec(1e-8, atol=1e-12))


def test_cg_breakdown_surfaces_as_step_failure():
    # growth mode: the stage operator I - h*a_ii*J loses definiteness
    lay, rhs = scalar_problem(100.0)
    f0 = StateVector(np.array([1.0]), lay)
    with pytest.raises(StepFailure):
        dirk_step(rhs, 0.0, f0, 1.0, dirk_tableau(2), rhs(0.0, f0),
                  NewtonConfig(), ToleranceSpec(1e-6, atol=0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_rhs_raises_step_failure():
    lay = GridLayout("fd", 4, 1)

    def rhs(t, f):
        return StateVector(np.full(f.layout.n_dof, np.inf), f.layout)

    f0 = StateVector(np.ones(lay.n_dof), lay)
    with pytest.raises(StepFailure):
        dirk_step(rhs, 0.0, f0, 0.1, dirk_tableau(2), rhs(0.0, f0),
                  NewtonConfig(), ToleranceSpec(1e-6))


def test_nonfinite_stage_derivative_fails_the_newton_residual():
    # F(t_n, f_n) is finite; every stage time returns NaN
    lay = GridLayout("fd", 4, 1)

    def rhs(t, f):
        return StateVector(np.full(4, np.nan) if t > 0.0 else -f.values, lay)

    f0 = StateVector(np.ones(lay.n_dof), lay)
    with pytest.raises(StepFailure, match="non-finite Newton residual"):
        dirk_step(rhs, 0.0, f0, 0.1, dirk_tableau(2), rhs(0.0, f0),
                  NewtonConfig(), ToleranceSpec(1e-6))


def test_a_tableau_that_is_not_stiffly_accurate_is_refused():
    # a step ends on its last stage's solve, which is the step's result
    # only when b = a[-1] (so b is derived from a) and c[-1] = 1
    a = np.array([[0.0, 0.0], [0.5, 0.5]])
    b_embedded = np.array([1.0, 0.0])
    trapezoid = dirk.DirkScheme("trapezoid", 2, 1, a, b_embedded,
                                c=np.array([0.0, 1.0]))
    assert trapezoid.s == 2
    np.testing.assert_array_equal(trapezoid.b, a[-1])
    with pytest.raises(ValueError, match="stiffly accurate"):
        dirk.DirkScheme("wide", 1, 0, a, b_embedded, c=np.array([0.0, 2.0]))
    half = 0.5 * a
    with pytest.raises(ValueError, match="stiffly accurate"):
        dirk.DirkScheme("short", 1, 0, half, b_embedded,
                        c=np.array([0.0, 0.5]))
    implicit = np.array([[0.5, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match="explicit"):
        dirk.DirkScheme("implicit", 1, 0, implicit, b_embedded,
                        c=np.array([0.5, 1.0]))


@pytest.mark.parametrize("h", [1e-3, 1e-2])
@pytest.mark.parametrize("order", [2, 3])
def test_step_ends_on_its_last_stage_solve(order, h):
    # f_next solves z - h a_ss F(t + h, z) - a_s = 0 to the Newton
    # tolerance, and g_next is the rhs result at f_next that the step's
    # last call returned, handed over as it is
    lay = GridLayout("fd", 32, 2)
    prob = FdProblem(lay, nu=1.0)
    f0 = prob.initial_condition()
    sch = dirk_tableau(order)
    tol = ToleranceSpec(1e-6)
    calls = []

    def rhs(t, f):
        calls.append((t, f.values.copy(), prob.rhs(t, f)))
        return calls[-1][2]

    g0 = prob.rhs(0.0, f0)
    f1, _, g1 = dirk_step(rhs, 0.0, f0, h, sch, g0, NewtonConfig(), tol)
    t_last, z_last, g_last = calls[-1]
    assert t_last == h
    np.testing.assert_array_equal(z_last, f1.values)
    assert g1.values is g_last.values
    # a stage's derivative is the last call at its time: the Newton
    # iteration ends on rhs at its solve, after any product
    stage_g = [g0.values] + [
        [g for t, _, g in calls if t == sch.c[i] * h][-1].values
        for i in range(1, sch.s)]
    a_s = f0.values + h * (sch.a[-1, :-1] @ np.array(stage_g[:-1]))
    resid = f1.values - h * sch.a[-1, -1] * g1.values - a_s
    assert wrms("component", StateVector(resid, lay), f0, tol) \
        <= NewtonConfig().tol


def test_newton_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(tol=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(cg_tol_factor=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            NewtonConfig(tol=bad)
        with pytest.raises(ValueError, match="finite"):
            NewtonConfig(cg_tol_factor=bad)
    # with a negative budget the stage residual would go unchecked; a
    # fractional one used to fail only at the first solve, and a
    # negative CG budget was accepted
    for bad in (dict(max_newton=-1), dict(max_newton=1.5),
                dict(max_cg=-1), dict(max_cg=2.5)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            NewtonConfig(**bad)
    assert NewtonConfig(max_newton=np.int64(3), max_cg=np.int32(0)).max_cg == 0
