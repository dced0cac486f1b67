import numpy as np
import pytest

from stsdiff import (GridLayout, StateVector, ToleranceSpec,
                     advance_adaptive, make_method, wrms)
from stsdiff.bench import PROBLEMS
from stsdiff.errors import StepFailure
from stsdiff.integrators import dirk
from stsdiff.integrators.dirk import DIRK_SCHEMES, cg_solve, dirk_step
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


def set_newton(monkeypatch, **constants):
    """Sets dirk's Newton-CG constants, e.g. NEWTON_TOL=1e-7, for the
    rest of the test."""
    for name, value in constants.items():
        monkeypatch.setattr(dirk, name, value)


# ---------------------------------------------------------------- tableaus

@pytest.mark.parametrize("order", [2, 3])
def test_row_sums_match_abscissae(order):
    sch = DIRK_SCHEMES[order]
    np.testing.assert_allclose(sch.a.sum(axis=1), sch.c, atol=1e-14)
    assert sch.c[0] == 0.0 and sch.c[-1] == 1.0


@pytest.mark.parametrize("order", [2, 3])
def test_order_conditions(order):
    sch = DIRK_SCHEMES[order]
    res = order_residuals(sch.a, sch.b, sch.c)
    for p in range(1, order + 1):
        assert res[p] <= 1e-13
    assert res[order + 1] > 1e-4


@pytest.mark.parametrize("order", [2, 3])
def test_embedded_weights_one_order_lower(order):
    sch = DIRK_SCHEMES[order]
    res = order_residuals(sch.a, sch.b_embedded, sch.c)
    assert sch.embedded_order == order - 1
    for p in range(1, sch.embedded_order + 1):
        assert res[p] <= 1e-13
    assert res[order] > 1e-3
    assert np.max(np.abs(sch.b - sch.b_embedded)) > 1e-3


def test_dirk3_embedding_order3_defect():
    sch = DIRK_SCHEMES[3]
    assert abs(sch.b_embedded @ sch.c**2 - 1 / 3 - 1 / 40) < 1e-13


@pytest.mark.parametrize("order", [2, 3])
def test_stiffly_accurate_with_explicit_first_stage(order):
    # dirk_step takes stage 0's derivative from the caller's F(t_n, f_n),
    # which needs a[0, :] = 0 and c[0] = 0; every later stage is implicit
    sch = DIRK_SCHEMES[order]
    np.testing.assert_array_equal(sch.a[-1], sch.b)
    np.testing.assert_array_equal(sch.a[0], 0.0)
    assert sch.c[0] == 0.0
    diag = np.diag(sch.a)[1:]
    assert np.all(diag == diag[0]) and diag[0] > 0
    assert np.max(np.abs(np.triu(sch.a, 1))) == 0.0


@pytest.mark.parametrize("order", [2, 3])
def test_l_stable_and_damped_on_negative_axis(order):
    sch = DIRK_SCHEMES[order]
    assert abs(stability_function(sch, -1e6)) < 1e-4
    zs = -np.logspace(-2, 8, 400)
    amps = np.array([abs(stability_function(sch, z)) for z in zs])
    assert np.all(amps <= 1.0 + 1e-12)


def test_dirk3_embedding_also_vanishes_at_stiff_limit():
    sch = DIRK_SCHEMES[3]
    assert abs(stability_function(sch, -1e6, sch.b_embedded)) < 1e-4
    zs = -np.logspace(-2, 8, 400)
    amps = [abs(stability_function(sch, z, sch.b_embedded)) for z in zs]
    assert max(amps) <= 1.0 + 1e-12


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
def test_scalar_step_matches_rational_stability_function(order,
                                                         monkeypatch):
    lay, rhs = scalar_problem(-3.7)
    sch = DIRK_SCHEMES[order]
    tol = ToleranceSpec(1e-6, atol=0.0)
    set_newton(monkeypatch, NEWTON_TOL=1e-7, CG_TOL_FACTOR=1e-3,
               MAX_NEWTON=20)
    h = 0.3
    f0 = StateVector(np.array([1.0]), lay)
    f1, err, _ = dirk_step(rhs, 0.0, f0, h, sch, rhs(0.0, f0), tol)
    z = h * -3.7
    r = stability_function(sch, z)
    r_hat = stability_function(sch, z, sch.b_embedded)
    assert abs(f1.values[0] - r) < 1e-12
    assert abs(err.values[0] - (r - r_hat)) < 1e-12


@pytest.mark.parametrize("order", [2, 3])
def test_one_huge_implicit_step_contracts(order):
    lay, rhs = scalar_problem(-1e6)
    f0 = StateVector(np.array([1.0]), lay)
    f1, _, _ = dirk_step(rhs, 0.0, f0, 1.0, DIRK_SCHEMES[order], rhs(0.0, f0),
                         ToleranceSpec(1e-6, atol=0.0))
    assert abs(f1.values[0]) <= 1e-3


def fd_step(order, h):
    """One DIRK step from the FD 32x2, nu=1 initial state; returns
    (f0, f1)."""
    lay = GridLayout("fd", 32, 2)
    prob = FdProblem(lay, nu=1.0)
    f0 = prob.initial_condition()
    f1, _, _ = dirk_step(prob.rhs, 0.0, f0, h, DIRK_SCHEMES[order],
                         prob.rhs(0.0, f0), ToleranceSpec(1e-6))
    return f0, f1


def test_newton_takes_one_iteration_per_implicit_stage_when_linear(
        monkeypatch):
    solves = counting_cg(monkeypatch)
    set_newton(monkeypatch, NEWTON_TOL=1e-6, CG_TOL_FACTOR=1e-4, MAX_CG=2000)
    fd_step(3, 1e-3)
    # one linear solve per Newton iteration
    assert len(solves) == 4


@pytest.mark.parametrize("order,implicit_stages", [(2, 2), (3, 4)])
def test_stage_predictor_needs_one_solve_per_implicit_stage(
        order, implicit_stages, monkeypatch):
    assert np.count_nonzero(np.diag(DIRK_SCHEMES[order].a)) == implicit_stages
    solves = counting_cg(monkeypatch)
    fd_step(order, 1e-3)
    assert len(solves) == implicit_stages


@pytest.mark.parametrize("order,implicit_stages", [(2, 2), (3, 4)])
def test_max_newton_bounds_solves_and_the_last_solve_counts(
        order, implicit_stages, monkeypatch):
    # one solve per stage reaches tolerance here, so a budget of one
    # solve suffices: the residual after the last solve is checked
    solves = counting_cg(monkeypatch)
    set_newton(monkeypatch, MAX_NEWTON=1)
    fd_step(order, 1e-3)
    assert len(solves) == implicit_stages
    # with no solve allowed, the predictor alone is not enough
    solves.clear()
    set_newton(monkeypatch, MAX_NEWTON=0)
    with pytest.raises(StepFailure, match="within 0 iterations"):
        fd_step(order, 1e-3)
    assert solves == []


@pytest.mark.parametrize("h", [1e-3, 1e-2])
@pytest.mark.parametrize("order", [2, 3])
def test_predicted_step_matches_a_tightly_solved_step(order, h,
                                                      monkeypatch):
    f0, f1 = fd_step(order, h)
    newton_tol = dirk.NEWTON_TOL
    set_newton(monkeypatch, NEWTON_TOL=1e-10, CG_TOL_FACTOR=1e-3,
               MAX_NEWTON=30, MAX_CG=2000)
    _, ref = fd_step(order, h)
    # the tight step is the dense stage solve of the linear operator
    J = FdProblem(f0.layout, nu=1.0).assemble_matrix()
    sch = DIRK_SCHEMES[order]
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
    assert dist(f1.values, ref.values) <= newton_tol


def forcing_spy(monkeypatch, f0, tol):
    """Wraps dirk_step's cg_solve on an FD stage; the returned list gets,
    per solve, the WRMS residual rnorm it starts from, the tolerance it
    was given, its CG iterations, the iterations the fixed tolerance
    CG_TOL_FACTOR * NEWTON_TOL takes on the same system, and the WRMS
    Newton residual after the solve (the linear system's residual, as
    the stage is linear)."""
    solves = []

    def norm(v):
        return wrms("component", StateVector(v, f0.layout), f0, tol)

    def cg(apply_A, rhs_vec, cg_tol, max_cg):
        wrapped, calls = counted(apply_A)
        x = cg_solve(wrapped, rhs_vec, cg_tol, max_cg)
        fixed, fixed_calls = counted(apply_A)
        cg_solve(fixed, rhs_vec, dirk.CG_TOL_FACTOR * dirk.NEWTON_TOL, max_cg)
        solves.append({"rnorm": norm(rhs_vec), "tol": cg_tol,
                       "iters": calls[0], "fixed_iters": fixed_calls[0],
                       "after": norm(rhs_vec - apply_A(x))})
        return x

    monkeypatch.setattr(dirk, "cg_solve", cg)
    return solves


@pytest.mark.parametrize("h,below", [(1e-3, True), (1e-2, False)],
                         ids=["rnorm-below-1", "rnorm-at-least-1"])
def test_cg_tolerance_is_the_newton_forcing_term(h, below, monkeypatch):
    # FD 32x2, nu=1, rtol 1e-4: at h = 1e-3 every dirk3 stage's predictor
    # residual lies in (NEWTON_TOL, 1), at h = 1e-2 in [1, 20)
    lay = GridLayout("fd", 32, 2)
    prob = FdProblem(lay, nu=1.0)
    f0 = prob.initial_condition()
    tol = ToleranceSpec(1e-4)
    solves = forcing_spy(monkeypatch, f0, tol)
    dirk_step(prob.rhs, 0.0, f0, h, DIRK_SCHEMES[3], prob.rhs(0.0, f0), tol)
    fixed = dirk.CG_TOL_FACTOR * dirk.NEWTON_TOL
    # a linear stage takes exactly one solve, which meets the Newton test
    assert len(solves) == 4
    for sv in solves:
        assert dirk.NEWTON_TOL < sv["rnorm"]
        assert (sv["rnorm"] < 1.0) == below
        assert sv["after"] <= dirk.NEWTON_TOL
        if below:
            assert sv["tol"] == fixed / sv["rnorm"]
            assert sv["iters"] < sv["fixed_iters"]
        else:
            assert sv["tol"].hex() == fixed.hex()
            assert sv["iters"] == sv["fixed_iters"]


def test_quiescent_state_is_preserved_exactly():
    lay = GridLayout("fd", 16, 2)
    f0 = FdProblem(lay, nu=1.0).initial_condition()

    def rhs(t, f):
        return StateVector(np.zeros_like(f.values), f.layout)

    f1, err, _ = dirk_step(rhs, 0.0, f0, 0.5, DIRK_SCHEMES[2], rhs(0.0, f0),
                           ToleranceSpec(1e-6))
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
def test_fixed_step_convergence_on_diffusion(order, band, kind,
                                             monkeypatch):
    lay = GridLayout(kind, 16, 1)
    prob = PROBLEMS[kind](lay, nu=1.0)
    J = prob.assemble_matrix()
    w, V = np.linalg.eigh((J + J.T) / 2)
    f0 = prob.initial_condition()
    tf = 0.04
    ref = V @ (np.exp(w * tf) * (V.T @ f0.values))
    sch = DIRK_SCHEMES[order]
    set_newton(monkeypatch, NEWTON_TOL=1e-5, CG_TOL_FACTOR=1e-3, MAX_CG=2000,
               MAX_NEWTON=30)
    tol = ToleranceSpec(1e-9)
    errs = []
    for nsteps in (8, 16, 32, 64):
        h = tf / nsteps
        f, t = f0, 0.0
        for _ in range(nsteps):
            f, _, _ = dirk_step(prob.rhs, t, f, h, sch, prob.rhs(t, f), tol)
            t += h
        errs.append(np.max(np.abs(f.values - ref)))
    rate = np.log2(errs[-2] / errs[-1])
    assert band[0] <= rate <= band[1]


@pytest.mark.parametrize("order", [2, 3])
def test_nonlinear_decay_keeps_design_order(order, monkeypatch):
    # f' = -f^3 from f(0)=1 has the closed form 1/sqrt(1+2t)
    lay = GridLayout("fd", 1, 1)

    def rhs(t, f):
        return StateVector(-f.values**3, f.layout)

    set_newton(monkeypatch, NEWTON_TOL=1e-6, CG_TOL_FACTOR=1e-3,
               MAX_NEWTON=30)
    tol = ToleranceSpec(1e-8, atol=1e-12)
    sch = DIRK_SCHEMES[order]
    tf = 1.0
    exact = 1.0 / np.sqrt(1.0 + 2.0 * tf)
    errs = []
    for nsteps in (32, 64, 128, 256):
        h = tf / nsteps
        f, t = StateVector(np.array([1.0]), lay), 0.0
        for _ in range(nsteps):
            f, _, _ = dirk_step(rhs, t, f, h, sch, rhs(t, f), tol)
            t += h
        errs.append(abs(f.values[0] - exact))
    rate = np.log2(errs[-2] / errs[-1])
    assert order - 0.25 <= rate <= order + 0.25


def test_newton_nonconvergence_raises_step_failure(monkeypatch):
    lay = GridLayout("fd", 1, 1)

    def rhs(t, f):
        return StateVector(-f.values**3, f.layout)

    f0 = StateVector(np.array([2.0]), lay)
    # one Newton iteration cannot solve the cubic stage equation this far
    set_newton(monkeypatch, NEWTON_TOL=1e-8, MAX_NEWTON=1)
    with pytest.raises(StepFailure):
        dirk_step(rhs, 0.0, f0, 0.5, DIRK_SCHEMES[2], rhs(0.0, f0),
                  ToleranceSpec(1e-8, atol=1e-12))


def test_cg_breakdown_surfaces_as_step_failure():
    # growth mode: the stage operator I - h*a_ii*J loses definiteness
    lay, rhs = scalar_problem(100.0)
    f0 = StateVector(np.array([1.0]), lay)
    with pytest.raises(StepFailure):
        dirk_step(rhs, 0.0, f0, 1.0, DIRK_SCHEMES[2], rhs(0.0, f0),
                  ToleranceSpec(1e-6, atol=0.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_rhs_raises_step_failure():
    lay = GridLayout("fd", 4, 1)

    def rhs(t, f):
        return StateVector(np.full(f.layout.n_dof, np.inf), f.layout)

    f0 = StateVector(np.ones(lay.n_dof), lay)
    with pytest.raises(StepFailure):
        dirk_step(rhs, 0.0, f0, 0.1, DIRK_SCHEMES[2], rhs(0.0, f0),
                  ToleranceSpec(1e-6))


def test_nonfinite_stage_derivative_fails_the_newton_residual():
    # F(t_n, f_n) is finite; every stage time returns NaN
    lay = GridLayout("fd", 4, 1)

    def rhs(t, f):
        return StateVector(np.full(4, np.nan) if t > 0.0 else -f.values, lay)

    f0 = StateVector(np.ones(lay.n_dof), lay)
    with pytest.raises(StepFailure, match="non-finite Newton residual"):
        dirk_step(rhs, 0.0, f0, 0.1, DIRK_SCHEMES[2], rhs(0.0, f0),
                  ToleranceSpec(1e-6))


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
    sch = DIRK_SCHEMES[order]
    tol = ToleranceSpec(1e-6)
    calls = []

    def rhs(t, f):
        calls.append((t, f.values.copy(), prob.rhs(t, f)))
        return calls[-1][2]

    g0 = prob.rhs(0.0, f0)
    f1, _, g1 = dirk_step(rhs, 0.0, f0, h, sch, g0, tol)
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
        <= dirk.NEWTON_TOL

