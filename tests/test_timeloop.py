import math
import re

import numpy as np
import pytest

from stsdiff import (
    ControllerConfig,
    EigPolicy,
    GridLayout,
    StateVector,
    ToleranceSpec,
    advance_adaptive,
    advance_fixed,
    make_method,
)
from stsdiff.bench import PROBLEMS, sample_times
from stsdiff.errors import IntegrationAbort, StepFailure
from stsdiff.integrators.sts import STAGE_CAP, stage_count
from stsdiff.problems import DgProblem, FdProblem
from stsdiff.domeig import PowerIterConfig, _dq
from stsdiff.state import wrms
from stsdiff.timeloop import (H_MIN, MAX_CONSECUTIVE_REJECTIONS,
                              METHOD_NAMES, SAFETY, SHRINK, _start_step)

from dense_oracle import dense_expm

LAY = GridLayout("fd", 64, 1)
PROB = FdProblem(LAY, nu=1.0)
TOL = ToleranceSpec(1e-5)
EIG = EigPolicy(q_lambda=1.2)
TWENTY = [k / 20 for k in range(1, 21)]


class ZeroProblem:
    layout = LAY

    def rhs(self, t, f):
        return StateVector(np.zeros_like(f.values), f.layout)

    def initial_condition(self):
        return PROB.initial_condition()


class NanProblem:
    layout = LAY

    def rhs(self, t, f):
        return StateVector(np.full(f.layout.n_dof, np.nan), f.layout)

    def initial_condition(self):
        return PROB.initial_condition()


def test_zero_rhs_grows_step_without_rejections():
    log = []
    samples, stats = advance_adaptive(
        ZeroProblem(), make_method("ssp2", ZeroProblem(), TOL), TOL,
        "component", EIG, ControllerConfig(), 1.0, [0.5, 1.0], step_log=log)
    assert stats.rejected == 0
    assert stats.attempted < 25
    f0 = PROB.initial_condition()
    assert all(np.array_equal(s.values, f0.values) for s in samples)
    assert max(r.h for r in log) > 100 * 1e-4


def test_accepted_steps_satisfy_error_bound_as_logged():
    log = []
    _, stats = advance_adaptive(PROB, make_method("rkl", PROB, TOL), TOL,
                                "component", EIG, ControllerConfig(), 1.0,
                                TWENTY, step_log=log)
    accepted = [r for r in log if r.accepted]
    assert len(accepted) == stats.accepted
    assert all(r.e_norm <= 1.0 for r in accepted)
    assert all(r.h > 0.0 for r in log)
    assert stats.accepted + stats.rejected == stats.attempted
    assert 0.0 <= stats.failure_rate <= 1.0


def test_two_identical_runs_are_bit_identical():
    logs, runs = [], []
    for _ in range(2):
        log = []
        _, stats = advance_adaptive(PROB, make_method("rkl", PROB, TOL), TOL,
                                    "component", EIG, ControllerConfig(),
                                    1.0, TWENTY, step_log=log)
        logs.append(log)
        runs.append((stats.attempted, stats.accepted, stats.rejected,
                     stats.rhs_evals, stats.stages_total,
                     stats.domeig_calls, stats.domeig_iters))
    assert logs[0] == logs[1]
    assert runs[0] == runs[1]


def test_one_shot_and_periodic_refresh_agree_on_linear_problem():
    seqs, calls = {}, {}
    for refresh in ("once", "periodic"):
        log = []
        _, stats = advance_adaptive(
            PROB, make_method("rkl", PROB, TOL), TOL, "component",
            EigPolicy(q_lambda=1.2, refresh=refresh, period=25),
            ControllerConfig(), 1.0, [], step_log=log)
        seqs[refresh] = [r.h for r in log]
        calls[refresh] = stats.domeig_calls
    assert seqs["once"] == seqs["periodic"]
    assert calls["once"] == 1
    assert calls["periodic"] > 1


def test_sampling_lands_exactly_and_in_order():
    times = [0.0, 0.123, 0.5, 0.987, 1.0]
    samples, stats = advance_adaptive(PROB, make_method("rkl", PROB, TOL),
                                      TOL, "component", EIG,
                                      ControllerConfig(), 1.0, times)
    assert len(samples) == len(times)
    f0 = PROB.initial_condition()
    np.testing.assert_array_equal(samples[0].values, f0.values)
    norms = [np.linalg.norm(s.values - f0.values) for s in samples[1:]]
    assert all(n > 0 for n in norms)


@pytest.mark.parametrize("name", ["rkl", "ssp3"])
def test_step_within_round_off_of_a_stop_lands_on_it(name):
    # h0 ends 1e-13 short of the sample time 0.1: the step is stretched
    # onto it and grows like a full step, with no 1e-13 sliver after it
    log = []
    samples, stats = advance_adaptive(
        ZeroProblem(), make_method(name, ZeroProblem(), TOL), TOL,
        "component", EIG, ControllerConfig(h0=0.1 * (1.0 - 1e-12)), 1.0,
        [0.1, 1.0], step_log=log)
    assert stats.attempted == 2 and stats.rejected == 0
    assert [(r.t, r.h) for r in log] == [(0.0, 0.1), (0.1, 1.0 - 0.1)]
    assert len(samples) == 2


class StiffZeroProblem(ZeroProblem):
    """A zero operator with a large analytic eigenvalue bound."""

    def lambda_user(self):
        return 1e9


def test_sts_step_is_capped_after_landing():
    # h0 reaches the stop a hair past the STAGE_CAP interval: the cap
    # wins and the capped step does not land, so the stop is reached by
    # a step of its own
    prob = StiffZeroProblem()
    method = make_method("rkl", prob, TOL)
    h_cap = method.interval / prob.lambda_user()
    stop = h_cap * (1.0 + 1e-10)
    log = []
    advance_adaptive(prob, method, TOL, "component",
                     EigPolicy(mode="user", q_lambda=1.0),
                     ControllerConfig(h0=stop), 2.0 * h_cap, [stop],
                     step_log=log)
    assert (log[0].t, log[0].h, log[0].stages) == (0.0, h_cap, STAGE_CAP)
    assert (log[1].t, log[1].h) == (h_cap, stop - h_cap)
    assert all(r.accepted for r in log)


def test_adaptive_solution_tracks_reference():
    [ref] = dense_expm(PROB, (1.0,))
    for name in ("rkl", "rkc", "ssp3", "dirk2"):
        samples, _ = advance_adaptive(PROB, make_method(name, PROB, TOL),
                                      TOL, "component", EIG,
                                      ControllerConfig(), 1.0, [1.0])
        rel = (np.max(np.abs(samples[0].values - ref))
               / np.max(np.abs(ref)))
        assert rel < 1e-3, (name, rel)


def test_unstable_fixed_step_flags_blow_up_instead_of_raising():
    samples, stats, blew = advance_fixed(PROB, make_method("ssp2", PROB, TOL),
                                         0.05, 1.0, TWENTY)
    assert blew
    assert stats.attempted < 20


def test_stabilized_method_survives_the_same_fixed_step():
    samples, stats, blew = advance_fixed(PROB, make_method("rkl", PROB, TOL),
                                         0.05, 1.0, TWENTY, tol=TOL, eig=EIG)
    assert not blew
    assert len(samples) == 20
    [ref] = dense_expm(PROB, (1.0,))
    rel = np.max(np.abs(samples[-1].values - ref)) / np.max(np.abs(ref))
    assert rel < 1e-2


@pytest.mark.parametrize("h, steps", [(0.0125, 80), (0.00625, 160)])
def test_fixed_steps_land_on_sample_times_without_sliver_steps(h, steps):
    # accumulated t ends a few ulps short of each sample time; the step
    # that gets there must land on it, not leave a 1e-17 step behind
    log = []
    _, stats, blew = advance_fixed(PROB, make_method("rkl", PROB, TOL), h,
                                   1.0, TWENTY, tol=TOL,
                                   eig=EigPolicy(mode="user"), step_log=log)
    assert not blew
    assert stats.attempted == steps
    assert all(r.h >= 0.999 * h for r in log)


def test_step_logs_record_start_times_and_every_attempt():
    log = []
    _, stats = advance_adaptive(PROB, make_method("rkl", PROB, TOL), TOL,
                                "component", EIG, ControllerConfig(h0=0.5),
                                1.0, TWENTY, step_log=log)
    assert stats.rejected >= 1
    assert len(log) == stats.attempted
    assert log[0].t == 0.0

    log = []
    _, stats, blew = advance_fixed(PROB, make_method("rkl", PROB, TOL), 0.05,
                                   1.0, TWENTY, tol=TOL, eig=EIG,
                                   step_log=log)
    assert len(log) == stats.attempted == 20
    assert [r.t for r in log[:3]] == [0.0, 0.05, 0.1]
    assert all(r.t + r.h == pytest.approx(n.t, abs=1e-15)
               for r, n in zip(log, log[1:]))

    # the attempt that blows up is logged as not accepted
    log = []
    _, stats, blew = advance_fixed(PROB, make_method("ssp2", PROB, TOL),
                                   0.05, 1.0, TWENTY, step_log=log)
    assert blew is True
    assert len(log) == stats.attempted == stats.accepted + 1
    assert all(r.accepted for r in log[:-1])
    assert not log[-1].accepted and log[-1].e_norm == np.inf


def test_fixed_step_below_stability_bound_stays_bounded():
    lay = GridLayout("fd", 4, 1)
    prob = FdProblem(lay, nu=1.0)
    lam_max = np.max(np.abs(np.linalg.eigvalsh(prob.assemble_matrix())))
    h = 1.9 / lam_max
    samples, _, blew = advance_fixed(prob, make_method("ssp2", prob, TOL),
                                     h, 1.0, [1.0])
    assert not blew
    f0 = np.max(np.abs(prob.initial_condition().values))
    assert np.max(np.abs(samples[0].values)) <= 2 * f0


def test_persistent_nonfinite_states_abort_with_diagnostics():
    with pytest.raises(IntegrationAbort, match="h_min"):
        advance_adaptive(NanProblem(), make_method("ssp2", NanProblem(), TOL),
                         TOL, "component", EIG, ControllerConfig(), 1.0, [])


def test_rejection_streak_aborts_from_a_large_first_step():
    # from h0 = 1 the tenth rejection comes before h falls below h_min
    log = []
    with pytest.raises(IntegrationAbort, match="consecutive") as exc:
        advance_adaptive(NanProblem(), make_method("ssp2", NanProblem(), TOL),
                         TOL, "component", EIG, ControllerConfig(h0=1.0),
                         1.0, [], step_log=log)
    # the abort carries the run's counters up to it
    stats = exc.value.stats
    assert stats.attempted == stats.rejected == len(log) \
        == MAX_CONSECUTIVE_REJECTIONS
    assert stats.rhs_evals > 0
    assert stats.wall_clock > 0.0
    # each failed attempt cuts the step by SHRINK
    assert [b.h / a.h for a, b in zip(log, log[1:])] == pytest.approx(
        [SHRINK] * (len(log) - 1))


@pytest.mark.parametrize("t_f", [1.0, 100.0])
def test_h_min_is_a_fixed_fraction_of_t_f(t_f):
    # every attempt fails on NaN states and cuts h by SHRINK: from
    # h0 = 20 H_MIN t_f the second cut falls below H_MIN t_f
    log = []
    h_min = H_MIN * t_f
    with pytest.raises(IntegrationAbort,
                       match=re.escape(f"below h_min {h_min:.3e}")):
        advance_adaptive(NanProblem(), make_method("ssp2", NanProblem(), TOL),
                         TOL, "component", EIG,
                         ControllerConfig(h0=20 * h_min), t_f, [],
                         step_log=log)
    assert [r.h for r in log] == pytest.approx([20 * h_min, 2 * h_min])


def test_a_rejected_step_is_retried_at_most_safety_times_as_long():
    # h0 = 0.5 overshoots the tolerance, so the run starts with
    # rejections at finite errors; the retry may only be stretched over
    # round-off onto a stop
    log = []
    advance_adaptive(PROB, make_method("rkl", PROB, TOL), TOL, "component",
                     EIG, ControllerConfig(h0=0.5), 1.0, TWENTY, step_log=log)
    retried = [(a, b) for a, b in zip(log, log[1:]) if not a.accepted]
    assert retried and all(np.isfinite(a.e_norm) for a, _ in retried)
    assert all(b.h <= SAFETY * a.h * (1 + 1e-9) for a, b in retried)


def _outcome(run):
    """(stats, step log, blew_up) of run(log), an aborted run included."""
    log = []
    try:
        out = run(log)
    except IntegrationAbort as abort:
        return abort.stats, log, False
    return out[1], log, out[2] if len(out) == 3 else False


FD_STIFF = FdProblem(GridLayout("fd", 32, 4), nu=10.0)
DG_SMALL = DgProblem(GridLayout("dg", 16, 2), nu=1.0)
OUTCOME_RUNS = {
    "adaptive": lambda log: advance_adaptive(
        PROB, make_method("rkl", PROB, TOL), TOL, "component", EIG,
        ControllerConfig(), 1.0, TWENTY, step_log=log),
    "rejected-h0": lambda log: advance_adaptive(
        PROB, make_method("rkl", PROB, TOL), TOL, "component", EIG,
        ControllerConfig(h0=0.5), 1.0, TWENTY, step_log=log),
    "fixed": lambda log: advance_fixed(
        PROB, make_method("rkl", PROB, TOL), 0.05, 1.0, TWENTY, tol=TOL,
        eig=EIG, step_log=log),
    "blown-up": lambda log: advance_fixed(
        FD_STIFF, make_method("ssp2", FD_STIFF, TOL), 0.0125, 1.0,
        sample_times(1.0), step_log=log),
    "estimator-abort": lambda log: advance_adaptive(
        DG_SMALL, make_method("rkl", DG_SMALL, TOL), TOL, "component",
        EigPolicy(power=PowerIterConfig(tau=1e-9)), ControllerConfig(),
        1.0, TWENTY, step_log=log),
    "rejection-streak": lambda log: advance_adaptive(
        NanProblem(), make_method("ssp2", NanProblem(), TOL), TOL,
        "component", EIG, ControllerConfig(h0=1.0), 1.0, [], step_log=log),
    "h_min": lambda log: advance_adaptive(
        NanProblem(), make_method("ssp2", NanProblem(), TOL), TOL,
        "component", EIG, ControllerConfig(h0=1e-11), 1.0, [], step_log=log),
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("kind", OUTCOME_RUNS)
def test_every_run_logs_each_attempt_it_counts(kind):
    stats, log, blew = _outcome(OUTCOME_RUNS[kind])
    assert len(log) == stats.attempted == stats.accepted + stats.rejected
    assert stats.rejected == sum(not r.accepted for r in log)
    if kind == "blown-up":
        assert blew and stats.failure_rate > 0.0
    if kind == "estimator-abort":
        assert stats.attempted == 0 and stats.domeig_calls == 1


def test_step_log_times_are_python_floats():
    # numpy sample times, on which most steps land, and numpy step sizes
    times = sample_times(1.0)
    for fixed_h in (None, np.float64(0.0125)):
        log = []
        method = make_method("rkl", PROB, TOL)
        if fixed_h is None:
            advance_adaptive(PROB, method, TOL, "component", EIG,
                             ControllerConfig(h0=np.float64(1e-3)), 1.0,
                             times, step_log=log)
        else:
            advance_fixed(PROB, method, fixed_h, 1.0, times, tol=TOL,
                          eig=EIG, step_log=log)
        assert {type(r.t) for r in log} == {float}


def test_exception_types_are_defined_only_in_errors():
    import importlib
    import inspect
    import pkgutil

    import stsdiff
    found = []
    for info in pkgutil.walk_packages(stsdiff.__path__, "stsdiff."):
        mod = importlib.import_module(info.name)
        found += [f"{mod.__name__}.{name}"
                  for name, cls in inspect.getmembers(mod, inspect.isclass)
                  if issubclass(cls, BaseException)
                  and cls.__module__ == mod.__name__]
    assert sorted(found) == ["stsdiff.errors.IntegrationAbort",
                             "stsdiff.errors.StepFailure"]


@pytest.mark.parametrize("name", ["rkl", "rkc"])
def test_stabilized_zero_rhs_grows_step_at_two_stages(name):
    log = []
    samples, stats = advance_adaptive(
        ZeroProblem(), make_method(name, ZeroProblem(), TOL), TOL,
        "component", EIG, ControllerConfig(), 1.0, [0.5, 1.0], step_log=log)
    assert stats.rejected == 0
    assert stats.attempted < 25
    assert all(r.stages == 2 for r in log)
    f0 = PROB.initial_condition()
    # the recursion's stage weights sum to one only up to rounding
    for s in samples:
        np.testing.assert_allclose(s.values, f0.values, rtol=1e-13)
    assert max(r.h for r in log) > 100 * 1e-4


@pytest.mark.parametrize("name", ["rkl", "rkc"])
@pytest.mark.parametrize("h0, match", [(1e-11, "h_min"),
                                       (1.0, "consecutive")])
def test_stabilized_nonfinite_states_abort_with_diagnostics(name, h0, match):
    # h_min is 1e-12 t_f: two rejections from h0 = 1e-11 reach it, ten
    # from h0 = 1 do not
    with pytest.raises(IntegrationAbort, match=match):
        advance_adaptive(NanProblem(), make_method(name, NanProblem(), TOL),
                         TOL, "component", EIG, ControllerConfig(h0=h0), 1.0,
                         [])


@pytest.mark.parametrize("norm", ["component", "cell"])
def test_adaptive_ssp_steps_stay_inside_stability_interval(norm):
    dg = DgProblem(GridLayout("dg", 16, 2), nu=1.0)
    lam_true = np.max(np.abs(np.linalg.eigvalsh(dg.line_matrix())))
    tol = ToleranceSpec(1e-4)
    log = []
    advance_adaptive(dg, make_method("ssp4", dg, tol, norm), tol, norm,
                     EigPolicy(mode="user"), ControllerConfig(), 1.0,
                     TWENTY, step_log=log)
    assert max(r.h * lam_true for r in log if r.accepted) <= 13.917


@pytest.mark.parametrize("name", ["rkl", "rkc"])
def test_fixed_step_past_stage_cap_flags_blow_up_instead_of_raising(name):
    # h * lambda_eff = 6.7e7 needs more than STAGE_CAP stages
    dg = DgProblem(GridLayout("dg", 120, 4), nu=2000.0)
    samples, stats, blew = advance_fixed(
        dg, make_method(name, dg, TOL), 0.5, 1.0, (), tol=TOL,
        eig=EigPolicy(mode="user"))
    assert blew
    assert stats.attempted == 1 and stats.accepted == 0
    # the one call is the state's F, which the driver evaluates before
    # the stage count; no stage is counted or run
    assert stats.stages_total == 0 and stats.rhs_evals == 1


@pytest.mark.parametrize("name", ["rkl", "rkc"])
def test_sts_max_step_holds_stage_count_at_cap(name):
    # the adaptive driver caps an STS step at interval / lam_eff
    method = make_method(name, PROB, TOL)
    for lam in (1.0, 3.0e7, 1.234567e11):
        assert stage_count(method.interval / lam, lam,
                           method.sts_family) == STAGE_CAP


def test_adaptive_sts_steps_stay_within_stage_cap():
    # the first proposal, h0 = t_f, has h * lambda_eff = 1.2e8, past the
    # 5.0e7 that STAGE_CAP RKL stages cover
    fd = FdProblem(GridLayout("fd", 8, 1), nu=1e7)
    tol = ToleranceSpec(1e-3)
    log = []
    samples, stats = advance_adaptive(
        fd, make_method("rkl", fd, tol), tol, "component",
        EigPolicy(mode="user", q_lambda=1.0), ControllerConfig(h0=1.0),
        1.0, [1.0], step_log=log)
    assert len(samples) == 1
    assert max(r.stages for r in log) == STAGE_CAP
    assert stats.stages_total == sum(r.stages for r in log)


def test_start_step_is_accepted_on_stiff_initial_state():
    dg = DgProblem(GridLayout("dg", 16, 2), nu=10.0)
    tol = ToleranceSpec(1e-8)
    log = []
    advance_adaptive(dg, make_method("rkl", dg, tol, "cell"), tol, "cell",
                     EigPolicy(mode="user", q_lambda=1.1),
                     ControllerConfig(), 1.0, TWENTY, step_log=log)
    assert [r.accepted for r in log if r.t == 0.0] == [True]


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("kind,norm", [("fd", "component"), ("dg", "cell")])
def test_start_step_costs_p_rhs_calls(kind, norm, order):
    prob = (PROB if kind == "fd"
            else DgProblem(GridLayout("dg", 16, 2), nu=1.0))
    f = prob.initial_condition()
    g = prob.rhs(0.0, f)
    g_copy = g.values.copy()
    calls = []

    def rhs(t, u):
        calls.append(t)
        return prob.rhs(t, u)

    # the caller supplies F(0, f): each of the p products costs one call
    h = _start_step(rhs, 0.0, f, g, order, norm, TOL, 1.0)
    assert len(calls) == order
    np.testing.assert_array_equal(g.values, g_copy)
    # the same h as products that each evaluate their own base
    d = prob.rhs(0.0, f)
    for _ in range(order):
        d = StateVector(_dq(prob.rhs, 0.0, f, prob.rhs(0.0, f).values,
                            d.values, f, TOL, norm), f.layout)
    assert h == min(1.0, wrms(norm, d, f, TOL) ** (-1.0 / (order + 1.0)))


def test_user_mode_returns_scaled_formula_without_estimator_calls():
    log = []
    _, stats = advance_adaptive(
        PROB, make_method("rkl", PROB, TOL), TOL, "component",
        EigPolicy(mode="user", q_lambda=1.2), ControllerConfig(), 1.0, [],
        step_log=log)
    assert {r.lam_eff for r in log} == {1.2 * PROB.lambda_user()}
    assert stats.domeig_calls == 0


def test_power_mode_counts_estimator_work():
    log = []
    _, stats = advance_adaptive(
        PROB, make_method("rkl", PROB, TOL), TOL, "component",
        EigPolicy(q_lambda=1.2, refresh="once"), ControllerConfig(), 1.0,
        [], step_log=log)
    assert stats.domeig_calls == 1
    assert stats.domeig_iters >= 2
    assert len({r.lam_eff for r in log}) == 1 and log[0].lam_eff > 0


def test_estimate_is_formed_per_period_and_not_after_the_last_step():
    # period 1 marks the estimate stale after every accepted step; the
    # next attempt forms it, and no attempt follows the last step
    _, stats = advance_adaptive(
        PROB, make_method("rkl", PROB, TOL), TOL, "component",
        EigPolicy(q_lambda=1.2, period=1), ControllerConfig(), 1.0, TWENTY)
    assert stats.domeig_calls == stats.accepted


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", ["rkl", "rkc"])
def test_fixed_step_nonfinite_estimate_flags_blow_up(name):
    # the power iteration's first product is NaN: that fails the first
    # attempt like any other non-finite step
    log = []
    _, stats, blew = advance_fixed(
        NanProblem(), make_method(name, NanProblem(), TOL), 0.05, 1.0,
        TWENTY, tol=TOL, eig=EigPolicy(mode="power"), step_log=log)
    assert blew is True
    assert stats.attempted == 1 and stats.accepted == 0
    assert len(log) == 1
    assert not log[0].accepted and log[0].e_norm == np.inf


def test_tight_margin_emits_warning_and_comfortable_margin_does_not():
    with pytest.warns(UserWarning):
        advance_adaptive(PROB, make_method("rkl", PROB, TOL), TOL,
                         "component", EigPolicy(q_lambda=1.1),
                         ControllerConfig(), 0.01, [])
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        advance_adaptive(PROB, make_method("rkl", PROB, TOL), TOL,
                         "component", EigPolicy(q_lambda=1.2),
                         ControllerConfig(), 0.01, [])


def test_config_validation():
    with pytest.raises(ValueError):
        EigPolicy(mode="exact")
    with pytest.raises(ValueError):
        EigPolicy(refresh="never")
    # a fractional period used to run as its ceiling
    for bad in (0, 2.5, 3.0):
        with pytest.raises(ValueError, match="period"):
            EigPolicy(period=bad)
    assert EigPolicy(period=np.int64(3)).period == 3
    with pytest.raises(ValueError):
        EigPolicy(q_lambda=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="q_lambda"):
            EigPolicy(q_lambda=bad)


@pytest.mark.parametrize("bad", [
    dict(h0=np.nan), dict(h0=np.inf), dict(h0=0.0), dict(h0=-1.0)])
def test_controller_config_rejects_bad_steps(bad):
    with pytest.raises(ValueError, match="h0"):
        ControllerConfig(**bad)


def test_method_factory_rejects_bad_requests():
    with pytest.raises(ValueError):
        make_method("rk4", PROB, TOL)
    from stsdiff.problems import DgProblem

    dg = DgProblem(GridLayout("dg", 8, 2), nu=1.0)
    with pytest.raises(ValueError):
        make_method("rk4", dg, TOL)
    for name in ("rkl", "rkc", "ssp2", "ssp3", "ssp4", "dirk2", "dirk3"):
        assert make_method(name, PROB, TOL).name == name
        assert make_method(name, dg, TOL).name == name


def test_driver_input_validation():
    m = make_method("ssp2", PROB, TOL)
    with pytest.raises(ValueError):
        advance_adaptive(PROB, m, TOL, "component", EIG, ControllerConfig(),
                         -1.0, [])
    with pytest.raises(ValueError):
        advance_fixed(PROB, m, 0.0, 1.0, [])
    with pytest.raises(ValueError):
        advance_adaptive(PROB, m, TOL, "component", EIG, ControllerConfig(),
                         1.0, [0.5, 0.2])
    with pytest.raises(ValueError):
        advance_adaptive(PROB, m, TOL, "component", EIG, ControllerConfig(),
                         1.0, [2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_drivers_reject_nonfinite_t_f_and_h(bad):
    m = make_method("ssp2", PROB, TOL)
    with pytest.raises(ValueError, match="t_f"):
        advance_adaptive(PROB, m, TOL, "component", EIG, ControllerConfig(),
                         bad, [])
    with pytest.raises(ValueError, match="t_f"):
        advance_fixed(PROB, m, 0.05, bad, [])
    with pytest.raises(ValueError, match="h must"):
        advance_fixed(PROB, m, bad, 1.0, [])


@pytest.mark.parametrize("times", [[np.nan], [0.5, np.nan], [np.nan, 0.5]])
def test_drivers_reject_nan_sample_times(times):
    m = make_method("ssp2", PROB, TOL)
    with pytest.raises(ValueError, match="sample times"):
        advance_adaptive(PROB, m, TOL, "component", EIG, ControllerConfig(),
                         1.0, times)
    with pytest.raises(ValueError, match="sample times"):
        advance_fixed(PROB, m, 0.01, 1.0, times)


class RepeatCounter:
    """A problem whose rhs counts the calls at a state it was already
    called at; everything else is the wrapped problem's."""

    def __init__(self, problem):
        self.problem = problem
        self.seen = set()
        self.repeats = 0

    def rhs(self, t, f):
        key = f.values.tobytes()
        self.repeats += key in self.seen
        self.seen.add(key)
        return self.problem.rhs(t, f)

    def __getattr__(self, name):
        return getattr(self.problem, name)


@pytest.mark.parametrize("run", ["adaptive-h0", "adaptive-start", "fixed"])
@pytest.mark.parametrize("kind,n_v,nu,norm", [
    ("fd", 16, 10.0, "component"), ("dg", 8, 1.0, "cell")],
    ids=["fd", "dg"])
@pytest.mark.parametrize("name", ["rkl", "rkc", "ssp3", "dirk2"])
def test_each_state_right_hand_side_is_evaluated_once(name, kind, n_v, nu,
                                                      norm, run):
    # the drivers evaluate F(t, f) once per state and hand it to the
    # step, the estimate and the start step, across retries too; a DIRK
    # step hands over the F it evaluated at the state it ends on, while
    # an STS step evaluates F there for its error estimate only, so each
    # accepted STS step but the last is followed by one repeat
    t_f = 0.05
    prob = RepeatCounter(PROBLEMS[kind](GridLayout(kind, n_v, 2), nu=nu))
    tol = ToleranceSpec(1e-6)
    method = make_method(name, prob, tol, norm)
    eig = EigPolicy(q_lambda=1.2, period=3)
    times = sample_times(t_f)
    if run == "fixed":
        _, stats, blew_up = advance_fixed(prob, method, t_f / 20, t_f, times,
                                          tol=tol, eig=eig)
        assert not blew_up
    else:
        h0 = 0.0025 if run == "adaptive-h0" else None
        _, stats = advance_adaptive(prob, method, tol, norm, eig,
                                    ControllerConfig(h0=h0), t_f, times)
    if run == "adaptive-h0" and name in ("rkl", "rkc", "ssp3"):
        # the path this pins: retries and estimator refreshes
        assert stats.rejected > 0 and stats.domeig_calls > 1
    want = stats.accepted - 1 if name in ("rkl", "rkc") else 0
    assert prob.repeats == want


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_each_step_returns_its_end_derivative_or_none(name):
    # step returns (f_next, err, stages, g_next); g_next, when given, is
    # bitwise F(t + h, f_next), which the loop takes as the next state's F
    prob = FdProblem(GridLayout("fd", 16, 2), nu=1.0)
    t, h = 0.1, 1e-4
    f = prob.initial_condition()
    out = make_method(name, prob, TOL).step(
        prob.rhs, t, f, h, 1.2 * prob.lambda_user(), prob.rhs(t, f))
    assert len(out) == 4
    f_next, _, _, g_next = out
    if name.startswith("dirk"):
        assert g_next is not None
    if g_next is not None:
        np.testing.assert_array_equal(g_next.values,
                                      prob.rhs(t + h, f_next).values)


class RecordedEnds:
    """Wraps a method: ends[k] is None when attempt k raised, else the
    bytes of the state it returned and the number of rhs calls made by
    then, read from calls."""

    def __init__(self, method, calls):
        self.method = method
        self.calls = calls
        self.ends = []

    def step(self, *args):
        try:
            out = self.method.step(*args)
        except StepFailure:
            self.ends.append(None)
            raise
        self.ends.append((out[0].values.tobytes(), len(self.calls)))
        return out

    def __getattr__(self, name):
        return getattr(self.method, name)


@pytest.mark.parametrize("run", ["adaptive", "adaptive-h0", "fixed"])
@pytest.mark.parametrize("name", ["dirk2", "dirk3"])
def test_a_dirk_run_never_calls_rhs_at_a_state_it_accepted(name, run):
    # a DIRK step ends on its last stage's solve, whose F it has already
    # evaluated and hands to the loop for the next step's first stage
    t_f = 0.05
    prob = FdProblem(GridLayout("fd", 16, 2), nu=10.0)
    calls = []

    class Recorded:
        layout = prob.layout
        initial_condition = prob.initial_condition

        def rhs(self, t, f):
            calls.append(f.values.tobytes())
            return prob.rhs(t, f)

    method = RecordedEnds(make_method(name, prob, TOL), calls)
    log = []
    if run == "fixed":
        _, stats, blew_up = advance_fixed(Recorded(), method, t_f / 20, t_f,
                                          sample_times(t_f), tol=TOL,
                                          step_log=log)
        assert not blew_up
    else:
        h0 = t_f if run == "adaptive-h0" else None
        _, stats = advance_adaptive(Recorded(), method, TOL, "component",
                                    EIG, ControllerConfig(h0=h0), t_f,
                                    sample_times(t_f), step_log=log)
    if run == "adaptive-h0":
        assert stats.rejected > 0
    assert len(method.ends) == len(log) == stats.attempted
    accepted = [end for rec, end in zip(log, method.ends) if rec.accepted]
    assert len(accepted) == stats.accepted >= 20
    for state, n_calls in accepted:
        assert state not in calls[n_calls:]


class NanLineProblem(NanProblem):
    """NanProblem on FD 16x1 at nu=1, with an analytic eigenvalue bound,
    so every attempt fails after its stage count is fixed."""

    layout = GridLayout("fd", 16, 1)
    problem = FdProblem(layout, nu=1.0)

    def initial_condition(self):
        return self.problem.initial_condition()

    def lambda_user(self):
        return self.problem.lambda_user()


@pytest.mark.parametrize("name,adaptive_total,fixed_stages", [
    ("rkl", 31, 3), ("ssp3", 40, 4), ("dirk2", 30, 3)])
def test_a_failed_attempt_keeps_its_stage_count(name, adaptive_total,
                                                fixed_stages):
    # each attempt fails inside the step, after its stage count is fixed:
    # those stages are counted and logged, under both step policies
    prob = NanLineProblem()
    user = EigPolicy(mode="user")
    log = []
    with pytest.raises(IntegrationAbort, match="consecutive rejections") \
            as abort:
        advance_adaptive(prob, make_method(name, prob, TOL), TOL,
                         "component", user, ControllerConfig(h0=1.0), 1.0,
                         step_log=log)
    stats = abort.value.stats
    assert stats.attempted == len(log) == MAX_CONSECUTIVE_REJECTIONS
    assert stats.stages_total == sum(r.stages for r in log) == adaptive_total
    assert all(r.stages > 0 and not r.accepted for r in log)
    if name == "rkl":
        assert [r.stages for r in log[:4]] == [11, 4, 2, 2]
    log = []
    _, stats, blew_up = advance_fixed(prob, make_method(name, prob, TOL),
                                      0.05, 1.0, tol=TOL, eig=user,
                                      step_log=log)
    assert blew_up and [r.stages for r in log] == [fixed_stages]
    assert stats.stages_total == fixed_stages


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("name", ["rkl", "ssp3", "dirk2"])
@pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "fixed"])
def test_lambda_is_formed_only_where_the_method_uses_it(name, adaptive):
    # STS needs lambda for its stage count under both policies, SSP only
    # for its adaptive stability cap, and DIRK never
    prob = FdProblem(GridLayout("fd", 16, 1), nu=1.0)
    method = make_method(name, prob, TOL)
    log = []
    if adaptive:
        _, stats = advance_adaptive(prob, method, TOL, "component",
                                    EigPolicy(mode="power"),
                                    ControllerConfig(), 0.05, step_log=log)
    else:
        _, stats, _ = advance_fixed(prob, method, 0.0025, 0.05, tol=TOL,
                                    eig=EigPolicy(mode="power"),
                                    step_log=log)
    forms = name == "rkl" or (name == "ssp3" and adaptive)
    assert (stats.domeig_calls > 0) == forms
    assert all((r.lam_eff > 0.0) == forms for r in log)


class EulerSubsteps:
    """A method defined outside the package: forward Euler in s equal
    substeps, with s = ceil(h lam_eff / 1.9) formed inside the step, and
    the trapezoidal difference of each substep as its error estimate."""

    order = 1
    needs_lambda = True
    interval = math.inf

    def step(self, rhs, t, f, h, lam_eff, g):
        s = max(1, math.ceil(h * lam_eff / 1.9))
        dt = h / s
        z, g_z = f.values, g.values
        err = np.zeros_like(z)
        for k in range(1, s + 1):
            z = z + dt * g_z
            g_next = rhs(t + k * dt, StateVector(z, f.layout)).values
            err += 0.5 * dt * (g_next - g_z)
            g_z = g_next
        return (StateVector(z, f.layout), StateVector(err, f.layout), s,
                StateVector(g_z, f.layout))


def test_a_new_method_runs_through_both_drivers_unchanged():
    # the loop asks a method only for its step, order, interval and
    # needs_lambda: a stage count formed inside the step is counted as
    # the step returns it, and the F it returns at its end is the next
    # state's
    prob = FdProblem(GridLayout("fd", 16, 1), nu=10.0)
    user = EigPolicy(mode="user")
    [ref] = dense_expm(prob, (0.1,))
    tol = ToleranceSpec(1e-3)
    log = []
    samples, stats = advance_adaptive(
        prob, EulerSubsteps(), tol, "component", user, ControllerConfig(),
        0.1, [0.1], step_log=log)
    fixed_log = []
    fixed_samples, fixed_stats, blew_up = advance_fixed(
        prob, EulerSubsteps(), 0.005, 0.1, [0.1], tol=tol, eig=user,
        step_log=fixed_log)
    assert not blew_up
    for run in ((samples, stats, log),
                (fixed_samples, fixed_stats, fixed_log)):
        run_samples, run_stats, run_log = run
        assert run_stats.stages_total == sum(r.stages for r in run_log)
        assert np.max(np.abs(run_samples[0].values - ref)) < 1e-3
    # the stage count follows h * lam_eff: 2 substeps at the fixed step,
    # and more than one count over the adaptive run
    assert {r.stages for r in fixed_log} == {2}
    assert len({r.stages for r in log}) > 1
