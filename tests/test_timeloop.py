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
from stsdiff.errors import IntegrationAbort
from stsdiff.integrators.sts import STAGE_CAP, stage_count
from stsdiff.problems import DgProblem, FdProblem
from stsdiff.domeig import matvec_dq
from stsdiff.state import wrms
from stsdiff.timeloop import _start_step

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


def expm_reference(prob, tf):
    J = prob.assemble_matrix()
    w, V = np.linalg.eigh((J + J.T) / 2)
    f0 = prob.initial_condition().values
    return V @ (np.exp(w * tf) * (V.T @ f0))


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


def test_adaptive_solution_tracks_reference():
    ref = expm_reference(PROB, 1.0)
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
    ref = expm_reference(PROB, 1.0)
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


def test_rejection_streak_aborts_when_h_min_disabled():
    with pytest.raises(IntegrationAbort, match="consecutive"):
        advance_adaptive(NanProblem(), make_method("ssp2", NanProblem(), TOL),
                         TOL, "component", EIG, ControllerConfig(h_min=0.0),
                         1.0, [])


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
@pytest.mark.parametrize("h_min, match", [(None, "h_min"),
                                          (0.0, "consecutive")])
def test_stabilized_nonfinite_states_abort_with_diagnostics(name, h_min,
                                                            match):
    with pytest.raises(IntegrationAbort, match=match):
        advance_adaptive(NanProblem(), make_method(name, NanProblem(), TOL),
                         TOL, "component", EIG,
                         ControllerConfig(h_min=h_min), 1.0, [])


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


def test_fixed_step_past_stage_cap_flags_blow_up_instead_of_raising():
    # h * lambda_eff = 6.7e7 needs more than STAGE_CAP stages
    dg = DgProblem(GridLayout("dg", 120, 4), nu=2000.0)
    samples, stats, blew = advance_fixed(
        dg, make_method("rkl", dg, TOL), 0.5, 1.0, (), tol=TOL,
        eig=EigPolicy(mode="user"))
    assert blew
    assert stats.attempted == 1 and stats.accepted == 0
    assert stats.stages_total == 0 and stats.rhs_evals == 0


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
def test_start_step_costs_p_plus_one_rhs_calls(kind, norm, order):
    prob = (PROB if kind == "fd"
            else DgProblem(GridLayout("dg", 16, 2), nu=1.0))
    f = prob.initial_condition()
    calls = []

    def rhs(t, u):
        calls.append(t)
        return prob.rhs(t, u)

    h = _start_step(rhs, 0.0, f, order, norm, TOL, 1.0)
    assert len(calls) == order + 1
    # the same h as products that each evaluate their own base
    d = prob.rhs(0.0, f)
    for _ in range(order):
        d = matvec_dq(prob.rhs, 0.0, f, d, TOL, norm)
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
    with pytest.raises(ValueError):
        EigPolicy(period=0)
    with pytest.raises(ValueError):
        EigPolicy(q_lambda=0.0)


def test_method_factory_rejects_bad_requests():
    with pytest.raises(ValueError):
        make_method("rk4", PROB, TOL)
    from stsdiff.problems import DgProblem

    dg = DgProblem(GridLayout("dg", 8, 2), nu=1.0)
    with pytest.raises(ValueError):
        make_method("dirk2", dg, TOL)
    for name in ("rkl", "rkc", "ssp2", "ssp3", "ssp4", "dirk2", "dirk3"):
        assert make_method(name, PROB, TOL).name == name


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
