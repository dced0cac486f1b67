"""One time loop, `_march`, under two step policies.

`advance_adaptive` accepts an attempt when the WRMS norm of its error
estimate is at most one, controls h with an integral controller using
the order-aware exponent 1/(p+1) and starts from a derivative-based step
unless one is given.  `advance_fixed` marches at constant h and flags
blow-up instead of failing.  Both end a step by `_SampleTracker`'s
landing rule.

The loop owns F(t_n, f_n): it evaluates g = rhs(t_n, f_n) once per
state, at the first attempt from it (or for the start step), unless the
step that produced the state handed it over.  It keeps g across rejected
attempts and passes it to the step, to the eigenvalue estimate and to
the start step, none of which writes into it.

Every method follows one protocol, so the loop never asks what kind it
is.  step(rhs, t, f, h, lam_eff, g) forms the attempt's stage count and
returns (f_next, err, stages, g_next), where g_next is F(t + h, f_next)
when the step evaluated it, else None; an accepted step's g_next becomes
the next state's g.  A StepFailure it raises carries in .stages the
stages it had fixed, and the loop counts them either way.
interval is the largest h * lam_eff an adaptive step may take: the
real-axis limit for SSP, the stage cap for STS, inf for DIRK.  A method
gets lam_eff when it needs_lambda, or in an adaptive run with a finite
interval, which then caps its step at interval / lam_eff.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .domeig import PowerIterConfig, _dq, power_iterate, warn_if_unsafe
from .errors import IntegrationAbort, StepFailure
from .integrators.dirk import NewtonConfig, dirk_step, dirk_tableau
from .integrators.ssp import ssp_scheme, ssp_step
from .integrators.sts import (
    STAGE_CAP,
    hermite_error,
    rkc2_coefficients,
    rkl2_coefficients,
    stability_interval,
    stage_count,
    sts_step,
)
from .state import StateVector, ToleranceSpec, is_count, wrms

BLOWUP_FACTOR = 1e10
MAX_CONSECUTIVE_REJECTIONS = 10
# an adaptive run aborts when its step falls below H_MIN * t_f
H_MIN = 1e-12
# step-size controller: safety factor on the optimal step, cap on the
# growth per step (looser when the first attempt is accepted, since its
# step came from a derivative estimate, not a measured error) and the
# shrink floor
SAFETY = 0.9
GROWTH = 1.5
FIRST_STEP_GROWTH = 20.0
SHRINK = 0.1
# a step of size h lands on a stop at most (1 + LANDING_SLACK) h away
LANDING_SLACK = 1e-9
# sources of lambda: the problem's analytic bound, or power iteration
EIG_MODES = ("user", "power")
# a fixed-step run's tolerance, for DIRK's Newton solve and the
# eigenvalue estimate
FIXED_TOL = ToleranceSpec(1e-6)


@dataclass(frozen=True)
class ControllerConfig:
    """h0 fixes the first step in place of the derivative-based start."""

    h0: float | None = None

    def __post_init__(self):
        if self.h0 is not None and not 0.0 < self.h0 < math.inf:
            raise ValueError("h0 must be None or positive and finite")


@dataclass
class RunStats:
    attempted: int = 0
    accepted: int = 0
    rhs_evals: int = 0
    stages_total: int = 0
    domeig_calls: int = 0
    domeig_iters: int = 0
    wall_clock: float = 0.0

    @property
    def rejected(self) -> int:
        return self.attempted - self.accepted

    @property
    def failure_rate(self) -> float:
        return self.rejected / self.attempted if self.attempted else 0.0


@dataclass(frozen=True)
class StepRecord:
    """One step attempt, under either step policy, counted in
    `RunStats.attempted` where it is logged, so a step log is as long as
    that count; an estimator abort before the step is no attempt.

    t (a Python float) is the attempt's start time and h its step size.
    e_norm is the WRMS norm of the error estimate, inf when the step
    failed or blew up; a fixed-step run judges an attempt by the blow-up
    test alone and logs 0 for one that passed.  accepted is False for a
    rejected or blown-up attempt, which `RunStats.rejected` counts.
    stages and lam_eff are 0 where none was determined.
    """

    t: float
    h: float
    e_norm: float
    accepted: bool
    stages: int
    lam_eff: float


@dataclass(frozen=True)
class EigPolicy:
    mode: str = "power"
    q_lambda: float = 1.1
    refresh: str = "periodic"
    period: int = 25
    power: PowerIterConfig = field(default_factory=PowerIterConfig)

    def __post_init__(self):
        if self.mode not in EIG_MODES:
            raise ValueError(f"unknown eig mode {self.mode!r}")
        if self.refresh not in ("once", "periodic"):
            raise ValueError(f"unknown refresh policy {self.refresh!r}")
        if not is_count(self.period, 1):
            raise ValueError("refresh period must be an integer of at least 1")
        if not 0.0 < self.q_lambda < math.inf:
            raise ValueError("q_lambda must be positive and finite")


def _counted(s, step, *args):
    """(*step(*args), s); a StepFailure it raises carries the s stages."""
    try:
        return *step(*args), s
    except StepFailure as failure:
        failure.stages = s
        raise


class _StsMethod:
    order = 2
    needs_lambda = True

    def __init__(self, name: str, sts_family: str, build_coefficients):
        self.name = name
        self.sts_family = sts_family
        self._coeffs = functools.cache(build_coefficients)
        # a hair inside the interval of STAGE_CAP stages, so that rounding
        # in h * lam_eff cannot push stage_count past the cap
        self.interval = (stability_interval(sts_family, STAGE_CAP)
                         * (1.0 - 1e-12))

    def step(self, rhs, t, f, h, lam_eff, g):
        s = stage_count(h, lam_eff, self.sts_family)
        f_next, g_next, s = _counted(s, sts_step, rhs, t, f, h,
                                     self._coeffs(s), g)
        return f_next, hermite_error(f, f_next, g, g_next, h), s, None


class _SspMethod:
    needs_lambda = False

    def __init__(self, name: str, order: int):
        self.name = name
        self.scheme = ssp_scheme(order)
        self.order = order
        self.interval = self.scheme.real_axis_bound

    def step(self, rhs, t, f, h, lam_eff, g):
        return (*_counted(self.scheme.s, ssp_step, rhs, t, f, h, self.scheme,
                          g), None)


class _DirkMethod:
    needs_lambda = False
    interval = math.inf

    def __init__(self, name: str, order: int, newton: NewtonConfig,
                 tol: ToleranceSpec, norm_kind: str):
        self.name = name
        self.scheme = dirk_tableau(order)
        self.order = order
        self.newton = newton
        self.tol = tol
        self.norm_kind = norm_kind

    def step(self, rhs, t, f, h, lam_eff, g):
        f_next, err, g_next, s = _counted(
            self.scheme.s, dirk_step, rhs, t, f, h, self.scheme, g,
            self.newton, self.tol, self.norm_kind)
        return f_next, err, s, g_next


METHOD_NAMES = ("rkl", "rkc", "ssp2", "ssp3", "ssp4", "dirk2", "dirk3")


def make_method(name: str, problem, tol: ToleranceSpec,
                norm_kind: str = "component",
                newton: NewtonConfig | None = None):
    """The named method; problem is unused, as every method runs on both."""
    if name == "rkl":
        return _StsMethod(name, "rkl2", rkl2_coefficients)
    if name == "rkc":
        return _StsMethod(name, "rkc2", rkc2_coefficients)
    if name in ("ssp2", "ssp3", "ssp4"):
        return _SspMethod(name, int(name[-1]))
    if name in ("dirk2", "dirk3"):
        return _DirkMethod(name, int(name[-1]), newton or NewtonConfig(),
                           tol, norm_kind)
    raise ValueError(f"unknown method {name!r}; choose from {METHOD_NAMES}")


class _SampleTracker:
    """Walks sorted sample times and decides where each step ends, by the
    one landing rule: a step of size h from t lands on the next stop (the
    next sample time, else t_f) when h (1 + LANDING_SLACK) >= stop - t,
    and then ends at stop itself, so round-off in t leaves no sliver
    step."""

    def __init__(self, sample_times, t_f: float):
        times = [float(x) for x in sample_times]
        if any(times[i] > times[i + 1] for i in range(len(times) - 1)):
            raise ValueError("sample times must be sorted")
        # written so that a NaN time fails it too
        if not all(0.0 <= x <= t_f for x in times):
            raise ValueError("sample times must lie within [0, t_f]")
        self.times = times
        self.t_f = float(t_f)
        self.idx = 0
        self.samples = []

    def next_stop(self) -> float:
        if self.idx < len(self.times):
            return self.times[self.idx]
        return self.t_f

    def step(self, t: float, h: float):
        """(h_try, lands) for a step of size h from t; h_try is a float."""
        gap = self.next_stop() - t
        if h * (1.0 + LANDING_SLACK) >= gap:
            return gap, True
        return float(h), False

    def accept(self, t: float, h_try: float, lands: bool,
               f: StateVector) -> float:
        """The time after an accepted step from t, recording f at every
        sample time it reaches."""
        t = self.next_stop() if lands else t + h_try
        self.record_if_hit(t, f)
        return t

    def record_if_hit(self, t: float, f: StateVector):
        while self.idx < len(self.times) and self.times[self.idx] <= t:
            self.samples.append(f)
            self.idx += 1


class _EigTracker:
    """The one owner of lam_eff = q_lambda * |lambda|, lambda being the
    problem's analytic bound (user mode) or a power-iteration estimate.

    current(t, f, g) forms lam_eff lazily, inside the driver's attempt,
    with g = rhs(t, f) as the estimate's base, so a failed estimate
    fails that attempt: a non-finite product raises StepFailure, and an
    estimate that did not converge or has a positive real part raises
    IntegrationAbort.  after_accept() marks it stale under the periodic
    policy whenever the run's accepted-step count is a multiple of
    eig.period.  A zero operator, and an inactive tracker (a method
    that needs no lambda), give 0.
    """

    def __init__(self, problem, rhs, eig: EigPolicy, tol, stats, active):
        self.problem = problem
        self.rhs = rhs
        self.eig = eig
        self.tol = tol
        self.stats = stats
        self.active = active
        self.lam_eff = None if active else 0.0
        if active and eig.mode == "power":
            warn_if_unsafe(eig.q_lambda, eig.power.tau)

    def current(self, t, f, g) -> float:
        if self.lam_eff is None:
            self.lam_eff = self._form(t, f, g)
        return self.lam_eff

    def after_accept(self):
        if (self.active and self.eig.refresh == "periodic"
                and self.stats.accepted % self.eig.period == 0):
            self.lam_eff = None

    def _form(self, t, f, g) -> float:
        eig = self.eig
        if eig.mode == "user":
            return eig.q_lambda * self.problem.lambda_user()
        self.stats.domeig_calls += 1
        est = power_iterate(self.rhs, t, f, g, eig.power, self.tol)
        self.stats.domeig_iters += est.iters
        lam = est.lambda_approx
        if not est.converged:
            raise IntegrationAbort(
                f"eigenvalue estimate did not converge in {est.iters} "
                f"iterations at t={t:.6e} (tau={eig.power.tau})")
        if lam > 1e-10 * (1.0 + abs(lam)):
            raise IntegrationAbort(
                f"dominant eigenvalue estimate {lam} at t={t:.6e} has a "
                f"positive real part; the integrators assume a negative "
                f"real spectrum")
        return eig.q_lambda * abs(lam)


def _start_step(rhs, t: float, f: StateVector, g: StateVector, order: int,
                norm_kind: str, tol: ToleranceSpec, span: float) -> float:
    """First step size for an order-p method: h = ||y^(p+1)(t)||_W
    ^(-1/(p+1)), where the leading local-error term reaches tolerance
    size.

    This is the starting-step rule of Hairer, Norsett & Wanner (Solving
    ODEs I, II.4) with the true derivative y^(p+1) = J^p F, from
    difference-quotient products, in place of their second-derivative
    proxy.  On a stiff initial state ||y^(p+1)|| outgrows the proxy,
    which puts the first step where the error grows more slowly than
    h^(p+1), so each retry from it is again too large.  At the h chosen
    here the modes that carry weight are resolved and the error grows
    like h^(p+1).  Costs p rhs calls, one per product: every product
    is taken around g = rhs(t, f), which the caller supplies.  Falls
    back to 1e-4 * span when a derivative is not finite and returns span
    when one vanishes.
    """
    base = d = g.values
    for k in range(order + 1):
        nrm = wrms(norm_kind, StateVector(d, f.layout), f, tol)
        if not np.isfinite(nrm):
            return 1e-4 * span
        if nrm == 0.0:
            return span
        if k < order:
            d = _dq(rhs, t, f, base, d, f, tol, norm_kind)
    return min(span, nrm ** (-1.0 / (order + 1.0)))


def _march(problem, method, tol, norm_kind, eig, controller, t_f,
           sample_times, step_log, fixed_h):
    """The time loop; returns (samples, stats, blew_up).  fixed_h=None
    steps adaptively; else it steps by fixed_h, uncapped, with lambda only
    if the method needs_lambda, and ends at the first attempt that fails
    the blow-up test."""
    adaptive = fixed_h is None
    stats = RunStats()
    start = time.perf_counter()
    try:
        def rhs(t, f):
            stats.rhs_evals += 1
            return problem.rhs(t, f)

        f = problem.initial_condition()
        tracker = _SampleTracker(sample_times, t_f)
        tracker.record_if_hit(0.0, f)
        eigs = _EigTracker(problem, rhs, eig, tol, stats,
                           active=method.needs_lambda
                           or (adaptive and method.interval < math.inf))
        p = method.order
        expo = -1.0 / (p + 1.0)
        g = None  # rhs(t, f), evaluated once per state f or handed over
        if adaptive:
            h_ctrl = controller.h0
            if h_ctrl is None:
                g = rhs(0.0, f)
                h_ctrl = _start_step(rhs, 0.0, f, g, p, norm_kind, tol, t_f)
            h_min = H_MIN * t_f
        else:
            h_ctrl, h_min = fixed_h, 0.0
            limit = BLOWUP_FACTOR * float(np.max(np.abs(f.values)))
        t = 0.0
        consecutive_rejects = 0
        first_proposal = True
        blew_up = False

        while t < t_f:
            if h_ctrl < h_min:
                raise IntegrationAbort(
                    f"step size {h_ctrl:.3e} fell below h_min {h_min:.3e} at "
                    f"t={t:.6e} after {stats.attempted} attempts")
            h_try, lands = tracker.step(t, h_ctrl)
            lam_eff = 0.0
            if g is None:
                g = rhs(t, f)
            try:
                lam_eff = eigs.current(t, f, g)
                # capped after landing: a capped step does not land
                if adaptive and lam_eff and method.interval / lam_eff < h_try:
                    h_try, lands = method.interval / lam_eff, False
                f_trial, err, s, g_trial = method.step(rhs, t, f, h_try,
                                                       lam_eff, g)
                if adaptive:
                    e_norm = float(wrms(norm_kind, err, f, tol))
                else:  # the blow-up test; the step raised on NaN or inf
                    e_norm = (0.0 if np.max(np.abs(f_trial.values)) <= limit
                              else math.inf)
            except StepFailure as failure:
                f_trial, g_trial, e_norm, s = (None, None, math.inf,
                                               failure.stages)
            accepted = e_norm <= 1.0
            stats.attempted += 1
            stats.stages_total += s
            if step_log is not None:
                step_log.append(StepRecord(t, h_try, e_norm, accepted, s,
                                           lam_eff))
            if accepted:
                t = tracker.accept(t, h_try, lands, f_trial)
                f, g = f_trial, g_trial
                stats.accepted += 1
                consecutive_rejects = 0
                eigs.after_accept()
                if not adaptive:
                    continue
            elif not adaptive:
                blew_up = True
                break
            else:
                consecutive_rejects += 1
                if consecutive_rejects >= MAX_CONSECUTIVE_REJECTIONS:
                    raise IntegrationAbort(
                        f"{consecutive_rejects} consecutive rejections at "
                        f"t={t:.6e} (h={h_try:.3e}, E={e_norm:.3e})")
            # the controller's factor: unbounded at a zero error, SHRINK
            # for a failed attempt, and at most SAFETY on a rejection
            if e_norm == 0.0:
                factor = math.inf
            elif math.isfinite(e_norm):
                factor = max(SHRINK, SAFETY * e_norm**expo)
            else:
                factor = SHRINK
            if accepted and lands and h_try <= h_ctrl:
                # the shortened landing step says nothing about growing
                # the working step; only shrink if its error demands it
                h_ctrl = min(h_ctrl, h_try * factor)
            else:
                # a full or rejected step, or one stretched over round-off
                # onto a stop; a rejection's factor is under any cap
                cap = FIRST_STEP_GROWTH if first_proposal else GROWTH
                h_ctrl = h_try * min(factor, cap)
            first_proposal = False
    except IntegrationAbort as abort:
        # an aborted run keeps its work
        abort.stats = stats
        raise
    finally:
        stats.wall_clock = time.perf_counter() - start

    return tracker.samples, stats, blew_up


def advance_adaptive(problem, method, tol: ToleranceSpec,
                     norm_kind: str = "component",
                     eig: EigPolicy = EigPolicy(),
                     controller: ControllerConfig = ControllerConfig(),
                     t_f: float = 1.0, sample_times=(),
                     step_log=None):
    """Integrate to t_f with error-controlled steps; returns
    (samples, stats).  Raises IntegrationAbort when the step size falls
    below H_MIN * t_f, after MAX_CONSECUTIVE_REJECTIONS rejections in a
    row, or when no eigenvalue estimate can be formed."""
    if not 0.0 < t_f < math.inf:
        raise ValueError("t_f must be positive and finite")
    return _march(problem, method, tol, norm_kind, eig, controller, t_f,
                  sample_times, step_log, None)[:2]


def advance_fixed(problem, method, h: float, t_f: float, sample_times=(),
                  tol: ToleranceSpec = FIXED_TOL,
                  eig: EigPolicy = EigPolicy(),
                  step_log=None):
    """March at constant h, cut to end on each stop (sample time, else
    t_f) a step would pass; returns (samples, stats, blew_up). Blow-up
    (non-finite values, growth past BLOWUP_FACTOR times the initial
    max-norm, a non-finite product in the eigenvalue estimate, or a step
    that needs more than STAGE_CAP stages) stops the run early instead
    of raising; its failed attempt counts as a rejection.  It raises
    ValueError on an h or t_f that is not positive and finite, or on bad
    sample times, and IntegrationAbort when an eigenvalue estimate did
    not converge or has a positive real part."""
    if not 0.0 < h < math.inf:
        raise ValueError("h must be positive and finite")
    if not 0.0 < t_f < math.inf:
        raise ValueError("t_f must be positive and finite")
    return _march(problem, method, tol, "component", eig, None, t_f,
                  sample_times, step_log, h)
