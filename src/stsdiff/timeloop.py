"""Adaptive and fixed-step integration drivers.

The adaptive driver accepts a step when the WRMS-measured error estimate
is at most one, controls the step size with an integral controller using
the order-aware exponent 1/(p+1), starts from a derivative-based step
unless one is given, caps explicit SSP steps at their real-axis
stability limit and STS steps at the stage cap, clamps steps to land
exactly on sample times, and tracks work counters. The fixed driver
marches at constant h and flags blow-up instead of failing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .domeig import (
    PowerIterConfig,
    ZeroOperatorError,
    _dq,
    power_iterate,
    warn_if_unsafe,
)
from .errors import IntegrationAbort, StageCountError, StepFailure
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
from .state import StateVector, ToleranceSpec, wrms

BLOWUP_FACTOR = 1e10
MAX_CONSECUTIVE_REJECTIONS = 10
# step-size controller: safety factor on the optimal step, cap on the
# growth per step (looser when the first attempt is accepted, since its
# step came from a derivative estimate, not a measured error) and the
# shrink floor
SAFETY = 0.9
GROWTH = 1.5
FIRST_STEP_GROWTH = 20.0
SHRINK = 0.1
# sources of lambda: the problem's analytic bound, or power iteration
EIG_MODES = ("user", "power")


@dataclass(frozen=True)
class ControllerConfig:
    """h0 fixes the first step in place of the derivative-based start;
    h_min is the step below which a run aborts (1e-12 * t_f if None)."""

    h0: float | None = None
    h_min: float | None = None


@dataclass
class RunStats:
    attempted: int = 0
    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    stages_total: int = 0
    domeig_calls: int = 0
    domeig_iters: int = 0
    wall_clock: float = 0.0

    @property
    def failure_rate(self) -> float:
        return self.rejected / self.attempted if self.attempted else 0.0


@dataclass(frozen=True)
class StepRecord:
    """One step attempt, logged by both drivers: one record per attempt,
    so a step log is as long as `RunStats.attempted`.

    t is the attempt's start time and h its step size.  e_norm is the
    WRMS norm of the error estimate, inf when the step failed or blew
    up; the fixed-step driver estimates no error and logs 0 for a
    completed step.  accepted is False for a rejected or blown-up
    attempt.  stages and lam_eff are 0 where none was determined.
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
        if self.period < 1:
            raise ValueError("refresh period must be at least 1")
        if self.q_lambda <= 0:
            raise ValueError("q_lambda must be positive")


class _StsMethod:
    family = "sts"
    order = 2

    def __init__(self, name: str, sts_family: str):
        self.name = name
        self.sts_family = sts_family
        self._coeffs = {}
        # the largest h * lam_eff an adaptive step may take: a hair
        # inside the interval of STAGE_CAP stages, so that rounding in
        # h * lam_eff cannot push stage_count past the cap
        self.interval = (stability_interval(sts_family, STAGE_CAP)
                         * (1.0 - 1e-12))

    def stages_for(self, h: float, lam_eff: float) -> int:
        return stage_count(h, lam_eff, self.sts_family)

    def step(self, rhs, t, f, h, s):
        coeffs = self._coeffs.get(s)
        if coeffs is None:
            build = (rkl2_coefficients if self.sts_family == "rkl2"
                     else rkc2_coefficients)
            coeffs = self._coeffs[s] = build(s)
        f_next, g_n, g_next = sts_step(rhs, t, f, h, coeffs)
        return f_next, hermite_error(f, f_next, g_n, g_next, h)


class _SspMethod:
    family = "ssp"

    def __init__(self, name: str, order: int):
        self.name = name
        self.scheme = ssp_scheme(order)
        self.order = order
        # the largest h * lam_eff an adaptive step may take
        self.interval = self.scheme.real_axis_bound

    def stages_for(self, h, lam_eff):
        return self.scheme.s

    def step(self, rhs, t, f, h, s):
        return ssp_step(rhs, t, f, h, self.scheme)


class _DirkMethod:
    family = "dirk"

    def __init__(self, name: str, order: int, precond_diag: StateVector,
                 newton: NewtonConfig, tol: ToleranceSpec, norm_kind: str):
        self.name = name
        self.scheme = dirk_tableau(order)
        self.order = order
        self.precond_diag = precond_diag
        self.newton = newton
        self.tol = tol
        self.norm_kind = norm_kind

    def stages_for(self, h, lam_eff):
        return self.scheme.s

    def step(self, rhs, t, f, h, s):
        return dirk_step(rhs, t, f, h, self.scheme, self.newton,
                         self.precond_diag, self.tol, self.norm_kind)


METHOD_NAMES = ("rkl", "rkc", "ssp2", "ssp3", "ssp4", "dirk2", "dirk3")


def make_method(name: str, problem, tol: ToleranceSpec,
                norm_kind: str = "component",
                newton: NewtonConfig | None = None):
    if name == "rkl":
        return _StsMethod(name, "rkl2")
    if name == "rkc":
        return _StsMethod(name, "rkc2")
    if name in ("ssp2", "ssp3", "ssp4"):
        return _SspMethod(name, int(name[-1]))
    if name in ("dirk2", "dirk3"):
        if problem.layout.kind != "fd":
            raise ValueError("DIRK baselines are wired to the "
                             "finite-difference problem only")
        return _DirkMethod(name, int(name[-1]), problem.jacobian_diagonal(),
                           newton or NewtonConfig(), tol, norm_kind)
    raise ValueError(f"unknown method {name!r}; choose from {METHOD_NAMES}")


class _SampleTracker:
    """Walks sorted sample times, clamping steps to land on each exactly."""

    def __init__(self, sample_times, t_f: float):
        times = list(sample_times)
        if any(times[i] > times[i + 1] for i in range(len(times) - 1)):
            raise ValueError("sample times must be sorted")
        if times and (times[0] < 0.0 or times[-1] > t_f):
            raise ValueError("sample times must lie within [0, t_f]")
        self.times = times
        self.t_f = t_f
        self.idx = 0
        self.samples = []

    def record_initial(self, f: StateVector):
        while self.idx < len(self.times) and self.times[self.idx] <= 0.0:
            self.samples.append(f)
            self.idx += 1

    def next_stop(self, t: float) -> float:
        if self.idx < len(self.times):
            return min(self.times[self.idx], self.t_f)
        return self.t_f

    def record_if_hit(self, t: float, f: StateVector):
        while self.idx < len(self.times) and self.times[self.idx] <= t:
            self.samples.append(f)
            self.idx += 1


class _EigTracker:
    """The one owner of lam_eff = q_lambda * |lambda|, lambda being the
    problem's analytic bound (user mode) or a power-iteration estimate.

    current(t, f) forms lam_eff lazily, inside the driver's attempt, so
    a failed estimate fails that attempt: a non-finite product raises
    NonFiniteProductError (a StepFailure), and an estimate that did not
    converge or has a positive real part raises IntegrationAbort.
    after_accept() marks it stale every eig.period accepted steps under
    the periodic policy.  A zero operator, and an inactive tracker (a
    method that needs no lambda), give 0.
    """

    def __init__(self, problem, rhs, eig: EigPolicy, tol, stats, active):
        self.problem = problem
        self.rhs = rhs
        self.eig = eig
        self.tol = tol
        self.stats = stats
        self.active = active
        self.lam_eff = None if active else 0.0
        self.since_refresh = 0
        if active and eig.mode == "power":
            warn_if_unsafe(eig.q_lambda, eig.power.tau)

    def current(self, t, f) -> float:
        if self.lam_eff is None:
            self.lam_eff = self._form(t, f)
        return self.lam_eff

    def after_accept(self):
        if not self.active or self.eig.refresh == "once":
            return
        self.since_refresh += 1
        if self.since_refresh >= self.eig.period:
            self.lam_eff = None
            self.since_refresh = 0

    def _form(self, t, f) -> float:
        eig = self.eig
        if eig.mode == "user":
            return eig.q_lambda * self.problem.lambda_user()
        self.stats.domeig_calls += 1
        try:
            est = power_iterate(self.rhs, t, f, eig.power, self.tol)
        except ZeroOperatorError:
            return 0.0
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


def _counted_rhs(problem, stats: RunStats):
    def rhs(t, f):
        stats.rhs_evals += 1
        return problem.rhs(t, f)

    return rhs


def _start_step(rhs, t: float, f: StateVector, order: int, norm_kind: str,
                tol: ToleranceSpec, span: float) -> float:
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
    like h^(p+1).  Costs p+1 rhs calls: every product reuses the first
    one, rhs(t, f), as its base.  Falls back to 1e-4 * span when a
    derivative is not finite and returns span when one vanishes.
    """
    base = rhs(t, f).values
    d = base
    for k in range(order + 1):
        nrm = wrms(norm_kind, StateVector(d, f.layout), f, tol)
        if not np.isfinite(nrm):
            return 1e-4 * span
        if nrm == 0.0:
            return span
        if k < order:
            d = _dq(rhs, t, f, base, d, f, tol, norm_kind)
    return min(span, nrm ** (-1.0 / (order + 1.0)))


def advance_adaptive(problem, method, tol: ToleranceSpec,
                     norm_kind: str = "component",
                     eig: EigPolicy = EigPolicy(),
                     controller: ControllerConfig = ControllerConfig(),
                     t_f: float = 1.0, sample_times=(),
                     step_log=None):
    """Integrate to t_f with error-controlled steps; returns
    (samples, stats).  SSP and STS steps are capped at
    method.interval / lam_eff.  Raises IntegrationAbort when the step
    size falls below h_min, after MAX_CONSECUTIVE_REJECTIONS rejections
    in a row, or when no eigenvalue estimate can be formed."""
    if t_f <= 0.0:
        raise ValueError("t_f must be positive")
    stats = RunStats()
    start = time.perf_counter()
    rhs = _counted_rhs(problem, stats)
    f = problem.initial_condition()
    tracker = _SampleTracker(sample_times, t_f)
    tracker.record_initial(f)
    eigs = _EigTracker(problem, rhs, eig, tol, stats,
                       active=method.family in ("sts", "ssp"))
    p = method.order
    expo = -1.0 / (p + 1.0)
    h_ctrl = controller.h0
    if h_ctrl is None:
        h_ctrl = _start_step(rhs, 0.0, f, p, norm_kind, tol, t_f)
    h_min = controller.h_min if controller.h_min is not None else 1e-12 * t_f
    t = 0.0
    consecutive_rejects = 0
    first_proposal = True

    while t < t_f * (1.0 - 1e-14) or tracker.idx < len(tracker.times):
        if h_ctrl < h_min:
            raise IntegrationAbort(
                f"step size {h_ctrl:.3e} fell below h_min {h_min:.3e} at "
                f"t={t:.6e} after {stats.attempted} attempts")
        stop = tracker.next_stop(t)
        h_try = min(h_ctrl, stop - t)
        lam_eff, s = 0.0, 0
        stats.attempted += 1
        try:
            lam_eff = eigs.current(t, f)
            if lam_eff:
                h_try = min(h_try, method.interval / lam_eff)
            s = method.stages_for(h_try, lam_eff)
            stats.stages_total += s
            f_trial, err = method.step(rhs, t, f, h_try, s)
            e_norm = float(wrms(norm_kind, err, f, tol))
        except StepFailure:
            f_trial, e_norm = None, float("inf")
        clamped = h_try == stop - t
        accepted = e_norm <= 1.0
        if step_log is not None:
            step_log.append(StepRecord(t, h_try, e_norm, accepted, s, lam_eff))
        if accepted:
            t = stop if clamped else t + h_try
            f = f_trial
            stats.accepted += 1
            consecutive_rejects = 0
            tracker.record_if_hit(t, f)
            eigs.after_accept()
            cap = FIRST_STEP_GROWTH if first_proposal else GROWTH
            raw = SAFETY * e_norm**expo if e_norm > 0.0 else float("inf")
            if clamped:
                # the shortened landing step says nothing about growing
                # the working step; only shrink if its error demands it
                h_ctrl = min(h_ctrl, h_try * max(raw, SHRINK))
            else:
                h_ctrl = h_try * min(max(raw, SHRINK), cap)
        else:
            stats.rejected += 1
            consecutive_rejects += 1
            if consecutive_rejects >= MAX_CONSECUTIVE_REJECTIONS:
                raise IntegrationAbort(
                    f"{consecutive_rejects} consecutive rejections at "
                    f"t={t:.6e} (h={h_try:.3e}, E={e_norm:.3e})")
            if np.isfinite(e_norm):
                factor = max(SHRINK, SAFETY * e_norm**expo)
            else:
                factor = SHRINK
            h_ctrl = h_try * factor
        first_proposal = False

    stats.wall_clock = time.perf_counter() - start
    return tracker.samples, stats


def advance_fixed(problem, method, h: float, t_f: float, sample_times=(),
                  tol: ToleranceSpec = ToleranceSpec(1e-6),
                  eig: EigPolicy = EigPolicy(refresh="once"),
                  step_log=None):
    """March at constant h; returns (samples, stats, blew_up). Blow-up
    (non-finite values, growth past BLOWUP_FACTOR times the initial
    max-norm, a non-finite product in the eigenvalue estimate, or a step
    that needs more than STAGE_CAP stages) stops the run early instead
    of raising.  The one case that raises is IntegrationAbort, when an
    STS method's eigenvalue estimate did not converge or has a positive
    real part, so that no estimate can be formed."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    stats = RunStats()
    start = time.perf_counter()
    rhs = _counted_rhs(problem, stats)
    f = problem.initial_condition()
    limit = BLOWUP_FACTOR * float(np.max(np.abs(f.values)))
    tracker = _SampleTracker(sample_times, t_f)
    tracker.record_initial(f)
    eigs = _EigTracker(problem, rhs, eig, tol, stats,
                       active=method.family == "sts")
    t = 0.0
    blew_up = False

    while t < t_f * (1.0 - 1e-14) or tracker.idx < len(tracker.times):
        stop = tracker.next_stop(t)
        # a step that ends within round-off of the stop lands on it, so
        # accumulated t leaves no sliver step before a sample time
        clamped = h * (1.0 + 1e-9) >= stop - t
        h_try = stop - t if clamped else h
        lam_eff, s = 0.0, 0
        stats.attempted += 1
        try:
            lam_eff = eigs.current(t, f)
            s = method.stages_for(h_try, lam_eff)
            stats.stages_total += s
            f_trial, _ = method.step(rhs, t, f, h_try, s)
            blew_up = bool(not np.all(np.isfinite(f_trial.values))
                           or np.max(np.abs(f_trial.values)) > limit)
        except (StepFailure, StageCountError):
            blew_up = True
        if step_log is not None:
            e_norm = float("inf") if blew_up else 0.0
            step_log.append(StepRecord(t, h_try, e_norm, not blew_up, s,
                                       lam_eff))
        if blew_up:
            break
        t = stop if clamped else t + h_try
        f = f_trial
        stats.accepted += 1
        tracker.record_if_hit(t, f)
        eigs.after_accept()

    stats.wall_clock = time.perf_counter() - start
    return tracker.samples, stats, blew_up
