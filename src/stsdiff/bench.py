"""Benchmark harness: single experiments and named studies with CSV
output.

A reference is the exact semi-discrete solution exp(A t) f0, from one
eigendecomposition of the symmetric line block that both block-diagonal
operators repeat on every line; it is rebuilt for every experiment.
A row records the study, every ExperimentConfig setting it ran with (of
rtol and fixed_h, only the one point it ran) and its results.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .domeig import PowerIterConfig
from .errors import IntegrationAbort
from .problems import DgProblem, FdProblem
from .state import NORM_NAMES, GridLayout, ToleranceSpec
from .timeloop import (
    EIG_MODES,
    FIXED_TOL,
    EigPolicy,
    METHOD_NAMES,
    advance_adaptive,
    advance_fixed,
    make_method,
)

N_SAMPLES = 20
PROBLEMS = {FdProblem.kind: FdProblem, DgProblem.kind: DgProblem}
PROBLEM_NAMES = tuple(PROBLEMS)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  Besides its fields it carries the settings its
    integrations use, built at construction so that their own rules
    reject a bad value before any integration runs: layout, the
    GridLayout, eig, the EigPolicy, and points, one (ToleranceSpec, fixed
    h or None) per rtol point and then per fixed_h point."""

    problem: str = "fd"
    method: str = "rkl"
    nu: float = 1.0
    n_v: int = 64
    n_x: int = 4
    rtol: tuple = (1e-4,)
    atol: float = ToleranceSpec.atol
    norm: str = "component"
    eig_mode: str = EigPolicy.mode
    q_lambda: float = EigPolicy.q_lambda
    tau: float = PowerIterConfig.tau
    t_f: float = 1.0
    fixed_h: tuple = ()
    seed: int = 0
    out: str = "results.csv"

    def __post_init__(self):
        if self.problem not in PROBLEM_NAMES:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.method not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "layout",
                           GridLayout(self.problem, self.n_v, self.n_x))
        if not (0.0 < self.nu < math.inf and 0.0 < self.t_f < math.inf):
            raise ValueError("nu and t_f must be positive and finite")
        if self.norm not in NORM_NAMES:
            raise ValueError(f"unknown norm {self.norm!r}")
        if not self.rtol and not self.fixed_h:
            raise ValueError("need at least one rtol or fixed_h point")
        if not all(0.0 < h < math.inf for h in self.fixed_h):
            raise ValueError("fixed_h entries must be positive and finite")
        # both drivers land on every sample time, so a longer step would
        # run, and be labelled, as a shorter one
        if any(h > self.t_f / N_SAMPLES for h in self.fixed_h):
            raise ValueError(f"fixed_h entries must not exceed the sample "
                             f"spacing t_f/{N_SAMPLES}")
        object.__setattr__(self, "eig", EigPolicy(
            mode=self.eig_mode, q_lambda=self.q_lambda,
            power=PowerIterConfig(tau=self.tau, seed=self.seed)))
        # one tolerance for every fixed-step point, whatever the rtol
        fixed_tol = replace(FIXED_TOL, atol=self.atol)
        object.__setattr__(self, "points", tuple(
            [(ToleranceSpec(r, self.atol), None) for r in self.rtol]
            + [(fixed_tol, h) for h in self.fixed_h]))


# a row's settings are the config's fields but out, where the rows go
SETTING_COLUMNS = tuple(f.name for f in fields(ExperimentConfig)
                        if f.name != "out")
# a row's results as they stand before a run fills them; status is
# "ok", "blew_up" (a fixed-step run) or "abort"
RESULTS = {
    "error_Linf20": math.nan, "error_maxmax": math.nan, "runtime_s": 0.0,
    "steps": 0, "rejected": 0, "failure_rate": 0.0, "rhs_evals": 0,
    "stages_total": 0, "domeig_iters": 0, "status": "ok",
}
CSV_COLUMNS = ["study", *SETTING_COLUMNS, *RESULTS]


def build_problem(cfg: ExperimentConfig):
    return PROBLEMS[cfg.problem](cfg.layout, cfg.nu)


def sample_times(t_f: float) -> np.ndarray:
    # the last is t_f itself: (N_SAMPLES t_f) / N_SAMPLES can miss it
    return np.array([k * t_f / N_SAMPLES for k in range(1, N_SAMPLES)] + [t_f])


@dataclass(frozen=True)
class ReferenceSolution:
    times: np.ndarray
    snapshots: np.ndarray


def _reference(cfg: ExperimentConfig, problem) -> ReferenceSolution:
    """exp(A t) f0 at the sample times from one eigendecomposition of
    the line block, which must be symmetric to the bit: eigh reads one
    triangle, so a non-symmetric block would be replaced, not solved."""
    a = problem.line_matrix()
    if not np.array_equal(a, a.T):
        raise ValueError("the line block is not symmetric; the reference "
                         "needs a symmetric operator")
    w, V = np.linalg.eigh(a)
    coeffs = problem.to_lines(problem.initial_condition().values) @ V
    times = sample_times(cfg.t_f)
    return ReferenceSolution(times, np.stack(
        [problem.from_lines((coeffs * np.exp(w * t)) @ V.T) for t in times]))


def compute_reference(cfg: ExperimentConfig, cache_dir=None
                      ) -> ReferenceSolution:
    """The exact reference for cfg's problem, built afresh.  cache_dir
    is accepted only as None: references are no longer stored."""
    if cache_dir is not None:
        raise ValueError("the reference cache was removed")
    return _reference(cfg, build_problem(cfg))


def error_metrics(samples, ref: ReferenceSolution):
    """(relative Linf over the sample times, absolute max-in-time
    max-in-space error)."""
    if len(samples) != len(ref.times):
        raise ValueError(f"expected {len(ref.times)} samples, "
                         f"got {len(samples)}")
    linf20 = 0.0
    maxmax = 0.0
    for k, s in enumerate(samples):
        if s.values.shape != ref.snapshots[k].shape:
            raise ValueError("sample/reference layout mismatch")
        diff = float(np.max(np.abs(s.values - ref.snapshots[k])))
        denom = float(np.max(np.abs(ref.snapshots[k])))
        if denom == 0.0:
            raise ValueError("reference snapshot is identically zero")
        linf20 = max(linf20, diff / denom)
        maxmax = max(maxmax, diff)
    return linf20, maxmax


def _base_row(cfg: ExperimentConfig, tol, h, study: str) -> dict:
    return {"study": study, **{c: getattr(cfg, c) for c in SETTING_COLUMNS},
            "rtol": "" if h else tol.rtol, "fixed_h": h or "", **RESULTS}


def _fill_row(row: dict, stats, samples, ref: ReferenceSolution):
    """Work counters, and errors unless samples is None."""
    row.update(runtime_s=stats.wall_clock, steps=stats.accepted,
               rejected=stats.rejected, failure_rate=stats.failure_rate,
               rhs_evals=stats.rhs_evals, stages_total=stats.stages_total,
               domeig_iters=stats.domeig_iters)
    if samples is not None:
        row["error_Linf20"], row["error_maxmax"] = error_metrics(samples, ref)


def run_experiment(cfg: ExperimentConfig, study: str = "",
                   write: bool = True):
    """One row per (rtol | fixed_h) point; writes cfg.out unless told
    not to and always returns the rows."""
    problem = build_problem(cfg)
    ref = _reference(cfg, problem)
    times = list(ref.times)
    rows = []
    for tol, h in cfg.points:
        method = make_method(cfg.method, problem, tol, cfg.norm)
        row = _base_row(cfg, tol, h, study)
        try:
            if h is None:
                samples, stats = advance_adaptive(
                    problem, method, tol, cfg.norm, cfg.eig, t_f=cfg.t_f,
                    sample_times=times)
            else:
                samples, stats, blew_up = advance_fixed(
                    problem, method, h, cfg.t_f, times, tol=tol, eig=cfg.eig)
                if blew_up:
                    row["status"], samples = "blew_up", None
            _fill_row(row, stats, samples, ref)
        except IntegrationAbort as abort:
            row["status"] = "abort"
            if abort.stats is not None:
                _fill_row(row, abort.stats, None, ref)
        rows.append(row)

    if write:
        write_csv(cfg.out, rows)
    return rows


def _fmt(col: str, val) -> str:
    if col in ("error_Linf20", "error_maxmax"):
        return f"{val:.6e}"
    if col in ("runtime_s", "failure_rate"):
        return f"{val:.6f}"
    return str(val)


def write_csv(path: str, rows) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(c, row[c]) for c in CSV_COLUMNS])


STUDY_NAMES = ("efficiency", "stability", "eigsafety", "normcompare",
               "eigmode")

RTOL_WIDE = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
NU_GRID = (0.1, 1.0, 10.0)
# step sizes per unit t_f: the stability study scales them by t_f, so
# the largest, 0.02 t_f, stays within the sample spacing t_f/20
FIXED_H_GRID = (2e-2, 1e-2, 5e-3, 2.5e-3, 1.25e-3)


def _study_points(name: str, base: ExperimentConfig):
    if name == "efficiency":
        return [replace(base, method=m, nu=nu)
                for m in METHOD_NAMES for nu in NU_GRID]
    if name == "stability":
        hs = base.fixed_h or tuple(h * base.t_f for h in FIXED_H_GRID)
        return [replace(base, method=m, nu=nu, fixed_h=hs, rtol=())
                for m in METHOD_NAMES for nu in NU_GRID]
    if name == "eigsafety":
        return [replace(base, eig_mode="power", q_lambda=q, rtol=RTOL_WIDE)
                for q in (1.0, 1.05, 1.1, 1.2)]
    if name == "normcompare":
        return [replace(base, norm=n, rtol=RTOL_WIDE)
                for n in NORM_NAMES]
    if name == "eigmode":
        return [replace(base, eig_mode=m) for m in EIG_MODES]
    raise ValueError(f"unknown study {name!r}; choose from {STUDY_NAMES}")


def study(name: str, base: ExperimentConfig):
    """Expands base into the named sweep, runs every point, writes one
    CSV at base.out, and returns the rows."""
    rows = []
    for cfg in _study_points(name, base):
        rows.extend(run_experiment(cfg, study=name, write=False))
    write_csv(base.out, rows)
    return rows
