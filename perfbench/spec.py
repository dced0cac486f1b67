"""Workloads and metrics of the benchmark; BENCHMARK.json is generated
from this module (`python3 perfbench/run.py --write-manifest`)."""

from __future__ import annotations

import json
from dataclasses import dataclass

RUN_SECONDS = 3
PATHS = ["perfbench"]
COMMAND = ["python3", "perfbench/run.py"]


@dataclass(frozen=True)
class Op:
    """One integration: adaptive at `rtol`, or fixed-step at `h`."""

    method: str
    eig_mode: str = "power"
    q_lambda: float = 1.1
    rtol: float | None = None
    h: float | None = None

    @property
    def label(self) -> str:
        point = f"rtol={self.rtol:g}" if self.h is None else f"h={self.h:g}"
        return f"{self.method}/{self.eig_mode}/q={self.q_lambda:g}/{point}"


@dataclass(frozen=True)
class Workload:
    """`draws`: how often each op runs per round, each time with another
    power-iteration start vector."""

    name: str
    why: str
    problem: str
    n_v: int
    n_x: int
    nu: float
    norm: str
    ops: tuple
    draws: int = 1


def _dg_sts_ops():
    return tuple(Op(m, "power", 1.1, rtol=r) for m in ("rkl", "rkc")
                 for r in (1e-2, 1e-4, 1e-6, 1e-8))


def _fd_mixed_ops():
    ops = []
    for r in (1e-3, 1e-6):
        ops.append(Op("rkl", "user", 1.1, rtol=r))
        ops.extend(Op(m, "power", 1.2, rtol=r) for m in ("rkc", "ssp2", "ssp3"))
        ops.extend(Op(m, rtol=r) for m in ("dirk2", "dirk3"))
    # fixed steps land on the 0.05 sample spacing; ssp3 needs
    # h * lambda <= 5.149, lambda ~ 8.2e3 here, so h <= 6.2e-4
    ops.extend(Op("rkl", "user", 1.1, h=h)
               for h in (0.0125, 0.00625, 0.003125))
    ops.extend(Op("ssp3", "user", 1.1, h=h) for h in (5e-4, 2.5e-4))
    return tuple(ops)


WORKLOADS = (
    Workload(
        "dg-sts-power",
        "paper headline: RKL/RKC on DG 120x20 with power-iteration lambda "
        "and cell norm; DG operator, STS recursion, estimator and rejections "
        "all carry time",
        # one start vector moves an op's rhs count by ~11% and, at loose
        # rtol, its error by up to 19x; three draws per op cut the spread
        # of the totals by sqrt(3)
        "dg", 120, 20, 1.0, "cell", _dg_sts_ops(), draws=3),
    Workload(
        "dg-ssp4-capped",
        "SSP4 on DG 120x20 capped at beta/lambda_eff: fixed work, no STS, "
        "isolates the DG operator and the low-storage SSP4 path",
        "dg", 120, 20, 1.0, "cell", (Op("ssp4", "power", 1.2, rtol=1e-6),)),
    Workload(
        "fd-mixed",
        "FD 64x64 nu=10, cheap operator: stage arithmetic, component norm, "
        "Newton-CG, generic SSP and fixed-step driver carry the time; no DG",
        "fd", 64, 64, 10.0, "component", _fd_mixed_ops()),
)
WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}


def _m(name, unit, better, bound=None):
    d = {"name": name, "unit": unit, "better": better}
    if bound is not None:
        d["bound"] = bound
    return d


END_TO_END = [
    _m("setup_s", "s", "lower", 0.25),
    _m("solve_s", "s", "lower", 0.2),
    _m("rhs_evals", "count", "lower", 0.15),
    _m("err_gmean", "rel", "lower", 0.25),
    _m("peak_rss_mb", "MB", "lower", 0.1),
]

PER_LAYER = [
    _m("problems.rhs_calls", "count", "lower"),
    _m("problems.rhs_s", "s", "lower"),
    _m("problems.rhs_us", "us", "lower"),
    _m("sts.steps", "count", "lower"),
    _m("sts.stages", "count", "lower"),
    _m("sts.self_s", "s", "lower"),
    _m("sts.error_s", "s", "lower"),
    _m("ssp.steps", "count", "lower"),
    _m("ssp.self_s", "s", "lower"),
    _m("dirk.steps", "count", "lower"),
    _m("dirk.self_s", "s", "lower"),
    _m("dirk.cg_solves", "count", "lower"),
    _m("dirk.cg_s", "s", "lower"),
    _m("state.wrms_calls", "count", "lower"),
    _m("state.wrms_s", "s", "lower"),
    _m("state.wrms_us", "us", "lower"),
    _m("domeig.calls", "count", "lower"),
    _m("domeig.iters", "count", "lower"),
    _m("domeig.self_s", "s", "lower"),
    _m("domeig.lam_ratio", "ratio", "higher"),
    _m("timeloop.attempts", "count", "lower"),
    _m("timeloop.rejected", "count", "lower"),
    _m("timeloop.accept_ratio", "ratio", "higher"),
    _m("timeloop.self_s", "s", "lower"),
    _m("bench.reference_s", "s", "lower"),
    _m("bench.reference_err", "rel", "lower"),
    _m("trace.solve_s", "s", "lower"),
    _m("trace.overhead_s", "s", "lower"),
    _m("trace.self_share", "ratio", "higher"),
]


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"
