"""Bitwise regression battery: a fixed set of small integrations, hashed.

    python3 tools/battery.py

Takes no options and prints four lines: one per configuration,
`<problem>/<norm> <n> integrations <sha256>`, then the total,
`<N> integrations <sha256>`.  A digest covers every run's samples, step
log, RunStats counters, blow-up flag and abort message, so two checkouts
that print the same line computed the same numbers.  To check that a
change moves no number, run it in a checkout of the parent commit and in
the change, and compare the lines; a change to one problem shows that
the other's line is unchanged.  It imports stsdiff from its own
checkout's src/, never from an installed copy.

The set: FD 32x4 at nu=10 with the component norm, and DG 16x2 at nu=1
with the component and the cell norms; rkl, rkc, ssp2-4, dirk2 and
dirk3 on each; eigenvalues from the analytic bound and from power
iteration (period 25, seed 0 and period 7, seed 3); adaptive runs at
rtol 1e-3 and 1e-6, fixed-step runs at h = 0.0125, 0.0025 and 0.003, and
one adaptive run at rtol 1e-6 from a first step of t_f/20, which every
configuration and method rejects at least once, so that retries from a
state are covered; t_f = 0.05 with 20 sample times.  At this writing
it prints these four lines (digests cut to eight hex digits):

    fd/component 102 integrations 61b2cdc0…
    dg/component 102 integrations ef5c8b6c…
    dg/cell 102 integrations 98a731d2…
    306 integrations fc62d479…
"""

from __future__ import annotations

import os

# one BLAS thread, so that no product's summation order depends on
# thread scheduling
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from stsdiff import (  # noqa: E402
    ControllerConfig,
    EigPolicy,
    GridLayout,
    ToleranceSpec,
    advance_adaptive,
    advance_fixed,
    make_method,
)
from stsdiff.bench import sample_times  # noqa: E402
from stsdiff.domeig import PowerIterConfig  # noqa: E402
from stsdiff.errors import IntegrationAbort  # noqa: E402
from stsdiff.problems import DgProblem, FdProblem  # noqa: E402

T_F = 0.05
RTOLS = (1e-3, 1e-6)
FIXED_H = (0.0125, 0.0025, 0.003)
FIXED_TOL = ToleranceSpec(1e-6)
RETRY_RTOL = 1e-6
RETRY_START = ControllerConfig(h0=T_F / 20)
METHODS = ("rkl", "rkc", "ssp2", "ssp3", "ssp4", "dirk2", "dirk3")
POLICIES = {
    "user": EigPolicy(mode="user"),
    "power25": EigPolicy(mode="power", period=25,
                         power=PowerIterConfig(seed=0)),
    "power7": EigPolicy(mode="power", period=7,
                        power=PowerIterConfig(seed=3)),
}
COUNTERS = ("attempted", "accepted", "rejected", "rhs_evals", "stages_total",
            "domeig_calls", "domeig_iters")


def configurations():
    """(label, problem, norm) for each problem and norm."""
    fd = FdProblem(GridLayout("fd", 32, 4), nu=10.0)
    dg = DgProblem(GridLayout("dg", 16, 2), nu=1.0)
    yield "fd", fd, "component"
    yield "dg", dg, "component"
    yield "dg", dg, "cell"


def integrate(problem, name, norm, eig, point, times, log):
    """One integration: ("adaptive", rtol), ("retry", rtol), which is
    adaptive from RETRY_START, or ("fixed", h).  Returns (samples, stats,
    blew_up)."""
    kind, value = point
    tol = FIXED_TOL if kind == "fixed" else ToleranceSpec(value)
    method = make_method(name, problem, tol, norm)
    if kind == "fixed":
        return advance_fixed(problem, method, value, T_F, times, tol=tol,
                             eig=eig, step_log=log)
    controller = RETRY_START if kind == "retry" else ControllerConfig()
    samples, stats = advance_adaptive(problem, method, tol, norm, eig,
                                      controller, t_f=T_F,
                                      sample_times=times, step_log=log)
    return samples, stats, False


def main() -> int:
    times = list(sample_times(T_F))
    points = ([("adaptive", r) for r in RTOLS]
              + [("fixed", h) for h in FIXED_H] + [("retry", RETRY_RTOL)])
    total = hashlib.sha256()
    count = 0
    warnings.simplefilter("ignore")
    for label, problem, norm in configurations():
        # the configuration's digest sees the same bytes as the total
        digest = hashlib.sha256()
        config_count = 0

        def update(data: bytes) -> None:
            digest.update(data)
            total.update(data)

        for name in METHODS:
            # a DIRK method forms no eigenvalue: one policy covers it
            policies = (["user"] if name.startswith("dirk")
                        else list(POLICIES))
            for pol in policies:
                for point in points:
                    log = []
                    update(repr((label, norm, name, pol, point)).encode())
                    try:
                        samples, stats, blew_up = integrate(
                            problem, name, norm, POLICIES[pol], point, times,
                            log)
                        update(repr(blew_up).encode())
                        for s in samples:
                            update(s.values.tobytes())
                    except IntegrationAbort as abort:
                        stats = abort.stats
                        update(f"abort: {abort}".encode())
                    update(repr([getattr(stats, c) for c in COUNTERS])
                           .encode())
                    for rec in log:
                        update(repr(dataclasses.astuple(rec)).encode())
                    config_count += 1
        print(f"{label}/{norm} {config_count} integrations "
              f"{digest.hexdigest()}")
        count += config_count
    print(f"{count} integrations {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
