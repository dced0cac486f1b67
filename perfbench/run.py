"""Work-precision benchmark of stsdiff.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest

Run from the repository root.  One process runs one workload: it sets
the problem up several times (`setup_s` is the median), then repeats
whole rounds of the workload's integrations until `--seconds` have been
measured.  Every integration is checked against an exact solution built
here (exact.py).  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; `--trace 1` reports
the per-layer metrics of a traced run instead of the end-to-end ones.
See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the operators' products are too small to gain from
# threads, and thread scheduling moves the DG operator by up to 20%.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import exact  # noqa: E402
import spec  # noqa: E402
from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
T_FINAL = 1.0
ORACLE_GRID = (8, 2)        # (n_v, n_x) of the dense-oracle cross-check


def import_program():
    """Imports stsdiff from the checkout's own src/, never from an
    installed copy."""
    src = ROOT / "src"
    if not (src / "stsdiff" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    import stsdiff
    if Path(stsdiff.__file__).resolve().parent != src / "stsdiff":
        sys.exit(f"perfbench: imported stsdiff from {stsdiff.__file__}")


def setup(w: spec.Workload):
    """Problem construction plus the program's own uncached reference
    build: what every uncached `stsdiff run` pays before integrating."""
    from stsdiff.bench import ExperimentConfig, build_problem, \
        compute_reference
    cfg = ExperimentConfig(problem=w.problem, n_v=w.n_v, n_x=w.n_x, nu=w.nu,
                           norm=w.norm, t_f=T_FINAL)
    t0 = time.perf_counter()
    problem = build_problem(cfg)
    ref = compute_reference(cfg, cache_dir=None)
    return problem, ref, time.perf_counter() - t0


def _line_block(w: spec.Workload, problem) -> np.ndarray:
    if w.problem == "fd":
        return exact.fd_line_matrix(problem.layout.n_v, w.nu)
    return problem.line_matrix()


def verify_line_block(w: spec.Workload, problem, line, seed) -> list[str]:
    """The line block must reproduce the program's rhs on random states
    at full size, and its dense oracle on a small grid."""
    from stsdiff.bench import ExperimentConfig, build_problem
    from stsdiff.state import StateVector
    reasons = []
    lay = problem.layout
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.standard_normal(lay.n_dof)
        got = problem.rhs(0.0, StateVector(x, lay)).values
        want = exact.apply_lines(w.problem, lay.n_v, lay.n_x, line, x)
        rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
        if not rel <= 1e-12:
            reasons.append(f"line block differs from rhs by {rel:.2e}")
    n_v, n_x = ORACLE_GRID
    small = build_problem(ExperimentConfig(problem=w.problem, n_v=n_v,
                                           n_x=n_x, nu=w.nu))
    small_line = _line_block(w, small)
    cols = np.eye(small.layout.n_dof)
    mat = np.stack([exact.apply_lines(w.problem, n_v, n_x, small_line, c)
                    for c in cols], axis=1)
    oracle = small.assemble_matrix()
    rel = np.max(np.abs(mat - oracle)) / np.max(np.abs(oracle))
    if not rel <= 1e-12:
        reasons.append(f"line block differs from the dense oracle on "
                       f"{n_v}x{n_x} by {rel:.2e}")
    return reasons


def exact_for(w: spec.Workload, problem, ref, seed):
    line = _line_block(w, problem)
    reasons = verify_line_block(w, problem, line, seed)
    lay = problem.layout
    ex = exact.exact_solution(w.problem, lay.n_v, lay.n_x, line,
                              problem.initial_condition().values, ref.times)
    ref_reasons, ref_err = checks.check_reference(ref.snapshots, ex)
    return ex, reasons + ref_reasons, ref_err


def run_op(w: spec.Workload, op: spec.Op, problem, times, seed: int):
    """One integration; returns (seconds, stats, samples, order), with
    samples None when the run aborted or blew up."""
    from stsdiff import timeloop
    from stsdiff.domeig import PowerIterConfig
    from stsdiff.errors import IntegrationAbort
    from stsdiff.state import ToleranceSpec
    tol = ToleranceSpec(op.rtol if op.rtol is not None else 1e-6)
    method = timeloop.make_method(op.method, problem, tol, w.norm)
    eig = timeloop.EigPolicy(mode=op.eig_mode, q_lambda=op.q_lambda,
                             refresh="periodic", period=25,
                             power=PowerIterConfig(seed=seed))
    t0 = time.perf_counter()
    try:
        if op.h is None:
            samples, stats = timeloop.advance_adaptive(
                problem, method, tol, w.norm, eig, timeloop.ControllerConfig(),
                T_FINAL, times)
            blew_up = False
        else:
            samples, stats, blew_up = timeloop.advance_fixed(
                problem, method, op.h, T_FINAL, times, tol=tol, eig=eig)
    except IntegrationAbort as e:
        print(f"perfbench: {op.label} aborted: {e}", file=sys.stderr)
        return time.perf_counter() - t0, None, None, method.order
    seconds = time.perf_counter() - t0
    if blew_up:
        print(f"perfbench: {op.label} blew up", file=sys.stderr)
        return seconds, stats, None, method.order
    return (seconds, stats, np.stack([s.values for s in samples]),
            method.order)


def run_round(w, problem, ex, seed, log=None) -> dict:
    """Each op once per estimator draw.  Every integration draws its own
    power-iteration start vector from `seed`, so a round averages
    len(ops) * draws independent draws."""
    times = list(ex.times)
    rnd = {"solve_s": 0.0, "rhs_evals": 0, "errors": [], "failed": 0,
           "reasons": []}
    for d in range(w.draws):
        for j, op in enumerate(w.ops):
            op_seed = (seed * w.draws + d) * len(w.ops) + j
            seconds, stats, samples, order = run_op(w, op, problem, times,
                                                    op_seed)
            rnd["solve_s"] += seconds
            if samples is None:
                rnd["failed"] += 1
                continue
            rnd["rhs_evals"] += stats.rhs_evals
            bound = checks.error_bound(op.method, order, op.rtol, op.h)
            reasons, err = checks.check_samples(samples, ex, bound)
            rnd["reasons"] += [f"{op.label}: {r}" for r in reasons]
            rnd["errors"].append(err)
            if log is not None:
                log.append(f"{op.label:32s} seed={op_seed:<6d} err={err:.3e} "
                           f"bound={bound:.3e} rhs={stats.rhs_evals:6d} "
                           f"rej={stats.rejected:4d} t={seconds:.3f}s")
    return rnd


def measure_rounds(w, problem, ex, seed, seconds, log=None) -> list[dict]:
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(run_round(w, problem, ex, seed,
                                log if not rounds else None))
    return rounds


def gmean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(w, seed, seconds):
    setups = [setup(w) for _ in range(SETUP_REPEATS)]
    problem, ref, _ = setups[-1]
    ex, reasons, _ = exact_for(w, problem, ref, seed)
    log = []
    rounds = measure_rounds(w, problem, ex, seed, seconds, log)
    print("\n".join(log))
    metrics = {
        "setup_s": (statistics.median(s[2] for s in setups), "s"),
        "solve_s": (statistics.median(r["solve_s"] for r in rounds), "s"),
        "rhs_evals": (statistics.median(r["rhs_evals"] for r in rounds),
                      "count"),
        "err_gmean": (statistics.median(gmean(r["errors"]) for r in rounds),
                      "rel"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return rounds, reasons, metrics


def traced(w, seed, seconds):
    tracer = Tracer()
    tracer.install()
    problem, ref, _ = setup(w)
    tracer.uninstall()
    names, dur, _ = tracer.arrays()
    reference_s = float(dur[names == "bench.reference"].sum())
    ex, reasons, ref_err = exact_for(w, problem, ref, seed)
    tracer.clear()

    untraced = run_round(w, problem, ex, seed)
    tracer.install()
    rounds = measure_rounds(w, problem, ex, seed, seconds)
    tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(str(OUT_DIR / f"trace-{w.name}-seed{seed}.npz"))

    metrics = layer_metrics(tracer, len(rounds), ex.lam_true)
    solve_s = statistics.fmean(r["solve_s"] for r in rounds)
    _, _, self_s = tracer.arrays()
    if "bench.reference" in tracer.installed:
        metrics["bench.reference_s"] = (reference_s, "s")
    metrics.update({
        "bench.reference_err": (ref_err, "rel"),
        "trace.solve_s": (solve_s, "s"),
        "trace.overhead_s": (solve_s - untraced["solve_s"], "s"),
        "trace.self_share": (float(self_s.sum()) / len(rounds) / solve_s,
                             "ratio"),
    })
    for hook in tracer.unmeasured:
        print(f"perfbench: unmeasured layer, no hook target {hook}",
              file=sys.stderr)
    return [untraced] + rounds, reasons, metrics


# span name each per-layer metric is read from
SPAN_OF = {
    "problems": "problems.rhs", "sts": "sts.step", "ssp": "ssp.step",
    "dirk": "dirk.step", "state": "state.wrms", "domeig": "domeig.power",
    "timeloop": "timeloop.advance",
}


def layer_metrics(tracer: Tracer, n_rounds: int, lam_true: float) -> dict:
    names, dur, self_s = tracer.arrays()

    def count(span):
        return int(np.count_nonzero(names == span)) / n_rounds

    def total(span, times=dur):
        return float(times[names == span].sum()) / n_rounds

    def per_call_us(span):
        n = count(span)
        return total(span) / n * 1e6 if n else 0.0

    kept = tracer.kept
    est = kept.get("domeig.power", [])
    runs = kept.get("timeloop.advance", [])
    attempts = sum(r[0] for r in runs)
    m = {
        "problems.rhs_calls": (count("problems.rhs"), "count"),
        "problems.rhs_s": (total("problems.rhs"), "s"),
        "problems.rhs_us": (per_call_us("problems.rhs"), "us"),
        "sts.steps": (count("sts.step"), "count"),
        "sts.stages": (sum(kept.get("sts.step", [])) / n_rounds, "count"),
        "sts.self_s": (total("sts.step", self_s), "s"),
        "sts.error_s": (total("sts.error"), "s"),
        "ssp.steps": (count("ssp.step"), "count"),
        "ssp.self_s": (total("ssp.step", self_s), "s"),
        "dirk.steps": (count("dirk.step"), "count"),
        "dirk.self_s": (total("dirk.step", self_s), "s"),
        "dirk.cg_solves": (count("dirk.cg"), "count"),
        "dirk.cg_s": (total("dirk.cg", self_s), "s"),
        "state.wrms_calls": (count("state.wrms"), "count"),
        "state.wrms_s": (total("state.wrms"), "s"),
        "state.wrms_us": (per_call_us("state.wrms"), "us"),
        "domeig.calls": (count("domeig.power"), "count"),
        "domeig.iters": (sum(e[0] for e in est) / n_rounds, "count"),
        "domeig.self_s": (total("domeig.power", self_s), "s"),
        "domeig.lam_ratio": (statistics.median(e[1] for e in est) / lam_true
                             if est else 0.0, "ratio"),
        "timeloop.attempts": (attempts / n_rounds, "count"),
        "timeloop.rejected": (sum(r[1] for r in runs) / n_rounds, "count"),
        "timeloop.accept_ratio": (sum(r[2] for r in runs) / attempts
                                  if attempts else 0.0, "ratio"),
        "timeloop.self_s": (total("timeloop.advance", self_s), "s"),
    }
    return {k: v for k, v in m.items()
            if SPAN_OF[k.split(".")[0]] in tracer.installed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS_BY_NAME))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="write BENCHMARK.json at the repository root")
    args = ap.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(spec.manifest_text())
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    import_program()
    w = spec.WORKLOADS_BY_NAME[args.workload]
    run = traced if args.trace else end_to_end
    rounds, reasons, metrics = run(w, args.seed, args.seconds)
    reasons = reasons + [r for rnd in rounds for r in rnd["reasons"]]
    for r in dict.fromkeys(reasons):
        print(f"perfbench: check failed: {r}", file=sys.stderr)
    result = {
        "correct": not reasons,
        "attempted": len(rounds) * len(w.ops) * w.draws,
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
