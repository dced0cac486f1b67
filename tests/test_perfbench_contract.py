"""The calls the benchmark (perfbench/run.py) makes into the package, on
small grids: set-up and reference, the line-block and dense-oracle
checks, and one adaptive and one fixed integration per method family
(DIRK adaptive only: the benchmark has no fixed-step error law for it).
A change that breaks one of these calls fails here, not only in the
benchmark."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture(scope="module")
def run():
    saved = dict(os.environ)
    sys.path.insert(0, str(BENCH))     # run.py imports its sibling modules
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        # run.py pins the BLAS thread count in the environment
        os.environ.clear()
        os.environ.update(saved)
    return module


def small_workload(run, kind):
    Op = run.spec.Op
    if kind == "fd":
        ops = (Op("rkl", "user", 1.1, rtol=1e-3),
               Op("rkl", "user", 1.1, h=0.0125),
               Op("rkc", "power", 1.2, rtol=1e-3),
               Op("ssp3", "power", 1.2, rtol=1e-3),
               Op("ssp3", "user", 1.1, h=0.005),
               Op("dirk2", rtol=1e-3))
        return run.spec.Workload("fd-small", "", "fd", 16, 3, 10.0,
                                 "component", ops)
    ops = (Op("rkl", "power", 1.1, rtol=1e-4),
           Op("rkl", "user", 1.1, h=0.0125),
           Op("ssp4", "power", 1.2, rtol=1e-4),
           Op("ssp3", "user", 1.1, h=0.0125))
    return run.spec.Workload("dg-small", "", "dg", 8, 2, 1.0, "cell", ops)


@pytest.mark.parametrize("kind", ["fd", "dg"])
def test_benchmark_calls_leave_no_check_reasons(run, kind):
    w = small_workload(run, kind)
    problem, ref, seconds = run.setup(w)
    assert seconds > 0.0
    ex, reasons, ref_err = run.exact_for(w, problem, ref, seed=1)
    assert reasons == [] and ref_err <= run.checks.REFERENCE_TOL
    rnd = run.run_round(w, problem, ex, seed=1)
    assert rnd["failed"] == 0
    assert rnd["reasons"] == []
    assert len(rnd["errors"]) == len(w.ops) and rnd["rhs_evals"] > 0


@pytest.mark.parametrize("kind", ["fd", "dg"])
def test_line_block_check_catches_a_wrong_block(run, kind):
    w = small_workload(run, kind)
    problem, _, _ = run.setup(w)
    line = run._line_block(w, problem)
    line[0, 0] *= 1.0 + 1e-9
    reasons = run.verify_line_block(w, problem, line, seed=1)
    assert any("differs from rhs" in r for r in reasons)
