"""Tests of the benchmark's own checks, exact reference and tracer.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import exact  # noqa: E402
import spec  # noqa: E402
from spans import HOOKS, Tracer  # noqa: E402
from stsdiff.bench import ExperimentConfig, build_problem, sample_times  # noqa: E402
from stsdiff.state import StateVector, ToleranceSpec  # noqa: E402
from stsdiff.timeloop import EigPolicy, make_method  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

GRIDS = [("fd", 16, 3, 10.0), ("dg", 8, 2, 1.0)]


def _line(kind, problem, nu):
    if kind == "fd":
        return exact.fd_line_matrix(problem.layout.n_v, nu)
    return problem.line_matrix()


def _exact(kind, n_v, n_x, nu):
    problem = build_problem(ExperimentConfig(problem=kind, n_v=n_v, n_x=n_x,
                                             nu=nu))
    ex = exact.exact_solution(kind, n_v, n_x, _line(kind, problem, nu),
                              problem.initial_condition().values,
                              sample_times(1.0))
    return problem, ex


@pytest.mark.parametrize("kind,n_v,n_x,nu", GRIDS)
def test_exact_reference_matches_dense_oracle_eigh(kind, n_v, n_x, nu):
    problem, ex = _exact(kind, n_v, n_x, nu)
    op = problem.assemble_matrix()
    w, v = np.linalg.eigh(0.5 * (op + op.T))
    c = v.T @ problem.initial_condition().values
    dense = np.stack([v @ (np.exp(w * t) * c) for t in ex.times])
    assert exact.relative_linf(ex.snapshots, dense) < 1e-12
    assert ex.lam_true == pytest.approx(-w.min(), rel=1e-12)


@pytest.mark.parametrize("kind,n_v,n_x,nu", GRIDS)
def test_exact_samples_pass_every_check(kind, n_v, n_x, nu):
    _, ex = _exact(kind, n_v, n_x, nu)
    reasons, err = checks.check_samples(ex.snapshots.copy(), ex, 1e-12)
    assert reasons == [] and err == 0.0


@pytest.mark.parametrize("kind,n_v,n_x,nu", GRIDS)
def test_scaled_or_mass_drifted_sample_is_rejected(kind, n_v, n_x, nu):
    _, ex = _exact(kind, n_v, n_x, nu)
    scaled = ex.snapshots * (1.0 + 1e-8)
    reasons, _ = checks.check_samples(scaled, ex, 1.0)
    assert any("mass drift" in r for r in reasons)

    drifted = ex.snapshots.copy()
    n_b = 1 if kind == "fd" else 4
    drifted[7].reshape(-1, n_b)[:, 0] += 1e-9
    reasons, _ = checks.check_samples(drifted, ex, 1.0)
    assert any("mass drift" in r for r in reasons)


@pytest.mark.parametrize("kind,n_v,n_x,nu", GRIDS)
def test_error_above_rtol_law_is_rejected(kind, n_v, n_x, nu):
    _, ex = _exact(kind, n_v, n_x, nu)
    bound = checks.error_bound("rkl", 2, rtol=1e-6)
    assert bound == pytest.approx(1e-4)
    # opposite bumps on the mass dofs of two cells: mass is untouched,
    # only the error grows
    n_b = 1 if kind == "fd" else 4
    bump = np.zeros(ex.snapshots.shape[1])
    bump[0], bump[-n_b] = 1.0, -1.0
    scale = np.max(np.abs(ex.snapshots[-1]))
    for factor, rejected in ((0.5, False), (2.0, True)):
        samples = ex.snapshots.copy()
        samples[-1] += factor * bound * scale * bump
        reasons, err = checks.check_samples(samples, ex, bound)
        assert err == pytest.approx(factor * bound, rel=1e-9)
        assert any("law bound" in r for r in reasons) == rejected
        assert not any("mass" in r for r in reasons)


def test_error_laws_scale_with_order():
    assert checks.error_bound("ssp3", 3, rtol=1e-8) == pytest.approx(1e-6)
    assert checks.error_bound("ssp3", 3, h=1e-3) == pytest.approx(1e-6)
    assert checks.error_bound("rkl", 2, h=1e-2) == pytest.approx(1e-2)
    with pytest.raises(ValueError):
        checks.error_bound("rkl", 2)
    with pytest.raises(KeyError):
        checks.error_bound("dirk2", 2, h=1e-2)


def test_reference_off_by_more_than_tolerance_is_rejected():
    _, ex = _exact("fd", 16, 3, 10.0)
    assert checks.check_reference(ex.snapshots, ex)[0] == []
    off = ex.snapshots * (1.0 + 1e-7)
    reasons, err = checks.check_reference(off, ex)
    assert reasons and err == pytest.approx(1e-7, rel=1e-6)


def test_nonfinite_or_missing_samples_are_rejected():
    _, ex = _exact("fd", 16, 3, 10.0)
    bad = ex.snapshots.copy()
    bad[3, 0] = np.nan
    assert checks.check_samples(bad, ex, 1.0)[0]
    assert checks.check_samples(ex.snapshots[:-1], ex, 1.0)[0]


def test_tracer_self_times_partition_the_run_and_hooks_come_off():
    problem = build_problem(ExperimentConfig(problem="fd", n_v=16, n_x=2))
    tol = ToleranceSpec(1e-4)
    import stsdiff.timeloop as timeloop
    original = timeloop.sts_step
    tracer = Tracer()
    hooks = [h for h in HOOKS if h[0] != "bench.reference"]
    hooks.append(("gone", "stsdiff.timeloop", "no_such_function", None))
    tracer.install(hooks)
    try:
        assert timeloop.sts_step is not original
        timeloop.advance_adaptive(problem, make_method("rkl", problem, tol),
                                  tol, "component", EigPolicy(q_lambda=1.2),
                                  t_f=0.1, sample_times=[0.05, 0.1])
    finally:
        tracer.uninstall()
    assert timeloop.sts_step is original
    assert tracer.unmeasured == ["stsdiff.timeloop.no_such_function"]
    names, dur, self_s = tracer.arrays()
    assert list(names).count("timeloop.advance") == 1
    root = dur[names == "timeloop.advance"][0]
    assert self_s.sum() == pytest.approx(root, rel=1e-9)
    assert np.all(self_s >= -1e-9)
    steps = tracer.kept["sts.step"]
    assert len(steps) == np.count_nonzero(names == "sts.step")
    assert np.count_nonzero(names == "problems.rhs") >= sum(s + 1 for s in steps)


def test_benchmark_json_is_the_generated_manifest():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.manifest_text()


def test_line_layouts_round_trip():
    rng = np.random.default_rng(0)
    for kind, n_b in (("fd", 1), ("dg", 4)):
        x = rng.standard_normal(5 * 3 * n_b)
        lines = exact.to_lines(kind, 5, 3, x)
        assert np.array_equal(exact.from_lines(kind, 5, 3, lines), x)
        sv = StateVector(x, build_problem(ExperimentConfig(
            problem=kind, n_v=5, n_x=3)).layout)
        assert exact.mass(kind, 5, 3, x) == pytest.approx(
            sv.cells()[:, 0].sum())
