import argparse
import csv
import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from stsdiff.bench import (
    CSV_COLUMNS,
    FIXED_H_GRID,
    N_SAMPLES,
    PROBLEMS,
    SETTING_COLUMNS,
    ExperimentConfig,
    ReferenceSolution,
    _reference,
    _study_points,
    build_problem,
    compute_reference,
    error_metrics,
    run_experiment,
    sample_times,
    study,
)
from stsdiff.cli import build_config
from stsdiff.errors import IntegrationAbort
from stsdiff.problems import DgProblem, FdProblem
from stsdiff.state import GridLayout, StateVector

from dense_oracle import dense_expm

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def small_cfg(tmp_path, **kw):
    base = dict(problem="fd", method="rkl", nu=1.0, n_v=32, n_x=1,
                rtol=(1e-3,), q_lambda=1.2,
                out=str(tmp_path / "out.csv"))
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(problem="fem")
    with pytest.raises(ValueError):
        ExperimentConfig(method="rk45")
    assert ExperimentConfig(problem="dg", method="dirk2").method == "dirk2"
    for bad in (dict(n_v=0), dict(n_v=16.5, n_x=1)):
        with pytest.raises(ValueError, match="grid counts"):
            ExperimentConfig(**bad)
    # a fractional seed used to build, then fail in numpy at the reference
    for bad in (1.5, -1):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(seed=bad)
    assert ExperimentConfig(seed=np.int64(2)).eig.power.seed == 2
    with pytest.raises(ValueError):
        ExperimentConfig(nu=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(rtol=(), fixed_h=())
    with pytest.raises(ValueError):
        ExperimentConfig(norm="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(eig_mode="exact")
    for bad in (dict(rtol=(1e-3, 0.0)), dict(rtol=(-1e-3,)),
                dict(fixed_h=(0.05, -0.01)), dict(rtol=(), fixed_h=(0.0,))):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    for x in (math.nan, math.inf):
        for bad in (dict(nu=x), dict(t_f=x), dict(q_lambda=x), dict(atol=x),
                    dict(fixed_h=(x,))):
            with pytest.raises(ValueError, match="finite"):
                ExperimentConfig(**bad)
    # argparse choices guard only the flags, so the config itself must
    # reject a bad value read from a YAML file
    cfgfile = tmp_path / "bad.yaml"
    cfgfile.write_text("norm: bogus\nfixed_h: [0.05]\n", encoding="utf-8")
    with pytest.raises(ValueError, match="norm"):
        build_config(argparse.Namespace(config=str(cfgfile)))


def test_last_sample_time_is_t_f():
    # (20 t_f) / 20 misses t_f by an ulp for about one t_f in eight;
    # 0.00021 and 0.00043000000000000004 miss it upwards and downwards
    rng = np.random.default_rng(5)
    for t_f in [0.00021, 0.00043000000000000004, 0.05, 1.0,
                *rng.uniform(1e-3, 10.0, 2000)]:
        times = sample_times(t_f)
        assert times[-1] == t_f
        assert np.all(np.diff(times) > 0.0)
        np.testing.assert_array_equal(
            times[:-1], [k * t_f / 20 for k in range(1, 20)])


@pytest.mark.parametrize("method", ["rkl", "ssp3"])
def test_fixed_run_ends_at_t_f_without_a_sliver_step(tmp_path, method):
    # here (20 t_f) / 20 falls an ulp short of t_f, which left a 5e-20
    # step after the last sample time
    t_f = 0.00043000000000000004
    [row] = run_experiment(small_cfg(tmp_path, method=method, n_v=16,
                                     rtol=(), t_f=t_f, fixed_h=(t_f / 40,),
                                     eig_mode="user"), write=False)
    assert row["status"] == "ok"
    assert (row["steps"], row["rejected"]) == (40, 0)


def test_fixed_h_past_the_sample_spacing_is_rejected(tmp_path):
    # both drivers land on every sample time, so a 0.02 step at spacing
    # 0.005 would run, and be labelled, as a 0.005 step
    with pytest.raises(ValueError, match="spacing"):
        small_cfg(tmp_path, t_f=0.1, rtol=(), fixed_h=(0.02, 0.01, 0.005))
    assert small_cfg(tmp_path, t_f=0.1, fixed_h=(0.005,)).fixed_h == (0.005,)
    # the stability study's own grid scales with t_f, so it fits any t_f
    # and is FIXED_H_GRID itself at t_f = 1
    assert (_study_points("stability", small_cfg(tmp_path))[0].fixed_h
            == FIXED_H_GRID)
    points = _study_points("stability", small_cfg(tmp_path, t_f=0.1))
    assert points and all(h <= 0.1 / N_SAMPLES
                          for c in points for h in c.fixed_h)


@pytest.mark.parametrize("t_f,h", [(0.7, 0.035), (0.35, 0.0175),
                                   (1.4, 0.07), (2.8, 0.14)])
def test_fixed_h_equal_to_the_spacing_is_accepted_despite_rounding(
        tmp_path, t_f, h):
    # t_f / 20 rounds below h here (0.7 / 20 = 0.034999999999999996); the
    # step lands within the drivers' landing slack, so it runs at the
    # spacing, 20 steps
    assert t_f / N_SAMPLES < h
    [row] = run_experiment(small_cfg(tmp_path, n_v=16, rtol=(), t_f=t_f,
                                     fixed_h=(h,), eig_mode="user"),
                           write=False)
    assert row["status"] == "ok"
    assert (row["steps"], row["rejected"]) == (N_SAMPLES, 0)
    with pytest.raises(ValueError, match="spacing"):
        small_cfg(tmp_path, t_f=0.7, rtol=(), fixed_h=(0.0351,))


def test_fixed_row_tolerance_does_not_follow_rtol(tmp_path):
    # DIRK's Newton tolerance once came from rtol[0]: this fixed-step row
    # then took 182 rhs calls after rtol 1e-2 and 197 after rtol 1e-3
    rows = [run_experiment(small_cfg(tmp_path, method="dirk2", n_v=16,
                                     nu=10.0, t_f=0.1, rtol=rtol,
                                     fixed_h=(0.005,)), write=False)[-1]
            for rtol in ((1e-2,), (1e-3,))]
    for row in rows:
        del row["runtime_s"]
    assert rows[0] == rows[1]


def test_every_setting_is_a_column():
    # out is where the rows go
    settings = {f.name for f in fields(ExperimentConfig)}
    assert set(SETTING_COLUMNS) == settings - {"out"}
    assert set(SETTING_COLUMNS) | {"study"} <= set(CSV_COLUMNS)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_csv_rows_rerun_from_their_own_columns(tmp_path):
    # an adaptive row, a fixed row and a blown-up one, at settings off
    # their defaults; each reruns to itself from its own CSV text
    cfg = small_cfg(tmp_path, method="ssp2", nu=10.0, n_x=2, atol=1e-9,
                    tau=0.05, t_f=0.25, seed=3, rtol=(1e-3,),
                    fixed_h=(2.5e-4, 0.0125))
    run_experiment(cfg)
    rows = _read_csv(cfg.out)
    assert [r["status"] for r in rows] == ["ok", "ok", "blew_up"]
    # of rtol and fixed_h, a row fills the one point it ran
    assert [(r["rtol"], r["fixed_h"]) for r in rows] == [
        ("0.001", ""), ("", "0.00025"), ("", "0.0125")]
    types = {f.name: type(f.default) for f in fields(ExperimentConfig)}
    types["rtol"] = types["fixed_h"] = lambda cell: (
        (float(cell),) if cell else ())
    for row in rows:
        settings = {c: types[c](row[c]) for c in SETTING_COLUMNS}
        again = ExperimentConfig(**settings, out=str(tmp_path / "again.csv"))
        run_experiment(again)
        [row_again] = _read_csv(again.out)
        del row["runtime_s"], row_again["runtime_s"]
        assert row_again == row


def _mass(problem, vals):
    if problem == "fd":
        return float(np.sum(vals))
    return float(np.sum(vals.reshape(-1, 4)[:, 0]))


def test_reference_provenance_paths_agree(tmp_path):
    # the per-line route against the dense N x N oracle
    for problem, nv, nx in (("fd", 32, 1), ("dg", 8, 2)):
        cfg = small_cfg(tmp_path, problem=problem, n_v=nv, n_x=nx)
        ref = compute_reference(cfg)
        assert ref.snapshots.shape == (20, build_problem(cfg).layout.n_dof)
        dense = dense_expm(build_problem(cfg), sample_times(cfg.t_f))
        rel = (np.max(np.abs(dense - ref.snapshots))
               / np.max(np.abs(dense)))
        assert rel < 5e-8


def test_reference_cache_argument_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="cache"):
        compute_reference(small_cfg(tmp_path), cache_dir="x")


def test_run_experiment_builds_the_problem_once(tmp_path, monkeypatch):
    built = []

    def counting(cfg):
        built.append(cfg)
        return build_problem(cfg)

    monkeypatch.setattr("stsdiff.bench.build_problem", counting)
    cfg = small_cfg(tmp_path, rtol=(1e-3,), fixed_h=(0.05,))
    rows = run_experiment(cfg, write=False)
    assert len(rows) == 2 and len(built) == 1


def test_reference_needs_no_dense_matrix_or_time_march(tmp_path,
                                                       monkeypatch):
    smalls = [small_cfg(tmp_path, problem="dg", n_v=16, n_x=2),
              small_cfg(tmp_path, problem="fd", n_v=32, n_x=4)]
    dense = [dense_expm(build_problem(c), sample_times(1.0))
             for c in smalls]

    def boom(*a, **kw):
        raise AssertionError("reference took the dense or marching path")

    monkeypatch.setattr(FdProblem, "assemble_matrix", boom)
    monkeypatch.setattr(DgProblem, "assemble_matrix", boom)
    monkeypatch.setattr("stsdiff.bench.advance_adaptive", boom)
    for cfg, want in zip(smalls, dense):
        got = compute_reference(cfg).snapshots
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    for problem, nv, nx in (("dg", 120, 20), ("fd", 64, 64)):
        cfg = small_cfg(tmp_path, problem=problem, n_v=nv, n_x=nx)
        ref = compute_reference(cfg)
        assert ref.snapshots.shape == (20, build_problem(cfg).layout.n_dof)
        m0 = _mass(problem, build_problem(cfg).initial_condition().values)
        for snap in ref.snapshots:
            assert abs(_mass(problem, snap) - m0) <= 1e-12 * abs(m0)


def test_zero_operator_reference_is_the_initial_state(tmp_path):
    lay = GridLayout("fd", 8, 1)
    f0 = np.linspace(1.0, 2.0, 8)
    problem = SimpleNamespace(
        line_matrix=lambda: np.zeros((8, 8)),
        to_lines=lambda x: x.reshape(1, 8),
        from_lines=lambda y: y.reshape(8),
        initial_condition=lambda: StateVector(f0.copy(), lay))
    snaps = _reference(small_cfg(tmp_path), problem).snapshots
    for k in range(20):
        np.testing.assert_allclose(snaps[k], f0, atol=1e-14)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_reference_refuses_a_block_that_is_not_symmetric(
        tmp_path, monkeypatch, problem):
    # eigh reads one triangle: a block symmetrized, or read by halves,
    # would give the exponential of another operator
    cls = PROBLEMS[problem]
    shipped = cls.line_matrix

    def skewed(self):
        a = shipped(self)
        a[0, 1] *= 1.0 + 1e-9
        return a

    monkeypatch.setattr(cls, "line_matrix", skewed)
    with pytest.raises(ValueError, match="not symmetric"):
        compute_reference(small_cfg(tmp_path, problem=problem, n_v=8))


@pytest.mark.parametrize(
    "problem, kw",
    [(p, dict(modulation=m)) for p in PROBLEMS for m in (0.0, 0.5, 0.99)]
    + [("dg", dict(penalty_c=c)) for c in (0.01, 1.0)])
def test_every_shipped_line_block_is_symmetric_to_the_bit(problem, kw):
    # the reference refuses any other block
    for n_v in (1, 2, 3, 7, 40):
        for nu in (0.1, 10.0):
            a = PROBLEMS[problem](GridLayout(problem, n_v, 2), nu,
                                  **kw).line_matrix()
            assert np.array_equal(a, a.T), (n_v, nu)


@pytest.mark.parametrize("problem,nv,nx", [("fd", 32, 1), ("dg", 8, 2)])
def test_reference_snapshots_conserve_mass(tmp_path, problem, nv, nx):
    cfg = small_cfg(tmp_path, problem=problem, n_v=nv, n_x=nx,
                    method="rkl")
    ref = compute_reference(cfg)
    m0 = _mass(problem, build_problem(cfg).initial_condition().values)
    for k in range(20):
        assert abs(_mass(problem, ref.snapshots[k]) - m0) <= 1e-12 * abs(m0)


def test_error_metrics_identity_and_offsets():
    lay = GridLayout("fd", 4, 1)
    times = sample_times(1.0)
    snaps = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (20, 1))
    ref = ReferenceSolution(times, snaps)
    samples = [StateVector(snaps[k].copy(), lay) for k in range(20)]
    assert error_metrics(samples, ref) == (0.0, 0.0)
    shifted = [StateVector(snaps[k] + 1e-3, lay) for k in range(20)]
    linf, maxmax = error_metrics(shifted, ref)
    assert maxmax == pytest.approx(1e-3, rel=1e-12)
    assert linf == pytest.approx(1e-3 / 4.0, rel=1e-12)


def test_error_metrics_single_time_example():
    lay = GridLayout("fd", 2, 1)
    ref = SimpleNamespace(times=np.array([1.0]),
                          snapshots=np.array([[1.0, 1.0]]))
    linf, maxmax = error_metrics([StateVector(np.array([1.01, 1.0]), lay)],
                                 ref)
    assert linf == pytest.approx(0.01, rel=1e-10)
    assert maxmax == pytest.approx(0.01, rel=1e-10)


def test_error_metrics_rejects_bad_inputs():
    lay = GridLayout("fd", 2, 1)
    zero_ref = SimpleNamespace(times=np.array([1.0]),
                               snapshots=np.zeros((1, 2)))
    with pytest.raises(ValueError):
        error_metrics([StateVector(np.ones(2), lay)], zero_ref)
    ref = SimpleNamespace(times=np.array([1.0, 2.0]),
                          snapshots=np.ones((2, 2)))
    with pytest.raises(ValueError):
        error_metrics([StateVector(np.ones(2), lay)], ref)
    ref = SimpleNamespace(times=np.array([1.0]), snapshots=np.ones((1, 2)))
    with pytest.raises(ValueError, match="layout mismatch"):
        error_metrics([StateVector(np.ones(3), GridLayout("fd", 3, 1))], ref)


@pytest.mark.parametrize("method, fixed_h", [
    ("rkl", ()), ("rkl", (0.0025,)), ("rkc", ()), ("ssp3", ())],
    ids=["rkl", "rkl-fixed", "rkc", "ssp3"])
def test_one_dof_problem_runs_where_lambda_is_formed(tmp_path, method,
                                                     fixed_h):
    # one FD dof is the constant mode: the operator is zero, power
    # iteration's start vector is deflated to zero, and the estimate is
    # the exact 0 at no iteration
    cfg = small_cfg(tmp_path, method=method, n_v=1, n_x=1, t_f=0.05,
                    eig_mode="power", rtol=() if fixed_h else (1e-3,),
                    fixed_h=fixed_h)
    [row] = run_experiment(cfg, write=False)
    assert row["status"] == "ok"
    assert row["domeig_iters"] == 0
    assert row["error_Linf20"] <= 1e-15


def test_rtol_sweep_rows_monotone_and_within_tolerance_band(tmp_path):
    cfg = small_cfg(tmp_path, n_v=64, rtol=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6))
    rows = run_experiment(cfg)
    assert len(rows) == 5
    errs = [r["error_Linf20"] for r in rows]
    assert all(errs[i] >= errs[i + 1] for i in range(4))
    for r in rows:
        assert r["status"] == "ok"
        assert r["error_Linf20"] <= 10.0 * r["rtol"]
        assert r["steps"] > 0 and r["rhs_evals"] > 0


def test_fixed_step_sweep_marks_blow_up(tmp_path):
    cfg = small_cfg(tmp_path, method="ssp2", n_v=64, rtol=(),
                    fixed_h=(5e-2, 1e-2, 2e-3, 2e-4))
    rows = run_experiment(cfg)
    assert [r["status"] for r in rows] == ["blew_up", "blew_up", "ok", "ok"]
    assert all(np.isnan(r["error_Linf20"]) for r in rows[:2])
    ratio = rows[2]["error_Linf20"] / rows[3]["error_Linf20"]
    assert 50 < ratio < 200


def test_reruns_are_identical_outside_timing(tmp_path):
    cfg = small_cfg(tmp_path, rtol=(1e-3, 1e-5))

    def strip(rows):
        return [{k: v for k, v in r.items() if k != "runtime_s"}
                for r in rows]

    assert strip(run_experiment(cfg)) == strip(run_experiment(cfg))


def test_abort_becomes_status_row(tmp_path, monkeypatch):
    def boom(*a, **kw):
        raise IntegrationAbort("forced")

    monkeypatch.setattr("stsdiff.bench.advance_adaptive", boom)
    rows = run_experiment(small_cfg(tmp_path))
    assert rows[0]["status"] == "abort"
    assert np.isnan(rows[0]["error_Linf20"])


def test_aborted_point_keeps_its_work(tmp_path):
    # at tau = 1e-9 the estimate does not converge within max_iters =
    # 100 products; the row still reports the work done before the abort
    cfg = small_cfg(tmp_path, problem="dg", n_v=16, n_x=2, tau=1e-9,
                    eig_mode="power")
    [row] = run_experiment(cfg, write=False)
    assert row["status"] == "abort"
    assert row["domeig_iters"] == 100
    assert row["rhs_evals"] >= 101
    assert row["runtime_s"] > 0.0


def test_steps_past_stage_cap_still_return_rows(tmp_path):
    # at nu = 1e7 even the 0.025 steps need more than STAGE_CAP stages
    cfg = small_cfg(tmp_path, problem="dg", n_v=16, n_x=1, nu=1e7, rtol=(),
                    fixed_h=(0.025, 0.05), eig_mode="user")
    rows = run_experiment(cfg)
    assert [r["status"] for r in rows] == ["blew_up", "blew_up"]
    assert all(np.isnan(r["error_Linf20"]) for r in rows)
    assert len(open(cfg.out, encoding="utf-8").read().splitlines()) == 3


def test_csv_schema_and_formatting(tmp_path):
    cfg = small_cfg(tmp_path)
    run_experiment(cfg)
    lines = open(cfg.out, encoding="utf-8").read().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    fields = lines[1].split(",")
    row = dict(zip(CSV_COLUMNS, fields))
    assert "e" in row["error_Linf20"]
    assert row["status"] == "ok"
    assert row["method"] == "rkl"
    assert (row["atol"], row["tau"], row["t_f"], row["seed"]) == (
        "1e-11", "0.1", "1.0", "0")


def test_study_expansion_grids(tmp_path):
    base = small_cfg(tmp_path)
    eff = _study_points("efficiency", base)
    assert len(eff) == 7 * 3
    assert len({(c.method, c.nu) for c in eff}) == 21
    dg_eff = _study_points("efficiency", small_cfg(tmp_path, problem="dg",
                                                   method="rkl"))
    assert len({(c.method, c.nu) for c in dg_eff}) == len(dg_eff) == 7 * 3
    assert {"dirk2", "dirk3"} <= {c.method for c in dg_eff}
    safety = _study_points("eigsafety", base)
    assert sorted(c.q_lambda for c in safety) == [1.0, 1.05, 1.1, 1.2]
    assert all(len(c.rtol) == 7 for c in safety)
    norms = _study_points("normcompare", base)
    assert sorted(c.norm for c in norms) == ["cell", "component"]
    modes = _study_points("eigmode", base)
    assert sorted(c.eig_mode for c in modes) == ["power", "user"]
    with pytest.raises(ValueError):
        _study_points("speedrun", base)


def test_study_writes_single_labeled_csv(tmp_path):
    base = small_cfg(tmp_path, rtol=(1e-3, 1e-4))
    rows = study("eigmode", base)
    assert len(rows) == 4
    assert {r["study"] for r in rows} == {"eigmode"}
    assert {r["eig_mode"] for r in rows} == {"user", "power"}
    lines = open(base.out, encoding="utf-8").read().strip().splitlines()
    assert len(lines) == 5
