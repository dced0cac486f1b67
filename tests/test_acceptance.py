"""End-to-end acceptance checks for the released solver stack.

One test per advertised behaviour, in order: temporal orders, stability
polynomial bounds, tolerance tracking, eigensafety margins, power
iteration quality, eigenvalue-mode efficiency, norm comparison, fixed
step blow-up boundaries, conservation/spectrum, cross-checks between
independent numerical routes, and the declared substitutions.  Each
test prints a one-line verdict with the measured numbers and asserts
the pinned tolerance band; wall-clock budgets are asserted as part of
the behaviour.

Two checks record known limitations of the shipped spectral estimator
and fail on purpose (see the docstrings of test_04 and test_05): the
tau-based stopping rule undershoots the dominant eigenvalue of the
interior-penalty operator by more than the q = 1.1 safety margin can
absorb.
"""

import time

import numpy as np
import pytest

from stsdiff.bench import (ExperimentConfig, build_problem, compute_reference,
                           run_experiment, sample_times, CSV_COLUMNS)
from stsdiff.domeig import _dq, power_iterate, PowerIterConfig
from stsdiff.integrators import dirk
from stsdiff.integrators.dirk import DIRK_SCHEMES, cg_solve
from stsdiff.integrators.sts import (rkl2_coefficients, rkc2_coefficients,
                                     stability_interval, sts_step)
from stsdiff.state import GridLayout, StateVector, ToleranceSpec
from stsdiff import (ControllerConfig, EigPolicy, advance_adaptive,
                     advance_fixed, make_method)

from dense_oracle import dense_expm

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

BUDGET = {1: 120, 2: 60, 3: 300, 4: 600, 5: 60, 6: 300, 7: 600, 8: 300,
          9: 60, 10: 60, 11: 60}


def _verdict(num, label, ok, detail):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} | "
          f"{detail}")


def _problem(kind, nu, n_v, n_x):
    cfg = ExperimentConfig(problem=kind, method="rkl", nu=nu, n_v=n_v,
                           n_x=n_x, rtol=(1e-4,), out="unused.csv")
    return build_problem(cfg)


def _dominant(prob):
    a = prob.assemble_matrix()
    return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (a + a.T)))))


# ---------------------------------------------------------------------------
# 1. fixed-step temporal orders


def _fixed_step_errors(name, prob, h0, t_f):
    [ref] = dense_expm(prob, (t_f,))
    tol = ToleranceSpec(1e-6)
    errs = []
    for k in range(5):
        method = make_method(name, prob, tol)
        samples, _, blew = advance_fixed(
            prob, method, h0 / 2**k, t_f, (t_f,), tol,
            EigPolicy(q_lambda=1.2, refresh="once"))
        assert not blew, f"{name} unstable at h={h0 / 2**k:.3e}"
        errs.append(float(np.max(np.abs(samples[-1].values - ref))))
    return np.array(errs)


def _sts_fixed_stage_errors(family, make_coeffs, prob, stages):
    coeffs = make_coeffs(stages)
    lam = _dominant(prob)
    h0 = 0.45 * stability_interval(family, stages) / lam
    t_f = 8 * h0
    [ref] = dense_expm(prob, (t_f,))
    errs = []
    for k in range(5):
        h = h0 / 2**k
        f = prob.initial_condition()
        t = 0.0
        for _ in range(8 * 2**k):
            f, _ = sts_step(prob.rhs, t, f, h, coeffs, prob.rhs(t, f))
            t += h
        errs.append(float(np.max(np.abs(f.values - ref))))
    return np.array(errs)


def _observed_order(errs):
    """Mean of the last two halving rates (the asymptotic end)."""
    rates = np.log2(errs[:-1] / errs[1:])
    return float(np.mean(rates[-2:]))


def test_01_fixed_step_temporal_orders(monkeypatch):
    """All seven integrators converge at their design order (+/- 0.2)
    over four step halvings started from a stable step."""
    start = time.perf_counter()
    p64 = _problem("fd", 1.0, 64, 1)
    p16 = _problem("fd", 1.0, 16, 1)
    lam16 = _dominant(p16)
    ssp_bound = {"ssp2": 2.0, "ssp3": 5.1495, "ssp4": 13.9170}
    expected = {"rkl": 2, "rkc": 2, "ssp2": 2, "ssp3": 3, "ssp4": 4,
                "dirk2": 2, "dirk3": 3}
    observed = {}
    observed["rkl"] = _observed_order(
        _sts_fixed_stage_errors("rkl2", rkl2_coefficients, p64, 8))
    observed["rkc"] = _observed_order(
        _sts_fixed_stage_errors("rkc2", rkc2_coefficients, p64, 8))
    for name, bound in ssp_bound.items():
        h0 = 0.8 * bound / (1.2 * lam16)
        observed[name] = _observed_order(
            _fixed_step_errors(name, p16, h0, 8 * h0))
    # a tight Newton-CG solve, so that DIRK's error is its truncation
    # error
    for name, value in (("NEWTON_TOL", 1e-6), ("MAX_NEWTON", 30),
                        ("MAX_CG", 400), ("CG_TOL_FACTOR", 1e-2)):
        monkeypatch.setattr(dirk, name, value)
    for name in ("dirk2", "dirk3"):
        observed[name] = _observed_order(
            _fixed_step_errors(name, p16, 0.1, 0.8))
    elapsed = time.perf_counter() - start
    detail = " ".join(f"{k}={v:.2f}" for k, v in observed.items())
    ok = all(abs(observed[k] - expected[k]) <= 0.2 for k in expected)
    _verdict(1, "temporal orders", ok and elapsed < BUDGET[1],
             f"{detail} ({elapsed:.0f}s)")
    for name, want in expected.items():
        assert abs(observed[name] - want) <= 0.2, \
            f"{name}: observed {observed[name]:.3f}, want {want} +/- 0.2"
    assert elapsed < BUDGET[1]


# ---------------------------------------------------------------------------
# 2. stability polynomial bounds


def _poly_values(family_coeffs, z):
    """R(z) for every z at once via one super-step on a diagonal system."""
    lay = GridLayout("fd", z.size, 1)
    f0 = StateVector(np.ones(z.size), lay)

    def rhs(t, f):
        return StateVector(z * f.values, lay)

    f1, _ = sts_step(rhs, 0.0, f0, 1.0, family_coeffs, rhs(0.0, f0))
    return f1.values


def test_02_stability_polynomial_bounds():
    """Both stabilized families stay inside the unit disk on their full
    advertised interval, and the shifted-Legendre interval is nearly
    tight (amplification exceeds one just beyond it)."""
    start = time.perf_counter()
    worst = {"rkl2": 0.0, "rkc2": 0.0}
    for family, make_coeffs in (("rkl2", rkl2_coefficients),
                                ("rkc2", rkc2_coefficients)):
        for s in range(2, 51):
            beta = stability_interval(family, s)
            z = np.linspace(-beta, 0.0, 1000)
            amp = np.abs(_poly_values(make_coeffs(s), z))
            worst[family] = max(worst[family], float(amp.max()) - 1.0)
    tight = True
    for s in range(2, 51):
        beta = stability_interval("rkl2", s)
        z = np.linspace(-1.3 * beta, -beta, 200)
        amp = np.abs(_poly_values(rkl2_coefficients(s), z))
        tight = tight and bool(np.any(amp > 1.0))
    elapsed = time.perf_counter() - start
    ok = worst["rkl2"] <= 1e-10 and worst["rkc2"] <= 1e-10 and tight
    _verdict(2, "stability polynomials", ok,
             f"excess rkl2={worst['rkl2']:.1e} rkc2={worst['rkc2']:.1e} "
             f"tight={tight} ({elapsed:.0f}s)")
    assert worst["rkl2"] <= 1e-10
    assert worst["rkc2"] <= 1e-10
    assert tight, "no amplification found just beyond the interval"
    assert elapsed < BUDGET[2]


# ---------------------------------------------------------------------------
# 3. tolerance tracking


def test_03_tolerance_tracking():
    """Adaptive stabilized runs land within 10x of the requested
    relative tolerance on the finite-difference benchmark."""
    start = time.perf_counter()
    worst = 0.0
    rows_all = []
    for nu in (0.1, 1.0, 10.0):
        for method in ("rkl", "rkc"):
            cfg = ExperimentConfig(
                problem="fd", method=method, nu=nu, n_v=64, n_x=64,
                rtol=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6), eig_mode="power",
                q_lambda=1.2, out="unused.csv")
            rows = run_experiment(cfg, write=False)
            rows_all.extend(rows)
            for r in rows:
                worst = max(worst, r["error_Linf20"] / r["rtol"])
    elapsed = time.perf_counter() - start
    ok = worst <= 10.0 and all(r["status"] == "ok" for r in rows_all)
    _verdict(3, "tolerance tracking", ok and elapsed < BUDGET[3],
             f"worst err/rtol={worst:.2f} over {len(rows_all)} runs "
             f"({elapsed:.0f}s)")
    assert all(r["status"] == "ok" for r in rows_all)
    assert worst <= 10.0
    assert elapsed < BUDGET[3]


# ---------------------------------------------------------------------------
# 4. eigensafety


def test_04_eigensafety_failure_rates():
    """q = 1.0 must produce step failures somewhere, and q = 1.1 is
    supposed to eliminate them across the tolerance/viscosity grid.

    The second half is a known limitation: the tau = 0.1 stopping rule
    quits on a Rayleigh plateau of the clustered interior-penalty
    spectrum, underestimating the dominant eigenvalue by ~12-13%, which
    exceeds the 9.09% margin q = 1.1 affords.  The q = 1.1 clause
    therefore fails with small but nonzero rates; the measured grid is
    printed for the record.
    """
    start = time.perf_counter()
    rtols = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    twenty = sample_times(1.0)

    def failure_rates(method, nu, q):
        prob = _problem("dg", nu, 120, 20)
        rates = []
        for rtol in rtols:
            tol = ToleranceSpec(rtol, atol=1e-11)
            _, stats = advance_adaptive(
                prob, make_method(method, prob, tol, "cell"), tol, "cell",
                EigPolicy(q_lambda=q), ControllerConfig(), 1.0, twenty)
            rates.append(stats.failure_rate)
        return rates

    grid = {}
    for nu in (0.1, 1.0, 10.0):
        for method in ("rkl", "rkc"):
            grid[method, nu] = failure_rates(method, nu, 1.1)
    loose = failure_rates("rkl", 1.0, 1.0)
    elapsed = time.perf_counter() - start
    worst = max(max(r) for r in grid.values())
    nonzero = sum(1 for r in grid.values() for x in r if x > 0)
    ok = worst == 0.0 and max(loose) > 0.0
    _verdict(4, "eigensafety", ok and elapsed < BUDGET[4],
             f"q=1.1 worst failure_rate={worst:.3f} "
             f"({nonzero}/42 grid points nonzero), "
             f"q=1.0 max={max(loose):.3f} ({elapsed:.0f}s)")
    assert max(loose) > 0.0, "q=1.0 produced no failures anywhere"
    assert elapsed < BUDGET[4]
    table = {f"{m} nu={nu}": [f"{x:.3f}" for x in r]
             for (m, nu), r in grid.items()}
    assert worst == 0.0, \
        f"q=1.1 failure rates nonzero (estimator undershoot): {table}"


# ---------------------------------------------------------------------------
# 5. power iteration


def test_05_power_iteration_quality():
    """The spectral estimator stops within five iterations on the
    benchmark operator, and on small grids should land within 10% of
    the dense eigenvalue.

    The accuracy half is a known limitation: the tau-based stop quits
    at 8-13% undershoot depending on grid (measured below with the
    default seed), so the 10% bound fails on some small grids.
    """
    start = time.perf_counter()
    tol = ToleranceSpec(1e-4, atol=1e-11)
    bench = _problem("dg", 1.0, 120, 20)
    f0 = bench.initial_condition()
    iters = []
    for seed in range(8):
        est = power_iterate(bench.rhs, 0.0, f0, bench.rhs(0.0, f0),
                            PowerIterConfig(tau=0.1, seed=seed), tol)
        iters.append(est.iters)
    undershoot = {}
    for n_v, n_x in ((16, 2), (16, 4), (32, 2), (32, 4)):
        prob = _problem("dg", 1.0, n_v, n_x)
        lam_true = _dominant(prob)
        f = prob.initial_condition()
        est = power_iterate(prob.rhs, 0.0, f, prob.rhs(0.0, f),
                            PowerIterConfig(tau=0.1), tol)
        undershoot[n_v, n_x] = abs(abs(est.lambda_approx) - lam_true) \
            / lam_true
    elapsed = time.perf_counter() - start
    u_txt = " ".join(f"{k[0]}x{k[1]}={v:.3f}"
                     for k, v in undershoot.items())
    ok = max(iters) <= 5 and max(undershoot.values()) <= 0.10
    _verdict(5, "power iteration", ok and elapsed < BUDGET[5],
             f"iters<= {max(iters)} (8 seeds), undershoot {u_txt} "
             f"({elapsed:.0f}s)")
    assert max(iters) <= 5, f"iterations {iters} exceed 5"
    assert elapsed < BUDGET[5]
    assert max(undershoot.values()) <= 0.10, \
        f"estimate undershoots the dense eigenvalue: {u_txt}"


# ---------------------------------------------------------------------------
# 6. eigenvalue mode efficiency


def _median_runtime_rows(cfgs, reps=11):
    """Each config's row, with runtime_s the median over repeats.  The
    configs run back to back in alternating order, so that all see the
    same machine load.  The median, not the min: on a shared machine
    load can make a run faster as well as slower than its quiet-machine
    time, and the min picks the luckiest such run of either config."""
    order = list(cfgs)
    rows, walls = {}, {key: [] for key in order}
    for _ in range(reps):
        for key in order:
            (rows[key],) = run_experiment(cfgs[key], write=False)
            walls[key].append(rows[key]["runtime_s"])
        order.reverse()
    return {key: dict(rows[key], runtime_s=float(np.median(walls[key])))
            for key in cfgs}


def test_06_eigenvalue_mode_efficiency():
    """The safe analytic bound is 10-25% above the converged estimate,
    and runs driven by the estimate are at least as fast as runs driven
    by the bound at equal tolerance."""
    start = time.perf_counter()
    prob = _problem("dg", 1.0, 120, 20)
    f0 = prob.initial_condition()
    est = power_iterate(prob.rhs, 0.0, f0, prob.rhs(0.0, f0),
                        PowerIterConfig(tau=0.1),
                        ToleranceSpec(1e-4, atol=1e-11))
    ratio = prob.lambda_user() / abs(est.lambda_approx)
    results = {}
    for method in ("rkl", "rkc"):
        results.update(_median_runtime_rows({
            (method, mode): ExperimentConfig(
                problem="dg", method=method, nu=1.0, n_v=120, n_x=20,
                rtol=(1e-4,), norm="cell", eig_mode=mode, q_lambda=1.2,
                out="unused.csv")
            for mode in ("power", "user")}))
    elapsed = time.perf_counter() - start
    txt = []
    ok = 1.10 <= ratio <= 1.25
    for method in ("rkl", "rkc"):
        p, u = results[method, "power"], results[method, "user"]
        txt.append(f"{method} {p['runtime_s']:.2f}s/{u['runtime_s']:.2f}s "
                   f"stages {p['stages_total']}/{u['stages_total']}")
        ok = ok and p["runtime_s"] <= u["runtime_s"] \
            and p["stages_total"] < u["stages_total"]
    _verdict(6, "eigenvalue modes", ok and elapsed < BUDGET[6],
             f"bound/estimate={ratio:.4f}, " + ", ".join(txt)
             + f" ({elapsed:.0f}s)")
    assert 1.10 <= ratio <= 1.25, f"ratio {ratio:.4f} outside band"
    for method in ("rkl", "rkc"):
        p, u = results[method, "power"], results[method, "user"]
        assert p["stages_total"] < u["stages_total"], method
        assert p["runtime_s"] <= u["runtime_s"], \
            f"{method}: estimate-driven run slower than bound-driven"
    assert elapsed < BUDGET[6]


# ---------------------------------------------------------------------------
# 7. norm comparison


def _norm_sweeps(method, rtols, reps):
    """Cell- and component-norm sweeps of one method.  At each tolerance
    the two norms run back to back, in alternating order, so that both
    see the same machine load; each row's runtime is the median over the
    repeats, since load can slow any repeat, the fastest included."""
    norms = ["cell", "component"]
    rows = {}
    walls = {(norm, rt): [] for norm in norms for rt in rtols}
    for _ in range(reps):
        for rtol in rtols:
            for norm in norms:
                cfg = ExperimentConfig(problem="dg", method=method, nu=1.0,
                                       n_v=120, n_x=20, rtol=(rtol,),
                                       norm=norm, eig_mode="power",
                                       q_lambda=1.2, out="unused.csv")
                (rows[norm, rtol],) = run_experiment(cfg, write=False)
                walls[norm, rtol].append(rows[norm, rtol]["runtime_s"])
            norms.reverse()
    return [[dict(rows[norm, rt], runtime_s=float(np.median(walls[norm, rt])))
             for rt in rtols] for norm in ("cell", "component")]


def _matched_error_pairs(cell_rows, comp_rows):
    """Pairs of runs from the two norms whose achieved errors agree
    within a factor of two."""
    pairs = []
    for rc in cell_rows:
        for rp in comp_rows:
            ec, ep = rc["error_Linf20"], rp["error_Linf20"]
            if np.isfinite(ec) and np.isfinite(ep) and 0.5 <= ec / ep <= 2.0:
                pairs.append((rc, rp))
    return pairs


def test_07_norm_comparison():
    """Per-cell error weighting removes the loose-tolerance rejections
    that per-dof weighting suffers on the element benchmark, and is not
    slower wherever the two norms reach the same error level."""
    start = time.perf_counter()
    rkl_rtols = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
    rkl_cell, rkl_comp = _norm_sweeps("rkl", rkl_rtols, reps=5)
    ssp_rtols = (1e-4, 1e-6, 1e-8)
    ssp_cell, ssp_comp = _norm_sweeps("ssp4", ssp_rtols, reps=5)

    loose_comp = [r["failure_rate"] for r in rkl_comp
                  if r["rtol"] >= 1e-3]
    loose_cell = [r["failure_rate"] for r in rkl_cell
                  if r["rtol"] >= 1e-3]

    verdicts = {}
    for name, (cell, comp) in (("rkl", (rkl_cell, rkl_comp)),
                               ("ssp4", (ssp_cell, ssp_comp))):
        pairs = _matched_error_pairs(cell, comp)
        verdicts[name] = pairs
    elapsed = time.perf_counter() - start
    pair_txt = {n: len(p) for n, p in verdicts.items()}
    worst_ratio = max((rc["runtime_s"] / rp["runtime_s"]
                       for p in verdicts.values() for rc, rp in p),
                      default=np.inf)
    ok = (min(loose_comp) > 0.0 and max(loose_cell) == 0.0
          and len(verdicts["rkl"]) >= 3 and len(verdicts["ssp4"]) >= 1
          and worst_ratio <= 1.15)
    _verdict(7, "norm comparison", ok and elapsed < BUDGET[7],
             f"loose comp fail min={min(loose_comp):.3f} cell "
             f"max={max(loose_cell):.3f}, matched pairs={pair_txt}, "
             f"worst cell/comp runtime={worst_ratio:.2f} ({elapsed:.0f}s)")
    assert min(loose_comp) > 0.0, "per-dof norm showed no loose rejections"
    assert max(loose_cell) == 0.0, "per-cell norm rejected at loose rtol"
    assert len(verdicts["rkl"]) >= 3, "too few matched-error pairs for rkl"
    assert len(verdicts["ssp4"]) >= 1, "no matched-error pair for ssp4"
    for name, pairs in verdicts.items():
        for rc, rp in pairs:
            assert rc["runtime_s"] <= 1.15 * rp["runtime_s"], \
                (f"{name}: cell {rc['runtime_s']:.2f}s slower than "
                 f"component {rp['runtime_s']:.2f}s at error "
                 f"{rc['error_Linf20']:.2e}/{rp['error_Linf20']:.2e}")
    assert elapsed < BUDGET[7]


# ---------------------------------------------------------------------------
# 8. fixed-step stability boundaries


def test_08_fixed_step_blowups():
    """Classic explicit schemes blow up on the element benchmark at
    steps the stabilized families absorb by raising the stage count."""
    start = time.perf_counter()
    hs = tuple(0.01 / 2**k for k in range(5))
    tol = ToleranceSpec(1e-6)
    eig = EigPolicy(mode="user", q_lambda=1.1, refresh="once")

    def blow_flags(method, nu):
        prob = _problem("dg", nu, 120, 20)
        flags = []
        for h in hs:
            _, _, blew = advance_fixed(prob, make_method(method, prob, tol),
                                       h, 1.0, (1.0,), tol, eig)
            flags.append(blew)
        return flags

    ssp2 = blow_flags("ssp2", 0.1)
    ssp3 = blow_flags("ssp3", 0.1)
    ssp4 = {nu: blow_flags("ssp4", nu) for nu in (1.0, 10.0)}
    sts = {(m, nu): blow_flags(m, nu)
           for m in ("rkl", "rkc") for nu in (0.1, 1.0, 10.0)}
    elapsed = time.perf_counter() - start
    sts_clean = not any(any(f) for f in sts.values())
    ok = (ssp2[0] and ssp2[1] and ssp3[0] and ssp3[1]
          and all(any(f) for f in ssp4.values()) and sts_clean)
    _verdict(8, "fixed-step blow-ups", ok and elapsed < BUDGET[8],
             f"ssp2={ssp2} ssp3={ssp3} "
             f"ssp4(nu=1)={ssp4[1.0]} ssp4(nu=10)={ssp4[10.0]} "
             f"stabilized clean={sts_clean} ({elapsed:.0f}s)")
    assert ssp2[0] and ssp2[1], "ssp2 survived the largest steps"
    assert ssp3[0] and ssp3[1], "ssp3 survived the largest steps"
    for nu, flags in ssp4.items():
        assert any(flags), f"ssp4 survived every step at nu={nu}"
    for (m, nu), flags in sts.items():
        assert not any(flags), f"{m} blew up at nu={nu}: {flags}"
    assert elapsed < BUDGET[8]


# ---------------------------------------------------------------------------
# 9. conservation and spectrum


def test_09_conservation_and_spectrum():
    """Mass is conserved to rounding over a thousand steps and the
    assembled operators are symmetric with nonpositive spectra."""
    start = time.perf_counter()
    tol = ToleranceSpec(1e-6)
    drifts = {}
    for kind, n_v, n_x, h in (("fd", 64, 64, 2e-6), ("dg", 120, 20, 1e-5)):
        prob = _problem(kind, 1.0, n_v, n_x)
        if kind == "fd":
            mass = lambda vals: float(np.sum(vals))
        else:
            mass = lambda vals: float(np.sum(vals.reshape(-1, 4)[:, 0]))
        m0 = mass(prob.initial_condition().values)
        t_f = 1000 * h
        samples, stats, blew = advance_fixed(
            prob, make_method("rkl", prob, tol), h, t_f, (t_f,), tol,
            EigPolicy(q_lambda=1.2, refresh="once"))
        assert not blew and stats.accepted >= 1000
        drifts[kind] = abs(mass(samples[-1].values) - m0) / abs(m0)
    spectra = {}
    for kind, n_v, n_x in (("fd", 16, 8), ("dg", 16, 2)):
        a = _problem(kind, 1.0, n_v, n_x).assemble_matrix()
        asym = float(np.max(np.abs(a - a.T)))
        w = np.linalg.eigvalsh(0.5 * (a + a.T))
        spectra[kind] = (asym, float(w.max()), float(w.min()))
    elapsed = time.perf_counter() - start
    ok = all(d <= 1e-12 for d in drifts.values()) and all(
        asym == 0.0 and wmax <= 1e-10 * abs(wmin)
        for asym, wmax, wmin in spectra.values())
    _verdict(9, "conservation/spectrum", ok and elapsed < BUDGET[9],
             f"drift fd={drifts['fd']:.1e} dg={drifts['dg']:.1e}, "
             f"spectra={spectra} ({elapsed:.0f}s)")
    for kind, d in drifts.items():
        assert d <= 1e-12, f"{kind} mass drift {d:.2e}"
    for kind, (asym, wmax, wmin) in spectra.items():
        assert asym == 0.0, f"{kind} operator not symmetric"
        assert wmax <= 1e-10 * abs(wmin), \
            f"{kind} has positive eigenvalue {wmax:.2e}"
    assert elapsed < BUDGET[9]


# ---------------------------------------------------------------------------
# 10. independent numerical routes agree


def test_10_oracle_equivalences():
    """The matrix-free pieces match their assembled/dense counterparts,
    and the per-line reference and a tight-tolerance march both match
    the dense matrix exponential on small grids."""
    start = time.perf_counter()
    tol = ToleranceSpec(1e-6, atol=1e-11)
    dq_rel = {}
    for kind, n_v, n_x in (("fd", 32, 4), ("dg", 16, 2)):
        prob = _problem(kind, 1.0, n_v, n_x)
        a = prob.assemble_matrix()
        f = prob.initial_condition()
        rng = np.random.default_rng(11)
        v = rng.standard_normal(f.values.size)
        jv = _dq(prob.rhs, 0.0, f, prob.rhs(0.0, f).values, v, f, tol,
                 "component")
        exact = a @ v
        dq_rel[kind] = float(np.linalg.norm(jv - exact)
                             / np.linalg.norm(exact))

    prob = _problem("fd", 1.0, 32, 4)
    a = prob.assemble_matrix()
    gamma = DIRK_SCHEMES[3].a[-1, -1]
    h = 0.1
    op = np.eye(a.shape[0]) - h * gamma * a
    rng = np.random.default_rng(12)
    b = rng.standard_normal(a.shape[0])
    x_cg = cg_solve(lambda v: v - h * gamma * (a @ v), b, 1e-12, 2000)
    x_dense = np.linalg.solve(op, b)
    cg_rel = float(np.linalg.norm(x_cg - x_dense) / np.linalg.norm(x_dense))

    # the per-line reference and an RKL march at rtol 1e-12, each
    # against the dense matrix exponential
    ref_rel = {}
    times = sample_times(1.0)
    tight = ToleranceSpec(1e-12, atol=1e-14)
    for kind, n_v, n_x in (("fd", 32, 1), ("dg", 16, 2)):
        cfg = ExperimentConfig(problem=kind, nu=1.0, n_v=n_v, n_x=n_x,
                               out="unused.csv")
        small = build_problem(cfg)
        exact = dense_expm(small, times)
        marched, _ = advance_adaptive(
            small, make_method("rkl", small, tight), tight, "cell",
            EigPolicy(q_lambda=1.2, refresh="periodic", period=25),
            ControllerConfig(), 1.0, list(times))
        routes = {"line": compute_reference(cfg).snapshots,
                  "march": np.stack([m.values for m in marched])}
        for name, snaps in routes.items():
            ref_rel[kind, name] = float(np.max(np.abs(exact - snaps))
                                        / np.max(np.abs(exact)))
    elapsed = time.perf_counter() - start
    ok = (max(dq_rel.values()) <= 1e-6 and cg_rel <= 1e-8
          and max(ref_rel.values()) <= 1e-8)
    ref_txt = " ".join(f"{k}/{n}={v:.1e}" for (k, n), v in ref_rel.items())
    _verdict(10, "oracle equivalences", ok and elapsed < BUDGET[10],
             f"dq={dq_rel} cg={cg_rel:.1e} refs {ref_txt} ({elapsed:.0f}s)")
    for kind, rel in dq_rel.items():
        assert rel <= 1e-6, f"{kind} difference-quotient mismatch {rel:.2e}"
    assert cg_rel <= 1e-8, f"cg vs dense mismatch {cg_rel:.2e}"
    for (kind, name), rel in ref_rel.items():
        assert rel <= 1e-8, f"{kind} {name} reference off by {rel:.2e}"
    assert elapsed < BUDGET[10]


# ---------------------------------------------------------------------------
# 11. declared substitutions


def test_11_declared_substitutions():
    """Absolute wall-clock times and exact failure percentages depend on
    hardware and parallel decomposition, so nothing here pins them; the
    suite asserts trends and bands instead, and the benchmark CSV keeps
    the raw measurements available for inspection."""
    assert "runtime_s" in CSV_COLUMNS
    assert "failure_rate" in CSV_COLUMNS
    _verdict(11, "declared substitutions", True,
             "absolute runtimes and exact failure percentages are "
             "reported in the CSV, asserted only as trends/bands above")
