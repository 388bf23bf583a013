"""Acceptance suite: one test, and one pass/fail line under -v, per target
behavior of the package.

Run as ``pytest tests/test_acceptance.py -v``.  The full-size sweeps live in
session-scoped fixtures (see conftest); the first test that needs one pays
its cost and the rest reuse it.  Each test ends by printing the measured
numbers, visible with -s or in failure reports.
"""

import math
import time
import warnings

import numpy as np

from _oracles import default_case
from conftest import ACCEPT_GRID, logistic_spec
from stepselect import (GridSpec, gelfand_dey, harmonic_mean, kde_fit,
                        posterior_discrepancy, posterior_window,
                        quadrature_marginal, subsample_draws)
from stepselect.bayes import make_solver_forward
from stepselect.errors import InfiniteVarianceWarning
from stepselect.harness import (_quadrature_exact, build_system, exact_forward,
                                load_observations, report, run_sweep)
from stepselect.models import (GlucoseParams, LogisticParams, logistic_exact,
                               make_glucose_system, make_logistic_system)
from stepselect.ode import SolverConfig, estimate_order, integrate

BAND_16 = (16.0 / 1.5, 16.0 * 1.5)      # fourth-order halving ratio band
BAND_2 = (2.0 / 1.5, 2.0 * 1.5)         # first-order band
JEFFREYS = -math.log(0.99)


def _note(cid, msg):
    print(f"[{cid}] PASS {msg}")


def _solver_marginal(spec, ds, solver, h):
    """Quadrature marginal under a solver forward, bracketed per forward."""
    prior = spec.build_prior()
    fwd = make_solver_forward(build_system(spec, ds), SolverConfig(solver, h),
                              ds.times)
    window = posterior_window(ds, prior, fwd)
    return quadrature_marginal(ds, prior, fwd, GridSpec(bounds=(window,)))


def _exact_posterior_bounds(spec, ds):
    return posterior_window(ds, spec.build_prior(), exact_forward(spec, ds))


def test_c1_recovers_solver_orders():
    t0 = time.perf_counter()
    params = LogisticParams()
    system = make_logistic_system(params)
    theta = np.array([params.lam])

    def oracle(t):
        return logistic_exact(np.array([t]), params)

    hs = (0.1, 0.05, 0.025, 0.0125)
    bands = {"euler": (1.0, 0.1), "rk2": (2.0, 0.2), "rk4": (4.0, 0.3)}
    got = {}
    for method, (target, tol) in bands.items():
        got[method] = estimate_order(system, theta, method, hs, 0.0, 10.0,
                                     oracle)
        assert abs(got[method] - target) <= tol, (method, got[method])
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _note("c1", f"euler={got['euler']:.3f} rk2={got['rk2']:.3f} "
                f"rk4={got['rk4']:.3f} ({elapsed:.2f}s)")


def test_c2_evidence_matches_conjugate_closed_form():
    t0 = time.perf_counter()
    case = default_case()
    log_true = case.log_evidence()

    def log_prior_fn(row):
        return float(case.log_prior(np.asarray([float(row[0])]))[0])

    zs, se_ratios = [], []
    for seed in range(20):
        th = case.posterior_draws(4000, seed)
        draws, energies = th[:, None], case.energies(th)
        alpha = kde_fit(subsample_draws(draws, m=500, seed=seed))
        gd = gelfand_dey(energies, alpha.log_density(draws))
        zs.append((gd.log_marginal - log_true) / gd.mc_standard_error)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", InfiniteVarianceWarning)
            hm = harmonic_mean(energies, log_prior_fn, draws)
        se_ratios.append(hm.mc_standard_error / gd.mc_standard_error)
    worst = max(abs(z) for z in zs)
    assert worst <= 3.0
    assert min(se_ratios) > 1.0     # harmonic mean strictly noisier, every seed
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _note("c2", f"max|z|={worst:.2f} over 20 seeds, harmonic-mean se "
                f">= {min(se_ratios):.1f}x larger ({elapsed:.2f}s)")


def test_c3_evidence_error_halves_at_solver_order(logistic_dataset_s1):
    t0 = time.perf_counter()
    spec = logistic_spec(1.0)
    ds = logistic_dataset_s1
    exact = _quadrature_exact(spec, ds)

    def defect(solver, h):
        est = _solver_marginal(spec, ds, solver, h)
        return 1.0 - math.exp(est.log_marginal - exact.log_marginal)

    d = {h: defect("rk4", h) for h in (0.2, 0.1, 0.05)}
    r_coarse, r_fine = d[0.2] / d[0.1], d[0.1] / d[0.05]
    assert BAND_16[0] <= r_coarse <= BAND_16[1], r_coarse
    assert BAND_16[0] <= r_fine <= BAND_16[1], r_fine

    e = {h: defect("euler", h) for h in (7.8125e-4, 3.90625e-4)}
    r_euler = e[7.8125e-4] / e[3.90625e-4]
    assert BAND_2[0] <= r_euler <= BAND_2[1], r_euler
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _note("c3", f"rk4 ratios {r_coarse:.2f}, {r_fine:.2f} (~16); euler "
                f"{r_euler:.2f} (~2) ({elapsed:.1f}s)")


def _intercept_vs_exact(sweep):
    record, out = sweep
    log_fit = record["curve"]["log_fitted_a"]
    row = (out / "table.csv").read_text().splitlines()[1].split(",")
    return math.exp(log_fit - float(row[1]))


def test_c4_extrapolated_marginal_matches_quadrature(sweep_s1, sweep_s30):
    r1 = _intercept_vs_exact(sweep_s1)
    r30 = _intercept_vs_exact(sweep_s30)
    assert abs(r1 - 1.0) <= 0.05, r1
    assert abs(r30 - 1.0) <= 0.10, r30
    cpus = []
    for record, _ in (sweep_s1, sweep_s30):
        cpu = sum(r["cpu_seconds"] for r in record["runs"]
                  if r["status"] == "ok")
        assert cpu < 600.0
        cpus.append(cpu)
    _note("c4", f"intercept/exact: sigma=1 {r1:.4f} (tol 5%), sigma=30 "
                f"{r30:.4f} (tol 10%); mcmc {cpus[0]:.0f}s/{cpus[1]:.0f}s")


def test_c5_posterior_mean_discrepancy_halves_at_rk4_order(logistic_dataset_s1):
    t0 = time.perf_counter()
    spec = logistic_spec(1.0)
    ds = logistic_dataset_s1
    prior = spec.build_prior()
    f_exact = exact_forward(spec, ds)
    bounds = _exact_posterior_bounds(spec, ds)

    d = {}
    for h in (0.2, 0.1, 0.05):
        fwd = make_solver_forward(build_system(spec, ds),
                                  SolverConfig("rk4", h), ds.times)
        d[h] = posterior_discrepancy(ds, prior, f_exact, fwd, bounds=bounds,
                                     statistic="mean")
    r_coarse, r_fine = d[0.2] / d[0.1], d[0.1] / d[0.05]
    assert BAND_16[0] <= r_coarse <= BAND_16[1], r_coarse
    assert BAND_16[0] <= r_fine <= BAND_16[1], r_fine
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _note("c5", f"mean-shift ratios {r_coarse:.2f}, {r_fine:.2f} (~16) "
                f"({elapsed:.2f}s)")


def test_c6_recommendation_speedup_and_indistinguishability(sweep_s1,
                                                            sweep_euler_s1):
    record, out = sweep_s1
    rec = record["recommendation"]
    assert rec is not None and rec["recommended_h"] is not None
    h_rec = rec["recommended_h"]
    assert h_rec >= 0.05

    runs = {r["h"]: r for r in record["runs"] if r["status"] == "ok"}
    log_a = record["curve"]["log_fitted_a"]
    assert abs(runs[h_rec]["log_marginal"] - log_a) <= JEFFREYS
    # wall and process time of both chains: a chain whose wall time runs
    # well past its process time shared a busy host
    chains = {h: "cpu={:.2f}s process={:.2f}s".format(
        runs[h]["cpu_seconds"], runs[h]["process_seconds"])
        for h in (min(ACCEPT_GRID), h_rec)}
    assert rec["speedup"] >= 5.0, (rec["speedup"], chains)

    spec = logistic_spec(1.0)
    ds = load_observations(out / "observations.csv", sigma=1.0)
    prior = spec.build_prior()
    bounds = _exact_posterior_bounds(spec, ds)
    f_rec = make_solver_forward(build_system(spec, ds),
                                SolverConfig("rk4", h_rec), ds.times)
    f_fine = make_solver_forward(build_system(spec, ds),
                                 SolverConfig("rk4", min(ACCEPT_GRID)),
                                 ds.times)
    tv = posterior_discrepancy(ds, prior, f_rec, f_fine, bounds=bounds,
                               statistic="tv")
    assert tv < 0.01, tv

    # the first-order sweep must offer no admissible coarse step: either the
    # regression already refused the grid, or at best the finest step passes
    record_e, _ = sweep_euler_s1
    rec_e = record_e["recommendation"]
    if rec_e is None:
        assert "curve_error" in record_e
        euler_note = "euler: curve fit rejected the grid"
    else:
        assert rec_e["recommended_h"] in (None, min(ACCEPT_GRID))
        euler_note = f"euler: recommended_h={rec_e['recommended_h']}"
    _note("c6", f"h_rec={h_rec} speedup={rec['speedup']:.2f}x {chains} "
                f"tv={tv:.5f}; " + euler_note)


def test_c7_noisier_data_admits_equal_or_coarser_step(sweep_s1, sweep_s30):
    rec1 = sweep_s1[0]["recommendation"]["recommended_h"]
    rec30 = sweep_s30[0]["recommendation"]["recommended_h"]
    assert rec1 is not None and rec30 is not None
    assert rec30 >= rec1
    _note("c7", f"recommended h: sigma=30 {rec30} >= sigma=1 {rec1}")


def test_c8_identical_spec_reproduces_tables_byte_for_byte(tmp_path):
    t0 = time.perf_counter()
    spec = logistic_spec(1.0, n_iter=4000)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        run_sweep(spec, out, jobs=1)
        report(out)
        outs.append(out)
    for fname in ("observations.csv", "table.csv", "curve.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    _note("c8", "observations/table/curve CSVs byte-identical across two "
                f"executions ({time.perf_counter() - t0:.1f}s)")


def test_c9_glucose_decay_and_evidence_plateau(sweep_glucose):
    gp = GlucoseParams()
    system = make_glucose_system(gp, d0=90.0, D0=200.0)
    errs = {}
    for h in (0.125, 0.0625, 0.03125):
        traj = integrate(system, np.array([gp.theta0]),
                         SolverConfig("rk4", h), 0.0, 2.0)
        exact = 200.0 * np.exp(-traj.grid / gp.theta2)
        errs[h] = float(np.max(np.abs(traj.states[:, 3] - exact)))
    r_coarse = errs[0.125] / errs[0.0625]
    r_fine = errs[0.0625] / errs[0.03125]
    assert BAND_16[0] <= r_coarse <= BAND_16[1], r_coarse
    assert BAND_16[0] <= r_fine <= BAND_16[1], r_fine
    assert errs[0.03125] < 1e-3

    record, _ = sweep_glucose
    ok = sorted((r for r in record["runs"] if r["status"] == "ok"),
                key=lambda r: r["k"])
    assert [r["k"] for r in ok] == list(range(8))
    logm = {r["k"]: r["log_marginal"] for r in ok}
    plateau = [logm[k] for k in range(3, 8)]
    spread = max(plateau) - min(plateau)
    assert spread <= 0.05, spread
    contrast = abs(logm[0] - float(np.mean(plateau)))
    assert contrast > 0.1, contrast
    cpu = sum(r["cpu_seconds"] for r in ok)
    assert cpu < 600.0
    _note("c9", f"D halving {r_coarse:.1f}, {r_fine:.1f} (~16); evidence "
                f"plateau spread {spread:.4f} (k>=3), step-up {contrast:.3f} "
                f"at k=0; mcmc {cpu:.0f}s")
