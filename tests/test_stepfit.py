"""Evidence-curve regression, the Bayes-factor report, discrepancies."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepselect import (Dataset, GammaPrior, Prior, RegressionSettings,
                        build_report, fit_curve, posterior_discrepancy)
from stepselect.errors import BoundsTooTight, IllConditionedFit

GRID = (0.2, 0.1, 0.05, 0.025)


def synthetic_points(a, b, p, hs=GRID, se=0.0):
    return [(h, math.log(a + b * h ** p), se) for h in hs]


# ---------------------------------------------------------------------------
# fit_curve
# ---------------------------------------------------------------------------

def test_fit_recovers_exact_intercept():
    a, b = 2.7e-19, -4.0e-17
    curve = fit_curve(synthetic_points(a, b, 4), 4, RegressionSettings())
    assert curve.log_fitted_a == pytest.approx(math.log(a), abs=1e-12)
    assert curve.by == pytest.approx(-b / a, rel=1e-9)
    assert curve.r2 == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-40.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=-0.4, max_value=0.4, allow_nan=False),
       st.sampled_from([1, 2, 4]))
def test_fit_exact_recovery_property(log_a, rel_b, p):
    # b scaled so the curve stays positive over the grid
    a = math.exp(log_a)
    b = rel_b * a / max(GRID) ** p
    curve = fit_curve(synthetic_points(a, b, p), p, RegressionSettings())
    assert curve.log_fitted_a == pytest.approx(log_a, abs=1e-8)


def test_fit_shift_invariance():
    # multiplying every marginal by e^C shifts the intercept by exactly C
    pts = synthetic_points(3e-20, -2e-18, 4, se=0.004)
    c1 = fit_curve(pts, 4, RegressionSettings())
    c2 = fit_curve([(h, lm + 100.0, se) for h, lm, se in pts], 4,
                   RegressionSettings())
    assert c2.log_fitted_a == pytest.approx(c1.log_fitted_a + 100.0, abs=1e-9)
    assert c2.rel_se_a == pytest.approx(c1.rel_se_a, rel=1e-6)


def test_fit_weights_downweight_noisy_point():
    a, b, p = 1e-10, -3e-9, 4
    pts = synthetic_points(a, b, p, se=1e-4)
    # corrupt the finest point but give it a huge stated error
    h0, lm0, _ = pts[-1]
    pts[-1] = (h0, lm0 + 0.5, 10.0)
    curve = fit_curve(pts, p, RegressionSettings())
    assert abs(curve.log_fitted_a - math.log(a)) < 1e-3


def test_fit_mask_smallest_excludes_coarse_points():
    a, b, p = 1.0, -0.3, 1
    pts = synthetic_points(a, b, p, hs=(0.4, 0.2, 0.1, 0.05, 0.025))
    # wreck the coarsest point; a 4-point mask must ignore it
    pts[0] = (0.4, pts[0][1] + 2.0, 0.0)
    pts.sort(key=lambda t: t[0])
    curve = fit_curve(pts, p, RegressionSettings(mask_smallest=4))
    assert not curve.mask[-1]
    assert curve.log_fitted_a == pytest.approx(0.0, abs=1e-10)


def test_fit_mask_h_explicit():
    pts = synthetic_points(1.0, -0.3, 1, hs=(0.4, 0.2, 0.1, 0.05))
    curve = fit_curve(pts, 1, RegressionSettings(mask_h=(0.4, 0.2, 0.1)))
    assert curve.mask.sum() == 3
    assert set(curve.h[curve.mask]) == {0.4, 0.2, 0.1}
    with pytest.raises(IllConditionedFit):
        fit_curve(pts, 1, RegressionSettings(mask_h=(0.4, 0.2)))


def test_fit_rejects_narrow_span():
    pts = synthetic_points(1.0, -0.1, 4, hs=(0.100, 0.098, 0.096, 0.094))
    with pytest.raises(IllConditionedFit):
        fit_curve(pts, 4, RegressionSettings())


def test_fit_rejects_nonpositive_intercept():
    # marginals that keep falling as h -> 0 extrapolate below zero
    pts = [(h, math.log(-0.1 + 2.0 * h), 0.0) for h in (0.8, 0.4, 0.2, 0.1)]
    with pytest.raises(IllConditionedFit):
        fit_curve(pts, 1, RegressionSettings())


def test_fit_rejects_weight_collapse():
    # evidence spread enormous relative to the errors: the weighted fit
    # would effectively run through a single point
    pts = [(h, -500.0 * h, 0.004) for h in GRID]
    with pytest.raises(IllConditionedFit):
        fit_curve(pts, 1, RegressionSettings())


def test_fit_input_validation():
    with pytest.raises(IllConditionedFit):
        fit_curve(synthetic_points(1.0, 0.0, 1, hs=(0.1, 0.05)), 1,
                  RegressionSettings())
    with pytest.raises(IllConditionedFit):
        fit_curve([], 1, RegressionSettings())
    with pytest.raises(ValueError):
        fit_curve(synthetic_points(1.0, 0.0, 1, hs=(0.1, 0.1, 0.05)), 1,
                  RegressionSettings())


# ---------------------------------------------------------------------------
# build_report: bayes factors, the jeffreys window, the recommendation
# ---------------------------------------------------------------------------

def test_jeffreys_window_boundaries():
    # the intercept overwritten with 0.0, so each Bayes factor is exp of its
    # log marginal; the window is [0.99, 1/0.99], lower edge inclusive
    bfs = (0.99, 1.0100, 1.0102, 0.9899, 1.0 / 0.9899)
    pts = [(h, math.log(bf), 0.0)
           for h, bf in zip((0.025, 0.05, 0.1, 0.2, 0.4), bfs)]
    curve = fit_curve(pts, 1, RegressionSettings())
    object.__setattr__(curve, "log_fitted_a", 0.0)
    rep = build_report(curve, np.ones(5), np.ones(5))
    assert [s["flag"] for s in rep["steps"]] == [True, True, False, False,
                                                 False]
    assert rep["recommended_h"] == 0.05


def test_build_report_picks_coarsest_admissible():
    a = 1e-19
    pts = [(0.025, math.log(a) + 0.001, 0.0),
           (0.05, math.log(a) + 0.004, 0.0),
           (0.1, math.log(a) + 0.009, 0.0),
           (0.2, math.log(a) + 0.2, 0.0)]
    curve = fit_curve(sorted(pts), 4, RegressionSettings(mask_smallest=3))
    # overwrite the intercept so the flags are exactly the offsets above
    object.__setattr__(curve, "log_fitted_a", math.log(a))
    cpu = np.array([8.0, 4.0, 2.0, 1.0])
    rhs = [3200, 1600, 800, 400]
    rep = build_report(curve, cpu, rhs)
    assert rep["recommended_h"] == 0.1   # 0.2 is outside the window, 0.1 inside
    assert rep["speedup"] == 4.0         # cpu(h_min) / cpu(h_rec)
    assert rep["rhs_ratio"] == 4.0       # rhs(h_min) / rhs(h_rec)
    with pytest.raises(ValueError):
        build_report(curve, cpu[:3], rhs)
    with pytest.raises(ValueError):
        build_report(curve, cpu, rhs[:3])


def test_build_report_serializes_and_survives_failure():
    pts = [(h, math.log(1e-19) + 1.0 + h, 0.0) for h in GRID]
    curve = fit_curve(sorted(pts), 1, RegressionSettings())
    object.__setattr__(curve, "log_fitted_a", math.log(1e-19))
    rep = build_report(curve, np.array([4.0, 3.0, 2.0, 1.0]), [8, 4, 2, 1])
    assert rep["recommended_h"] is None and rep["speedup"] is None
    assert rep["rhs_ratio"] is None
    assert not any(step["flag"] for step in rep["steps"])
    # the scalar libm exp, bit for bit: curve.csv prints all 17 digits
    bf = [step["bf"] for step in rep["steps"]]
    assert bf == [math.exp(lm - math.log(1e-19)) for lm in curve.log_marginal]
    payload = json.loads(json.dumps(rep))
    assert set(payload) == {"recommended_h", "speedup", "rhs_ratio", "steps"}
    assert payload["recommended_h"] is None and payload["speedup"] is None
    assert [step["bf"] for step in payload["steps"]] == bf
    rows = rep["steps"]
    assert len(rows) == 4 and rows[0]["h"] == 0.025


# ---------------------------------------------------------------------------
# posterior discrepancy
# ---------------------------------------------------------------------------

def flat_prior_problem(delta=0.0):
    # nearly flat prior, tight likelihood: posterior ~ N(mean(y), sg^2/n)
    sg = 0.05
    times = np.arange(5.0)
    values = np.full(5, 1.0)
    ds = Dataset(times=times, values=values, sigma_fixed=sg)
    prior = Prior((GammaPrior(1.0, 1e-6),))
    fwd = lambda th: np.full(5, float(th[0]) + delta)
    return ds, prior, fwd


def test_discrepancy_zero_for_identical_forwards():
    ds, prior, fwd = flat_prior_problem()
    for stat in ("mean", "tv"):
        d = posterior_discrepancy(ds, prior, fwd, fwd, bounds=(0.5, 1.5),
                                  statistic=stat)
        assert d == pytest.approx(0.0, abs=1e-12)


def test_discrepancy_mean_matches_shift():
    delta = 0.01
    ds, prior, f1 = flat_prior_problem()
    _, _, f2 = flat_prior_problem(delta)
    d = posterior_discrepancy(ds, prior, f1, f2, bounds=(0.5, 1.5),
                              statistic="mean")
    assert d == pytest.approx(delta, rel=1e-3)


def test_discrepancy_tv_matches_gaussian_formula():
    # TV between N(mu, s) and N(mu + delta, s) = 2 Phi(delta / 2s) - 1
    delta = 0.01
    s = 0.05 / math.sqrt(5.0)
    ds, prior, f1 = flat_prior_problem()
    _, _, f2 = flat_prior_problem(delta)
    d = posterior_discrepancy(ds, prior, f1, f2, bounds=(0.5, 1.5),
                              statistic="tv")
    expected = 2.0 * (0.5 * (1.0 + math.erf(delta / (2.0 * s) / math.sqrt(2.0)))) - 1.0
    assert d == pytest.approx(expected, rel=5e-3)


@pytest.mark.parametrize("statistic, bits, calls", [
    ("mean", "0x1.47ae147ae14c0p-7", 257),
    ("tv", "0x1.6a7296b4be12bp-3", 513),
])
def test_discrepancy_bits_and_evaluations_pinned(statistic, bits, calls):
    # pinned bits and calls per forward map: any change to the grid points,
    # their evaluation or the doubling that stops the refinement shows here
    ds, prior, f1 = flat_prior_problem()
    _, _, f2 = flat_prior_problem(0.01)
    n = [0, 0]

    def counted(i, forward):
        def fwd(theta):
            n[i] += 1
            return forward(theta)
        return fwd

    d = posterior_discrepancy(ds, prior, counted(0, f1), counted(1, f2),
                              bounds=(0.5, 1.5), statistic=statistic)
    assert d.hex() == bits
    assert n == [calls, calls]


def test_discrepancy_validation():
    ds, prior, fwd = flat_prior_problem()
    with pytest.raises(ValueError):
        posterior_discrepancy(ds, prior, fwd, fwd, bounds=(0.5, 1.5),
                              statistic="median")
    ds_free = Dataset(times=ds.times, values=ds.values)
    with pytest.raises(ValueError):
        posterior_discrepancy(ds_free, prior, fwd, fwd, bounds=(0.5, 1.5))
    with pytest.raises(BoundsTooTight):
        posterior_discrepancy(ds, prior, fwd, fwd, bounds=(0.99, 1.01))
