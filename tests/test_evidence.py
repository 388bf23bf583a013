"""Evidence estimator and quadrature tests, anchored on closed forms."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.special import logsumexp

from _oracles import default_case, harmonic_mean
from stepselect import (Dataset, EvidenceSettings, GammaPrior, GridSpec,
                        ParamVector, Prior, bracket_bounds,
                        evidence_from_chain, gelfand_dey, kde_fit,
                        quadrature_marginal, subsample_draws)
from stepselect import evidence
from stepselect.bayes import log_posterior_unnorm
from stepselect.errors import (BoundsTooTight, DegenerateSampleWarning,
                               InfiniteVarianceWarning, StepSelectError)

CASE = default_case()
LOG_TRUE = CASE.log_evidence()


def exact_log_alpha(draws):
    """Weighting log-density equal to the exact posterior, at the draws."""
    return CASE.posterior_logpdf(np.asarray(draws))


class _FakeChain:
    def __init__(self, draws, energies):
        self.draws = draws
        self.energies = energies


def make_inputs(n_draws=4000, seed=0):
    th = CASE.posterior_draws(n_draws, seed)
    return th, CASE.energies(th)


# ---------------------------------------------------------------------------
# gelfand-dey core
# ---------------------------------------------------------------------------

def test_exact_alpha_gives_zero_variance():
    # with alpha = posterior every term equals 1/P: exact value, se ~ 0
    draws, U = make_inputs()
    est = gelfand_dey(U, exact_log_alpha(draws))
    assert est.log_marginal == pytest.approx(LOG_TRUE, abs=1e-10)
    assert est.mc_standard_error < 1e-12
    assert est.method == "gelfand_dey_kde"


def test_energy_shift_moves_log_marginal_exactly():
    # P -> P * e^{-C} when every energy gains C; survives C huge enough to
    # park the marginal near 1e-400 on the linear scale
    draws, U = make_inputs()
    base = gelfand_dey(U, exact_log_alpha(draws))
    shifted = gelfand_dey(U + 900.0, exact_log_alpha(draws))
    assert math.isfinite(shifted.log_marginal)
    assert shifted.log_marginal == pytest.approx(base.log_marginal - 900.0,
                                                 abs=1e-9)
    assert shifted.marginal == 0.0   # underflows; the log is the number


def test_kde_alpha_matches_truth_within_mc_error():
    draws, U = make_inputs(seed=3)
    alpha = kde_fit(subsample_draws(draws, m=500, seed=3), 0.5, (5.0, 95.0))
    est = gelfand_dey(U, alpha.log_density(draws))
    assert abs(est.log_marginal - LOG_TRUE) <= 3.0 * est.mc_standard_error


def test_alpha_choice_shifts_estimate_within_noise():
    draws, U = make_inputs(seed=7)
    e1 = gelfand_dey(U, kde_fit(subsample_draws(draws, m=500, seed=1),
                                0.5, (5.0, 95.0)).log_density(draws))
    e2 = gelfand_dey(U, kde_fit(subsample_draws(draws, m=300, seed=2),
                                0.8, (5.0, 95.0)).log_density(draws))
    comb = math.hypot(e1.mc_standard_error, e2.mc_standard_error)
    assert abs(e1.log_marginal - e2.log_marginal) <= 3.0 * comb


def test_reciprocal_scale_unbiased_with_independent_alpha():
    # E[(1/P)-hat] = 1/P exactly when alpha is independent of the draws
    rels, ses = [], []
    for r in range(60):
        th = CASE.posterior_draws(2000, 1000 + r)
        th_alpha = CASE.posterior_draws(600, 5000 + r)
        est = gelfand_dey(CASE.energies(th),
                          kde_fit(th_alpha, 0.5, (5.0, 95.0))
                          .log_density(th))
        rels.append(math.exp(LOG_TRUE - est.log_marginal) - 1.0)
        ses.append(est.mc_standard_error)
    mean_rel = float(np.mean(rels))
    comb = math.sqrt(float(np.mean(np.square(ses))) / len(rels))
    assert abs(mean_rel) <= 3.0 * comb


def test_cross_fit_pipeline_unbiased_on_same_draws():
    # naive same-draw alpha biases the reciprocal upward; the split
    # pipeline must remove that
    rels, ses = [], []
    for r in range(60):
        th = CASE.posterior_draws(2000, 1000 + r)
        est = evidence_from_chain(_FakeChain(th, CASE.energies(th)),
                                  EvidenceSettings(), seed=r)
        rels.append(math.exp(LOG_TRUE - est.log_marginal) - 1.0)
        ses.append(est.mc_standard_error)
    mean_rel = float(np.mean(rels))
    comb = math.sqrt(float(np.mean(np.square(ses))) / len(rels))
    assert abs(mean_rel) <= 3.0 * comb


def test_harmonic_mean_reports_larger_error():
    draws, U = make_inputs(seed=5)
    gd = gelfand_dey(U, kde_fit(subsample_draws(draws, m=500, seed=5),
                                0.5, (5.0, 95.0)).log_density(draws))

    def log_prior_fn(x):
        return float(CASE.log_prior(np.asarray([float(x)]))[0])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InfiniteVarianceWarning)
        hm = harmonic_mean(U, log_prior_fn, draws)
    assert hm.method == "harmonic_mean"
    assert hm.mc_standard_error > gd.mc_standard_error


def test_dominant_term_warns():
    draws, U = make_inputs(n_draws=500)
    U = U.copy()
    U[0] += 60.0   # one draw carries essentially all the weight
    with pytest.warns(InfiniteVarianceWarning):
        gelfand_dey(U, exact_log_alpha(draws))


def test_gelfand_dey_input_validation():
    draws, U = make_inputs(n_draws=100)
    log_alpha = exact_log_alpha(draws)
    with pytest.raises(ValueError):
        gelfand_dey(U[:50], log_alpha)
    with pytest.raises(ValueError):
        gelfand_dey(U[:2], log_alpha[:2])
    with pytest.raises(StepSelectError):
        gelfand_dey(np.full(100, -np.inf), log_alpha)


def test_evidence_estimate_fields():
    draws, U = make_inputs(n_draws=200)
    est = gelfand_dey(U, exact_log_alpha(draws))
    assert est.method == "gelfand_dey_kde"
    assert est.marginal == math.exp(est.log_marginal)
    with pytest.raises(ValueError):
        type(est)(log_marginal=0.0, mc_standard_error=-1.0, method="x")


def test_evidence_from_chain_small_sample_falls_back():
    # below the split threshold the single-fit path runs; just needs >= 30
    th = CASE.posterior_draws(100, 4)
    est = evidence_from_chain(_FakeChain(th, CASE.energies(th)),
                              EvidenceSettings())
    assert abs(est.log_marginal - LOG_TRUE) < 0.5


def test_evidence_from_chain_deterministic():
    th = CASE.posterior_draws(2000, 12)
    chain = _FakeChain(th, CASE.energies(th))
    a = evidence_from_chain(chain, EvidenceSettings(), seed=9)
    b = evidence_from_chain(chain, EvidenceSettings(), seed=9)
    assert a.log_marginal == b.log_marginal
    assert a.mc_standard_error == b.mc_standard_error


# ---------------------------------------------------------------------------
# kde
# ---------------------------------------------------------------------------

def test_kde_is_normalized_1d(monkeypatch):
    th = CASE.posterior_draws(800, 21)
    kde = kde_fit(th, 0.5, (5.0, 95.0))
    lo = th.min() - 10.0
    hi = th.max() + 10.0
    xs = np.linspace(lo, hi, 4001)
    dens = np.exp(kde.log_density(xs))
    assert float(simpson(dens, x=xs)) == pytest.approx(1.0, abs=0.005)

    # the bandwidth, three log densities and the normalising constant (the
    # log density with the log-sum-exp over the centers taken as 0) keep
    # the bits they had when the weighting density worked over d
    # coordinates, at d = 1
    assert kde.centers.shape == (720,)
    assert kde.bandwidth.hex() == "0x1.cb4968b513031p-5"
    pts = [th[0], CASE.posterior_mean, CASE.posterior_mean + 4.0]
    assert [v.hex() for v in kde.log_density(pts).tolist()] == [
        "-0x1.4b0ef02970600p-3", "-0x1.87738384527c0p-3",
        "-0x1.9170526980b63p+10"]
    monkeypatch.setattr(evidence, "logsumexp_rows",
                        lambda a: np.zeros(a.shape[0]))
    assert kde.log_density([0.0])[0].hex() == "-0x1.277c20ac480efp+2"


def test_kde_log_density_is_the_mixture():
    # density(x) = mean_i N(x | center_i, bw^2), checked by hand
    rng = np.random.default_rng(17)
    pts = rng.standard_normal(60)
    kde = kde_fit(pts, shrink=1.0, trunc_pct=(0.0, 100.0))
    assert kde.centers.shape == (60,)   # no truncation requested
    z = (0.3 - kde.centers) / kde.bandwidth
    manual = (math.log(np.mean(np.exp(-0.5 * z * z)))
              - 0.5 * math.log(2 * math.pi) - math.log(kde.bandwidth))
    assert kde.log_density([0.3])[0] == pytest.approx(manual, rel=1e-12)


def test_kde_log_density_does_not_depend_on_the_block_size(monkeypatch):
    rng = np.random.default_rng(23)
    kde = kde_fit(rng.standard_normal(450), 0.5, (5.0, 95.0))
    pts = rng.standard_normal(4000) * 3.0
    blocked = kde.log_density(pts)
    monkeypatch.setattr(evidence, "KDE_BLOCK_ROWS", pts.size)
    whole = kde.log_density(pts)
    assert np.array_equal(blocked.view(np.int64), whole.view(np.int64))


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_logsumexp_rows_matches_scipy_bits():
    rng = np.random.default_rng(5)
    for k in range(60):
        a = rng.standard_normal((17, 40)) * [1.0, 30.0, 1e3][k % 3]
        a[1, :7] = a[1, 0]                  # ties at the row maximum
        a[2] = np.repeat(a[2, :8], 5)       # every value drawn five times
        a[3] = -np.inf                      # a row that vanishes
        a[4, 5] = np.inf                    # an infinite entry
        a[5] = 1e308
        a[5, 3] = -1e308                    # shifting it overflows to -inf
        a[6, :3] = -np.inf
        with warnings.catch_warnings(record=True) as ref_warned:
            warnings.simplefilter("always")
            ref = logsumexp(a, axis=1)
        with warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            got = evidence.logsumexp_rows(a)
        assert np.array_equal(bits(got), bits(ref))
        assert ([str(w.message) for w in warned]
                == [str(w.message) for w in ref_warned])


def test_simpson_matches_scipy_bits():
    rng = np.random.default_rng(9)
    for n in range(3, 1026, 2):
        uniform = np.linspace(-1.0, 2.0, n)
        uneven = np.cumsum(rng.uniform(0.01, 1.0, n))
        for x in (uniform, uneven):
            y = np.exp(-x * x) + rng.standard_normal(n)
            assert evidence.simpson(y, x).hex() == float(simpson(y, x=x)).hex()


def test_simpson_rejects_even_or_short_grids():
    for n in (0, 1, 2, 4, 128):
        xs = np.linspace(0.0, 1.0, n)
        with pytest.raises(ValueError):
            evidence.simpson(np.ones(n), xs)
    with pytest.raises(ValueError):
        evidence.simpson(np.ones(5), np.linspace(0.0, 1.0, 7))


def test_kde_truncation_thins_tails():
    th = CASE.posterior_draws(1000, 41)
    kde = kde_fit(th, 0.5, (5.0, 95.0))
    lo, hi = np.percentile(th, [5.0, 95.0])
    assert kde.centers.min() >= lo and kde.centers.max() <= hi
    assert kde.centers.size < 1000


def test_kde_degenerate_sample_warns():
    with pytest.warns(DegenerateSampleWarning):
        kde = kde_fit(np.ones(50), 0.5, (5.0, 95.0))
    assert math.isfinite(kde.bandwidth) and kde.bandwidth > 0.0


def test_kde_fit_validation():
    with pytest.raises(ValueError):
        kde_fit(np.ones(10), 0.5, (5.0, 95.0))
    with pytest.raises(ValueError):
        kde_fit(np.ones(50), 0.0, (5.0, 95.0))
    with pytest.raises(ValueError, match="1-D"):
        kde_fit(np.ones((50, 1)), 0.5, (5.0, 95.0))


def test_subsample_draws_behavior():
    rng = np.random.default_rng(0)
    draws = rng.standard_normal(1000)
    sub = subsample_draws(draws, m=200, seed=4)
    assert sub.shape == (200,)
    assert np.array_equal(sub, subsample_draws(draws, m=200, seed=4))
    # kept in chain order: the subsample is a monotone selection
    pos = [int(np.flatnonzero(draws == v)[0]) for v in sub]
    assert pos == sorted(pos)
    small = subsample_draws(draws[:50], m=200, seed=0)
    assert small.shape == (50,)
    assert small is not draws   # a copy, never a view


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

LINEAR_C = np.array([1.0, 2.0, 3.0])


def linear_problem(sigma=0.4):
    ds = Dataset(times=[0.0, 1.0, 2.0], values=[1.1, 1.9, 3.2],
                 sigma_fixed=sigma)
    prior = Prior((GammaPrior(2.0, 2.0),))
    return ds, prior, (lambda th: th[0] * LINEAR_C)


def test_quadrature_matches_scipy_quad():
    ds, prior, fwd = linear_problem()

    def logf(x):
        phi = ParamVector(theta=np.array([x]), sigma=0.4)
        return log_posterior_unnorm(ds, prior, phi, fwd)

    ref, _ = quad(lambda x: math.exp(logf(x)), 1e-12, 10.0, limit=200)
    est = quadrature_marginal(ds, prior, fwd, GridSpec(bounds=((1e-6, 6.0),)))
    assert est.log_marginal == pytest.approx(math.log(ref), abs=1e-9)
    assert est.mc_standard_error == 0.0
    assert est.method == "quadrature"


def counted(forward):
    """``forward`` plus a one-element list that counts its calls."""
    calls = [0]

    def fwd(theta):
        calls[0] += 1
        return forward(theta)
    return fwd, calls


def test_quadrature_stops_on_the_first_grid_when_nested_grids_agree():
    # a window of theta_hat +- 10 sd: the 65-point and 129-point estimates
    # on the first grid already agree, so no doubling is paid for
    ds, prior, fwd = linear_problem(0.1)
    c = LINEAR_C
    theta_hat = float(c @ ds.values) / float(c @ c)
    sd = 0.1 / math.sqrt(float(c @ c))
    lo, hi = theta_hat - 10.0 * sd, theta_hat + 10.0 * sd
    fwd, calls = counted(fwd)
    est = quadrature_marginal(ds, prior, fwd, GridSpec(bounds=((lo, hi),)))
    assert calls[0] == 129

    xs = np.linspace(lo, hi, 1025)
    logv = np.array([log_posterior_unnorm(ds, prior, ParamVector(np.array([x]), 0.1),
                                          fwd) for x in xs])
    ref = logv.max() + math.log(simpson(np.exp(logv - logv.max()), x=xs))
    assert est.log_marginal == pytest.approx(ref, abs=1e-10)


def test_quadrature_bits_and_evaluations_pinned():
    # pinned bits and forward calls: any change to the grid points, their
    # evaluation or the doubling that stops the refinement shows here.
    # Over (1e-6, 6) the first grid's nested 65-point estimate misses by
    # more than the tolerance, so the grid doubles once: 257 calls
    ds, prior, fwd = linear_problem()
    xs = np.linspace(1e-6, 6.0, 129)
    logv = np.array([log_posterior_unnorm(ds, prior, ParamVector(np.array([x]), 0.4),
                                          fwd) for x in xs])
    shift = logv.max()
    s65 = math.log(simpson(np.exp(logv[::2] - shift), x=xs[::2]))
    s129 = math.log(simpson(np.exp(logv - shift), x=xs))
    assert abs(s129 - s65) > 1e-6

    fwd, calls = counted(fwd)
    est = quadrature_marginal(ds, prior, fwd, GridSpec(bounds=((1e-6, 6.0),)))
    assert est.log_marginal.hex() == "-0x1.0d9225cbb1f54p+1"
    assert calls[0] == 257


def test_quadrature_bounds_too_tight():
    ds, prior, fwd = linear_problem()
    with pytest.raises(BoundsTooTight):
        quadrature_marginal(ds, prior, fwd, GridSpec(bounds=((0.8, 1.4),)))


@pytest.mark.parametrize("sigma", [1e-9, 1e-7, 1e-5, 1e-3, 0.1, 0.4])
def test_bracket_bounds_finds_the_peak(sigma):
    # posterior widths from 2.7e-10 to 0.11: the bracketed window must hold
    # all of the mass that theta_hat +- 10 posterior sd holds
    ds, prior, fwd = linear_problem(sigma)
    calls = [0]

    def logf(x):
        calls[0] += 1
        phi = ParamVector(theta=np.array([x]), sigma=sigma)
        return log_posterior_unnorm(ds, prior, phi, fwd)

    lo, hi = bracket_bounds(logf, 1e-8, 50.0)
    c = LINEAR_C
    theta_hat = float(c @ ds.values) / float(c @ c)
    sd = sigma / math.sqrt(float(c @ c))
    assert lo < theta_hat < hi < 10.0   # the posterior peaks near theta = 1
    direct = quadrature_marginal(
        ds, prior, fwd, GridSpec(bounds=((theta_hat - 10.0 * sd,
                                          theta_hat + 10.0 * sd),)))
    bracketed = quadrature_marginal(ds, prior, fwd, GridSpec(bounds=((lo, hi),)))
    # log Z reaches -2.1e16 at sigma = 1e-9, hence the relative term
    assert bracketed.log_marginal == pytest.approx(direct.log_marginal,
                                                   rel=1e-12, abs=1e-8)
    if sigma == 0.4:
        # pinned window and scan cost: two 33-point scans
        assert (lo.hex(), hi.hex()) == ("0x1.5798ee2308c3ap-27",
                                        "0x1.89c0001427545p+1")
        assert calls[0] == 66


def test_bracket_bounds_all_minus_inf():
    with pytest.raises(StepSelectError):
        bracket_bounds(lambda x: -math.inf, 0.0, 1.0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(bounds=((1.0, 0.5),))
    for bounds in (((0.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))):
        with pytest.raises(ValueError):
            GridSpec(bounds=bounds)


def test_quadrature_needs_fixed_sigma():
    ds, prior, fwd = linear_problem()
    ds_free = Dataset(times=ds.times, values=ds.values)
    with pytest.raises(ValueError):
        quadrature_marginal(ds_free, prior, fwd, GridSpec(bounds=((0.1, 5.0),)))
