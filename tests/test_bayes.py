"""Likelihood, prior, and posterior-assembly tests."""

import functools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepselect import (Dataset, GammaPrior, LogisticParams, ParamVector,
                        Prior, SolverConfig, likelihood_ratio, log_likelihood,
                        log_posterior_unnorm, log_prior,
                        make_log_posterior, make_logistic_exact_forward,
                        make_logistic_system, make_solver_forward)
from stepselect import bayes, evidence
from stepselect.bayes import LOG_2PI
from stepselect.errors import GridMismatch, NonFiniteState, NonMonotoneTimes
from stepselect.harness import (ExperimentSpec, TimesSpec, build_system,
                                generate_synthetic)
from stepselect.models import logistic_exact


def small_dataset(n=26, sigma=1.0):
    times = np.linspace(0.0, 10.0, n)
    return Dataset(times=times, values=np.linspace(100.0, 900.0, n),
                   sigma_fixed=sigma)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_dataset_validation():
    with pytest.raises(NonMonotoneTimes):
        Dataset(times=[0.0, 1.0, 1.0], values=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        Dataset(times=[0.0, 1.0], values=[1.0, float("nan")])
    with pytest.raises(ValueError):
        Dataset(times=[0.0, 1.0], values=[1.0, 2.0], sigma_fixed=0.0)
    with pytest.raises(ValueError):
        Dataset(times=[0.0, 1.0], values=[1.0])
    assert small_dataset().n == 26


def test_param_vector_roundtrip():
    phi = ParamVector(theta=1.5, sigma=2.0)
    assert np.array_equal(phi.theta, [1.5]) and phi.sigma == 2.0
    with pytest.raises(ValueError):
        ParamVector(theta=np.array([1.0]), sigma=-1.0)


# ---------------------------------------------------------------------------
# gamma prior
# ---------------------------------------------------------------------------

def test_gamma_logpdf_unit_exponential():
    # Gamma(1, 1) at x = 1: log(e^{-1}) = -1 exactly
    assert GammaPrior(1.0, 1.0).logpdf(1.0) == -1.0


def test_gamma_moments_and_support():
    g = GammaPrior(2.0, 2.0)
    assert g.mean == 1.0
    assert g.sd == pytest.approx(math.sqrt(2.0) / 2.0)
    assert g.logpdf(0.0) == -math.inf
    assert g.logpdf(-1.0) == -math.inf
    for shape, rate in ((0.0, 1.0), (math.inf, 1.0), (2.0, math.inf),
                        (math.nan, 1.0)):
        with pytest.raises(ValueError):
            GammaPrior(shape, rate)


def test_gamma_mode_of_glucose_prior():
    # Gamma(5, 0.4) peaks at (shape-1)/rate = 10, the true insulin gain
    g = GammaPrior(5.0, 0.4)
    assert g.logpdf(10.0) > g.logpdf(9.0)
    assert g.logpdf(10.0) > g.logpdf(11.0)


@settings(max_examples=80)
@given(st.floats(min_value=0.2, max_value=20.0, allow_nan=False),
       st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
       st.floats(min_value=1e-3, max_value=50.0, allow_nan=False))
def test_gamma_logpdf_matches_scipy(shape, rate, x):
    ours = GammaPrior(shape, rate).logpdf(x)
    ref = scipy.stats.gamma.logpdf(x, a=shape, scale=1.0 / rate)
    assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# likelihood
# ---------------------------------------------------------------------------

def test_zero_residual_likelihood():
    # perfect fit at sigma=1: -n/2 log(2 pi), n = 26
    ds = small_dataset()
    phi = ParamVector(theta=np.array([1.0]), sigma=1.0)
    ll = log_likelihood(ds, phi, lambda theta: ds.values)
    assert ll == pytest.approx(-13.0 * LOG_2PI, rel=0, abs=1e-12)


@settings(max_examples=50)
@given(st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
       st.floats(min_value=0.1, max_value=100.0, allow_nan=False))
def test_likelihood_sigma_scaling_identity(s1, s2):
    ds = small_dataset()
    pred = ds.values + 3.0
    ss = float(np.sum((ds.values - pred) ** 2))
    f = lambda theta: pred
    ll1 = log_likelihood(ds, ParamVector(theta=np.array([1.0]), sigma=s1), f)
    ll2 = log_likelihood(ds, ParamVector(theta=np.array([1.0]), sigma=s2), f)
    expected = (ds.n * math.log(s2 / s1)
                + 0.5 * ss * (1.0 / s2 ** 2 - 1.0 / s1 ** 2))
    assert ll1 - ll2 == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_likelihood_absorbs_blowup():
    def exploding(theta):
        raise NonFiniteState(1.0, 3, theta)
    phi = ParamVector(theta=np.array([1.0]), sigma=1.0)
    assert log_likelihood(small_dataset(), phi, exploding) == -math.inf


def test_posterior_skips_forward_off_support():
    calls = []

    def forward(theta):
        calls.append(1)
        return small_dataset().values

    prior = Prior((GammaPrior(2.0, 2.0),))
    phi = ParamVector(theta=np.array([-1.0]), sigma=1.0)
    assert log_posterior_unnorm(small_dataset(), prior, phi, forward) == -math.inf
    assert not calls


def test_log_prior_requires_matching_components():
    prior = Prior((GammaPrior(2.0, 2.0),))
    phi = ParamVector(theta=np.array([1.0, 2.0]), sigma=1.0)
    with pytest.raises(ValueError):
        log_prior(prior, phi)


# ---------------------------------------------------------------------------
# forward maps
# ---------------------------------------------------------------------------

def test_solver_forward_rejects_misaligned_grid_at_build():
    system = make_logistic_system(LogisticParams())
    times = np.linspace(0.0, 10.0, 26)
    with pytest.raises(GridMismatch):
        make_solver_forward(system, SolverConfig("rk4", 0.3), times)


def test_exact_forward_matches_closed_form():
    params = LogisticParams(lam=1.0, K=1000.0, X0=100.0)
    times = np.linspace(0.0, 10.0, 26)
    fwd = make_logistic_exact_forward(params, times)
    out = fwd(np.array([1.37]))
    ref = logistic_exact(times, LogisticParams(lam=1.37, K=1000.0, X0=100.0))
    assert np.array_equal(out, ref)


def test_solver_forward_converges_to_exact():
    params = LogisticParams(lam=1.0, K=1000.0, X0=100.0)
    system = make_logistic_system(params)
    times = np.linspace(0.0, 10.0, 26)
    exact = make_logistic_exact_forward(params, times)
    theta = np.array([1.0])
    dev = [float(np.max(np.abs(
        make_solver_forward(system, SolverConfig("rk4", h), times)(theta)
        - exact(theta)))) for h in (0.1, 0.05)]
    assert dev[1] < dev[0]
    assert 8.0 < dev[0] / dev[1] < 32.0   # fourth order


def test_likelihood_ratio_shrinks_at_solver_order():
    params = LogisticParams(lam=1.0, K=1000.0, X0=100.0)
    system = make_logistic_system(params)
    times = np.linspace(0.0, 10.0, 26)
    values = logistic_exact(times, params)
    ds = Dataset(times=times, values=values + 0.5, sigma_fixed=1.0)
    exact = make_logistic_exact_forward(params, times)
    phi = ParamVector(theta=np.array([1.0]), sigma=1.0)
    r = [likelihood_ratio(ds, phi,
                          make_solver_forward(system, SolverConfig("rk4", h),
                                              times), exact)
         for h in (0.2, 0.1)]
    # |R_h - 1| = O(h^4): halving h shrinks the gap ~16x
    assert abs(r[0] - 1.0) > abs(r[1] - 1.0) > 0.0
    assert 8.0 < abs(r[0] - 1.0) / abs(r[1] - 1.0) < 32.0


def test_make_log_posterior_is_deterministic():
    params = LogisticParams()
    system = make_logistic_system(params)
    times = np.linspace(0.0, 10.0, 26)
    ds = Dataset(times=times, values=logistic_exact(times, params),
                 sigma_fixed=1.0)
    prior = Prior((GammaPrior(2.0, 2.0),))
    forward = make_solver_forward(system, SolverConfig("rk4", 0.1), times)
    lp = make_log_posterior(ds, prior, forward)
    assert lp(1.1) == lp(1.1)
    # a python float and a numpy scalar, as the quadrature grids pass, are
    # the same point, bit for bit
    assert lp(1.1) == lp(np.float64(1.1)) == log_posterior_unnorm(
        ds, prior, ParamVector(theta=np.array([1.1]), sigma=1.0), forward)
    assert lp(-0.5) == -math.inf
    with pytest.raises(ValueError):
        make_log_posterior(Dataset(times=times, values=ds.values), prior,
                           forward)


# ---------------------------------------------------------------------------
# trace points: the benchmark counts solves by wrapping
# bayes.integrate_states and posterior evaluations by wrapping
# bayes.log_posterior_unnorm, so every caller must reach them by those names
# ---------------------------------------------------------------------------

def counting(monkeypatch, name):
    """Replace ``bayes.<name>`` by a wrapper that records its arguments."""
    calls = []
    real = getattr(bayes, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)
    monkeypatch.setattr(bayes, name, wrapper)
    return calls


def logistic_case():
    params = LogisticParams()
    times = np.linspace(0.0, 10.0, 26)
    ds = Dataset(times=times, values=logistic_exact(times, params),
                 sigma_fixed=1.0)
    forward = make_solver_forward(make_logistic_system(params),
                                  SolverConfig("rk4", 0.1), times)
    return ds, Prior((GammaPrior(2.0, 2.0),)), forward


def test_one_log_posterior_evaluation_is_one_traced_call(monkeypatch):
    # any forward map but a solver's goes through log_posterior_unnorm
    ds, prior, forward = logistic_case()
    calls = counting(monkeypatch, "log_posterior_unnorm")
    make_log_posterior(ds, prior, lambda theta: forward(theta))(1.1)
    assert len(calls) == 1


def test_one_fused_log_posterior_evaluation_is_one_traced_solve(monkeypatch):
    ds, prior, forward = logistic_case()
    solves = counting(monkeypatch, "integrate_states")
    lp = make_log_posterior(ds, prior, forward)
    lp(1.1)
    assert len(solves) == 1
    (args, kwargs), = solves
    assert kwargs == {} and len(args) == 6
    assert args[2] is forward.solve[1] and args[4] == 100
    lp(-1.1)   # off the prior's support: no solve
    assert len(solves) == 1
    assert lp.rhs_evals() == 100 * 4


def test_one_forward_call_is_one_traced_solve(monkeypatch):
    system = make_logistic_system(LogisticParams())
    config = SolverConfig("rk4", 0.1)
    forward = make_solver_forward(system, config, np.linspace(0.0, 10.0, 26))
    calls = counting(monkeypatch, "integrate_states")
    theta = np.array([1.1])
    forward(theta)
    assert len(calls) == 1
    (args, kwargs), = calls
    assert kwargs == {} and len(args) == 6
    assert args[0] is system and args[1] is theta and args[2] is config
    assert args[3] == 0.0 and args[4] == 100
    assert args[5] == tuple(range(0, 101, 4))


@functools.lru_cache(maxsize=None)
def model_case(model):
    """(dataset, prior, solver forward) of each model at a coarse step."""
    if model == "logistic":
        spec = ExperimentSpec(seed=7, h_grid=(0.2,))
    else:
        spec = ExperimentSpec(model="glucose", h_grid=(0.25,), seed=7,
                              sigma=5.0, times=TimesSpec(0.0, 2.0, 5),
                              prior={"shape": 5.0, "rate": 0.4})
    ds = generate_synthetic(spec)
    forward = make_solver_forward(build_system(spec, ds),
                                  SolverConfig("rk4", spec.h_grid[0]),
                                  ds.times)
    return ds, spec.build_prior(), forward


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["logistic", "glucose"]),
       st.floats(min_value=-5.0, max_value=2000.0, allow_nan=False))
@example("logistic", 0.0)       # the edge of the prior's support
@example("logistic", -0.5)
@example("glucose", -3.0)
@example("logistic", 40.0)      # the solve blows up
@example("glucose", 300.0)
def test_fused_log_posterior_matches_general_bit_for_bit(model, x):
    ds, prior, forward = model_case(model)
    fused = make_log_posterior(ds, prior, forward)(x)
    general = log_posterior_unnorm(ds, prior,
                                   ParamVector(x, ds.sigma_fixed), forward)
    assert fused.hex() == general.hex()
    if x <= 0.0 or (model, x) in (("logistic", 40.0), ("glucose", 300.0)):
        assert fused == -math.inf


def test_quadrature_oracles_evaluate_through_the_traced_posterior(monkeypatch):
    ds, prior, forward = logistic_case()
    solves = [0]

    def counted(theta):
        solves[0] += 1
        return forward(theta)
    calls = counting(monkeypatch, "log_posterior_unnorm")
    window = evidence.posterior_window(ds, prior, counted)
    assert len(calls) == solves[0] > 0
    evidence.quadrature_marginal(ds, prior, counted,
                                 evidence.GridSpec(bounds=(window,)))
    assert len(calls) == solves[0] > evidence.GRID_POINTS
