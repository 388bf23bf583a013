"""Likelihood, prior, and posterior-assembly tests."""

import functools
import itertools
import math
import multiprocessing
import os

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stepselect import (Dataset, GammaPrior, LogisticParams, McmcSettings,
                        ParamVector, Prior, SolverConfig,
                        log_posterior_unnorm, make_log_posterior,
                        make_logistic_exact_forward, make_logistic_system,
                        make_solver_forward, mh_run)
from stepselect import bayes, evidence, mcmc, native, ode
from stepselect.bayes import LOG_2PI
from stepselect.errors import (GridMismatch, InitializationError,
                               NonFiniteState, NonMonotoneTimes)
from stepselect.harness import (ExperimentSpec, TimesSpec, build_system,
                                generate_synthetic)
from stepselect.models import OdeSystem, logistic_exact

from conftest import compiled, on_python_stepper


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
    for sigma in (0.0, 1e-300):   # 1e-300 squares to zero
        with pytest.raises(ValueError):
            Dataset(times=[0.0, 1.0], values=[1.0, 2.0], sigma_fixed=sigma)
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
# likelihood, through the log posterior: at x = 1 the Gamma(1, 1) log prior
# is exactly -1, and at one x under one prior the prior cancels from a
# difference of two log posteriors
# ---------------------------------------------------------------------------

UNIT_PRIOR = Prior((GammaPrior(1.0, 1.0),))


def log_likelihood(dataset, phi, forward):
    """The log posterior under UNIT_PRIOR at x = 1, less its log prior."""
    assert phi.theta.tolist() == [1.0]
    return log_posterior_unnorm(dataset, UNIT_PRIOR, phi, forward) + 1.0


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
    assert log_posterior_unnorm(small_dataset(), UNIT_PRIOR, phi,
                                exploding) == -math.inf


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
    # one parameter under one Gamma prior: any other count on either side
    ds, forward = small_dataset(), lambda theta: small_dataset().values
    one = Prior((GammaPrior(2.0, 2.0),))
    two = Prior((GammaPrior(2.0, 2.0), GammaPrior(2.0, 2.0)))
    for prior, theta in ((one, [1.0, 2.0]), (two, [1.0]),
                         (two, [1.0, 2.0])):
        phi = ParamVector(theta=np.array(theta), sigma=1.0)
        with pytest.raises(ValueError):
            log_posterior_unnorm(ds, prior, phi, forward)


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
    # R_h = L_h / L_exact at one parameter point
    r = [math.exp(log_likelihood(ds, phi, make_solver_forward(
                      system, SolverConfig("rk4", h), times))
                  - log_likelihood(ds, phi, exact))
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
    exact = lp(1.1)
    assert len(solves) == 1
    (args, kwargs), = solves
    # the observed values and the cap on the residual sum follow the nodes;
    # without a floor the cap is infinite
    assert kwargs == {} and len(args) == 8
    assert args[2] is forward.solve[1] and args[4] == 100
    assert args[6] == tuple(ds.values.tolist()) and args[7] == math.inf
    lp(-1.1)   # off the prior's support: no solve
    assert len(solves) == 1
    assert lp.rhs_evals() == 100 * 4 and lp.stopped_early() == 0
    # a floor above the value at a zero residual stops the solve at its
    # first node, before any step
    assert lp(1.1, 1e9) == -math.inf
    assert len(solves) == 2 and solves[1][0][7] < 0.0
    assert lp.rhs_evals() == 100 * 4 and lp.stopped_early() == 1
    # one the value clears changes nothing
    assert lp(1.1, exact - 1e-6).hex() == exact.hex()
    assert lp.rhs_evals() == 2 * 100 * 4 and lp.stopped_early() == 1


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
    # the forward hands on the one parameter as a float
    assert args[0] is system and args[2] is config
    assert type(args[1]) is float and args[1] == 1.1
    assert args[3] == 0.0 and args[4] == 100
    assert args[5] == tuple(range(0, 101, 4))


@functools.lru_cache(maxsize=None)
def model_case(model, method="rk4"):
    """(dataset, prior, solver forward) of each model at a coarse step."""
    if model == "logistic":
        spec = ExperimentSpec(seed=7, h_grid=(0.2,))
    else:
        spec = ExperimentSpec(model="glucose", h_grid=(0.25,), seed=7,
                              sigma=5.0, times=TimesSpec(0.0, 2.0, 5),
                              prior={"shape": 5.0, "rate": 0.4})
    ds = generate_synthetic(spec)
    forward = make_solver_forward(build_system(spec, ds),
                                  SolverConfig(method, spec.h_grid[0]),
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


FLOOR_CASES = [("logistic", "rk4"), ("logistic", "euler"), ("glucose", "rk4")]


def metropolis_accepts(lp_prop, lp, lu):
    """The decision mh_run makes on a proposal from the current point."""
    delta = lp_prop - lp
    return delta >= 0.0 or lu < delta


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FLOOR_CASES),
       st.floats(min_value=0.05, max_value=4.0),
       st.floats(min_value=-36.8, max_value=-1e-12),
       st.one_of(st.floats(min_value=-1e-6, max_value=1e-6),
                 st.floats(min_value=-50.0, max_value=50.0),
                 st.sampled_from([0.0, 1e-12, -1e-12])),
       st.booleans())
@example(("logistic", "rk4"), 1.0, -1.0, 0.0, False)
@example(("glucose", "rk4"), 40.0, -0.5, 0.0, False)    # the solve blows up
def test_fused_log_posterior_with_a_floor(case, x, lu, gap, fit_last):
    # a floor changes no value at or above it, and a value it cuts short
    # stands for an exact one below it that mh_run rejects as well: the
    # current point lp is placed so that the floor lp + lu sits ``gap``
    # above the exact value
    ds, prior, forward = model_case(*case)
    if fit_last:
        # the last node, where no solve stops, adds nothing to the sum of
        # squares, so the sum the solve checks before it is the whole sum
        last = forward(np.array([x]))[-1]
        if math.isfinite(last):
            ds = Dataset(times=ds.times, values=[*ds.values[:-1], last],
                         sigma_fixed=ds.sigma_fixed)
    logpost = make_log_posterior(ds, prior, forward)
    exact = logpost(x)
    lp = (exact - lu) + gap if math.isfinite(exact) else -lu
    floor = lp + lu
    bounded = logpost(x, floor)
    if bounded >= floor:
        assert bounded.hex() == exact.hex()
    else:
        assert exact < floor
        assert bounded.hex() == exact.hex() or bounded == -math.inf
    assert metropolis_accepts(bounded, lp, lu) == \
        metropolis_accepts(exact, lp, lu)


@pytest.mark.parametrize("case", FLOOR_CASES)
def test_chain_with_early_rejection_matches_the_exact_chain(case):
    ds, prior, forward = model_case(*case)
    settings_ = McmcSettings(n_iter=1500, step_scale=0.05)
    init = prior.theta[0].mean if case[0] == "glucose" else 1.0
    logpost = make_log_posterior(ds, prior, forward)
    exact = make_log_posterior(ds, prior, forward)
    looped = make_log_posterior(ds, prior, forward)
    a = mh_run(logpost, init, settings_, n_iter=1500, burn_in=300, seed=3)
    b = mh_run(lambda x, floor: exact(x), init, settings_, n_iter=1500,
               burn_in=300, seed=3)
    # the same closure in mh_run's Python loop, where ``logpost`` runs its
    # blocks in the compiled library
    c = mh_run(lambda x, floor: looped(x, floor), init, settings_,
               n_iter=1500, burn_in=300, seed=3)
    for other in (b, c):
        assert a.draws.tobytes() == other.draws.tobytes()
        assert a.energies.tobytes() == other.energies.tobytes()
        assert a.accept_rate == other.accept_rate
        assert a.step_scale == other.step_scale
    assert logpost.compiled() is compiled(forward.solve[0])
    assert not looped.compiled()
    assert (logpost.rhs_evals(), logpost.stopped_early()) == (
        looped.rhs_evals(), looped.stopped_early())
    # the floor did cut solves short, and only after burn-in
    assert 0 < logpost.stopped_early() <= 1200
    assert logpost.rhs_evals() < exact.rhs_evals()


def test_a_division_by_theta_gets_no_library():
    # dx/dt = -x / (theta - 2): a divisor that could be zero is outside the
    # C subset, so the closure's run_block runs mcmc._block over the
    # closure: the same returns, draws and energies where the proposals
    # stay away from theta = 2, and the same ZeroDivisionError at it
    system = OdeSystem(dim_p=1, rhs=("dx = -x / (theta_0 - 2.0)",), consts={},
                       x0=np.array([1.0]))
    ds = small_dataset(n=6)
    forward = make_solver_forward(system, SolverConfig("rk4", 0.5), ds.times)
    logpost = make_log_posterior(ds, Prior((GammaPrior(2.0, 2.0),)), forward)
    with pytest.raises(ValueError, match="divisor"):
        native.c_source(1, system.rhs, ())
    lp = logpost(1.0)
    rng = np.random.default_rng(34)
    z, log_u = rng.standard_normal(8), np.log(rng.random(8))
    for arrays in (None, None), (np.empty(8), np.empty(8)):
        got = logpost.run_block(1.0, lp, 0.05, z, log_u, *arrays)
        written = [a.copy() for a in arrays if a is not None]
        want = mcmc._block(logpost, 1.0, lp, 0.05, z, log_u, *arrays)
        assert got == want and 0 < got[2] < 8
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(written, arrays))
    # a log uniform of -inf accepts every proposal of finite value, up to
    # theta = 2
    ones, accept = np.ones(4), np.full(4, -np.inf)
    for block in (logpost.run_block, functools.partial(mcmc._block, logpost)):
        with pytest.raises(ZeroDivisionError):
            block(1.0, lp, 0.25, ones, accept, None, None)
    assert not logpost.compiled()


def test_a_rhs_the_stepper_refuses_gets_no_library():
    # a temporary named like RK4's set-up variable half would overwrite it
    # between stages: the Python stepper refuses it, and so does the C
    # translation, so a chain gets no library and its initial evaluation
    # raises the Python stepper's ValueError
    system = OdeSystem(dim_p=1, rhs=("half = 1.0 - x / K",
                                     "dx = theta_0 * x * half"),
                       consts={"K": 1000.0}, x0=np.array([100.0]))
    ds, prior, _ = logistic_case()
    forward = make_solver_forward(system, SolverConfig("rk4", 0.1), ds.times)
    logpost = make_log_posterior(ds, prior, forward)
    with pytest.raises(ValueError, match="stepper's own") as want:
        ode._stepper("rk4", 1, system.rhs, ("K",))
    with pytest.raises(ValueError) as got:
        mh_run(logpost, 1.0, McmcSettings(n_iter=200), n_iter=200,
               burn_in=40, seed=3)
    assert str(got.value) == str(want.value)
    assert not logpost.compiled()


def test_lone_solves_leave_a_chain_its_library(monkeypatch):
    # a chain builds the library of its own method and its block, with no
    # plain solve, and solves nothing outside it; lone Euler solves on the
    # same right-hand side then build the lone library, every method's
    # plain solve and no block, at their second solve, beside it, and the
    # first closure's next chain still runs compiled, with a fresh
    # closure's bits
    ds, prior, forward = logistic_case()
    system = forward.solve[0]
    if not compiled(system):
        pytest.skip("no C compiler")
    monkeypatch.setattr(ode, "_LIBRARIES", {})
    monkeypatch.setattr(ode, "_SOLVED_ONCE", set())
    settings_ = McmcSettings(n_iter=400, step_scale=0.05)
    first = make_log_posterior(ds, prior, forward)
    mh_run(first, 1.0, settings_, n_iter=400, burn_in=100, seed=5)
    key = ode._c_system(system)[0]
    chain_lib = ode._LIBRARIES[key, "rk4"]
    assert ode._LIBRARIES == {(key, "rk4"): chain_lib}
    assert ode._SOLVED_ONCE == set() and first.compiled()
    assert chain_lib.solve == {} and not hasattr(chain_lib.cdll, "solve_rk4")
    for _ in range(2):
        ode.integrate_states(system, 1.0, SolverConfig("euler", 0.1), 0.0,
                             100, (0, 100))
    lone_lib = ode._LIBRARIES[key, None]
    assert sorted(lone_lib.solve) == ["euler", "rk2", "rk4"]
    assert not hasattr(lone_lib, "block")
    assert ode._LIBRARIES == {(key, "rk4"): chain_lib, (key, None): lone_lib}

    def python_block(*args):
        raise AssertionError("a block ran on the Python stepper")
    monkeypatch.setattr(mcmc, "_block", python_block)
    fresh = make_log_posterior(ds, prior, forward)
    a, b = (mh_run(logpost, 1.0, settings_, n_iter=400, burn_in=100, seed=6)
            for logpost in (first, fresh))
    assert a.draws.tobytes() == b.draws.tobytes()
    assert a.energies.tobytes() == b.energies.tobytes()
    assert ode._LIBRARIES[key, "rk4"] is chain_lib


@pytest.mark.parametrize("model", ["logistic", "glucose"])
def test_a_compiled_chain_solves_nothing_outside_its_block(model,
                                                           monkeypatch):
    # the initial evaluation runs in the chain block too, so a compiled
    # chain never calls integrate_states, and it gives the Python stepper's
    # chain, counters included; an initial point at or below 0, one whose
    # solve blows up and one that is not finite end in the same
    # InitializationError on both paths
    ds, prior, forward = model_case(model)
    if not compiled(forward.solve[0]):
        pytest.skip("no C compiler")
    settings_ = McmcSettings(n_iter=600,
                             step_scale=0.005 if model == "logistic" else 0.5)
    init = prior.theta[0].mean
    blowup = 40.0 if model == "logistic" else 300.0
    points = (init, 0.0, -1.0, blowup, math.nan, math.inf)

    def run(x):
        logpost = make_log_posterior(ds, prior, forward)
        try:
            chain = mh_run(logpost, x, settings_, n_iter=600, burn_in=100,
                           seed=8)
        except InitializationError as exc:
            return str(exc)
        return (chain.draws.tobytes(), chain.energies.tobytes(),
                logpost.rhs_evals(), logpost.stopped_early(),
                logpost.compiled())
    with monkeypatch.context() as patch:
        on_python_stepper(patch)
        want = [run(x) for x in points]

    def no_solve(*args):
        raise AssertionError("a compiled chain solved outside its block")
    monkeypatch.setattr(bayes, "integrate_states", no_solve)
    got = [run(x) for x in points]
    assert got[0][:4] == want[0][:4] and (got[0][4], want[0][4]) \
        == (True, False)
    assert got[0][3] > 0     # the floor cut some solves short
    assert got[1:] == want[1:]
    assert all("initial point is -inf" in message for message in got[1:4])
    assert got[4:] == ["the initial point nan is not finite; start inside "
                       "the support", "the initial point inf is not finite; "
                       "start inside the support"]


def test_a_failed_build_is_remembered_per_library(monkeypatch):
    # with no compiler, the chain's library is tried once, at its first
    # block, and the lone library once, at the second solve of the chain's
    # Python burn-in: the compiler is called twice for a chain and three
    # lone solves, and the bits are the Python stepper's
    ds, prior, forward = logistic_case()
    system, config, t0, n_steps, nodes = forward.solve
    settings_ = McmcSettings(n_iter=300, step_scale=0.05)
    calls = []

    def chain_and_solves():
        chain = mh_run(make_log_posterior(ds, prior, forward), 1.0,
                       settings_, n_iter=300, burn_in=100, seed=9)
        return [chain.draws.tobytes(), chain.energies.tobytes(),
                *(ode.integrate_states(system, theta, config, t0, n_steps,
                                       nodes).tobytes()
                  for theta in (0.9, 1.0, 1.1))]
    with monkeypatch.context() as patch:
        on_python_stepper(patch)
        want = chain_and_solves()
    monkeypatch.setattr(ode, "_LIBRARIES", {})
    monkeypatch.setattr(ode, "_SOLVED_ONCE", set())

    def failing(source):
        calls.append(source)
        raise OSError("C compiler failed")
    monkeypatch.setattr(native, "compile_source", failing)
    assert chain_and_solves() == want
    assert len(calls) == 2
    assert "block" in calls[0] and "solve_" not in calls[0]
    assert "solve_" in calls[1] and "block" not in calls[1]
    key = ode._c_system(system)[0]
    assert ode._LIBRARIES == {(key, "rk4"): None, (key, None): None}


def test_processes_that_share_a_build_directory_compile_once(tmp_path,
                                                             monkeypatch):
    # two forked processes, as a sweep's pool workers, each build a glucose
    # chain's library in one shared directory: the compiler runs once, in
    # one of them, and both chains give the Python stepper's bits
    ds, prior, forward = model_case("glucose")
    if not compiled(forward.solve[0]):
        pytest.skip("no C compiler")
    settings_ = McmcSettings(n_iter=300, step_scale=0.5)

    def chain():
        logpost = make_log_posterior(ds, prior, forward)
        run = mh_run(logpost, 10.0, settings_, n_iter=300, burn_in=100,
                     seed=4)
        return (run.draws.tobytes(), run.energies.tobytes(),
                logpost.compiled())
    with monkeypatch.context() as patch:
        on_python_stepper(patch)
        want = chain()
    log, run_compiler = tmp_path / "compiles.txt", native._compile

    def logged(source, so_file):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return run_compiler(source, so_file)
    monkeypatch.setattr(native, "_compile", logged)
    shared = tmp_path / "builds"
    shared.mkdir()
    context = multiprocessing.get_context("fork")
    results = context.SimpleQueue()

    def worker():
        ode._LIBRARIES.clear()       # this process's copy only
        ode.share_builds(str(shared))
        results.put((os.getpid(), chain()))
    processes = [context.Process(target=worker) for _ in range(2)]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    assert [process.exitcode for process in processes] == [0, 0]
    got = dict(results.get() for _ in processes)
    assert sorted(got) == sorted(process.pid for process in processes)
    compilers = log.read_text().split()
    assert len(compilers) == 1 and int(compilers[0]) in got
    assert list(got.values()) == [(*want[:2], True)] * 2
    assert len(list(shared.glob("*.so"))) == 1


@pytest.mark.parametrize("model", ["logistic", "glucose"])
def test_compiled_block_matches_the_sequential_block(model):
    # the compiled block solves the next few proposals at once and walks
    # them up to the first acceptance; at every block length around its
    # lane count, kept (given draw arrays) or not, it gives mcmc._block's
    # returns, draws, energies and counters bit for bit, also where every
    # proposal is accepted, where proposals cross 0 and where solves blow up
    ds, prior, forward = model_case(model)
    if not compiled(forward.solve[0]):
        pytest.skip("no C compiler")
    n_lanes = native.lanes(forward.solve[0].dim_p)
    # a point near the posterior's mode, a scale that gets some proposals
    # accepted, and a parameter whose solve blows up
    x, scale, blowup = ((1.0, 0.01, 40.0) if model == "logistic"
                        else (10.0, 1.0, 300.0))
    rng = np.random.default_rng(29)
    cases = [(x, scale, rng.standard_normal(n), np.log(rng.random(n)))
             for n in (0, 1, n_lanes - 1, n_lanes, n_lanes + 1,
                       2 * n_lanes + 1)]
    n = 2 * n_lanes + 1
    z = rng.standard_normal(n)
    accept_all = (x, scale / 10.0, z, np.full(n, -np.inf))
    cross_zero = (scale / 2.0, scale, z, np.log(rng.random(n)))
    z = rng.standard_normal(n)
    z[::3] = (blowup - x) / scale
    blow_up = (x, scale, z, np.log(rng.random(n)))
    k = 2 * len(cases)     # where the all-accepting case's blocks land
    cases += [accept_all, cross_zero, blow_up]
    seen = []
    for (x, scale, z, log_u), kept in itertools.product(cases,
                                                         (True, False)):
        compiled_, sequential = (make_log_posterior(ds, prior, forward)
                                 for _ in range(2))
        lp = compiled_(x)
        assert sequential(x) == lp and math.isfinite(lp)
        arrays = [np.full(len(z), np.nan) if kept else None
                  for _ in range(4)]
        got = compiled_.run_block(x, lp, scale, z, log_u, *arrays[:2])
        want = mcmc._block(lambda v, floor: sequential(v, floor), x, lp,
                           scale, z, log_u, *arrays[2:])
        assert np.array(got).tobytes() == np.array(want).tobytes()
        if kept:
            assert arrays[0].tobytes() == arrays[2].tobytes()
            assert arrays[1].tobytes() == arrays[3].tobytes()
        assert (compiled_.rhs_evals(), compiled_.stopped_early()) \
            == (sequential.rhs_evals(), sequential.stopped_early())
        assert compiled_.compiled()
        seen.append((got[2], len(z), compiled_.stopped_early()))
    # the cases reach what they name: blocks that accept some proposals but
    # not all, solves stopped at a floor, the all-accepting case's every
    # proposal accepted, proposals at or below 0, and solves that blow up,
    # which the closure scores -inf inside the prior's support
    assert any(0 < accepted < length for accepted, length, _ in seen)
    assert any(stopped for _, _, stopped in seen)
    assert [accepted for accepted, _, _ in seen[k:k + 2]] == [n, n]
    x, scale, z, _ = cross_zero
    assert (x + scale * z <= 0.0).any()
    x, scale, z, _ = blow_up
    assert make_log_posterior(ds, prior, forward)(x + scale * z[0]) \
        == -math.inf
    assert math.isfinite(prior.theta[0].logpdf(x + scale * z[0]))


@pytest.mark.parametrize("case", ["z and log_u", "draws alone"])
def test_compiled_block_refuses_arrays_it_cannot_take(case):
    # a ValueError before the block runs: no counter moves, nothing is
    # written
    ds, prior, forward = logistic_case()
    if not compiled(forward.solve[0]):
        pytest.skip("no C compiler")
    logpost = make_log_posterior(ds, prior, forward)
    lp = logpost(1.0)
    z, log_u = np.ones(4), np.full(4, -np.inf)
    draws, energies = np.full(4, np.nan), np.full(4, np.nan)
    if case == "z and log_u":
        log_u = log_u[:3]
    else:
        energies = None
    counters = logpost.rhs_evals(), logpost.stopped_early()
    with pytest.raises(ValueError):
        logpost.run_block(1.0, lp, 0.01, z, log_u, draws, energies)
    assert (logpost.rhs_evals(), logpost.stopped_early()) == counters
    assert np.isnan(draws).all()
    if energies is not None:
        assert np.isnan(energies).all()
    # the same block with arrays it takes runs, and accepts every proposal
    want = mcmc._block(lambda x, floor: logpost(x, floor), 1.0, lp, 0.01, z,
                       z * -np.inf, None, None)
    got = logpost.run_block(1.0, lp, 0.01, z, z * -np.inf, draws,
                            np.empty(4))
    assert got == want and got[2] == 4 and logpost.compiled()


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
