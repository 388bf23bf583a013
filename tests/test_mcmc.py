"""Sampler correctness, cost accounting, diagnostics, serialization."""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.stats

from stepselect import Chain, McmcSettings, effective_sample_size, mh_run
from stepselect.errors import InitializationError, ParseError, StuckChainWarning
from stepselect.harness import ExperimentSpec, load_chain_csv, save_chain_csv


def std_normal_logpdf(x):
    return -0.5 * x ** 2


def run(log_posterior, init=0.0, seed=0, **settings):
    """A chain under McmcSettings(**settings), burn-in resolved as the
    harness resolves it."""
    s = McmcSettings(**settings)
    return mh_run(log_posterior, init, s, n_iter=s.n_iter,
                  burn_in=s.resolved_burn_in(), seed=seed)


def run_normal(n_iter=40000, seed=11, scale=1.0, adapt=True):
    return run(std_normal_logpdf, seed=seed, n_iter=n_iter, step_scale=scale,
               adapt=adapt)


# ---------------------------------------------------------------------------
# stationary distribution
# ---------------------------------------------------------------------------

def test_samples_standard_normal():
    chain = run_normal()
    x = chain.draws[:, 0]
    n_eff = effective_sample_size(x)
    assert n_eff > 500
    # mean and sd against their Monte Carlo uncertainty (3 sigma)
    assert abs(x.mean()) < 3.0 / math.sqrt(n_eff)
    assert abs(x.std() - 1.0) < 3.0 / math.sqrt(2 * n_eff)
    # distribution shape: KS on a thinned subsample
    thin = x[::40]
    p = scipy.stats.kstest(thin, "norm").pvalue
    assert p > 1e-3


def test_energies_track_log_posterior():
    # stored energies must replay bit for bit through the same callable
    chain = run_normal(n_iter=2000)
    recomputed = np.array([-std_normal_logpdf(v)
                           for v in chain.draws[:, 0].tolist()])
    assert np.array_equal(chain.energies, recomputed)


def test_exactly_one_evaluation_per_iteration():
    calls = []

    def counting(x):
        calls.append(1)
        return std_normal_logpdf(x)

    run(counting, n_iter=500, step_scale=1.0)
    # one evaluation for the initial point, then one per iteration
    assert len(calls) == 501


def test_log_posterior_gets_a_float_at_every_call():
    # the chain's state is a Python float, from an integer init on
    seen = []

    def recording(x):
        seen.append(type(x))
        return std_normal_logpdf(x)

    chain = run(recording, init=0, n_iter=500, step_scale=1.0)
    assert len(seen) == 501 and set(seen) == {float}
    assert chain.draws.shape == (400, 1)


def test_deterministic_given_seed():
    a = run_normal(n_iter=3000, seed=5)
    b = run_normal(n_iter=3000, seed=5)
    c = run_normal(n_iter=3000, seed=6)
    assert np.array_equal(a.draws, b.draws)
    assert np.array_equal(a.energies, b.energies)
    assert not np.array_equal(a.draws, c.draws)


def test_initialization_off_support_raises():
    with pytest.raises(InitializationError):
        run(lambda x: -math.inf, n_iter=100, step_scale=1.0)


def test_default_burn_in_is_a_fifth():
    assert McmcSettings(n_iter=200).resolved_burn_in() == 40
    assert McmcSettings(n_iter=200, burn_in=0).resolved_burn_in() == 0
    chain = run(std_normal_logpdf, init=0.25, n_iter=200, step_scale=1.0)
    assert chain.n_draws == 160


def test_burn_in_validation():
    with pytest.raises(ValueError):
        mh_run(std_normal_logpdf, 0.0, McmcSettings(step_scale=1.0),
               n_iter=10, burn_in=10)


def test_proposal_config_validation():
    # the proposal's settings are checked where the spec is read, and the
    # error names the field
    for bad, named in ([({"step_scale": v}, "mcmc.step_scale")
                        for v in (-1.0, math.inf, math.nan)]
                       + [({"target_accept": 1.5}, "mcmc.target_accept"),
                          ({"adapt_window": 0}, "mcmc.adapt_window")]):
        with pytest.raises(ParseError, match=re.escape(named)):
            ExperimentSpec(mcmc=McmcSettings(**bad))


# ---------------------------------------------------------------------------
# adaptation
# ---------------------------------------------------------------------------

def test_adaptation_recovers_from_bad_scale():
    # start 50x too wide; burn-in adaptation must pull acceptance into range
    chain = run_normal(n_iter=20000, scale=50.0)
    assert 0.15 <= chain.accept_rate <= 0.5
    assert chain.step_scale != 50.0


def test_no_adaptation_when_disabled():
    chain = run_normal(n_iter=2000, scale=0.7, adapt=False)
    assert chain.step_scale == 0.7


def test_stuck_chain_warns():
    def spike(x):
        return 0.0 if abs(x) < 1e-12 else -math.inf

    with pytest.warns(StuckChainWarning):
        run(spike, seed=1, n_iter=300, step_scale=1.0, adapt=False)


# ---------------------------------------------------------------------------
# effective sample size
# ---------------------------------------------------------------------------

def test_ess_iid_close_to_n():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(4000)
    ess = effective_sample_size(x)
    assert 0.6 * 4000 <= ess <= 4000


def test_ess_ar1_matches_theory():
    # AR(1) with coefficient rho has integrated time (1+rho)/(1-rho)
    rho, n = 0.9, 60000
    rng = np.random.default_rng(8)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0]
    for i in range(1, n):
        x[i] = rho * x[i - 1] + math.sqrt(1 - rho * rho) * eps[i]
    ess = effective_sample_size(x)
    expected = n * (1 - rho) / (1 + rho)
    assert expected / 1.5 <= ess <= expected * 1.5


def test_ess_constant_chain():
    assert effective_sample_size(np.ones(100)) == 1.0


def test_ess_short_input():
    assert effective_sample_size(np.array([1.0])) == 1.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def roundtrip(chain, tmp_path):
    path = tmp_path / "chain.csv"
    save_chain_csv(chain, path)
    return load_chain_csv(path)


def test_chain_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    draws = np.concatenate([rng.standard_normal((50, 1)) * 1e-8,
                            rng.standard_normal((50, 1)) * 1e8])
    energies = rng.standard_normal(100) * 300.0
    chain = Chain(draws=draws, energies=energies, accept_rate=0.3,
                  wall_clock_seconds=0.0, step_scale=1.0, process_seconds=0.0)
    d2, e2 = roundtrip(chain, tmp_path)
    assert np.array_equal(d2, draws)
    assert np.array_equal(e2, energies)


def test_chain_csv_parse_errors(tmp_path):
    p = tmp_path / "bad.csv"
    for body in ("wrong,header\n",
                 "index,theta_0,theta_1,energy\n0,1.0,2.0,3.0\n",
                 "index,theta_0,energy\n0,1.0\n",
                 "index,theta_0,energy\n0,abc,1.0\n",
                 "index,theta_0,energy\n",
                 "index,theta_0,energy\n# note\n0,1.0,2.0\n",
                 "index,theta_0,energy\n0,1.0,2.0,\n",
                 "index,theta_0,energy\n0,1.0,2.0\n1,1.0\n",
                 "index,theta_0,energy\n0,1.0,\xff\n",
                 "index,theta_0,energy\n0,nan,2.0\n"):
        p.write_bytes(body.encode("latin-1"))
        # the empty table also raises, and lets no warning escape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError):
                load_chain_csv(p)
