"""Gaussian observation likelihood, Gamma priors, and posterior assembly.

Observations are modelled as y_i = f(X_theta(t_i)) + eps_i with iid Gaussian
noise of standard deviation sigma.  A *forward map* is any callable
``theta -> predicted observables at the dataset times``; factories below
build one from the closed-form solution (when a model has one) or from a
solver configuration, so the same likelihood code serves both the exact and
the discretised model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import NonFiniteState, NonMonotoneTimes
from .models import LogisticParams, logistic_exact
from .ode import METHOD_STAGES, SolverConfig, check_grid, integrate_states

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class Dataset:
    """Observation times and values, with the noise scale when it is known."""

    times: np.ndarray
    values: np.ndarray
    sigma_fixed: Optional[float] = None

    def __post_init__(self):
        self.times = np.atleast_1d(np.asarray(self.times, dtype=float))
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.times.shape != self.values.shape or self.times.size < 1:
            raise ValueError("times and values must be equal-length, non-empty")
        if np.any(np.diff(self.times) <= 0.0):
            raise NonMonotoneTimes("observation times must be strictly increasing")
        if not np.all(np.isfinite(self.values)) or not np.all(np.isfinite(self.times)):
            raise ValueError("observations must be finite")
        if self.sigma_fixed is not None and not self.sigma_fixed > 0.0:
            raise ValueError("sigma_fixed must be positive")

    @property
    def n(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class ParamVector:
    """Inferred ODE parameters plus the (fixed) noise scale."""

    theta: np.ndarray
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "theta",
                           np.atleast_1d(np.asarray(self.theta, dtype=float)))
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class GammaPrior:
    """Gamma(shape k, rate r) density on the open half-line."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (0.0 < self.shape < math.inf and 0.0 < self.rate < math.inf):
            raise ValueError("shape and rate must be finite and positive")

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def sd(self) -> float:
        return math.sqrt(self.shape) / self.rate

    def logpdf(self, x: float) -> float:
        if x <= 0.0:
            return -math.inf
        return (self.shape * math.log(self.rate) - math.lgamma(self.shape)
                + (self.shape - 1.0) * math.log(x) - self.rate * x)


@dataclass(frozen=True)
class Prior:
    """Independent Gamma components, one per theta coordinate."""

    theta: Tuple[GammaPrior, ...]


def log_prior(prior: Prior, phi: ParamVector) -> float:
    if len(prior.theta) != phi.theta.size:
        raise ValueError("prior has wrong number of theta components")
    total = 0.0
    for comp, value in zip(prior.theta, phi.theta):
        total += comp.logpdf(float(value))
        if total == -math.inf:
            return -math.inf
    return total


def log_likelihood(dataset: Dataset, phi: ParamVector, forward: Callable) -> float:
    """Gaussian log-likelihood of the dataset under the forward map.

    A forward solve that blows up (NonFiniteState) means the parameter gives
    the data zero likelihood: returns -inf rather than propagating.
    """
    try:
        pred = forward(phi.theta)
    except NonFiniteState:
        return -math.inf
    resid = dataset.values - pred
    ss = float(resid @ resid)
    if not math.isfinite(ss):   # a non-finite residual, or one too large to square
        return -math.inf
    n = dataset.n
    sigma = phi.sigma
    return (-n * math.log(sigma) - 0.5 * n * LOG_2PI
            - 0.5 * ss / (sigma * sigma))


def log_posterior_unnorm(dataset: Dataset, prior: Prior, phi: ParamVector,
                         forward: Callable) -> float:
    """log prior + log likelihood; skips the forward solve off prior support."""
    lp = log_prior(prior, phi)
    if lp == -math.inf:
        return -math.inf
    return lp + log_likelihood(dataset, phi, forward)


def make_log_posterior(dataset: Dataset, prior: Prior,
                       forward: Callable) -> Callable:
    """x -> unnormalised log posterior at theta = x, with the noise scale
    fixed at ``dataset.sigma_fixed``; x is a float.

    The one closure behind both the chains and the quadrature oracles.  It
    is pure and deterministic, which is what lets stored chain energies be
    recomputed bit for bit.  On a forward map from ``make_solver_forward``
    and a one-parameter prior it is one fused function: the Gamma log
    density with its constant precomputed, one ``integrate_states`` call and
    the residual sum of squares, the same float operations as
    ``log_posterior_unnorm``.  Its ``rhs_evals()`` gives the right-hand-side
    evaluations of the solves it has run, n_steps times the method's stages
    each.  Any other forward map or prior goes through
    ``log_posterior_unnorm``.
    """
    if dataset.sigma_fixed is None:
        raise ValueError("the log posterior needs dataset.sigma_fixed")
    sigma = dataset.sigma_fixed
    solve = getattr(forward, "solve", None)
    if solve is None or len(prior.theta) != 1:
        def logpost(x) -> float:
            return log_posterior_unnorm(dataset, prior, ParamVector(x, sigma),
                                        forward)
        return logpost

    system, config, t0, n_steps, nodes = solve
    obs, values = system.obs, dataset.values
    # logpdf is ((k log r - lgamma k) + (k - 1) log x) - r x
    gamma, = prior.theta
    c = gamma.shape * math.log(gamma.rate) - math.lgamma(gamma.shape)
    k1, r = gamma.shape - 1.0, gamma.rate
    n = dataset.n
    ll0 = -n * math.log(sigma) - 0.5 * n * LOG_2PI
    var = sigma * sigma
    n_solves = 0

    def logpost(x) -> float:
        nonlocal n_solves
        v = float(x)
        if v <= 0.0:
            return -math.inf
        lp = c + k1 * math.log(v) - r * v
        if lp == -math.inf:
            return lp
        n_solves += 1
        try:
            pred = obs(integrate_states(system, (v,), config, t0, n_steps, nodes))
        except NonFiniteState:
            return lp - math.inf
        resid = values - pred
        ss = float(resid.dot(resid))   # the BLAS dot that ``@`` runs
        if not math.isfinite(ss):
            return lp - math.inf
        return lp + (ll0 - 0.5 * ss / var)
    stages = METHOD_STAGES[config.method]
    logpost.rhs_evals = lambda: n_solves * n_steps * stages
    return logpost


# ---------------------------------------------------------------------------
# forward-map factories
# ---------------------------------------------------------------------------

def make_solver_forward(system, config: SolverConfig, times) -> Callable:
    """Forward map through a fixed-step solve anchored at the first time.

    Grid admissibility (h divides every observation gap) is checked here,
    once, at build time, and the observation node indices are frozen with
    it; each call then solves only as far as it must and keeps the states at
    those nodes.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    check_grid(config.h, times)
    t0 = float(times[0])
    idx = tuple(int(i) for i in np.rint((times - t0) / config.h))
    n_steps = idx[-1]
    obs = system.obs

    def forward(theta):
        return obs(integrate_states(system, theta, config, t0, n_steps, idx))
    forward.solve = (system, config, t0, n_steps, idx)
    return forward


def make_logistic_exact_forward(params: LogisticParams, times) -> Callable:
    """Forward map through the closed-form logistic solution."""
    times = np.atleast_1d(np.asarray(times, dtype=float))

    def forward(theta):
        return logistic_exact(times, replace(params, lam=float(theta[0])))
    return forward


# ---------------------------------------------------------------------------
# discretisation diagnostics
# ---------------------------------------------------------------------------

def likelihood_ratio(dataset: Dataset, phi: ParamVector, forward_h: Callable,
                     forward_exact: Callable) -> float:
    """R_h = L_h / L_exact at one parameter point.

    |R_h - 1| shrinks like h^p when the solver converges with order p, so
    log-log slopes of this ratio against h are an end-to-end order check on
    the whole likelihood pipeline.
    """
    return math.exp(log_likelihood(dataset, phi, forward_h)
                    - log_likelihood(dataset, phi, forward_exact))
