"""Gaussian observation likelihood, a Gamma prior, and posterior assembly.

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

from . import mcmc, ode
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
        if self.sigma_fixed is not None and not (
                self.sigma_fixed > 0.0
                and self.sigma_fixed * self.sigma_fixed > 0.0):
            raise ValueError("sigma_fixed must be positive, with a square "
                             "that does not underflow to zero")

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
    """The Gamma prior of the one inferred parameter, as a one-element
    tuple ``(GammaPrior(...),)``."""

    theta: Tuple[GammaPrior, ...]


def log_posterior_unnorm(dataset: Dataset, prior: Prior, phi: ParamVector,
                         forward: Callable) -> float:
    """Gamma log prior plus Gaussian log-likelihood of the dataset under the
    forward map, at the one parameter of ``phi``.

    Skips the forward solve off the prior's support.  A forward solve that
    blows up (NonFiniteState) means the parameter gives the data zero
    likelihood: returns -inf rather than propagating.  A prior or parameter
    vector of other than one component is a ValueError.
    """
    gamma, = prior.theta
    x, = phi.theta
    lp = gamma.logpdf(float(x))
    if lp == -math.inf:
        return -math.inf
    try:
        pred = forward(phi.theta)
    except NonFiniteState:
        return lp - math.inf
    ss = _sum_of_squares((dataset.values - pred).tolist())
    if not math.isfinite(ss):   # a non-finite residual, or one too large to square
        return lp - math.inf
    n = dataset.n
    sigma = phi.sigma
    return lp + (-n * math.log(sigma) - 0.5 * n * LOG_2PI
                 - 0.5 * ss / (sigma * sigma))


def _sum_of_squares(residuals) -> float:
    """The residuals' sum of squares, added up node by node from the first:
    the sum a capped solve forms as it goes, in Python and in C alike, and
    unlike a BLAS dot it does not depend on the host's kernel."""
    ss = 0.0
    for d in residuals:
        ss += d * d
    return ss


def make_log_posterior(dataset: Dataset, prior: Prior,
                       forward: Callable) -> Callable:
    """(x, floor=-inf) -> unnormalised log posterior at theta = x, with the
    noise scale fixed at ``dataset.sigma_fixed``; x is a float.

    The one closure behind both the chains and the quadrature oracles.  It
    returns the exact value, or some value below ``floor`` when the exact
    value is below ``floor``: a Metropolis chain that passes its acceptance
    threshold as the floor makes the same decisions as with the exact
    value.  It is pure and deterministic, which is what lets stored chain
    energies be recomputed bit for bit.

    On a forward map from ``make_solver_forward`` it is one fused function:
    the Gamma log density with its constant precomputed, one
    ``integrate_states`` call and the residual sum of squares, the same
    float operations as ``log_posterior_unnorm``.  The Gaussian residual sum
    only grows from node to node, so a finite floor becomes a cap on it, and
    the solve stops once its partial sum proves the value below the floor
    (early rejection, Solonen et al. 2012); the closure then returns -inf.
    Every value it returns otherwise has the same bits as without a floor.
    Its ``rhs_evals()`` gives the right-hand-side evaluations of the steps
    its solves took and ``stopped_early()`` the number of solves a floor cut
    short.

    The fused closure also has ``run_block(x, lp, scale, z, log_u, draws,
    energies)``, which runs one block of ``mcmc.mh_run``'s Metropolis loop,
    this closure's evaluations included, with ``mcmc._block``'s arguments,
    bits and counts.  It runs the block in the chain library of the
    right-hand side and the closure's method, which solves proposals ahead
    of the Metropolis test while ``rhs_evals()`` and ``stopped_early()``
    count only the solves the loop used, and where there is no library in
    ``mcmc._block`` over the closure.  A chain builds that library at its
    first block, at once, and solves nothing outside its blocks: ``mh_run``
    evaluates the initial point in a block too (see ``ode._library``).
    ``compiled()`` tells whether its blocks run compiled.  Any other
    forward map goes through ``log_posterior_unnorm`` and ignores the
    floor.
    """
    if dataset.sigma_fixed is None:
        raise ValueError("the log posterior needs dataset.sigma_fixed")
    sigma = dataset.sigma_fixed
    solve = getattr(forward, "solve", None)
    if solve is None:
        def logpost(x, floor=-math.inf) -> float:
            return log_posterior_unnorm(dataset, prior, ParamVector(x, sigma),
                                        forward)
        return logpost

    system, config, t0, n_steps, nodes = solve
    observed = tuple(dataset.values.tolist())
    # logpdf is ((k log r - lgamma k) + (k - 1) log x) - r x
    gamma, = prior.theta
    c = gamma.shape * math.log(gamma.rate) - math.lgamma(gamma.shape)
    k1, r = gamma.shape - 1.0, gamma.rate
    n = dataset.n
    ll0 = -n * math.log(sigma) - 0.5 * n * LOG_2PI
    var = sigma * sigma
    n_steps_taken = n_stopped = 0
    chain = []         # the compiled chain block's structure and its arrays

    def logpost(x, floor=-math.inf) -> float:
        nonlocal n_steps_taken, n_stopped
        v = float(x)
        if v <= 0.0:
            return -math.inf
        lp = c + k1 * math.log(v) - r * v
        if lp == -math.inf:
            return lp
        # value < floor once ss > 2 var (lp + ll0 - floor); the margin
        # covers the rounding of the value and of the chain's difference of
        # two values (``native._BLOCK_C`` computes the same cap)
        top = lp + ll0
        cap = 2.0 * var * (top - floor
                           + 1e-9 * (1.0 + abs(top) + abs(floor)))
        try:
            states = integrate_states(system, v, config, t0, n_steps, nodes,
                                      observed, cap)
        except NonFiniteState:
            n_steps_taken += n_steps
            return lp - math.inf
        n_steps_taken += nodes[len(states) - 1]
        if len(states) < len(nodes):
            n_stopped += 1
            return -math.inf
        ss = _sum_of_squares([y - s for y, s
                              in zip(observed, states[:, 0].tolist())])
        if not math.isfinite(ss):
            return lp - math.inf
        return lp + (ll0 - 0.5 * ss / var)

    def run_block(x, lp, scale, z, log_u, draws, energies):
        lib, csys = ode._library(system, config.method)
        if lib is None:
            return mcmc._block(logpost, x, lp, scale, z, log_u, draws,
                               energies)
        if not chain:
            chain.extend(lib.chain_post(
                csys, config.h, n_steps, ode._checked_nodes(nodes, n_steps),
                observed, c, k1, r, ll0, var))
        return lib.run_block(chain[0], x, lp, scale, z, log_u, draws,
                             energies)

    stages = METHOD_STAGES[config.method]
    logpost.rhs_evals = lambda: stages * (
        n_steps_taken + (chain[0].steps if chain else 0))
    logpost.stopped_early = lambda: n_stopped + (
        chain[0].stopped if chain else 0)
    logpost.run_block = run_block
    logpost.compiled = lambda: bool(chain)
    return logpost


# ---------------------------------------------------------------------------
# forward-map factories
# ---------------------------------------------------------------------------

def make_solver_forward(system, config: SolverConfig, times) -> Callable:
    """Forward map through a fixed-step solve anchored at the first time.

    Grid admissibility (h divides every observation gap) is checked here,
    once, at build time, and the observation node indices are frozen with
    it; each call then solves only as far as it must and keeps the states at
    those nodes.  It is called on a one-element parameter array.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    check_grid(config.h, times)
    t0 = float(times[0])
    idx = tuple(int(i) for i in np.rint((times - t0) / config.h))
    n_steps = idx[-1]

    def forward(theta):
        return integrate_states(system, float(theta[0]), config, t0, n_steps,
                                idx)[:, 0]
    forward.solve = (system, config, t0, n_steps, idx)
    return forward


def make_logistic_exact_forward(params: LogisticParams, times) -> Callable:
    """Forward map through the closed-form logistic solution."""
    times = np.atleast_1d(np.asarray(times, dtype=float))

    def forward(theta):
        return logistic_exact(times, replace(params, lam=float(theta[0])))
    return forward
