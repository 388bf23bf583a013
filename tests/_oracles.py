"""Closed-form reference problems used by unit and acceptance tests.

The conjugate model y_i = theta + eps, eps ~ N(0, sigma^2), theta ~ N(m0,
s0^2) has every quantity the estimators are supposed to reproduce available
in closed form: the posterior is N(mu_n, s_n^2) and the evidence is the
multivariate normal density of y under mean m0*1 and covariance
sigma^2 I + s0^2 11'.  Evidence estimators can therefore be fed exact iid
posterior draws, isolating estimator error from sampler error.

``rhs_function`` turns a system's source-form right-hand side into a plain
function, the reference the generated steppers are compared against.
``harmonic_mean`` is the classical estimator that the Gelfand-Dey KDE
estimator is compared against.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.stats

from stepselect.evidence import EvidenceEstimate, gelfand_dey


@dataclass(frozen=True)
class ConjugateNormal:
    m0: float
    s0: float
    sigma: float
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def posterior_var(self) -> float:
        return 1.0 / (1.0 / self.s0 ** 2 + self.n / self.sigma ** 2)

    @property
    def posterior_mean(self) -> float:
        return self.posterior_var * (self.m0 / self.s0 ** 2
                                     + self.y.sum() / self.sigma ** 2)

    def log_evidence(self) -> float:
        cov = (self.sigma ** 2 * np.eye(self.n)
               + self.s0 ** 2 * np.ones((self.n, self.n)))
        return float(scipy.stats.multivariate_normal.logpdf(
            self.y, mean=np.full(self.n, self.m0), cov=cov))

    def log_prior(self, theta: np.ndarray) -> np.ndarray:
        return (-0.5 * math.log(2 * math.pi * self.s0 ** 2)
                - 0.5 * (theta - self.m0) ** 2 / self.s0 ** 2)

    def log_likelihood(self, theta: np.ndarray) -> np.ndarray:
        theta = np.atleast_1d(theta)
        return (-0.5 * self.n * math.log(2 * math.pi * self.sigma ** 2)
                - 0.5 * ((self.y[None, :] - theta[:, None]) ** 2).sum(axis=1)
                / self.sigma ** 2)

    def energies(self, theta: np.ndarray) -> np.ndarray:
        return -(self.log_prior(theta) + self.log_likelihood(theta))

    def posterior_draws(self, n_draws: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return (self.posterior_mean
                + math.sqrt(self.posterior_var) * rng.standard_normal(n_draws))

    def posterior_logpdf(self, theta: np.ndarray) -> np.ndarray:
        v = self.posterior_var
        return (-0.5 * math.log(2 * math.pi * v)
                - 0.5 * (theta - self.posterior_mean) ** 2 / v)


def default_case() -> ConjugateNormal:
    rng = np.random.default_rng(99)
    m0, s0, sigma, n = 2.0, 3.0, 1.5, 8
    y = m0 + s0 * 0.7 + sigma * rng.standard_normal(n)
    return ConjugateNormal(m0=m0, s0=s0, sigma=sigma, y=y)


def harmonic_mean(energies, log_prior_fn, draws) -> EvidenceEstimate:
    """Gelfand-Dey with alpha = prior: the harmonic mean of the likelihoods
    at the 1-D ``draws``, whose variance can be infinite."""
    log_alpha = np.array([float(log_prior_fn(x)) for x in draws])
    return replace(gelfand_dey(energies, log_alpha), method="harmonic_mean")


def rhs_function(system):
    """(x, theta) -> dx/dt of ``system`` at the parameter ``theta``, a
    float, with x and dx tuples of dim_p floats, by running its
    right-hand-side lines with exec on every call."""
    code = compile("\n".join(system.rhs), "<rhs>", "exec")
    p = system.dim_p

    def rhs(x, theta):
        names = dict(system.consts, theta_0=theta)
        if p == 1:
            names["x"] = x[0]
        else:
            names.update((f"x_{j}", v) for j, v in enumerate(x))
        exec(code, {}, names)
        if p == 1:
            return (names["dx"],)
        return tuple(names[f"dx_{j}"] for j in range(p))
    return rhs
