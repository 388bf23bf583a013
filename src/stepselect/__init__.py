"""stepselect: pick the coarsest ODE solver step whose Bayesian inference
is indistinguishable from the exact model.

Fixed-step solvers of order p shift posterior and marginal-likelihood values
by O(h^p).  This package estimates per-step marginal likelihoods from MCMC
output, extrapolates them to h -> 0 by regression on h^p, and recommends the
largest step whose Bayes factor against the extrapolated exact model stays
inside the Jeffreys window.
"""

# numpy loads these on first use (np.random.default_rng, np.percentile).
# Loading them with the package lets the forked pool workers of a parallel
# sweep inherit them, instead of each importing them inside its first step.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .bayes import (Dataset, GammaPrior, ParamVector, Prior, likelihood_ratio,
                    log_likelihood, log_posterior_unnorm, log_prior,
                    make_log_posterior, make_logistic_exact_forward,
                    make_solver_forward)
from .errors import (BoundsTooTight, DegenerateFit, DegenerateSampleWarning,
                     GridMismatch, IllConditionedFit, InfiniteVarianceWarning,
                     InitializationError, NonFiniteState, NonMonotoneTimes,
                     ParseError, StepSelectError, StuckChainWarning)
from .evidence import (EvidenceEstimate, GridSpec, KdeDensity, bracket_bounds,
                       evidence_from_chain, gelfand_dey, harmonic_mean,
                       kde_fit, posterior_window, quadrature_marginal,
                       subsample_draws)
from .mcmc import Chain, McmcSettings, effective_sample_size, mh_run
from .models import (GlucoseParams, LogisticParams, OdeSystem, logistic_exact,
                     make_glucose_system, make_logistic_system)
from .ode import (METHOD_ORDERS, SolverConfig, check_grid, divides,
                  estimate_order, integrate_states)
from .stepfit import (EvidenceCurve, build_report, fit_curve,
                      posterior_discrepancy)

__version__ = "0.1.0"
