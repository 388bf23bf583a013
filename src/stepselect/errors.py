"""Exception and warning types shared across the package."""

from __future__ import annotations


class StepSelectError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatch(StepSelectError):
    """Step size does not divide the target time grid."""


class NonFiniteState(StepSelectError):
    """Integration produced a NaN or infinite state component."""

    def __init__(self, t: float, step_index: int, theta=None):
        self.t = float(t)
        self.step_index = int(step_index)
        self.theta = None if theta is None else tuple(float(v) for v in theta)
        msg = f"non-finite state at t={self.t:.6g} (step {self.step_index})"
        if self.theta is not None:
            msg += f" for theta={self.theta}"
        super().__init__(msg)


class DegenerateFit(StepSelectError):
    """Convergence-order fit is meaningless (errors at floating-point noise)."""


class InitializationError(StepSelectError):
    """Sampler started from a point with zero posterior mass."""


class BoundsTooTight(StepSelectError):
    """Quadrature bounds truncate non-negligible posterior mass."""


class IllConditionedFit(StepSelectError):
    """Evidence-curve regression grid spans too narrow an h^p range."""


class ParseError(StepSelectError):
    """Malformed observation file or experiment spec."""


class NonMonotoneTimes(StepSelectError):
    """Observation times are not strictly increasing."""


class StuckChainWarning(UserWarning):
    """Post burn-in acceptance rate below 1%."""


class InfiniteVarianceWarning(UserWarning):
    """Evidence estimator terms dominated by a few draws; variance suspect."""


class DegenerateSampleWarning(UserWarning):
    """KDE input sample is (numerically) degenerate; jitter was applied."""
