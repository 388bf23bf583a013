"""Forward models: logistic growth and a four-state glucose-insulin system.

Each model ships as an :class:`OdeSystem` bundling the right-hand side, the
observation map (what the data actually measures) and the initial state.
The parameter vector ``theta`` passed to the right-hand side holds only the
inferred coordinates; everything else is frozen into the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class OdeSystem:
    """An autonomous-in-shape ODE with an observation map.

    Attributes
    ----------
    dim_p : state dimension.
    dim_d : number of inferred parameters (length of theta).
    rhs : callable (x, t, theta) -> dx/dt, with theta a tuple of floats.  For
        dim_p == 1 the state x and the result are floats; otherwise both are
        tuples of dim_p floats.
    obs : observation map; takes states with the state on the last axis and
        returns the observed scalar(s), so it works on single states and on
        whole trajectories alike.
    x0 : initial state, ndarray of shape (dim_p,).
    """

    dim_p: int
    dim_d: int
    rhs: Callable
    obs: Callable
    x0: np.ndarray


# ---------------------------------------------------------------------------
# logistic growth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogisticParams:
    """Growth-rate form dX/dt = lam * X * (1 - X/K), X(0) = X0."""

    lam: float = 1.0
    K: float = 1000.0
    X0: float = 100.0

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.lam, self.K, self.X0)):
            raise ValueError("lam, K and X0 must all be finite and positive")


def logistic_exact(t, params: LogisticParams):
    """Closed-form solution X(t) = K*X0 / (X0 + (K - X0) exp(-lam t)).

    Written in the decaying-exponential form so large lam*t never overflows;
    vectorized over t.
    """
    t = np.asarray(t, dtype=float)
    return params.K * params.X0 / (params.X0 + (params.K - params.X0)
                                   * np.exp(-params.lam * t))


def make_logistic_system(params: LogisticParams) -> OdeSystem:
    """Logistic system with theta = [lam] inferred; K and X0 fixed."""
    K = params.K

    def rhs(x, t, theta):
        return theta[0] * x * (1.0 - x / K)

    return OdeSystem(dim_p=1, dim_d=1, rhs=rhs, obs=lambda s: s[..., 0],
                     x0=np.array([params.X0]))


# ---------------------------------------------------------------------------
# glucose-insulin minimal model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GlucoseParams:
    """Constants of the four-state glucose model.

    State (G, I, L, D): plasma glucose, the insulin-driven removal action,
    the liver release action, and the gut glucose deposit.  theta0 (insulin
    response gain) is the inferred parameter; the rest stay fixed.
    """

    theta0: float = 10.0
    theta1: float = 26.6
    theta2: float = 0.2
    a: float = 1.0
    b: float = 2.0
    Gb: float = 80.0

    def __post_init__(self):
        for name in ("theta0", "theta1", "theta2", "a", "b", "Gb"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")


def make_glucose_system(params: GlucoseParams, d0: float,
                        D0: float = 200.0) -> OdeSystem:
    """Glucose system with theta = [theta0] inferred.

    The initial state is (d0, 0, 0, D0): glucose anchored at the first
    observed value d0, no insulin or liver action yet, and the full dose D0
    sitting in the gut.  Only the glucose component is observed.
    """
    if d0 <= 0.0:
        raise ValueError("initial glucose d0 must be positive")
    if D0 < 0.0:
        raise ValueError("initial deposit D0 must be non-negative")
    theta1, theta2, a, b, Gb = (params.theta1, params.theta2, params.a,
                                params.b, params.Gb)

    def rhs(x, t, theta):
        """dG = (L - I) G + D/theta2; insulin and liver terms switch at G = Gb.

        The positive parts are exact clamps, not smooth approximations: below
        basal glucose the insulin response is off, above it the liver release
        is off.
        """
        g, i, l, d = x
        over = g / Gb - 1.0
        return ((l - i) * g + d / theta2,
                theta[0] * (over if over > 0.0 else 0.0) - i / a,
                theta1 * (-over if over < 0.0 else 0.0) - l / b,
                -d / theta2)

    return OdeSystem(dim_p=4, dim_d=1, rhs=rhs, obs=lambda s: s[..., 0],
                     x0=np.array([d0, 0.0, 0.0, float(D0)]))
