"""Forward models: logistic growth and a four-state glucose-insulin system.

Each model ships as an :class:`OdeSystem` bundling the right-hand side and
the initial state; the data observe the first state component.
The right-hand side is written once, as source lines that the integrator
pastes into its generated step loop (see ``ode._stepper``).  It reads the
one inferred parameter as ``theta_0``; everything else is frozen into the
system as named float constants, so a JSON int such as ``"K": 1000`` gives
the same system as ``1000.0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True, eq=False)
class OdeSystem:
    """An autonomous ODE whose data observe its first state component.

    A system is fixed once built: the integrator reads its right-hand side,
    constants and initial state once per method and keeps them (systems
    compare and hash by identity).

    Attributes
    ----------
    dim_p : state dimension.
    rhs : dx/dt as Python source lines.  They read the state as ``x`` (for
        dim_p > 1 its components ``x_0``, ``x_1``, ...), the one inferred
        parameter as ``theta_0`` and the names in ``consts``, and assign the
        derivative to ``dx`` (``dx_0``, ``dx_1``, ...).  They may assign
        temporaries of their own.  They never read the time: a right-hand
        side that reads ``t`` is a ValueError when its stepper is built.
    consts : the constants the lines read, name -> value; a value may be any
        object, a helper function included (such a system runs on the
        Python stepper only: the compiled one takes floats, so an int
        constant keeps it there too).
    x0 : initial state, ndarray of shape (dim_p,).
    """

    dim_p: int
    rhs: Tuple[str, ...]
    consts: dict
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
    """Logistic system with theta_0 = lam inferred; K and X0 fixed."""
    return OdeSystem(dim_p=1, rhs=("dx = theta_0 * x * (1.0 - x / K)",),
                     consts={"K": float(params.K)},
                     x0=np.array([float(params.X0)]))


# ---------------------------------------------------------------------------
# glucose-insulin minimal model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GlucoseParams:
    """Constants and initial state of the four-state glucose model.

    State (G, I, L, D): plasma glucose, the insulin-driven removal action,
    the liver release action, and the gut glucose deposit.  theta0 (insulin
    response gain) is the inferred parameter; the rest stay fixed.  d0 is
    the initial glucose and D0 the dose in the gut; inference replaces d0
    with the first observed value.
    """

    theta0: float = 10.0
    theta1: float = 26.6
    theta2: float = 0.2
    a: float = 1.0
    b: float = 2.0
    Gb: float = 80.0
    d0: float = 90.0
    D0: float = 200.0

    def __post_init__(self):
        for name in ("theta0", "theta1", "theta2", "a", "b", "Gb"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not (math.isfinite(self.d0) and math.isfinite(self.D0)):
            raise ValueError("initial state d0 and D0 must be finite")
        if self.d0 <= 0.0:
            raise ValueError("initial glucose d0 must be positive")
        if self.D0 < 0.0:
            raise ValueError("initial deposit D0 must be non-negative")


def make_glucose_system(params: GlucoseParams) -> OdeSystem:
    """Glucose system with theta_0 = theta0 inferred.

    The initial state is (d0, 0, 0, D0): glucose at d0, which inference
    replaces with the first observed value, no insulin or liver action yet,
    and the full dose D0 sitting in the gut.  Only the glucose component is
    observed.
    """
    # The state (G, I, L, D) is (x_0, x_1, x_2, x_3).
    # dG = (L - I) G + D/theta2; the insulin and liver terms switch at
    # G = Gb.  The positive parts are exact clamps, not smooth
    # approximations: below basal glucose the insulin response is off, above
    # it the liver release is off.
    rhs = ("over = x_0 / Gb - 1.0",
           "dx_0 = (x_2 - x_1) * x_0 + x_3 / theta2",
           "dx_1 = theta_0 * (over if over > 0.0 else 0.0) - x_1 / a",
           "dx_2 = theta1 * (-over if over < 0.0 else 0.0) - x_2 / b",
           "dx_3 = -x_3 / theta2")
    consts = {name: float(getattr(params, name))
              for name in ("theta1", "theta2", "a", "b", "Gb")}
    return OdeSystem(dim_p=4, rhs=rhs, consts=consts,
                     x0=np.array([float(params.d0), 0.0, 0.0,
                                  float(params.D0)]))
