"""Forward-model tests: closed forms, clamps, and the observation maps."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stepselect import (GlucoseParams, LogisticParams, SolverConfig, integrate,
                        make_glucose_system, make_logistic_system)
from stepselect.models import logistic_exact


# ---------------------------------------------------------------------------
# logistic
# ---------------------------------------------------------------------------

def test_logistic_exact_endpoints():
    params = LogisticParams(lam=1.0, K=1000.0, X0=100.0)
    assert float(logistic_exact(0.0, params)) == 100.0
    # decaying-exponential form saturates exactly, no overflow at huge lam*t
    assert float(logistic_exact(1e6, params)) == 1000.0


def test_logistic_exact_solves_the_ode():
    # central finite difference of the closed form against the rhs
    params = LogisticParams(lam=1.3, K=1000.0, X0=100.0)
    rhs = make_logistic_system(params).rhs
    eps = 1e-6
    for t in (0.0, 0.7, 3.0, 9.5):
        x = float(logistic_exact(t, params))
        dx = (float(logistic_exact(t + eps, params))
              - float(logistic_exact(t - eps, params))) / (2 * eps)
        assert abs(dx - rhs(x, t, (params.lam,))) < 1e-4


def test_logistic_params_validation():
    with pytest.raises(ValueError):
        LogisticParams(lam=-1.0)
    with pytest.raises(ValueError):
        LogisticParams(K=0.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            LogisticParams(K=bad)


@given(st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_logistic_exact_bounded_and_monotone(lam, t):
    params = LogisticParams(lam=lam, K=1000.0, X0=100.0)
    x = float(logistic_exact(t, params))
    assert 100.0 <= x <= 1000.0
    assert float(logistic_exact(t + 0.1, params)) >= x


def test_logistic_system_rhs_uses_theta():
    system = make_logistic_system(LogisticParams(lam=1.0, K=1000.0, X0=100.0))
    # the system infers lam through theta, not through params.lam
    assert system.rhs(100.0, 0.0, (2.0,)) == pytest.approx(2.0 * 100.0 * 0.9)
    assert system.dim_p == 1 and system.dim_d == 1


# ---------------------------------------------------------------------------
# glucose
# ---------------------------------------------------------------------------

def test_glucose_clamps_switch_at_basal():
    p = GlucoseParams()
    rhs = make_glucose_system(p, d0=90.0).rhs
    theta = (p.theta0,)
    # above basal: insulin response active, liver release off
    d = rhs((100.0, 0.0, 0.0, 0.0), 0.0, theta)
    assert d[1] == pytest.approx(p.theta0 * (100.0 / p.Gb - 1.0))
    assert d[2] == 0.0
    # below basal: insulin off, liver on
    d = rhs((60.0, 0.0, 0.0, 0.0), 0.0, theta)
    assert d[1] == 0.0
    assert d[2] == pytest.approx(p.theta1 * (1.0 - 60.0 / p.Gb))
    # exactly at basal both response terms vanish
    d = rhs((p.Gb, 0.5, 0.5, 0.0), 0.0, theta)
    assert d[1] == pytest.approx(-0.5 / p.a)
    assert d[2] == pytest.approx(-0.5 / p.b)


def test_glucose_params_validation():
    with pytest.raises(ValueError):
        GlucoseParams(theta2=0.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            GlucoseParams(Gb=bad)
    with pytest.raises(ValueError):
        make_glucose_system(GlucoseParams(), d0=-1.0)
    with pytest.raises(ValueError):
        make_glucose_system(GlucoseParams(), d0=90.0, D0=-5.0)


def test_glucose_deposit_decays_exponentially():
    # dD = -D/theta2 decouples: D(t) = D0 exp(-t/theta2)
    p = GlucoseParams()
    system = make_glucose_system(p, d0=90.0, D0=200.0)
    traj = integrate(system, np.array([10.0]), SolverConfig("rk4", 1.0 / 512),
                     0.0, 2.0)
    t = 2.0
    exact = 200.0 * math.exp(-t / p.theta2)
    assert abs(float(traj.states[-1, 3]) - exact) / exact < 1e-9


def test_glucose_observation_is_first_component():
    system = make_glucose_system(GlucoseParams(), d0=90.0, D0=200.0)
    states = np.arange(8.0).reshape(2, 4)
    assert np.array_equal(system.obs(states), np.array([0.0, 4.0]))
    assert system.obs(np.array([7.0, 1.0, 2.0, 3.0])) == 7.0
