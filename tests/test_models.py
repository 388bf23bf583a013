"""Forward-model tests: closed forms, clamps, and the observed component."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stepselect import (GlucoseParams, LogisticParams, SolverConfig,
                        integrate_states, make_glucose_system,
                        make_logistic_system, make_solver_forward)
from stepselect.models import logistic_exact

from _oracles import rhs_function


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
    rhs = rhs_function(make_logistic_system(params))
    eps = 1e-6
    for t in (0.0, 0.7, 3.0, 9.5):
        x = float(logistic_exact(t, params))
        dx = (float(logistic_exact(t + eps, params))
              - float(logistic_exact(t - eps, params))) / (2 * eps)
        assert abs(dx - rhs((x,), params.lam)[0]) < 1e-4


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
    dx, = rhs_function(system)((100.0,), 2.0)
    assert dx == pytest.approx(2.0 * 100.0 * 0.9)
    assert system.dim_p == 1


# ---------------------------------------------------------------------------
# glucose
# ---------------------------------------------------------------------------

def test_glucose_clamps_switch_at_basal():
    p = GlucoseParams()
    rhs = rhs_function(make_glucose_system(p))
    theta = p.theta0
    # above basal: insulin response active, liver release off
    d = rhs((100.0, 0.0, 0.0, 0.0), theta)
    assert d[1] == pytest.approx(p.theta0 * (100.0 / p.Gb - 1.0))
    assert d[2] == 0.0
    # below basal: insulin off, liver on
    d = rhs((60.0, 0.0, 0.0, 0.0), theta)
    assert d[1] == 0.0
    assert d[2] == pytest.approx(p.theta1 * (1.0 - 60.0 / p.Gb))
    # exactly at basal both response terms vanish
    d = rhs((p.Gb, 0.5, 0.5, 0.0), theta)
    assert d[1] == pytest.approx(-0.5 / p.a)
    assert d[2] == pytest.approx(-0.5 / p.b)


def test_glucose_params_validation():
    with pytest.raises(ValueError):
        GlucoseParams(theta2=0.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            GlucoseParams(Gb=bad)
    with pytest.raises(ValueError, match="initial glucose d0 must be positive"):
        GlucoseParams(d0=-1.0)
    with pytest.raises(ValueError,
                       match="initial deposit D0 must be non-negative"):
        GlucoseParams(D0=-5.0)


@pytest.mark.parametrize("field", ["d0", "D0"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_glucose_initial_state_must_be_finite(field, bad):
    # a NaN passes both sign checks and an infinity one of them, so the
    # initial state is checked for finiteness before its signs
    with pytest.raises(ValueError,
                       match="initial state d0 and D0 must be finite"):
        GlucoseParams(**{field: bad})


def test_glucose_deposit_decays_exponentially():
    # dD = -D/theta2 decouples: D(t) = D0 exp(-t/theta2)
    p = GlucoseParams()
    system = make_glucose_system(p)
    final = integrate_states(system, 10.0, SolverConfig("rk4", 1.0 / 512),
                             0.0, 1024, (1024,))
    t = 2.0
    exact = 200.0 * math.exp(-t / p.theta2)
    assert abs(float(final[0, 3]) - exact) / exact < 1e-9


def test_glucose_observation_is_first_component():
    # the solver forward returns the glucose component, state column 0
    system = make_glucose_system(GlucoseParams())
    times = np.linspace(0.0, 2.0, 5)
    config = SolverConfig("rk4", 0.0625)
    states = integrate_states(system, 10.0, config, 0.0, 32,
                              (0, 8, 16, 24, 32))
    forward = make_solver_forward(system, config, times)
    assert np.array_equal(forward(np.array([10.0])), states[:, 0])
    assert forward(np.array([10.0]))[0] == 90.0
