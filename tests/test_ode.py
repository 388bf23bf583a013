"""Solver unit tests: single-step oracles, grid logic, convergence orders.

The single-step values below were worked out by hand on dx/dt = x (one step
of size 0.5 from x=1), on the rotation dx/dt = y, dy/dt = -x (one step of
size 0.5 from (1, 0)) and on the logistic right-hand side (one Euler step of
size 0.1 from x=100), so they are independent of the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepselect import (METHOD_ORDERS, GlucoseParams, LogisticParams,
                        SolverConfig, Trajectory, check_grid, divides,
                        estimate_order, integrate, integrate_states,
                        make_glucose_system, make_logistic_system)
from stepselect.errors import DegenerateFit, GridMismatch, NonFiniteState
from stepselect.models import OdeSystem, logistic_exact


def exp_system() -> OdeSystem:
    """dx/dt = theta0 * x, exact solution exp(theta0 * t)."""
    def rhs(x, t, theta):
        return theta[0] * x

    return OdeSystem(dim_p=1, dim_d=1, rhs=rhs, obs=lambda s: s[..., 0],
                     x0=np.array([1.0]))


def rotation_system() -> OdeSystem:
    """dx/dt = y, dy/dt = -x from (1, 0): the two-state tuple path."""
    def rhs(x, t, theta):
        return (x[1], -x[0])

    return OdeSystem(dim_p=2, dim_d=1, rhs=rhs, obs=lambda s: s[..., 0],
                     x0=np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# single-step oracles
# ---------------------------------------------------------------------------

def one_step(system, method, h, theta=(1.0,)):
    traj = integrate(system, np.asarray(theta), SolverConfig(method, h), 0.0, h)
    return traj.states[-1].tolist()


def test_euler_single_step_exp():
    # x1 = 1 + 0.5 * 1 = 1.5
    assert one_step(exp_system(), "euler", 0.5) == [1.5]
    # rotation: k1 = (0, -1), x1 = (1, 0) + 0.5 * k1
    assert one_step(rotation_system(), "euler", 0.5) == [1.0, -0.5]


def test_rk2_single_step_exp():
    # k1 = 1, k2 = (1 + 0.25) = 1.25, x1 = 1 + 0.5 * 1.25 = 1.625
    assert one_step(exp_system(), "rk2", 0.5) == [1.625]
    # rotation: k2 = rhs((1, -0.25)) = (-0.25, -1), x1 = (1, 0) + 0.5 * k2
    assert one_step(rotation_system(), "rk2", 0.5) == [0.875, -0.5]


def test_rk4_single_step_exp():
    # k1=1, k2=1.25, k3=1.3125, k4=1.65625
    # x1 = 1 + (0.5/6)(1 + 2*1.25 + 2*1.3125 + 1.65625) = 1.6484375
    assert one_step(exp_system(), "rk4", 0.5) == [1.6484375]
    # rotation: k1=(0,-1), k2=(-0.25,-1), k3=(-0.25,-0.9375),
    # k4=(-0.46875,-0.875); x1 = (1, 0) + (0.5/6) * (-1.46875, -5.75)
    assert one_step(rotation_system(), "rk4", 0.5) == pytest.approx(
        [1.0 - 1.46875 / 12.0, -5.75 / 12.0], rel=0.0, abs=1e-15)


def test_euler_single_step_logistic():
    # x1 = 100 + 0.1 * 1 * 100 * (1 - 0.1) = 109
    system = make_logistic_system(LogisticParams(lam=1.0, K=1000.0, X0=100.0))
    assert one_step(system, "euler", 0.1) == [109.0]


# final states as float.hex, which the integrator must reproduce bit for bit;
# both right-hand sides use only + - * / and comparisons, so the bits do not
# depend on the platform's libm
PINNED_FINAL_STATES = {
    ("logistic", "euler"): ["0x1.736b7303a86c7p+9"],
    ("logistic", "rk2"): ["0x1.7752d65805691p+9"],
    ("logistic", "rk4"): ["0x1.7763ca6d67c95p+9"],
    ("glucose", "euler"): ["0x1.df5d6377c5b39p+6", "0x1.51dd584d8333bp+3",
                           "0x1.454d748c9cca9p+2", "0x1.454f2a493a49cp-10"],
    ("glucose", "rk2"): ["0x1.f441e81a73157p+6", "0x1.160c9c0f7356ep+2",
                         "0x1.6c8ae1a09e570p+1", "0x1.6d65812f0139ap-7"],
    ("glucose", "rk4"): ["0x1.023691405634cp+7", "0x1.18a86a48c1d30p+2",
                         "0x1.736589ae42106p+1", "0x1.29d718d735f44p-7"],
}


@pytest.mark.parametrize("model,method", sorted(PINNED_FINAL_STATES))
def test_final_state_bits_pinned(model, method):
    if model == "logistic":
        system = make_logistic_system(LogisticParams())
        theta, h, t_end = 1.1, 0.1, 3.0
    else:
        system = make_glucose_system(GlucoseParams(), d0=90.0, D0=200.0)
        theta, h, t_end = 9.3, 0.0625, 2.0
    traj = integrate(system, np.array([theta]), SolverConfig(method, h),
                     0.0, t_end)
    assert [v.hex() for v in traj.states[-1].tolist()] \
        == PINNED_FINAL_STATES[model, method]


def test_integrate_states_matches_integrate():
    system = make_logistic_system(LogisticParams())
    cfg = SolverConfig("rk4", 0.1)
    traj = integrate(system, np.array([1.1]), cfg, 0.0, 3.0)
    states = integrate_states(system, np.array([1.1]), cfg, 0.0, 30)
    assert np.array_equal(traj.states, states)


@pytest.mark.parametrize("method", sorted(METHOD_ORDERS))
@pytest.mark.parametrize("model", ["logistic", "glucose"])
def test_integrate_states_at_nodes_matches_every_node_solve(model, method):
    # node 0, adjacent nodes, a repeated node and long stretches between them
    if model == "logistic":
        system = make_logistic_system(LogisticParams())
        theta, h, n_steps = 1.1, 0.1, 30
        nodes = [0, 1, 2, 2, 9, 30]
    else:
        system = make_glucose_system(GlucoseParams(), d0=90.0, D0=200.0)
        theta, h, n_steps = 9.3, 0.0625, 32
        nodes = [0, 0, 5, 6, 6, 7, 31, 32]
    cfg = SolverConfig(method, h)
    every = integrate_states(system, np.array([theta]), cfg, 0.0, n_steps)
    picked = integrate_states(system, np.array([theta]), cfg, 0.0, n_steps,
                              nodes)
    assert picked.shape == (len(nodes), system.dim_p)
    assert [v.hex() for v in picked.ravel().tolist()] \
        == [v.hex() for v in every[nodes].ravel().tolist()]
    last = integrate_states(system, np.array([theta]), cfg, 0.0, n_steps,
                            (n_steps,))
    assert np.array_equal(last, every[-1:])


@pytest.mark.parametrize("nodes", [
    [0, 5, 3, 10],     # descending
    [0, 5],            # stops short of n_steps
    [0, 5, 10, 12],    # runs past n_steps
    [-1, 10],          # before the start
    [],                # no node at all
])
def test_integrate_states_rejects_bad_nodes(nodes):
    with pytest.raises(ValueError):
        integrate_states(exp_system(), np.array([1.0]),
                         SolverConfig("rk4", 0.1), 0.0, 10, nodes)


# ---------------------------------------------------------------------------
# grid logic
# ---------------------------------------------------------------------------

def test_divides_basic():
    assert divides(0.1, 0.4)
    assert divides(0.2, 0.4)
    assert divides(0.4, 0.4)
    assert not divides(0.3, 0.4)
    assert not divides(0.1, 0.0)
    assert not divides(0.5, 0.4)   # n must be >= 1


@given(st.integers(min_value=1, max_value=10_000),
       st.floats(min_value=1e-4, max_value=10.0,
                 allow_nan=False, allow_infinity=False))
def test_divides_integer_multiples(n, h):
    assert divides(h, n * h)


def test_check_grid_rejects_misaligned_step():
    times = np.linspace(0.0, 10.0, 26)   # gap 0.4
    check_grid(0.2, times)
    check_grid(0.1, times)
    with pytest.raises(GridMismatch):
        check_grid(0.3, times)


def test_trajectory_h_property():
    traj = Trajectory(grid=np.array([0.0, 0.5, 1.0]),
                      states=np.zeros((3, 1)))
    assert traj.h == 0.5


def test_mismatched_interval_raises():
    with pytest.raises(GridMismatch):
        integrate(exp_system(), np.array([1.0]), SolverConfig("euler", 0.3),
                  0.0, 1.0)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig("rk3", 0.1)
    with pytest.raises(ValueError):
        SolverConfig("rk4", -0.1)
    assert SolverConfig("rk2", 0.1).order_p == 2


# ---------------------------------------------------------------------------
# blow-up detection
# ---------------------------------------------------------------------------

def quadratic_blowup_system(dim_p: int, guarded: bool = False) -> OdeSystem:
    """dx/dt = x^2 from 10 in every component (a scalar when dim_p == 1).

    ``guarded`` makes the right-hand side raise ValueError on a non-finite
    state, as math.sin does.
    """
    def sq(xi):
        if guarded and not math.isfinite(xi):
            raise ValueError("math domain error")
        return xi * xi

    def rhs(x, t, theta):
        return sq(x) if dim_p == 1 else tuple(sq(xi) for xi in x)

    return OdeSystem(dim_p=dim_p, dim_d=1, rhs=rhs, obs=lambda s: s[..., 0],
                     x0=np.full(dim_p, 10.0))


def test_nonfinite_state_raised_with_context():
    # Euler h=10 on dx/dt = x^2 from 10: x_7 ~ 1e255 is the last finite
    # state, so step 7 (ending at t=80) is the first bad one, whether the
    # nodes ask for every state or the blow-up falls between two nodes.  The
    # guarded right-hand side raises ValueError on the infinite state (as
    # math.sin(inf) does), which must not hide the earlier non-finite step.
    for dim_p in (1, 2):   # scalar and tuple loops
        for nodes in (None, (0, 3, 20), (20,)):
            for guarded in (False, True):
                with pytest.raises(NonFiniteState) as exc:
                    integrate_states(quadratic_blowup_system(dim_p, guarded),
                                     np.array([1.5]),
                                     SolverConfig("euler", 10.0), 0.0, 20,
                                     nodes)
                assert (exc.value.t, exc.value.step_index) == (80.0, 7)
                assert exc.value.theta == (1.5,)


@pytest.mark.parametrize("nodes", [None, (0, 3, 20)])
def test_rhs_error_on_finite_state_propagates(nodes):
    # x ** 2 raises OverflowError at x_7 ~ 1e255, before any state is
    # non-finite: the solve reports the right-hand side's own error
    system = OdeSystem(dim_p=1, dim_d=1, rhs=lambda x, t, theta: x ** 2,
                       obs=lambda s: s[..., 0], x0=np.array([10.0]))
    with pytest.raises(OverflowError):
        integrate_states(system, np.array([1.0]), SolverConfig("euler", 10.0),
                         0.0, 20, nodes)


# ---------------------------------------------------------------------------
# convergence orders
# ---------------------------------------------------------------------------

H_LIST = (0.1, 0.05, 0.025, 0.0125)


@pytest.mark.parametrize("method,band", [("euler", 0.1), ("rk2", 0.2),
                                         ("rk4", 0.3)])
def test_estimate_order_logistic(method, band):
    params = LogisticParams(lam=1.0, K=1000.0, X0=100.0)
    system = make_logistic_system(params)
    p_hat = estimate_order(system, np.array([1.0]), method, H_LIST,
                           t0=0.0, t_check=10.0,
                           oracle=lambda t: logistic_exact(t, params))
    assert abs(p_hat - METHOD_ORDERS[method]) <= band


def test_estimate_order_rejects_degenerate_errors():
    # a constant rhs integrated exactly by every method: all errors ~ 0
    system = OdeSystem(dim_p=1, dim_d=1, rhs=lambda x, t, theta: 0.0,
                       obs=lambda s: s[..., 0], x0=np.array([3.0]))
    with pytest.raises(DegenerateFit):
        estimate_order(system, np.array([1.0]), "rk4", H_LIST, 0.0, 1.0,
                       oracle=lambda t: np.array([3.0]))


def test_estimate_order_needs_three_steps():
    system = make_logistic_system(LogisticParams())
    with pytest.raises(ValueError):
        estimate_order(system, np.array([1.0]), "rk4", (0.1, 0.05), 0.0, 1.0,
                       oracle=lambda t: np.array([0.0]))


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.6, max_value=1.6,
                 allow_nan=False, allow_infinity=False))
def test_rk4_error_halving_near_sixteen(lam):
    # global error ratio between h and h/2 stays near 2^4 across lam
    params = LogisticParams(lam=lam, K=1000.0, X0=100.0)
    system = make_logistic_system(params)
    ref = float(logistic_exact(np.array([4.0]), params)[0])
    errs = []
    for h in (0.1, 0.05):
        traj = integrate(system, np.array([lam]), SolverConfig("rk4", h),
                         0.0, 4.0)
        errs.append(abs(float(traj.states[-1, 0]) - ref))
    assert errs[1] > 0.0
    assert 8.0 <= errs[0] / errs[1] <= 32.0
