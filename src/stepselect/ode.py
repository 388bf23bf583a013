"""Fixed-step explicit one-step ODE solvers on uniform grids.

All solvers advance ``x_{n+1} = x_n + h * K(t_n, x_n, h)`` where ``K`` is a
combination of right-hand-side stage evaluations.  Step sizes must divide the
target time grid exactly (up to a relative tolerance): observation times are
hit by landing on grid nodes, never by interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFit, GridMismatch, NonFiniteState

METHOD_ORDERS = {"euler": 1, "rk2": 2, "rk4": 4}

# relative tolerance used for every "is this time a grid node" decision
GRID_RTOL = 1e-9


@dataclass(frozen=True)
class SolverConfig:
    """Solver method plus step size.

    The convergence order is a fixed property of the method: euler is first
    order, the explicit midpoint rule (rk2) second, classical rk4 fourth.
    """

    method: str
    h: float

    def __post_init__(self):
        if self.method not in METHOD_ORDERS:
            raise ValueError(f"unknown method {self.method!r}; "
                             f"expected one of {sorted(METHOD_ORDERS)}")
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError(f"step size must be finite and positive, got {self.h}")

    @property
    def order_p(self) -> int:
        return METHOD_ORDERS[self.method]


@dataclass
class Trajectory:
    """Solution values on a uniform time grid."""

    grid: np.ndarray    # (n_nodes,)
    states: np.ndarray  # (n_nodes, dim_p)

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])


def divides(h: float, span: float, rtol: float = GRID_RTOL) -> bool:
    """True if span is an integer (>= 1) multiple of h up to rtol."""
    if span <= 0.0:
        return False
    n = round(span / h)
    return n >= 1 and abs(span - n * h) <= rtol * max(span, h)


def check_grid(h: float, times) -> None:
    """Raise GridMismatch unless h divides every gap of ``times``.

    ``times`` must be strictly increasing; a step passes when every
    consecutive gap is an integer multiple of h within GRID_RTOL.
    """
    times = np.asarray(times, dtype=float)
    for i, gap in enumerate(np.diff(times)):
        if not divides(h, float(gap)):
            raise GridMismatch(
                f"h={h:.12g} does not divide the gap {gap:.12g} between "
                f"t={times[i]:.12g} and t={times[i + 1]:.12g}")


def _n_steps(t0: float, t_end: float, h: float) -> int:
    span = t_end - t0
    if span == 0.0:
        return 0
    if not divides(h, span):
        raise GridMismatch(f"h={h:.12g} does not divide [{t0:.12g}, {t_end:.12g}]")
    return round(span / h)


def integrate_states(system, theta, config: SolverConfig, t0: float,
                     n_steps: int, nodes=None) -> np.ndarray:
    """States of an ``n_steps``-step solve from t0 at the step indices ``nodes``.

    ``nodes`` are non-decreasing step indices that end at ``n_steps``; row j
    of the result is the state after ``nodes[j]`` steps (a repeated index
    gives a repeated row).  Left out, every node 0..n_steps is returned.
    Samplers hit this once per posterior evaluation, so they precompute
    ``n_steps`` and their observation node indices and call it directly.

    The solve keeps only the states at the nodes and checks none of the
    others.  Every step adds an increment to the state, so a NaN or infinity
    never leaves it again: a solve whose last state is non-finite, or whose
    right-hand side raises ArithmeticError or ValueError, is replayed step
    by step to raise NonFiniteState at the first non-finite step, exactly as
    a per-step check would.
    """
    if nodes is None:
        nodes = range(n_steps + 1)
    if not len(nodes) or nodes[-1] != n_steps:
        raise ValueError(f"nodes must end at n_steps={n_steps}")
    theta_f = tuple(np.asarray(theta, dtype=float).ravel().tolist())
    if system.dim_p == 1:
        x0, step, finite = (float(system.x0[0]), _SCALAR_STEPS[config.method],
                            math.isfinite)
    else:
        x0, step, finite = (tuple(float(v) for v in system.x0),
                            _TUPLE_STEPS[config.method], _all_finite)
    rhs, h = system.rhs, config.h
    out = []
    try:
        x, m = step(rhs, x0, theta_f, t0, h, 0, n_steps, nodes, out)
    except (ArithmeticError, ValueError):
        _replay(step, finite, rhs, x0, theta_f, t0, h, n_steps)
        raise
    if not finite(x):
        _replay(step, finite, rhs, x0, theta_f, t0, h, n_steps)
    if m is not None:
        raise ValueError(f"nodes must be non-decreasing step indices in "
                         f"[0, {n_steps}]; {m} was never reached")
    return np.array(out).reshape(len(out), system.dim_p)


def integrate(system, theta, config: SolverConfig, t0: float, t_end: float) -> Trajectory:
    """Integrate ``system`` from t0 to t_end on the uniform grid of ``config``.

    Parameters
    ----------
    system : object with ``rhs(x, t, theta)``, ``dim_p`` and ``x0`` attributes.
        For ``dim_p == 1`` the right-hand side takes and returns a float;
        otherwise it takes and returns a tuple of ``dim_p`` floats.
    theta : parameter vector, handed to the right-hand side as a tuple of
        floats.

    Raises
    ------
    GridMismatch if h does not divide the interval, NonFiniteState when a
    step produces a NaN or infinity (reported with the first such step's
    time, step index and theta).
    """
    h = config.h
    n_steps = _n_steps(t0, t_end, h)
    states = integrate_states(system, theta, config, t0, n_steps)
    grid = t0 + h * np.arange(n_steps + 1)
    return Trajectory(grid=grid, states=states)


def _all_finite(x) -> bool:
    return all(map(math.isfinite, x))


def _replay(step, finite, rhs, x, theta, t0, h, n_steps):
    """Redo a solve one step at a time; raise at the first non-finite state."""
    for i in range(n_steps):
        x, _ = step(rhs, x, theta, t0, h, i, i + 1, (i + 1,), [])
        if not finite(x):
            raise NonFiniteState(t0 + (i + 1) * h, i, theta)


# Each stepper advances the state x from step n to step ``end`` and appends
# to ``out`` the state at each of the step indices ``nodes`` as it passes
# them.  It returns the final state and the first node it never reached
# (None when it reached them all: a node below n, or one that comes after a
# larger one, is never reached).  One loop over all the steps, comparing
# the step index with the next node, costs less than a loop per pair of
# nodes, whose set-up outweighs a two-step stretch.  Plain Python floats,
# not numpy arrays, keep the per-step overhead low, which matters because
# the samplers call these millions of times.

def _euler_scalar(rhs, x, theta, t0, h, n, end, nodes, out):
    stops = iter(nodes)
    m = next(stops)
    for i in range(n, end):
        while i == m:
            out.append(x)
            m = next(stops, None)
        x = x + h * rhs(x, t0 + i * h, theta)
    while m == end:
        out.append(x)
        m = next(stops, None)
    return x, m


def _rk2_scalar(rhs, x, theta, t0, h, n, end, nodes, out):
    half = 0.5 * h
    stops = iter(nodes)
    m = next(stops)
    for i in range(n, end):
        while i == m:
            out.append(x)
            m = next(stops, None)
        t = t0 + i * h
        k1 = rhs(x, t, theta)
        k2 = rhs(x + half * k1, t + half, theta)
        x = x + h * k2
    while m == end:
        out.append(x)
        m = next(stops, None)
    return x, m


def _rk4_scalar(rhs, x, theta, t0, h, n, end, nodes, out):
    half = 0.5 * h
    sixth = h / 6.0
    stops = iter(nodes)
    m = next(stops)
    for i in range(n, end):
        while i == m:
            out.append(x)
            m = next(stops, None)
        t = t0 + i * h
        k1 = rhs(x, t, theta)
        k2 = rhs(x + half * k1, t + half, theta)
        k3 = rhs(x + half * k2, t + half, theta)
        k4 = rhs(x + h * k3, t + h, theta)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    while m == end:
        out.append(x)
        m = next(stops, None)
    return x, m


# The scalar steppers' stages, componentwise on float tuples.

def _euler_tuple(rhs, x, theta, t0, h, n, end, nodes, out):
    stops = iter(nodes)
    m = next(stops)
    for i in range(n, end):
        while i == m:
            out.append(x)
            m = next(stops, None)
        k1 = rhs(x, t0 + i * h, theta)
        x = tuple(xi + h * ki for xi, ki in zip(x, k1))
    while m == end:
        out.append(x)
        m = next(stops, None)
    return x, m


def _rk2_tuple(rhs, x, theta, t0, h, n, end, nodes, out):
    half = 0.5 * h
    stops = iter(nodes)
    m = next(stops)
    for i in range(n, end):
        while i == m:
            out.append(x)
            m = next(stops, None)
        t = t0 + i * h
        k1 = rhs(x, t, theta)
        k2 = rhs(tuple(xi + half * ki for xi, ki in zip(x, k1)),
                 t + half, theta)
        x = tuple(xi + h * ki for xi, ki in zip(x, k2))
    while m == end:
        out.append(x)
        m = next(stops, None)
    return x, m


def _rk4_tuple(rhs, x, theta, t0, h, n, end, nodes, out):
    half = 0.5 * h
    sixth = h / 6.0
    stops = iter(nodes)
    m = next(stops)
    for i in range(n, end):
        while i == m:
            out.append(x)
            m = next(stops, None)
        t = t0 + i * h
        k1 = rhs(x, t, theta)
        k2 = rhs(tuple(xi + half * ki for xi, ki in zip(x, k1)),
                 t + half, theta)
        k3 = rhs(tuple(xi + half * ki for xi, ki in zip(x, k2)),
                 t + half, theta)
        k4 = rhs(tuple(xi + h * ki for xi, ki in zip(x, k3)),
                 t + h, theta)
        x = tuple(xi + sixth * (a + 2.0 * (b + c) + dd)
                  for xi, a, b, c, dd in zip(x, k1, k2, k3, k4))
    while m == end:
        out.append(x)
        m = next(stops, None)
    return x, m


_SCALAR_STEPS = {"euler": _euler_scalar, "rk2": _rk2_scalar, "rk4": _rk4_scalar}
_TUPLE_STEPS = {"euler": _euler_tuple, "rk2": _rk2_tuple, "rk4": _rk4_tuple}


def estimate_order(system, theta, method: str, h_list, t0: float,
                   t_check: float, oracle) -> float:
    """Empirical convergence order from errors against an exact solution.

    Integrates to ``t_check`` for every h in ``h_list`` (at least three
    values) and returns the least-squares slope of log error versus log h,
    with the error measured as the Euclidean norm of the state deviation
    from ``oracle(t_check)``.

    Raises DegenerateFit when every error sits at floating-point noise
    (below 1e-13): a slope fitted through noise means nothing.
    """
    h_list = [float(h) for h in h_list]
    if len(h_list) < 3:
        raise ValueError("need at least three step sizes to fit an order")
    ref = np.asarray(oracle(t_check), dtype=float).ravel()
    errs = []
    for h in h_list:
        n_steps = _n_steps(t0, t_check, h)
        final = integrate_states(system, theta, SolverConfig(method, h), t0,
                                 n_steps, nodes=(n_steps,))
        errs.append(float(np.linalg.norm(final[0] - ref)))
    errs = np.asarray(errs)
    if np.all(errs < 1e-13):
        raise DegenerateFit(
            f"errors {errs} all below 1e-13; order fit would be noise")
    keep = errs > 1e-15
    if keep.sum() < 2:
        raise DegenerateFit("fewer than two errors above floating-point noise")
    slope, _ = np.polyfit(np.log(np.asarray(h_list)[keep]), np.log(errs[keep]), 1)
    return float(slope)
