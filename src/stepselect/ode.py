"""Fixed-step explicit one-step ODE solvers on uniform grids.

All solvers advance ``x_{n+1} = x_n + h * K(t_n, x_n, h)`` where ``K`` is a
combination of right-hand-side stage evaluations.  Step sizes must divide the
target time grid exactly (up to a relative tolerance): observation times are
hit by landing on grid nodes, never by interpolation.
"""

from __future__ import annotations

import functools
import math
import re
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


def integrate_states(system, theta, config: SolverConfig, t0: float,
                     n_steps: int, nodes) -> np.ndarray:
    """States of an ``n_steps``-step solve from t0 at the step indices ``nodes``.

    ``nodes`` are non-decreasing step indices that end at ``n_steps``; row j
    of the result is the state after ``nodes[j]`` steps (a repeated index
    gives a repeated row).  Samplers hit this once per posterior evaluation,
    so they precompute ``n_steps`` and their observation node indices and
    call it directly.

    The solve keeps only the states at the nodes and checks none of the
    others.  Every step adds an increment to the state, so a NaN or infinity
    never leaves it again: a solve whose last state is non-finite, or whose
    right-hand side raises ArithmeticError or ValueError, is replayed step
    by step to raise NonFiniteState at the first non-finite step, exactly as
    a per-step check would.
    """
    if not len(nodes) or nodes[-1] != n_steps:
        raise ValueError(f"nodes must end at n_steps={n_steps}")
    theta_f = tuple(np.asarray(theta, dtype=float).ravel().tolist())
    if system.dim_p == 1:
        x0, finite = float(system.x0[0]), math.isfinite
    else:
        x0, finite = tuple(float(v) for v in system.x0), _all_finite
    step = _stepper(config.method, system.dim_p)
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


def _all_finite(x) -> bool:
    return all(map(math.isfinite, x))


def _replay(step, finite, rhs, x, theta, t0, h, n_steps):
    """Redo a solve one step at a time; raise at the first non-finite state."""
    for i in range(n_steps):
        x, _ = step(rhs, x, theta, t0, h, i, i + 1, (i + 1,), [])
        if not finite(x):
            raise NonFiniteState(t0 + (i + 1) * h, i, theta)


# A stepper advances the state x from step n to step ``end`` and appends to
# ``out`` the state at each of the step indices ``nodes`` as it passes them.
# It returns the final state and the first node it never reached (None when
# it reached them all: a node below n, or one that comes after a larger one,
# is never reached).  One loop over all the steps, comparing the step index
# with the next node, costs less than a loop per pair of nodes, whose set-up
# outweighs a two-step stretch.  The state is a float for dim_p == 1 and a
# tuple of dim_p floats otherwise.
#
# Each method is written once, per state component: its set-up lines, the
# lines that start a step, its stages as (argument, time) with stage j
# k_j = rhs(argument, time, theta), and the update of x.  ``_stepper``
# generates the loop for one state dimension from them, keeping every
# component in a local float: a per-component tuple built with a generator
# costs several times the right-hand side of a four-state model, and the
# samplers take millions of steps.
_METHODS = {
    "euler": ((), (), (("x", "t0 + i * h"),), "x + h * k1"),
    "rk2": (("half = 0.5 * h",), ("t = t0 + i * h",),
            (("x", "t"), ("x + half * k1", "t + half")), "x + h * k2"),
    "rk4": (("half = 0.5 * h", "sixth = h / 6.0"), ("t = t0 + i * h",),
            (("x", "t"), ("x + half * k1", "t + half"),
             ("x + half * k2", "t + half"), ("x + h * k3", "t + h")),
            "x + sixth * (k1 + 2.0 * (k2 + k3) + k4)"),
}


@functools.lru_cache(maxsize=None)
def _stepper(method: str, dim_p: int):
    """The stepper of ``method`` for states of ``dim_p`` components.

    Compiled on first use.  For dim_p == 1 it is the plain scalar loop;
    otherwise each component j of x and of every stage is a local
    (``x_0``, ``k1_0``, ...), the state is unpacked on entry and every stage
    argument is passed as one tuple display.  Every component runs the same
    float operations in the same order either way.
    """
    setup, per_step, stages, update = _METHODS[method]
    if not (isinstance(dim_p, int) and dim_p >= 1):
        raise ValueError(f"dim_p must be a positive integer, got {dim_p!r}")

    def parts(expr):
        """``expr`` for each component, its names suffixed by the index."""
        if dim_p == 1:
            return [expr]
        return [re.sub(r"\b(x|k\d)\b", rf"\1_{j}", expr) for j in range(dim_p)]

    def pack(expr):
        return parts(expr)[0] if dim_p == 1 else f"({', '.join(parts(expr))})"

    calls = [f"rhs({pack(arg)}, {time}, theta)" for arg, time in stages]
    if dim_p == 1 and len(calls) == 1:
        # a lone scalar stage goes inline into the update
        body = [f"x = {update.replace('k1', calls[0])}"]
    else:
        body = [f"{', '.join(parts(f'k{j}'))} = {call}"
                for j, call in enumerate(calls, start=1)]
        body += [f"{x} = {u}" for x, u in zip(parts("x"), parts(update))]
    lines = [
        "def step(rhs, x, theta, t0, h, n, end, nodes, out):",
        *([] if dim_p == 1 else [f"    {', '.join(parts('x'))} = x"]),
        *(f"    {line}" for line in setup),
        "    stops = iter(nodes)",
        "    m = next(stops)",
        "    for i in range(n, end):",
        "        while i == m:",
        f"            out.append({pack('x')})",
        "            m = next(stops, None)",
        *(f"        {line}" for line in (*per_step, *body)),
        "    while m == end:",
        f"        out.append({pack('x')})",
        "        m = next(stops, None)",
        f"    return {pack('x')}, m",
    ]
    namespace = {}
    exec(compile("\n".join(lines) + "\n", f"<{method} stepper, dim {dim_p}>",
                 "exec"), namespace)
    return namespace["step"]


def estimate_order(system, theta, method: str, h_list, t0: float,
                   t_check: float, oracle) -> float:
    """Empirical convergence order from errors against an exact solution.

    Integrates to ``t_check`` for every h in ``h_list`` (at least three
    values) and returns the least-squares slope of log error versus log h,
    with the error measured as the Euclidean norm of the state deviation
    from ``oracle(t_check)``.

    Raises GridMismatch when an h does not divide [t0, t_check], and
    DegenerateFit when every error sits at floating-point noise (below
    1e-13): a slope fitted through noise means nothing.
    """
    h_list = [float(h) for h in h_list]
    if len(h_list) < 3:
        raise ValueError("need at least three step sizes to fit an order")
    ref = np.asarray(oracle(t_check), dtype=float).ravel()
    errs = []
    for h in h_list:
        check_grid(h, (t0, t_check))
        n_steps = round((t_check - t0) / h)
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
