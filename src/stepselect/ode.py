"""Fixed-step explicit one-step ODE solvers on uniform grids.

All solvers advance ``x_{n+1} = x_n + h * K(x_n, h)`` where ``K`` is a
combination of right-hand-side stage evaluations: every system is
autonomous, its right-hand side a function of the state and the one
parameter alone.  Step sizes must divide the target time grid exactly (up
to a relative tolerance): observation times are hit by landing on grid
nodes, never by interpolation.  Where a C compiler runs, the solves run in
a library compiled from the same step statements, with the same bits (see
``_library``); elsewhere they run on the generated Python steppers.
"""

from __future__ import annotations

import functools
import math
import re
import weakref
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


def divides(h: float, span: float) -> bool:
    """True if span is an integer (>= 1) multiple of h up to GRID_RTOL."""
    if span <= 0.0:
        return False
    n = round(span / h)
    return n >= 1 and abs(span - n * h) <= GRID_RTOL * max(span, h)


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


def integrate_states(system, theta: float, config: SolverConfig, t0: float,
                     n_steps: int, nodes, values=(),
                     cap: float = math.inf) -> np.ndarray:
    """States of an ``n_steps``-step solve from t0 at the step indices
    ``nodes``, with the one parameter ``theta`` a float.  The system is
    autonomous, so ``t0`` only dates the step a NonFiniteState names.

    ``nodes`` are integral, non-decreasing step indices from 0 or more that
    end at ``n_steps``, else ValueError before any step; row j of the
    result is the state after ``nodes[j]`` steps (a repeated index gives a
    repeated row).  Samplers hit this once per posterior evaluation, so
    they precompute ``n_steps`` and their observation node indices.

    With a finite ``cap``, ``values`` holds one observed value of the first
    state component per node, and the solve adds up the squared residuals
    ``(values[j] - x_0)**2`` node by node.  It stops at the first node
    before the last step where that running sum exceeds ``cap`` and returns
    only the rows reached: fewer rows than nodes means the sum of squares
    of the whole solve exceeds ``cap`` too, and the last row's node is the
    number of steps taken.  A NaN sum never exceeds the cap.

    The solve keeps only the states at the nodes and checks none of the
    others.  Every step adds an increment to the state, so a NaN or infinity
    never leaves it again: a solve that runs to the end with a non-finite
    last state, or whose right-hand side raises ArithmeticError or
    ValueError, is replayed step by step to raise NonFiniteState at the
    first non-finite step, exactly as a per-step check would.

    An uncapped solve runs in the right-hand side's lone library when it
    has one (see ``_library``), with the same bits; a solve that ends on a
    non-finite state there runs again on the Python stepper, which raises
    what it raises.  A capped solve always runs on
    the Python stepper: only the fused log posterior of a chain with no
    library of its own makes one, since a compiled chain solves in its
    block.
    """
    node_array = _checked_nodes(tuple(nodes), n_steps)
    bounded = cap < math.inf
    if bounded and len(values) != len(nodes):
        raise ValueError("a finite cap needs one observed value per node")
    step, consts, x0, finite = _solver(config.method, system)
    lib, csys = (None, None) if bounded else _library(system)
    if lib is not None:
        states = lib.solve_states(csys, config.method, theta, config.h,
                                  n_steps, node_array)
        if states is not None:
            return states
    h = config.h
    out = []
    try:
        x = step(consts, x0, theta, h, n_steps, nodes, out,
                 values if bounded else (), cap)
    except (ArithmeticError, ValueError):
        _replay(config.method, system, theta, t0, h, n_steps)
        raise
    if len(out) == len(nodes) and not finite(x):   # ran to the end
        _replay(config.method, system, theta, t0, h, n_steps)
    return np.array(out).reshape(len(out), system.dim_p)


@functools.lru_cache(maxsize=256)
def _checked_nodes(nodes: tuple, n_steps: int) -> tuple:
    """``nodes`` as the addressed int64 array a compiled solve takes;
    ValueError unless they are integral, non-decreasing step indices from 0
    or more that end at ``n_steps``, so that a stepper reaches every one."""
    try:
        array = np.array(nodes, dtype=np.int64)
        ok = (array.tolist() == sorted(nodes) == list(nodes)
              and array[0] >= 0 and nodes[-1] == n_steps)
    except (TypeError, ValueError, OverflowError, IndexError):
        ok = False
    if not ok:
        raise ValueError(f"nodes must be integral, non-decreasing step indices"
                         f" from 0 or more that end at n_steps={n_steps}")
    return _addressed(array)


def _all_finite(x) -> bool:
    return all(map(math.isfinite, x))


@functools.lru_cache(maxsize=64)
def _solver(method: str, system):
    """The stepper of ``method`` for ``system``, the values of its
    constants, its initial state and the finiteness check for that state,
    looked up once per system and method instead of once per solve."""
    consts = system.consts
    step = _stepper(method, system.dim_p, system.rhs, tuple(consts))
    if system.dim_p == 1:
        return step, tuple(consts.values()), float(system.x0[0]), math.isfinite
    return (step, tuple(consts.values()), tuple(float(v) for v in system.x0),
            _all_finite)


def _replay(method, system, theta, t0, h, n_steps):
    """Redo a solve one step at a time; raise at the first non-finite state."""
    step, consts, x, finite = _solver(method, system)
    for i in range(n_steps):
        x = step(consts, x, theta, h, 1, (1,), [])
        if not finite(x):
            raise NonFiniteState(t0 + (i + 1) * h, i, (theta,))


# A stepper advances the state x by ``end`` steps and appends to ``out`` the
# state at each of the step indices ``nodes`` (``_checked_nodes``') as it
# passes them.  It returns the final state, a float for dim_p == 1 and a
# tuple of dim_p floats otherwise.  Given ``values``, it also adds the
# squared residual of its first component against the next of them at each
# node it passes before ``end``, and returns the state as soon as that sum
# exceeds ``cap``, with fewer states in ``out`` than nodes.  Its one shape
# is the compiled stepper's (``native._STEPPER_C``): a loop over single
# steps that tests the step index against the next node, the residual
# check under an ``if values:`` at each node.
#
# Each method is written once, per state component: its set-up lines, the
# argument of each stage j, k_j = f(argument), and the update of x.
# ``_stepper`` pastes the model's right-hand side into every stage of one
# loop per state dimension, keeping every component in a local float: a
# call per stage, and on a four-state model the tuples it passes, cost more
# than the arithmetic of the right-hand side itself, and the samplers take
# millions of steps.
_METHODS = {
    "euler": ((), ("x",), "x + h * k1"),
    "rk2": (("half = 0.5 * h",), ("x", "x + half * k1"), "x + h * k2"),
    "rk4": (("half = 0.5 * h", "sixth = h / 6.0"),
            ("x", "x + half * k1", "x + half * k2", "x + h * k3"),
            "x + sixth * (k1 + 2.0 * (k2 + k3) + k4)"),
}

# right-hand-side evaluations per step of each method
METHOD_STAGES = {method: len(stages)
                 for method, (_, stages, _) in _METHODS.items()}

# the state and its derivative in right-hand-side source lines
_RHS_NAMES = re.compile(r"\b(d?x)(_\d+)?\b")
_ASSIGNED = re.compile(r"^\s*([A-Za-z_]\w*)\s*=[^=]")
_IDENTIFIER = re.compile(r"(?<![\w.])[A-Za-z_]\w*")


def _parts(expr: str, dim_p: int) -> list:
    """``expr`` for each state component, its names suffixed by the index."""
    if dim_p == 1:
        return [expr]
    return [re.sub(r"\b(xs?|k\d)\b", rf"\1_{j}", expr) for j in range(dim_p)]


def _step_lines(method: str, dim_p: int, rhs: tuple):
    """The set-up lines of ``method`` and the statements of one step, with
    the right-hand side's lines ``rhs`` pasted into each stage: the state
    read from ``x`` or the stage argument ``xs`` (suffixed per component)
    and the derivative written to ``k1``, ``k2``, ..."""
    setup, stages, update = _METHODS[method]

    def bind(line, x, k):
        def name(mo):
            return (k if mo.group(1) == "dx" else x) + (mo.group(2) or "")
        return _RHS_NAMES.sub(name, line)

    body = []
    for j, arg in enumerate(stages, start=1):
        x = "x"
        if arg != "x":
            x = "xs"
            body += [f"{xs} = {a}"
                     for xs, a in zip(_parts(x, dim_p), _parts(arg, dim_p))]
        body += [bind(line, x, f"k{j}") for line in rhs]
    return list(setup), body + [f"{x} = {u}" for x, u in zip(
        _parts("x", dim_p), _parts(update, dim_p))]


@functools.lru_cache(maxsize=None)
def _stepper(method: str, dim_p: int, rhs: tuple, const_names: tuple):
    """The stepper of ``method`` for states of ``dim_p`` components whose
    derivative the source lines ``rhs`` compute, checking the residual sum
    against its cap at each node when given observed values.

    ``rhs`` reads the state as ``x`` (``x_0``, ``x_1``, ... when dim_p > 1),
    the one parameter as ``theta_0`` and the constants ``const_names``, and
    assigns the derivative to ``dx`` (``dx_0``, ...); it may assign
    temporaries of its own.  The system is autonomous: ``rhs`` that reads
    the time ``t`` is a ValueError.  The stepper is called as
    ``step(consts, x, theta_0, h, end, nodes, out, values=(), cap=inf)``,
    with the parameter a float and ``consts`` the constants' values in the
    order of ``const_names``.  Compiled on first use; the constants are
    unpacked once on entry.  Every component runs the same float operations
    in the same order as a call of the right-hand side per stage would.
    """
    if not (isinstance(dim_p, int) and dim_p >= 1):
        raise ValueError(f"dim_p must be a positive integer, got {dim_p!r}")
    temps = {m.group(1) for m in map(_ASSIGNED.match, rhs) if m}
    free = set(_IDENTIFIER.findall("\n".join(rhs))) - temps - set(const_names)
    if "t" in free:
        raise ValueError("right-hand side reads the time t; only autonomous "
                         "systems are supported")
    xs = _parts("x", dim_p)
    state = xs[0] if dim_p == 1 else f"({', '.join(xs)})"

    def loop(setup, body):
        """The step loop around the step's statements ``body``."""
        return [
            "def step(consts, x, theta_0, h, end, nodes, out, values=(),"
            " cap=inf):",
            *(f"    {line}" for line in setup),
            "    stops = iter(nodes)",
            "    seen = iter(values)",
            "    ss = 0.0",
            "    m = next(stops)",
            "    for i in range(end):",
            "        while i == m:",
            f"            out.append({state})",
            "            if values:",
            f"                dy = next(seen) - {xs[0]}",
            "                ss += dy * dy",
            "                if ss > cap:",
            f"                    return {state}",
            "            m = next(stops, None)",
            *(f"        {line}" for line in body),
            "    while m == end:",
            f"        out.append({state})",
            "        m = next(stops, None)",
            f"    return {state}",
        ]

    # a temporary or constant named like one of the loop's own variables
    # would silently change what the loop computes
    own = set(_IDENTIFIER.findall("\n".join(
        loop(*_step_lines(method, dim_p, ())))))
    clash = (temps | set(const_names)) & own
    if clash:
        raise ValueError(f"right-hand side names {sorted(clash)} are the "
                         f"stepper's own")
    head, *rest = loop(*_step_lines(method, dim_p, rhs))
    lines = [
        head,
        *([f"    {', '.join(const_names)}, = consts"] if const_names else []),
        *([] if dim_p == 1 else [f"    {', '.join(xs)} = x"]),
        *rest,
    ]
    namespace = {"inf": math.inf}
    exec(compile("\n".join(lines) + "\n", f"<{method} stepper, dim {dim_p}>",
                 "exec"), namespace)
    return namespace["step"]


# ---------------------------------------------------------------------------
# compiled solves and chain blocks (see ``native``)
# ---------------------------------------------------------------------------
#
# A right-hand side gets one library per caller, and a compile costs more
# the more the library holds.  A Metropolis chain builds its own at once: its
# method's stepper and the chain block, in which the chain evaluates
# everything, its initial point included (``mcmc.mh_run``).  Lone solves
# (the quadrature oracles, ``estimate_order``) build theirs at one system's
# second lone solve: every method's stepper and plain solve, since the order
# check solves with every method.  So a process that solves each system once
# (``stepselect gen``'s glucose reference solve, which builds its system per
# call) never runs the compiler nor loads ``native``, and a glucose sweep
# that generates its own data compiles only its chains' library.  A library is compiled with
# ``sysconfig``'s CC, or ``cc``, in a temporary directory deleted once it is
# loaded, and a failed build is remembered, library by library, for the
# rest of the process.  The workers of a sweep's pool share one directory
# (``_BUILD_DIR``, set in each by ``share_builds``), in which the first of
# them to need a library compiles it and the others load that file
# (``native.compile_source``), so a pool sweep compiles each library once.

@functools.lru_cache(maxsize=64)
def _c_system(system):
    """``system`` as the compiled code takes it: (library key, constants,
    initial state), the last two as float arrays with their addresses, or
    None when a constant is not a nonzero float (an int, a helper function,
    0.0): the compiled arithmetic is float only, and it divides only by
    constants and literals that are not zero."""
    values = tuple(system.consts.values())
    if not all(isinstance(v, float) and v != 0.0 for v in values):
        return None
    return ((system.dim_p, system.rhs, tuple(system.consts)),
            _addressed(np.array(values, dtype=float)),
            _addressed(np.array(system.x0, dtype=float).ravel()))


def _addressed(array: np.ndarray) -> tuple:
    """(``array``, the address of its data), the array kept alive with it."""
    return array, array.__array_interface__["data"][0]


# (library key, method) -> the loaded library of a chain of that method,
# or with method None the lone library, or None for good; a system solved
# once alone waits in _SOLVED_ONCE for its second lone solve
_LIBRARIES = {}
_SOLVED_ONCE = weakref.WeakSet()

# the directory this process shares its builds in, or None to build alone
_BUILD_DIR = None


def share_builds(directory: str) -> None:
    """Build libraries in ``directory``, shared with the other processes
    that do: a process pool's initializer."""
    global _BUILD_DIR
    _BUILD_DIR = directory


def _library(system, method: str = None) -> tuple:
    """(the compiled library of ``system``'s right-hand side for chains of
    ``method``, or with no ``method`` for lone solves, or None, the system
    as ``_c_system`` gives it).  A chain's library is built at once, the
    lone library at one system's second lone solve in the process (each
    lone call counts as a solve).  Once a library proves outside the
    C subset or its compiler or loader fails, it stays None for the rest
    of the process."""
    csys = _c_system(system)
    if csys is None:
        return None, None
    key = csys[0], method
    if key not in _LIBRARIES:
        if method is None and system not in _SOLVED_ONCE:
            _SOLVED_ONCE.add(system)
            return None, csys
        from . import native
        try:
            _LIBRARIES[key] = native.Library(native.compile_source(
                native.c_source(*csys[0], method)), method)
        except (ValueError, SyntaxError, OSError):
            _LIBRARIES[key] = None
    return _LIBRARIES[key], csys


def estimate_order(system, theta, method: str, h_list, t0: float,
                   t_check: float, oracle) -> float:
    """Empirical convergence order from errors against an exact solution.

    Integrates with the parameter ``theta[0]`` of the one-element array
    ``theta`` to ``t_check`` for every h in ``h_list`` (at least three
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
        final = integrate_states(system, float(theta[0]),
                                 SolverConfig(method, h), t0, n_steps,
                                 nodes=(n_steps,))
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
