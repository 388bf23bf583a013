"""Compiled solves and chain blocks: C libraries per right-hand side.

A right-hand side's shared libraries are compiled in the process from C
that ``c_source`` translates from the very step statements
``ode._step_lines`` gives the Python stepper: the same ``ode._METHODS``
stages and the same right-hand-side lines after ``bind``.  Each method gets
one stepper that runs several solves in lockstep, its lanes.  Each library
has one caller, since the compile's cost grows with what it holds.  A
Metropolis chain's library, built at once, holds its own method's stepper
and a chain block that runs the fused log posterior of
``bayes.make_log_posterior`` and the Metropolis loop of ``mcmc.mh_run``,
the initial evaluation included, solving the next ``lanes(dim_p)``
proposals at once along the rejection path (see ``_BLOCK_C``).  The lone
library, built at one system's second lone solve, holds every
method's stepper and its plain solve, the stepper with one lane, for
``ode.integrate_states``' uncapped solves (see ``ode._library``).  A
Python-level RK4 step of the logistic model costs 0.35-0.40 us and a
compiled one about 0.04 us, and the chains are nearly all of a sweep's
cost.

Same bits: the C is IEEE double arithmetic on the same operands in the same
order, compiled without contraction into fused multiply-adds
(``-ffp-contract=off``, never ``-ffast-math`` or ``-march=native``), and it
calls the same libm ``log`` and ``exp`` as Python's ``math``.  The C subset
is float arithmetic only: an assignment to one name of ``+ - * /``, unary
``-``, names, finite float literals (written in ``float.hex`` form) and
``a if c else b`` with one comparison, where every constant the names read
holds a nonzero float (``ode._c_system``) and no line assigns one.  A
divisor is a constant's name or a nonzero float literal, so no division
meets the zero divisor where Python raises ZeroDivisionError.  Anything
else (a call, ``**``, an int literal, a division by a state, by theta or by
an expression, a constant that is zero or not a float) gets no library, and
that right-hand side runs on the Python stepper, as does one that the
Python stepper refuses: ``c_source`` builds it first and raises its
ValueError.  The nodes are checked before either path runs, so a compiled
solve fails only where its last state is not finite: it returns -2, and
``ode.integrate_states`` runs that solve again on the Python stepper,
which raises what it raises; a chain block scores -2 as the Python closure
scores NonFiniteState (see ``_BLOCK_C``).  The Python stepper stays the
reference, the path for every solve that ends in an error, and the whole
program where no C compiler runs.

``ode._library`` decides when a library is built; this module is imported
only then, so a process that never builds one neither compiles this source
nor imports ``subprocess`` and ``sysconfig``.  ``compile_source`` builds
each library once per sweep: a sweep's pool workers share a directory in
which the first of them to need a library compiles it while the others
wait on a lock inside their own tasks, then load the same file.
"""

from __future__ import annotations

import ast
import ctypes
import hashlib
import math
import os
import subprocess
import sysconfig
import tempfile

import numpy as np

from . import ode
from .ode import _METHODS, _addressed, _parts, _step_lines, _stepper

# C variables carry a prefix so that no right-hand-side name meets one of
# the template's own
_C_PREFIX = "v_"
_C_ARITH = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_C_COMPARE = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
              ast.Eq: "==", ast.NotEq: "!="}


def _c_expression(node, names: set, consts) -> str:
    """The C expression of the Python expression ``node``, whose names are
    those of ``names`` and whose divisors are names of the constants
    ``consts`` or nonzero float literals; ValueError outside the subset."""
    if isinstance(node, ast.BinOp) and type(node.op) in _C_ARITH:
        d = node.right
        if isinstance(node.op, ast.Div) and not (
                isinstance(d, ast.Name) and d.id in consts
                or isinstance(d, ast.Constant) and type(d.value) is float
                and d.value != 0.0):
            raise ValueError(f"divisor {ast.unparse(d)!r} is neither a "
                             f"constant nor a nonzero float literal")
        a, b = (_c_expression(part, names, consts)
                for part in (node.left, node.right))
        return f"({a} {_C_ARITH[type(node.op)]} {b})"
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return f"(-{_c_expression(node.operand, names, consts)})"
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise ValueError(f"name {node.id!r} not assigned before use")
        return _C_PREFIX + node.id
    if isinstance(node, ast.Constant) and type(node.value) is float:
        if not math.isfinite(node.value):
            raise ValueError(f"constant {node.value!r}")
        return node.value.hex()
    if (isinstance(node, ast.IfExp) and isinstance(node.test, ast.Compare)
            and len(node.test.ops) == 1
            and type(node.test.ops[0]) in _C_COMPARE):
        left, right, a, b = (
            _c_expression(part, names, consts) for part in (
                node.test.left, node.test.comparators[0], node.body,
                node.orelse))
        op = _C_COMPARE[type(node.test.ops[0])]
        return f"(({left} {op} {right}) ? {a} : {b})"
    raise ValueError(f"{ast.dump(node)} is outside the C subset")


def _c_statements(lines, names: set, consts) -> list:
    """C statements of the Python assignments ``lines``, which divide only
    by the constants ``consts`` and never assign one; ``names`` gains each
    name they assign.  ValueError outside the subset."""
    out = []
    for line in lines:
        stmt, = ast.parse(line).body
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id not in consts):
            raise ValueError(f"{line!r} is not an assignment to one name "
                             f"other than a constant")
        code = _c_expression(stmt.value, names, consts)
        names.add(stmt.targets[0].id)
        out.append(f"{_C_PREFIX}{stmt.targets[0].id} = {code};")
    return out


_HEAD_C = """#include <math.h>
#include <stddef.h>
#include <stdint.h>
"""

# A method's stepper: ``lanes_<method>`` runs nl <= ``lanes(dim_p)`` solves
# of n_steps steps from x0 in lockstep, lane l at the parameter theta[l],
# each the generated Python loop over single steps node for node.  The
# lanes share the nodes, so one node index serves them all, and the lanes
# still running (``act``) take each step one after another: their steps are
# independent chains of arithmetic that the CPU overlaps, where one solve's
# step waits on the latency of its own divisions.  Each lane runs its own
# solve's operations in the same order, so the lanes change no bits.  Lane
# l's state at each node goes to row j of its ``n_nodes`` rows of ``out``
# (when not NULL); with ``values`` it adds (values[j] - x_0)**2 to ss[l] at
# every node and stops at the first node before the last step where the sum
# exceeds cap[l], with rows[l] the rows reached.  A lane that runs to the
# end reaches every node (``ode._checked_nodes``) and gets rows[l] -2 when
# its last state is not finite.
_STEPPER_C = """
static void lanes_{method}(const double *c, const double *x0,
        const double *theta, double {p}h, int64_t n_steps,
        const int64_t *nodes, int64_t n_nodes, const double *values,
        const double *cap, int64_t nl, double *out, int64_t *rows,
        double *ss)
{{
    {decls}
    double xs[{lanes} * {dim}], dy;
    int64_t i, j = 0, a, l, na = nl, act[{lanes}];
    {setup}
    for (l = 0; l < nl; l++) {{
        act[l] = l;
        ss[l] = 0.0;
        {start}
    }}
    for (i = 0; ; i++) {{
        while (j < n_nodes && nodes[j] == i) {{
            for (a = 0; a < na; ) {{
                l = act[a];
                if (out) {{ {row} }}
                if (values) {{
                    dy = values[j] - xs[l * {dim}];
                    ss[l] += dy * dy;
                    if (i < n_steps && ss[l] > cap[l]) {{
                        rows[l] = j + 1;
                        act[a] = act[--na];
                        continue;
                    }}
                }}
                a++;
            }}
            j++;
        }}
        if (i >= n_steps || na == 0)
            break;
        for (a = 0; a < na; a++) {{
            l = act[a];
            {p}theta_0 = theta[l];
            {load}
            {body}
            {store}
        }}
    }}
    for (a = 0; a < na; a++) {{
        l = act[a];
        {load}
        rows[l] = ({finite}) ? j : -2;
    }}
}}
"""

# A lone solve of the lone library: the stepper with one lane and no
# residual sum, returning its rows reached or -2.
_SOLVE_C = """
int64_t solve_{method}(const double *c, const double *x0, double theta,
        double h, int64_t n_steps, const int64_t *nodes, int64_t n_nodes,
        double *out)
{{
    int64_t rows;
    double ss;
    lanes_{method}(c, x0, &theta, h, n_steps, nodes, n_nodes, NULL, NULL, 1,
                   out, &rows, &ss);
    return rows;
}}
"""

# The chain block: the fused log posterior of bayes.make_log_posterior and
# one block of mcmc.mh_run's Metropolis loop over the stepper of the
# library's one method, with the same bits.  Until a proposal is accepted
# every proposal starts from the current point (x, lp), so the block solves
# the next ``lanes(dim_p)`` proposals at once (lane l is x + scale z[i + l],
# floored at lp + log_u[i + l] exactly when the block is kept, that is, gets
# draws and energies arrays), then walks them with the Metropolis test up
# to the first acceptance and discards the lanes after it (prefetching along
# the rejection path, Brockwell 2006).  Only the lanes walked count their
# steps and stops, so the counters read what the sequential loop's do.
# ``post_t`` holds the Gamma log density c + k1 log v - r v, the
# likelihood's constant and variance, the step, the solve's nodes and
# observed values, the system's constants and initial state, and the
# counters of steps taken and solves stopped at the cap.
_BLOCK_C = """
typedef struct {{
    double c, k1, r, ll0, var, h;
    int64_t n_steps, n_nodes;
    const int64_t *nodes;
    const double *values, *consts, *x0;
    int64_t steps, stopped;
}} post_t;

/* the log posterior at prior value lp from a lane's solve: its rows
   reached or -2, and its residual sum ss */
static double scored(post_t *p, double lp, int64_t rows, double ss)
{{
    if (rows == -2) {{
        p->steps += p->n_steps;
        return lp - INFINITY;
    }}
    p->steps += p->nodes[rows - 1];
    if (rows < p->n_nodes) {{
        p->stopped += 1;
        return -INFINITY;
    }}
    if (!isfinite(ss))
        return lp - INFINITY;
    return lp + (p->ll0 - 0.5 * ss / p->var);
}}

/* state is (x, lp, prob) in and out; returns the accepted count */
int64_t block(post_t *p, double *state, double scale, const double *z,
              const double *log_u, int64_t n, double *draws,
              double *energies)
{{
    double x = state[0], lp = state[1], prob = 0.0, v, floor, top, delta;
    double prop[{lanes}], lpv[{lanes}], theta[{lanes}], cap[{lanes}];
    double ss[{lanes}];
    int64_t rows[{lanes}], lane[{lanes}], i = 0, l, nl, ns, n_accept = 0;
    int accept;
    while (i < n) {{
        nl = n - i < {lanes} ? n - i : {lanes};
        ns = 0;
        for (l = 0; l < nl; l++) {{
            v = prop[l] = x + scale * z[i + l];
            lane[l] = -1;
            lpv[l] = -INFINITY;
            if (v <= 0.0)
                continue;
            lpv[l] = p->c + p->k1 * log(v) - p->r * v;
            if (lpv[l] == -INFINITY)
                continue;
            floor = draws ? lp + log_u[i + l] : -INFINITY;
            top = lpv[l] + p->ll0;
            theta[ns] = v;
            cap[ns] = 2.0 * p->var * (
                top - floor + 1e-9 * (1.0 + fabs(top) + fabs(floor)));
            lane[l] = ns++;
        }}
        if (ns > 0)
            lanes_{method}(p->consts, p->x0, theta, p->h, p->n_steps,
                           p->nodes, p->n_nodes, p->values, cap, ns, NULL,
                           rows, ss);
        accept = 0;
        for (l = 0; l < nl && !accept; l++) {{
            if (lane[l] >= 0)
                lpv[l] = scored(p, lpv[l], rows[lane[l]], ss[lane[l]]);
            delta = lpv[l] - lp;
            prob += delta < 0.0 ? exp(delta) : 1.0;
            accept = delta >= 0.0 || log_u[i + l] < delta;
            if (accept) {{
                x = prop[l];
                lp = lpv[l];
                n_accept += 1;
            }}
            if (draws) {{
                draws[i + l] = x;
                energies[i + l] = -lp;
            }}
        }}
        i += l;
    }}
    state[0] = x;
    state[1] = lp;
    state[2] = prob;
    return n_accept;
}}
"""


class _Post(ctypes.Structure):
    """The ctypes mirror of ``_BLOCK_C``'s ``post_t``."""

    _fields_ = [*((f, ctypes.c_double) for f in ("c", "k1", "r", "ll0",
                                                 "var", "h")),
                *((f, ctypes.c_int64) for f in ("n_steps", "n_nodes")),
                *((f, ctypes.c_void_p) for f in ("nodes", "values",
                                                 "consts", "x0")),
                *((f, ctypes.c_int64) for f in ("steps", "stopped"))]


def lanes(dim_p: int) -> int:
    """The lanes a chain block of a ``dim_p``-state system solves at once:
    enough independent steps to fill the CPU's wait on one step's latency,
    fewer as one step holds more arithmetic, and at most 4, about the walk
    to the next acceptance at the sampler's target acceptance of 0.3, since
    the lanes past it are solved for nothing.  On gcc 12, logistic chains
    (dim_p 1) with 8 lanes ran the coarse step's chain slower than with 4
    and cut c6's speedup to 4.7-7.7, and glucose chains (dim_p 4) ran
    fastest with 2 of 1, 2 and 4."""
    return min(4, max(1, 8 // dim_p))


def c_source(dim_p: int, rhs: tuple, const_names: tuple,
             method: str = None) -> str:
    """The C source of a library of one right-hand side, whose constants
    ``const_names`` hold nonzero floats: a chain's, the stepper of
    ``method`` and the chain block over it, or, with no ``method``, the lone
    library, every method's stepper and its plain solve; ValueError, the
    Python stepper's, where it refuses the right-hand side, or outside the
    C subset."""
    xs = _parts("x", dim_p)
    p, n_lanes = _C_PREFIX, lanes(dim_p)
    pieces = [_HEAD_C]
    for m in _METHODS if method is None else (method,):
        _stepper(m, dim_p, rhs, const_names)
        setup, body = _step_lines(m, dim_p, rhs)
        given = {"h", "theta_0", *xs, *const_names}
        names = set(given)
        setup_c = _c_statements(setup, names, const_names)
        body_c = _c_statements(body, names, const_names)
        decls = [f"const double {p}{name} = c[{i}];"
                 for i, name in enumerate(const_names)]
        local = sorted(names - given) + ["theta_0", *xs]
        decls.append(f"double {', '.join(p + name for name in local)};")
        pieces.append(_STEPPER_C.format(
            method=m, p=p, lanes=n_lanes, dim=dim_p,
            decls="\n    ".join(decls),
            setup="\n    ".join(setup_c),
            body="\n            ".join(body_c),
            start=" ".join(f"xs[l * {dim_p} + {i}] = x0[{i}];"
                           for i in range(dim_p)),
            load=" ".join(f"{p}{x} = xs[l * {dim_p} + {i}];"
                          for i, x in enumerate(xs)),
            store=" ".join(f"xs[l * {dim_p} + {i}] = {p}{x};"
                           for i, x in enumerate(xs)),
            row=" ".join(f"out[(l * n_nodes + j) * {dim_p} + {i}] = "
                         f"xs[l * {dim_p} + {i}];" for i in range(dim_p)),
            finite=" && ".join(f"isfinite({p}{x})" for x in xs)))
        pieces.append(_SOLVE_C.format(method=m) if method is None
                      else _BLOCK_C.format(method=m, lanes=n_lanes))
    return "".join(pieces)


def compile_source(source: str):
    """Compile ``source`` into a shared library and load it with ctypes;
    OSError when the lock, the compiler or the loader fails.  No process
    outlives the call.  With ``ode._BUILD_DIR`` set, as in a sweep's pool
    worker, it builds ``<sha256 of source>.so`` there under the directory's
    lock unless another process already has; elsewhere it builds in a
    temporary directory deleted once the library is loaded."""
    shared = ode._BUILD_DIR
    if shared is None:
        with tempfile.TemporaryDirectory(prefix="stepselect-") as tmp:
            _compile(source, f"{tmp}/rhs.so")
            return ctypes.PyDLL(f"{tmp}/rhs.so")
    try:
        import fcntl
    except ImportError as exc:
        raise OSError(f"no file locks here: {exc}") from exc
    so_file = f"{shared}/{hashlib.sha256(source.encode()).hexdigest()}.so"
    with open(f"{shared}/lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)        # released as it closes
        if not os.path.exists(so_file):
            _compile(source, so_file)
    return ctypes.PyDLL(so_file)


def _compile(source: str, so_file: str) -> None:
    """Run the C compiler on ``source`` into the shared library ``so_file``,
    which appears whole or not at all: the compiler writes beside it and the
    result is renamed into place.  OSError when the compiler fails."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    c_file, part = f"{so_file}.c", f"{so_file}.part"
    with open(c_file, "w") as fh:
        fh.write(source)
    try:
        subprocess.run([*cc, "-O1", "-fPIC", "-shared", "-ffp-contract=off",
                        "-o", part, c_file, "-lm"], stdin=subprocess.DEVNULL,
                       capture_output=True, check=True, timeout=120)
    except subprocess.SubprocessError as exc:
        raise OSError(f"C compiler failed: {exc}") from exc
    os.replace(part, so_file)


class Library:
    """A loaded library: for the lone library (``c_source`` given no
    ``method``) ``solve``, its plain solve per method, and for a chain's its
    chain block, which reads a ``_Post``."""

    def __init__(self, cdll, method: str = None):
        d, i, ptr = ctypes.c_double, ctypes.c_int64, ctypes.c_void_p
        self.solve = {}
        if method is None:
            for m in _METHODS:
                solve = self.solve[m] = getattr(cdll, f"solve_{m}")
                solve.argtypes = [ptr, ptr, d, d, i, ptr, i, ptr]
                solve.restype = i
        else:
            self.block = cdll.block
            self.block.argtypes = [ctypes.POINTER(_Post), ptr, d, ptr,
                                   ptr, i, ptr, ptr]
            self.block.restype = i
        self.double, self.state = d, d * 3
        self.byref = ctypes.byref
        self.cdll = cdll       # keeps the library loaded

    def solve_states(self, csys, method, theta, h, n_steps, nodes):
        """The states of an uncapped ``integrate_states`` solve at the
        addressed ``nodes`` of ``ode._checked_nodes``, or None where its
        last state is not finite and the Python stepper must run it."""
        _, (_, consts), (x0, x0_at) = csys
        n_nodes, dim_p = len(nodes[0]), x0.size
        out = (self.double * (n_nodes * dim_p))()
        rows = self.solve[method](consts, x0_at, theta, h, n_steps, nodes[1],
                                  n_nodes, out)
        return None if rows < 0 else np.ndarray((rows, dim_p), buffer=out)

    def chain_post(self, csys, h, n_steps, nodes, values, c, k1, r, ll0,
                   var):
        """The structure a chain block reads at the addressed ``nodes`` of
        ``ode._checked_nodes``, with its counters at zero, and what holds
        the arrays it points into, which the caller keeps alive with it."""
        _, (_, consts), (_, x0) = csys
        values = _addressed(np.array(values, dtype=float))
        post = _Post(c=c, k1=k1, r=r, ll0=ll0, var=var, h=h, n_steps=n_steps,
                     n_nodes=len(nodes[0]), nodes=nodes[1],
                     values=values[1], consts=consts, x0=x0)
        return post, (csys, nodes, values)

    def run_block(self, post, x, lp, scale, z, log_u, draws, energies):
        """One Metropolis block in C: (x, lp, accepted, prob) as
        ``mcmc._block`` returns them, floored and writing its draws exactly
        when given ``draws`` and ``energies``.  ValueError, with nothing run
        or written, unless ``z`` and ``log_u`` have one length and ``draws``
        and ``energies`` are both None or both writable contiguous float
        arrays of that length."""
        n = len(z)
        z, log_u = (np.ascontiguousarray(a, dtype=float) for a in (z, log_u))
        if len(log_u) != n or (draws is None) != (energies is None) or any(
                a is not None and not (a.dtype == float and len(a) == n
                                       and a.flags.c_contiguous
                                       and a.flags.writeable)
                for a in (draws, energies)):
            raise ValueError("z, log_u and (both or neither) draws and "
                             "energies must be float arrays of one length")
        state = self.state(x, lp, 0.0)
        n_accept = self.block(
            self.byref(post), state, scale, z.ctypes.data, log_u.ctypes.data,
            n, None if draws is None else draws.ctypes.data,
            None if energies is None else energies.ctypes.data)
        return state[0], state[1], n_accept, state[2]
