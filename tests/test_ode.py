"""Solver unit tests: single-step oracles, grid logic, convergence orders.

The single-step values below were worked out by hand on dx/dt = x (one step
of size 0.5 from x=1), on the rotation dx/dt = y, dy/dt = -x (one step of
size 0.5 from (1, 0)) and on the logistic right-hand side (one Euler step of
size 0.1 from x=100), so they are independent of the implementation.
"""

import hashlib
import math
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepselect import (METHOD_ORDERS, GlucoseParams, LogisticParams,
                        SolverConfig, check_grid, divides, estimate_order,
                        integrate_states, make_glucose_system,
                        make_logistic_system)
from stepselect import native, ode
from stepselect.errors import DegenerateFit, GridMismatch, NonFiniteState
from stepselect.models import OdeSystem, logistic_exact
from stepselect.ode import _stepper

from _oracles import rhs_function
from conftest import compiled, on_python_stepper


def make_system(rhs, x0, **consts) -> OdeSystem:
    """A test system with right-hand-side lines ``rhs`` from ``x0``."""
    return OdeSystem(dim_p=len(x0), rhs=rhs, consts=consts,
                     x0=np.array(x0, dtype=float))


def exp_system() -> OdeSystem:
    """dx/dt = theta0 * x, exact solution exp(theta0 * t)."""
    return make_system(("dx = theta_0 * x",), [1.0])


def rotation_system() -> OdeSystem:
    """dx/dt = y, dy/dt = -x from (1, 0): the two-state path."""
    return make_system(("dx_0 = x_1", "dx_1 = -x_0"), [1.0, 0.0])


# ---------------------------------------------------------------------------
# single-step oracles
# ---------------------------------------------------------------------------

def final_state(system, theta, method, h, t_end):
    """The state after the solve from t=0 to t_end, as a list of floats."""
    n_steps = round(t_end / h)
    return integrate_states(system, theta, SolverConfig(method, h), 0.0,
                            n_steps, (n_steps,))[0].tolist()


def one_step(system, method, h, theta=1.0):
    return final_state(system, theta, method, h, h)


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
        system = make_glucose_system(GlucoseParams())
        theta, h, t_end = 9.3, 0.0625, 2.0
    assert [v.hex() for v in final_state(system, theta, method, h, t_end)] \
        == PINNED_FINAL_STATES[model, method]


def helper_logistic_system() -> OdeSystem:
    """The logistic model through a constant helper function, which the C
    subset does not take: it runs on the Python stepper."""
    return make_system(("dx = theta_0 * x * (1.0 - fraction(x))",), [100.0],
                       fraction=lambda x: x / 1000.0)


def int_logistic_system() -> OdeSystem:
    """The logistic model built by hand with its constant K an int, which
    the float-only C subset does not take: it runs on the Python stepper."""
    return make_system(("dx = theta_0 * x * (1.0 - x / K)",), [100.0],
                       K=1000)


@pytest.mark.parametrize("method", sorted(METHOD_ORDERS))
@pytest.mark.parametrize("model", ["logistic", "glucose", "helper", "int"])
def test_integrate_states_at_nodes_matches_every_node_solve(model, method):
    # node 0, adjacent nodes, a repeated node and long stretches between them
    if model != "glucose":
        system = {"logistic": make_logistic_system(LogisticParams()),
                  "helper": helper_logistic_system(),
                  "int": int_logistic_system()}[model]
        theta, h, n_steps = 1.1, 0.1, 30
        nodes = [0, 1, 2, 2, 9, 30]
        assert (ode._c_system(system) is None) == (model in ("helper", "int"))
    else:
        system = make_glucose_system(GlucoseParams())
        theta, h, n_steps = 9.3, 0.0625, 32
        nodes = [0, 0, 5, 6, 6, 7, 31, 32]
    cfg = SolverConfig(method, h)
    every = integrate_states(system, theta, cfg, 0.0, n_steps,
                             range(n_steps + 1))
    picked = integrate_states(system, theta, cfg, 0.0, n_steps,
                              nodes)
    assert picked.shape == (len(nodes), system.dim_p)
    assert [v.hex() for v in picked.ravel().tolist()] \
        == [v.hex() for v in every[nodes].ravel().tolist()]
    last = integrate_states(system, theta, cfg, 0.0, n_steps,
                            (n_steps,))
    assert np.array_equal(last, every[-1:])
    if model == "int":
        # x / K divides by the same double whether K is 1000 or 1000.0
        float_k = integrate_states(make_logistic_system(LogisticParams()),
                                   theta, cfg, 0.0, n_steps,
                                   range(n_steps + 1))
        assert [v.hex() for v in every.ravel().tolist()] \
            == [v.hex() for v in float_k.ravel().tolist()]


@pytest.mark.parametrize("nodes", [
    [0, 5, 3, 10],     # descending
    [0, 5],            # stops short of n_steps
    [0, 5, 10, 12],    # runs past n_steps
    [-1, 10],          # before the start
    [],                # no node at all
    [0, 2.5, 10],      # not a step index
])
def test_integrate_states_rejects_bad_nodes(nodes, monkeypatch):
    # on both paths, every method, without and with the residual check: the
    # nodes are checked before any step, so no stepper runs, not even when
    # the cap (1.0 against values 1e9) would stop the solve at node 0
    system = exp_system()

    def stepped(*args):
        raise AssertionError("a stepper ran")
    solver = ode._solver
    monkeypatch.setattr(ode, "_solver", lambda method, system: (
        stepped, *solver(method, system)[1:]))
    for path in ("compiled", "python"):
        with monkeypatch.context() as patch:
            if path == "python":
                on_python_stepper(patch)
            elif compiled(system):
                lib = ode._library(system)[0]
                patch.setattr(lib, "solve",
                              dict.fromkeys(lib.solve, stepped))
            for method in sorted(METHOD_ORDERS):
                for values, cap in (((), math.inf),
                                    ([0.0] * len(nodes), 1e300),
                                    ([1e9] * len(nodes), 1.0)):
                    with pytest.raises(ValueError, match="nodes must be"):
                        integrate_states(system, 1.0,
                                         SolverConfig(method, 0.1), 0.0, 10,
                                         nodes, values, cap)


# ---------------------------------------------------------------------------
# generated steppers against a plain loop
# ---------------------------------------------------------------------------

def reference_states(rhs, x, theta, h, n_steps, method):
    """Every state of a solve, one step at a time on float tuples of any size."""
    def shift(x, c, k):
        return tuple(xi + c * ki for xi, ki in zip(x, k))

    half, sixth = 0.5 * h, h / 6.0
    states = [x]
    for _ in range(n_steps):
        k1 = rhs(x, theta)
        if method == "euler":
            x = shift(x, h, k1)
        elif method == "rk2":
            x = shift(x, h, rhs(shift(x, half, k1), theta))
        else:
            k2 = rhs(shift(x, half, k1), theta)
            k3 = rhs(shift(x, half, k2), theta)
            k4 = rhs(shift(x, h, k3), theta)
            x = tuple(xi + sixth * (a + 2.0 * (b + c) + d)
                      for xi, a, b, c, d in zip(x, k1, k2, k3, k4))
        states.append(x)
    return states


@pytest.mark.parametrize("method", sorted(METHOD_ORDERS))
@pytest.mark.parametrize("dim_p", [1, 2, 4])
def test_generated_stepper_matches_plain_loop(method, dim_p):
    h, n_steps = 0.0625, 64
    if dim_p == 1:
        model, theta = make_logistic_system(LogisticParams()), 1.3
    elif dim_p == 2:
        model, theta = rotation_system(), 1.3
    else:
        model, theta = make_glucose_system(GlucoseParams()), 9.3
    check_stepper(model, theta, method, h, n_steps)


def check_stepper(model, theta, method, h, n_steps):
    """The generated stepper of ``model`` against ``reference_states``,
    without and with observed values and a cap."""
    dim_p = model.dim_p
    x0 = tuple(model.x0.tolist())
    ref = reference_states(rhs_function(model), x0, theta, h, n_steps, method)
    step = _stepper(method, dim_p, model.rhs, tuple(model.consts))
    consts = tuple(model.consts.values())
    if dim_p == 1:
        x0, = x0

    def hexes(states):
        return [[v.hex() for v in (s if dim_p > 1 else (s,))] for s in states]

    # node 0, repeated nodes, adjacent nodes, gaps of 0, 1, 2 and 3 steps
    # and long stretches between them
    node_sets = ([0, 0, 1, 2, 2, 9, 40, 63, 64], [64], [0, 64, 64],
                 [0, 0, 1, 3, 6, 6, 9, 64])
    for nodes in node_sets:
        out = []
        x = step(consts, x0, theta, h, n_steps, nodes, out)
        assert hexes(out) == [[v.hex() for v in ref[n]] for n in nodes]
        assert hexes([x]) == hexes(out[-1:])

    # given observed values, the stepper takes the same steps and stops at
    # the first node before the end where the running sum of squared
    # residuals of the first component exceeds the cap; the last node is
    # never checked
    for nodes in node_sets:
        values = [0.5 * j for j in range(len(nodes))]
        sums, total = [], 0.0
        for v, n in zip(values, nodes):
            total += (v - ref[n][0]) ** 2
            sums.append(total)
        for cap in (math.inf, -1.0, *sums):
            stop = next((j for j, (n, total) in enumerate(zip(nodes, sums))
                         if n < n_steps and total > cap), len(nodes) - 1)
            out = []
            x = step(consts, x0, theta, h, n_steps, nodes, out, values, cap)
            assert hexes(out) == [[v.hex() for v in ref[n]]
                                  for n in nodes[:stop + 1]]
            assert hexes([x]) == hexes(out[-1:])


@pytest.mark.parametrize("method,dim_p,rhs,consts", [
    ("rk4", 1, ("h = 2.0 * x", "dx = h"), ()),  # a temporary like the step
    ("rk4", 1, ("dx = half * x",), ("half",)),  # a constant like a stage
    ("rk4", 2, ("dx_0 = x_1", "i = x_0", "dx_1 = -i"), ()),
    ("rk4", 1, ("stops = 2.0 * x", "dx = stops"), ()),
    ("rk2", 1, ("dx = seen * x",), ("seen",)),  # the residual check's
])
def test_stepper_rejects_rhs_names_of_its_own(method, dim_p, rhs, consts):
    # pasted into the loop, they would silently change what it computes;
    # the C translation prefixes its names, but it refuses what the Python
    # stepper, its reference, refuses, with the same message
    with pytest.raises(ValueError, match="stepper's own") as want:
        _stepper(method, dim_p, rhs, consts)
    with pytest.raises(ValueError) as got:
        native.c_source(dim_p, rhs, consts, method)
    assert str(got.value) == str(want.value)


def test_stepper_rejects_rhs_that_reads_t():
    # systems are autonomous and the loop defines no t: without the check,
    # the stepper's first call would end in a bare NameError
    rhs = ("dx_0 = x_1", "dx_1 = -theta_0 * x_0 + cos(t)")
    with pytest.raises(ValueError, match="reads the time t") as want:
        _stepper("rk4", 2, rhs, ("cos",))
    with pytest.raises(ValueError) as got:
        native.c_source(2, rhs, ("cos",), "rk4")
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# the compiled library against the Python stepper
# ---------------------------------------------------------------------------

def model_solve(model):
    """(system, theta, h, n_steps, nodes) of a solve with gaps of 1-4 steps
    and a repeated node."""
    if model == "logistic":
        return (make_logistic_system(LogisticParams()), 1.1, 0.1, 30,
                (0, 1, 4, 8, 8, 12, 16, 20, 24, 28, 30))
    return (make_glucose_system(GlucoseParams()), 9.3,
            0.0625, 32, (0, 2, 4, 8, 8, 12, 16, 20, 24, 28, 32))


def python_solve(monkeypatch, solve):
    """``solve()`` on the Python stepper, or the exception it raised."""
    with monkeypatch.context() as patch:
        on_python_stepper(patch)
        try:
            return solve()
        except Exception as exc:   # compared with the compiled path's
            return exc


@pytest.mark.parametrize("case", ["uncapped", "capped", "stopped at the cap",
                                  "repeated node"])
@pytest.mark.parametrize("method", sorted(METHOD_ORDERS))
@pytest.mark.parametrize("model", ["logistic", "glucose"])
def test_compiled_solve_matches_the_python_stepper(model, method, case,
                                                   monkeypatch):
    system, theta, h, n_steps, nodes = model_solve(model)
    if not compiled(system):
        pytest.skip("no C compiler")

    def solve(values=(), cap=math.inf):
        return integrate_states(system, theta, SolverConfig(method, h), 0.0,
                                n_steps, nodes, values, cap)
    got, want = solve(), python_solve(monkeypatch, solve)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if case != "uncapped":
        # a capped solve runs on the Python stepper and never enters the
        # lone library, whose compiled cap the lane stepper's chain blocks
        # keep (test_compiled_block_matches_the_sequential_block): observed
        # values 2 off the states, so the residual sum grows by about 4 per
        # node, a cap of 9 stops the solve at its third node, and one of 17
        # at the second row of the repeated node 8
        def entered(*args):
            raise AssertionError("a capped solve entered the lone library")
        lib = ode._library(system)[0]
        monkeypatch.setattr(lib, "solve", dict.fromkeys(lib.solve, entered))
        full = got
        got = solve((full[:, 0] + 2.0).tolist(),
                    {"capped": 1e300, "stopped at the cap": 9.0,
                     "repeated node": 17.0}[case])
        assert got.tobytes() == full[:len(got)].tobytes()
    assert len(got) == {"uncapped": 11, "capped": 11, "stopped at the cap": 3,
                        "repeated node": 5}[case]


@pytest.mark.parametrize("path", ["compiled", "python"])
def test_uncapped_solve_reads_no_values(path, monkeypatch):
    # the fused log posterior passes its observations with an infinite cap
    # during burn-in and quadrature: values are read only under a finite
    # cap, so any tuple, even one of the wrong length, gives the same bits
    system, theta, h, n_steps, nodes = model_solve("logistic")
    if path == "python":
        on_python_stepper(monkeypatch)
    elif not compiled(system):
        pytest.skip("no C compiler")
    cfg = SolverConfig("rk4", h)
    want = integrate_states(system, theta, cfg, 0.0, n_steps, nodes)
    for values in ((), (1.0,), (0.0,) * (2 * len(nodes))):
        got = integrate_states(system, theta, cfg, 0.0, n_steps, nodes,
                               values, math.inf)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["unreachable node", "blow-up theta",
                                  "blow-up"])
def test_compiled_solve_errors_match_the_python_stepper(case, monkeypatch):
    # a solve's nodes are checked before either stepper runs, so an
    # unreachable node raises one ValueError on both paths; the compiled
    # path hands every solve that ends on a non-finite state to the Python
    # stepper, which raises what it always raised
    if case == "unreachable node":
        system, theta, method, h = make_logistic_system(LogisticParams()), \
            1.1, "rk4", 0.1
        args = (0.0, 30, (0, 9, 5, 30))
        error = ValueError
    elif case == "blow-up theta":
        # RK4 at lambda h = 8 is unstable
        system, theta, method, h = make_logistic_system(LogisticParams()), \
            40.0, "rk4", 0.2
        args = (0.0, 50, (0, 2, 50))
        error = NonFiniteState
    elif case == "blow-up":
        # dx/dt = x^2 from 10: Euler h=10 overflows at step 7
        system, theta, method, h = make_system(("dx = x * x",), [10.0]), \
            1.5, "euler", 10.0
        args = (0.0, 20, (0, 3, 20))
        error = NonFiniteState
    if not compiled(system):
        pytest.skip("no C compiler")

    def solve():
        return integrate_states(system, theta, SolverConfig(method, h), *args)
    with pytest.raises(error) as got:
        solve()
    want = python_solve(monkeypatch, solve)
    assert type(want) is error and str(got.value) == str(want)
    if error is NonFiniteState:
        assert (got.value.t, got.value.step_index, got.value.theta) \
            == (want.t, want.step_index, want.theta)
    if case == "blow-up":
        assert (got.value.t, got.value.step_index) == (80.0, 7)


def test_c_source_takes_only_its_subset():
    # a call, a power, a chained comparison, an int literal, a name never
    # assigned, a divisor that is neither a constant nor a nonzero float
    # literal, or an assignment to a constant gets no library: that
    # right-hand side runs on the Python stepper
    for rhs in (("dx = abs(x)",), ("dx = x ** 2",),
                ("dx = x if 0.0 < x < 1.0 else 0.0",),
                (f"dx = {2 ** 60} * x",), ("dx = 2 * 3 * x",),
                ("dx = -1 * x",), ("dx = 3 * x",), ("dx = y",),
                ("dx = x / x",), ("dx = x / (theta_0 - 2.0)",),
                ("dx = x / 0.0",), ("dx = x / -2.0",),
                ("K = x", "dx = x / K")):
        with pytest.raises(ValueError):
            native.c_source(1, rhs, ("K",))
    # a float literal is written as its float.hex, and a division by a
    # constant or a nonzero float literal is a plain C division
    assert "0x1.8000000000000p+1" in native.c_source(1, ("dx = 3.0 * x",),
                                                     ())
    source = native.c_source(1, ("dx = x / K - x / 2.0",), ("K",))
    assert "((v_x / v_K) - (v_x / 0x1.0000000000000p+1))" in source


# sha256 of each bundled model's lone-library C source (the head and the
# three methods' steppers, each with its plain solve), the bytes it has
# since a lone solve takes no cap and a stepper meets no unreached node
WHOLE_SOURCE_SHA256 = {
    "logistic": "261ac9b1ed2ffdb10b880205639eca2244e421b04840d760263c0315501e3808",
    "glucose": "6be8f72c89a5d1c8935faefe01ca05a55f921a536dcd1bbd8f0e88731eb8ff93",
}


@pytest.mark.parametrize("model", ["logistic", "glucose"])
def test_one_method_source_is_its_part_of_the_whole(model):
    # the lone library is the head and every method's lane stepper, each
    # followed by its one-lane solve_<method>; a chain's library is the
    # head, its own method's lane stepper as the lone source has it, and
    # the chain block over that stepper, the same block for every method,
    # with no solve_
    key = ode._c_system(model_solve(model)[0])[0]
    whole = native.c_source(*key)
    assert hashlib.sha256(whole.encode()).hexdigest() \
        == WHOLE_SOURCE_SHA256[model]
    head, *parts = re.split(r"(?=\nstatic void lanes_)", whole)
    assert len(parts) == 3 and "typedef struct" not in whole
    blocks = set()
    for method, part in zip(("euler", "rk2", "rk4"), parts):
        stepper, solve = re.split(r"(?=\nint64_t solve_)", part)
        assert stepper.startswith(f"\nstatic void lanes_{method}(")
        assert re.findall(r"\bint64_t (solve_\w+)\(", solve) \
            == [f"solve_{method}"]
        chain = native.c_source(*key, method)
        assert chain.startswith(head + stepper) and "solve_" not in chain
        block = chain[len(head + stepper):]
        assert block.startswith("\ntypedef struct")
        assert block.count(f"lanes_{method}(") == 1
        blocks.add(block.replace(f"lanes_{method}(", "lanes_M("))
    assert len(blocks) == 1


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_a_zero_constant_gets_no_library(zero):
    # x / K with K = 0 raises ZeroDivisionError in Python and gives an
    # infinity or a NaN in C: the system runs on the Python stepper
    system = make_system(("dx = theta_0 * x * (1.0 - x / K)",), [100.0],
                         K=zero)
    assert ode._c_system(system) is None
    for _ in range(2):     # the second solve would build a library
        with pytest.raises(ZeroDivisionError):
            integrate_states(system, 1.1, SolverConfig("rk4", 0.1), 0.0, 10,
                             (0, 10))


def test_compile_leaves_no_file_behind(tmp_path, monkeypatch):
    # the lone library (no method) and a chain's library alike: the lone
    # one holds every method's plain solve and no chain block, the chain's
    # the block and no solve
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    for method in (None, "rk4"):
        source = native.c_source(1, ("dx = theta_0 * x",), (), method)
        try:
            lib = native.compile_source(source)
        except OSError:
            pytest.skip("no C compiler")
        for m in METHOD_ORDERS:
            assert hasattr(lib, f"solve_{m}") is (method is None)
        assert hasattr(lib, "block") is (method is not None)
        assert list(tmp_path.iterdir()) == []


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


def test_mismatched_interval_raises():
    # 0.3 does not divide [0, 1]
    with pytest.raises(GridMismatch):
        estimate_order(exp_system(), np.array([1.0]), "euler",
                       (0.3, 0.1, 0.05), 0.0, 1.0, oracle=np.exp)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig("rk3", 0.1)
    with pytest.raises(ValueError):
        SolverConfig("rk4", -0.1)


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

    rhs = (("dx = sq(x)",) if dim_p == 1
           else tuple(f"dx_{j} = sq(x_{j})" for j in range(dim_p)))
    return make_system(rhs, [10.0] * dim_p, sq=sq)


def test_nonfinite_state_raised_with_context():
    # Euler h=10 on dx/dt = x^2 from 10: x_7 ~ 1e255 is the last finite
    # state, so step 7 (ending at t=80) is the first bad one, whether the
    # nodes ask for every state or the blow-up falls between two nodes.  The
    # guarded right-hand side raises ValueError on the infinite state (as
    # math.sin(inf) does), which must not hide the earlier non-finite step.
    for dim_p in (1, 2):   # scalar and two-component steppers
        for nodes in (range(21), (0, 3, 20), (20,)):
            for guarded in (False, True):
                with pytest.raises(NonFiniteState) as exc:
                    integrate_states(quadratic_blowup_system(dim_p, guarded),
                                     1.5, SolverConfig("euler", 10.0), 0.0,
                                     20, nodes)
                assert (exc.value.t, exc.value.step_index) == (80.0, 7)
                assert exc.value.theta == (1.5,)


def test_capped_solve_stops_on_an_overflowing_residual_sum():
    # Euler h=10 on dx/dt = x^2 from 10: the square of x_7 ~ 1e255 is
    # infinite, which exceeds any finite cap, so a solve checked at every
    # node stops there with 8 rows instead of replaying the blow-up; one
    # whose last node before the end is 3 still raises
    system, cfg = quadratic_blowup_system(1), SolverConfig("euler", 10.0)
    zeros = [0.0] * 21
    states = integrate_states(system, 1.5, cfg, 0.0, 20, range(21), zeros,
                              1e300)
    assert states.shape == (8, 1) and math.isfinite(states[-1, 0])
    with pytest.raises(NonFiniteState):
        integrate_states(system, 1.5, cfg, 0.0, 20, (0, 3, 20),
                         zeros[:3], 1e300)
    with pytest.raises(ValueError, match="one observed value per node"):
        integrate_states(system, 1.5, cfg, 0.0, 20, (0, 3, 20),
                         zeros, 1e300)


@pytest.mark.parametrize("nodes", [range(21), (0, 3, 20)])
def test_rhs_error_on_finite_state_propagates(nodes):
    # x ** 2 raises OverflowError at x_7 ~ 1e255, before any state is
    # non-finite: the solve reports the right-hand side's own error
    with pytest.raises(OverflowError):
        integrate_states(make_system(("dx = x ** 2",), [10.0]), 1.0,
                         SolverConfig("euler", 10.0), 0.0, 20, nodes)


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
    with pytest.raises(DegenerateFit):
        estimate_order(make_system(("dx = 0.0",), [3.0]), np.array([1.0]),
                       "rk4", H_LIST, 0.0, 1.0,
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
        errs.append(abs(final_state(system, lam, "rk4", h, 4.0)[0] - ref))
    assert errs[1] > 0.0
    assert 8.0 <= errs[0] / errs[1] <= 32.0
