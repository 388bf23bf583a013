"""Shared fixtures.

The expensive fixtures (full logistic sweeps at the acceptance chain length,
the glucose sweep) are session-scoped and only materialize when an acceptance
test asks for them; unit tests run in seconds without touching them.
"""

import pytest

from stepselect import native, ode
from stepselect.harness import (ExperimentSpec, McmcSettings, TimesSpec,
                                generate_synthetic, report, run_sweep)

ACCEPT_SEED = 20260816
ACCEPT_GRID = (0.2, 0.1, 0.05, 0.025)
ACCEPT_N_ITER = 96000


def logistic_spec(sigma: float, solver: str = "rk4",
                  n_iter: int = ACCEPT_N_ITER) -> ExperimentSpec:
    return ExperimentSpec(model="logistic", solver=solver, h_grid=ACCEPT_GRID,
                          seed=ACCEPT_SEED, sigma=sigma,
                          mcmc=McmcSettings(n_iter=n_iter))


@pytest.fixture(scope="session")
def logistic_dataset_s1():
    return generate_synthetic(logistic_spec(1.0))


@pytest.fixture(scope="session")
def logistic_dataset_s30():
    return generate_synthetic(logistic_spec(30.0))


def _sweep(spec: ExperimentSpec, out_dir, jobs: int = 1):
    record = run_sweep(spec, out_dir, jobs=jobs)
    report(out_dir)
    return record, out_dir


@pytest.fixture(scope="session")
def sweep_s1(tmp_path_factory):
    """Full logistic sigma=1 RK4 sweep at the acceptance chain length."""
    return _sweep(logistic_spec(1.0), tmp_path_factory.mktemp("sweep_s1"))


@pytest.fixture(scope="session")
def sweep_s30(tmp_path_factory):
    """Same grid and seed at sigma=30."""
    return _sweep(logistic_spec(30.0), tmp_path_factory.mktemp("sweep_s30"))


@pytest.fixture(scope="session")
def sweep_euler_s1(tmp_path_factory):
    """Euler on the same sigma=1 grid; the sweep that must fail to flatten."""
    return _sweep(logistic_spec(1.0, solver="euler"),
                  tmp_path_factory.mktemp("sweep_euler_s1"))


@pytest.fixture(scope="session")
def sweep_glucose(tmp_path_factory):
    spec = ExperimentSpec(
        model="glucose", solver="rk4",
        h_grid=tuple(0.25 * 2.0 ** (-k) for k in range(8)),
        seed=ACCEPT_SEED, sigma=5.0,
        times=TimesSpec(start=0.0, stop=2.0, n=5),
        prior={"shape": 5.0, "rate": 0.4},
        mcmc=McmcSettings(n_iter=12000, step_scale=0.5),
    )
    return _sweep(spec, tmp_path_factory.mktemp("sweep_glucose"), jobs=4)


def on_python_stepper(monkeypatch):
    """Run every later solve and chain block on the Python stepper, as on a
    host without a C compiler: the function that builds a right-hand
    side's library fails, and no library built earlier in the process is
    used, until ``monkeypatch`` undoes it."""
    def no_compiler(source):
        raise OSError("no C compiler")
    monkeypatch.setattr(native, "compile_source", no_compiler)
    monkeypatch.setattr(ode, "_LIBRARIES", {})
    monkeypatch.setattr(ode, "_SOLVED_ONCE", set())


@pytest.fixture
def python_stepper(monkeypatch):
    """The whole test on the Python stepper (see ``on_python_stepper``)."""
    on_python_stepper(monkeypatch)


def compiled(system) -> bool:
    """Whether ``system``'s right-hand side has its lone library, the
    compiled solves of every method, built now where there is none yet;
    the tests that compare the two paths skip on a host where none can be
    built.  A system outside the C subset fails the calling test instead,
    so a model that drops out of the subset cannot pass as a skip: False
    then means only that the compiler or the loader failed."""
    csys = ode._c_system(system)
    if csys is None:
        pytest.fail("a constant of the system is not a nonzero float")
    native.c_source(*csys[0])        # ValueError outside the C subset
    for _ in range(2):     # lone solves build the library at the second
        lib = ode._library(system)[0]
    return lib is not None
