"""Golden bits of short fixed-seed chains, of three quadrature marginals,
of one short sweep's run directory and of report's tables with empty cells.

c8 compares two runs of the same code with each other; these values were
recorded once and pin the pipeline's output across changes to the solver,
the log posterior, the sampler and the run directory's writers.  Every file
and marginal below must stay bit-identical unless a change says why it
moves them and re-verifies the acceptance bounds.
"""

import hashlib
from pathlib import Path

import pytest

from stepselect import SolverConfig, make_solver_forward
from stepselect.evidence import GridSpec, posterior_window, quadrature_marginal
from stepselect.harness import (ExperimentSpec, McmcSettings, TimesSpec,
                                build_system, exact_forward,
                                generate_synthetic, report, run_single,
                                run_sweep)

from conftest import logistic_spec

N_ITER = 1500

# sha256 of chain_0.csv for a one-step sweep at each (model, solver, h)
CHAIN_SHA256 = {
    ("logistic", "rk4", 0.2):
        "ff44199bf64c59f7dbaaa50d10906dec19e62819726672e0d1bc21a0ad1cd355",
    ("logistic", "euler", 0.025):
        "07304393c65eadfd65940d971bae12d4f4da757de0fe39daf3e996ede1b125bc",
    ("glucose", "rk4", 0.0625):
        "002fd6e3e2a83a6b7102bf0bb3e25d42dc0d97c327173785d2c16b448da4b253",
}

# float.hex of the log marginal by quadrature: the exact model, then solver
MARGINAL_HEX = {
    "exact": "-0x1.5620c446b8dfep+5",
    ("rk4", 0.2): "-0x1.561ea2db6bae2p+5",
    ("euler", 7.8125e-4): "-0x1.55f1f8fd7c7a6p+5",
}

# sha256 of the deterministic files of a run directory: run_sweep and report
# of scripts/specs/logistic_sigma1.json at mcmc.n_iter = N_ITER
RUN_DIR_SHA256 = {
    "observations.csv":
        "a5a1c6e705f3e3ab6c58cde9c8a8e33c07cd127de515f2ee6471acbe79f6b071",
    "table.csv":
        "5c649fa98666c6dd0c06dfcf05c1f01870cc24af289d8afac9ce8f49c811f9b4",
    "curve.csv":
        "cffe9bd78911e9ebd0d1530f88623836e531ea4f0bbeb93e7e63188c84904005",
    "posterior_hist_0.csv":
        "2f6602fd26916618994fa20d4e5dc6d81909dd834604d8ef1109c8a09122df13",
}

SPEC_SIGMA1 = (Path(__file__).resolve().parents[1] / "scripts" / "specs"
               / "logistic_sigma1.json")

# sha256 of report's tables where cells stay empty: table.csv of the sigma=1
# spec at sigma = 1e5, whose exact quadrature fails, and curve.csv of a sweep
# whose failed 0.3 step leaves too few points for a curve
EMPTY_CELL_SHA256 = {
    ("sigma_1e5", "table.csv"):
        "3a86305fb589e464f5d850463dbc99aaadcbdf4529c17a7f72792a92c7d5e139",
    ("no_curve", "curve.csv"):
        "96653b634f10a8879f9c36759fd8684063aa35b454cb581235344a3f4686706c",
}


def chain_spec(model, solver, h):
    if model == "logistic":
        spec = logistic_spec(1.0, solver=solver, n_iter=N_ITER)
        spec.h_grid = (h,)
        return spec
    return ExperimentSpec(
        model="glucose", solver=solver, h_grid=(h,), seed=20260816, sigma=5.0,
        times=TimesSpec(start=0.0, stop=2.0, n=5),
        prior={"shape": 5.0, "rate": 0.4},
        mcmc=McmcSettings(n_iter=N_ITER, step_scale=0.5))


@pytest.mark.parametrize("key", sorted(CHAIN_SHA256))
def test_chain_csv_bits_pinned(key, tmp_path):
    spec = chain_spec(*key)
    run = run_single(spec, generate_synthetic(spec), 0, tmp_path)
    digest = hashlib.sha256((tmp_path / run["chain_csv"]).read_bytes())
    assert digest.hexdigest() == CHAIN_SHA256[key]


@pytest.mark.parametrize("key", list(MARGINAL_HEX), ids=str)
def test_quadrature_marginal_bits_pinned(key):
    spec = logistic_spec(1.0)
    dataset = generate_synthetic(spec)
    prior = spec.build_prior()
    if key == "exact":
        forward = exact_forward(spec, dataset)
    else:
        forward = make_solver_forward(build_system(spec, dataset),
                                      SolverConfig(*key), dataset.times)
    window = posterior_window(dataset, prior, forward)
    est = quadrature_marginal(dataset, prior, forward,
                              GridSpec(bounds=(window,)))
    assert est.log_marginal.hex() == MARGINAL_HEX[key]


def test_run_directory_bits_pinned(tmp_path):
    spec = ExperimentSpec.from_json_file(SPEC_SIGMA1)
    spec.mcmc.n_iter = N_ITER
    run_sweep(spec, tmp_path)
    report(tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in RUN_DIR_SHA256}
    assert digests == RUN_DIR_SHA256


def empty_cell_spec(case):
    if case == "sigma_1e5":
        spec = ExperimentSpec.from_json_file(SPEC_SIGMA1)
        spec.sigma, spec.mcmc.n_iter = 1e5, N_ITER
        return spec
    return ExperimentSpec(model="logistic", h_grid=(0.4, 0.3, 0.2), seed=123,
                          mcmc=McmcSettings(n_iter=600))


@pytest.mark.parametrize("key", sorted(EMPTY_CELL_SHA256), ids=str)
def test_empty_cells_bits_pinned(key, tmp_path):
    case, name = key
    run_sweep(empty_cell_spec(case), tmp_path)
    report(tmp_path)
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == EMPTY_CELL_SHA256[key]
