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
        "a1ae953e6810ce93bc22dac149778d250df266629e4b632f0c9289aefe7811ad",
    ("logistic", "euler", 0.025):
        "28556a07fa48703a09383d21bbcfcb215d077392c86d3ae8da441b2dc383adc1",
    ("glucose", "rk4", 0.0625):
        "19b6c0c69048e5522ecd39228ca00e74ddf606ef827d3e2ba954865c0c079fc9",
}

# float.hex of the log marginal by quadrature: the exact model, then solver
MARGINAL_HEX = {
    "exact": "-0x1.5620c446b8dfep+5",
    ("rk4", 0.2): "-0x1.561ea2db6bae3p+5",
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
        "bba3f33c000f82568a923f1d28aa10403d95a418229b0ad1764a8b84f4b952c9",
    "posterior_hist_0.csv":
        "2f6602fd26916618994fa20d4e5dc6d81909dd834604d8ef1109c8a09122df13",
    "chain_0.csv":
        "a1ae953e6810ce93bc22dac149778d250df266629e4b632f0c9289aefe7811ad",
    "chain_1.csv":
        "cd3c63c7e2185617d430f900c6c622be46949003192be974ea7054882b8cb8a3",
    "chain_2.csv":
        "3e67470f8683eafe52ac510e7130977e0f77fd295ed7df9333771daff32b4a3f",
    "chain_3.csv":
        "a138d4922a6b7d1516420a2f64998c0e66055b7bab97df35f634d8744f0540ed",
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
        "7970d256431b3d6c82f0b5de4afa814d3133d286a894f2876b6065410011d10e",
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


def run_directory_digests(out_dir) -> dict:
    spec = ExperimentSpec.from_json_file(SPEC_SIGMA1)
    spec.mcmc.n_iter = N_ITER
    record = run_sweep(spec, out_dir)
    report(out_dir)
    return record, {name: hashlib.sha256((out_dir / name).read_bytes())
                    .hexdigest() for name in RUN_DIR_SHA256}


def test_run_directory_bits_pinned(tmp_path):
    _, digests = run_directory_digests(tmp_path)
    assert digests == RUN_DIR_SHA256


def test_run_directory_bits_without_a_compiler(tmp_path, python_stepper):
    # the Python stepper and Metropolis loop give the same bits; the record
    # and the summary say that the chains ran on them
    record, digests = run_directory_digests(tmp_path)
    assert digests == RUN_DIR_SHA256
    assert [r["compiled"] for r in record["runs"]] == [False] * 4
    summary = (tmp_path / "summary.txt").read_text()
    assert ("python stepper: h=0.025 h=0.05 h=0.1 h=0.2 ran without a "
            "compiled library") in summary


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
