"""Golden bits of short fixed-seed chains and of three quadrature marginals.

c8 compares two runs of the same code with each other; these values were
recorded once and pin the pipeline's output across changes to the solver,
the log posterior and the sampler.  Every chain CSV and marginal below must
stay bit-identical unless a change says why it moves them and re-verifies
the acceptance bounds.
"""

import hashlib

import pytest

from stepselect import SolverConfig, make_solver_forward
from stepselect.evidence import GridSpec, posterior_window, quadrature_marginal
from stepselect.harness import (ExperimentSpec, McmcSettings, TimesSpec,
                                build_system, exact_forward,
                                generate_synthetic, run_single)

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
