"""Every package name the benchmark harness loads still exists, and every
argument its tracer reads by position is still at that position.

``perfbench/unit.py`` and ``perfbench/tracing.py`` reach into stepselect
through ``pkg`` (the package) and through its modules under their own
names.  A name they load that the package no longer has would end a
benchmark run with an AttributeError; this test fails first.  Attribute
stores, the tracer's wrappers, are skipped: a store creates the name and
breaks nothing.  Nothing under ``perfbench/`` is imported or run.
"""

import ast
import inspect
from pathlib import Path

import pytest

import stepselect
from stepselect import bayes, evidence, harness, mcmc, ode, stepfit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ROOTS = {"pkg": stepselect, "ode": ode, "bayes": bayes, "mcmc": mcmc,
         "evidence": evidence, "stepfit": stepfit, "harness": harness}


def loaded_chains(path):
    """Every attribute chain loaded from a ROOTS name, as (root, attr, ...)."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)):
            continue
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in ROOTS:
            chains.add((node.id, *reversed(attrs)))
    return chains


def resolves(chain) -> bool:
    obj = ROOTS[chain[0]]
    for attr in chain[1:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


@pytest.mark.parametrize("name,known", [
    ("unit.py", ("bayes", "log_posterior_unnorm")),
    ("tracing.py", ("ode", "integrate_states")),
])
def test_perfbench_loads_only_names_the_package_has(name, known):
    chains = loaded_chains(PERFBENCH / name)
    assert known in chains   # the walk sees the calls it is meant to check
    missing = sorted(".".join(c) for c in chains if not resolves(c))
    assert not missing, f"perfbench/{name} loads {missing}"


# ``perfbench/tracing.py`` also reads some arguments by position: the
# solve's config and step count, the chain's iteration count, the chain
# whose draws the evidence counts and the sweep step's index
@pytest.mark.parametrize("func,position,name", [
    (ode.integrate_states, 2, "config"),
    (ode.integrate_states, 4, "n_steps"),
    (mcmc.mh_run, 3, "n_iter"),
    (evidence.evidence_from_chain, 0, "chain"),
    (harness._sweep_worker, 1, "k"),
])
def test_traced_arguments_keep_their_positions(func, position, name):
    params = list(inspect.signature(func).parameters)
    assert params[position] == name, f"{func.__name__}{tuple(params)}"
