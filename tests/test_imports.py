"""Every name a package module imports is used in that module, and the
package runs on numpy alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stepselect

MODULES = sorted(p for p in Path(stepselect.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{path.name} imports {unused} without using them"


RUN_WITHOUT_SCIPY = """
import sys
from stepselect.harness import ExperimentSpec, McmcSettings, report, run_sweep
spec = ExperimentSpec(model="logistic", h_grid=(0.4, 0.2, 0.1), seed=5,
                      mcmc=McmcSettings(n_iter=300))
run_sweep(spec, sys.argv[1])
report(sys.argv[1])
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_sweep_and_report_load_no_scipy(tmp_path):
    # scipy is a test dependency only: a sweep and its report, which reach
    # the weighting density and the exact quadrature, must not import it
    src = str(Path(stepselect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY,
                           str(tmp_path / "run")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "run" / "table.csv").is_file()
