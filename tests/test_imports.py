"""Every name a package module imports is used in that module, every private
module-level name is used in the package, one helper spells the number
tables' format, one class declares the sampler's settings, and the package
runs on numpy alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stepselect

SOURCES = sorted(Path(stepselect.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def private_definitions(tree):
    """Module-level functions, classes and assigned names that start with
    a single underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names
                    if n.startswith("_") and not n.startswith("__"))


def test_no_dead_private_helpers():
    # a private helper that only its own definition names is left over from
    # a deletion; tests do not count as a use
    defined, used = {}, set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for name in private_definitions(tree):
            defined[name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = sorted(f"{defined[n]}:{n}" for n in set(defined) - used)
    assert not dead, f"private names nothing in the package uses: {dead}"


def test_one_writer_formats_the_number_tables():
    # the number tables' %.17g format is spelled once in the package, inside
    # _write_table, and numpy's savetxt, a second writer, is not used
    texts = {path.name: path.read_text() for path in SOURCES}
    assert [name for name, text in texts.items() if "savetxt" in text] == []
    assert {name: text.count(".17g") for name, text in texts.items()
            if ".17g" in text} == {"harness.py": 1}
    text = texts["harness.py"]
    writer = next(node for node in ast.parse(text).body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_write_table")
    assert ".17g" in ast.get_source_segment(text, writer)


def test_one_class_declares_the_sampler_settings():
    # the sampler's settings are declared once, by the spec's mcmc group,
    # which mh_run reads as it is
    declaring = [f"{path.stem}.{node.name}" for path in SOURCES
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ClassDef) and any(
                     isinstance(stmt, ast.AnnAssign)
                     and isinstance(stmt.target, ast.Name)
                     and stmt.target.id == "target_accept"
                     for stmt in node.body)]
    assert declaring == ["mcmc.McmcSettings"]


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
