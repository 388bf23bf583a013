"""CLI verbs, exit codes, and stream behavior (exercised in-process)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stepselect
from stepselect.cli import main
from stepselect.harness import load_observations


def write_spec(tmp_path, **overrides):
    spec = {"model": "logistic", "solver": "rk4", "h_grid": [0.4, 0.2, 0.1],
            "seed": 123, "sigma": 1.0, "mcmc": {"n_iter": 400}}
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_gen_writes_loadable_csv(tmp_path, capsys):
    spec = write_spec(tmp_path)
    out = tmp_path / "obs.csv"
    assert main(["gen", "--spec", spec, "--out", str(out)]) == 0
    assert "wrote 26 observations" in capsys.readouterr().out
    ds = load_observations(out)
    assert ds.n == 26 and np.all(np.isfinite(ds.values))


def test_gen_seed_override_changes_data(tmp_path):
    spec = write_spec(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["gen", "--spec", spec, "--out", str(a)])
    main(["gen", "--spec", spec, "--seed", "999", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_evidence_single_grid_spec(tmp_path, capsys):
    spec = write_spec(tmp_path, h_grid=[0.4])
    assert main(["evidence", "--spec", spec]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["h"] == 0.4 and rec["solver"] == "rk4"
    assert np.isfinite(rec["log_marginal"]) and rec["se"] > 0.0


def test_evidence_requires_h_on_multi_grid(tmp_path, capsys):
    spec = write_spec(tmp_path)
    assert main(["evidence", "--spec", spec]) == 2
    assert "--h" in capsys.readouterr().err


def test_evidence_h_flag_and_out_file(tmp_path, capsys):
    spec = write_spec(tmp_path)
    out = tmp_path / "ev.json"
    assert main(["evidence", "--spec", spec, "--h", "0.2",
                 "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["h"] == 0.2
    assert json.loads(capsys.readouterr().out) == rec


def test_sweep_then_report(tmp_path, capsys):
    spec = write_spec(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["sweep", "--spec", spec, "--out", str(run_dir)]) == 0
    shown = capsys.readouterr().out
    assert "model=logistic solver=rk4" in shown
    assert (run_dir / "record.json").exists()
    assert (run_dir / "table.csv").exists()

    assert main(["report", "--out", str(run_dir)]) == 0
    assert capsys.readouterr().out == shown


def test_failure_exits_one_with_error_line(tmp_path, capsys):
    # 0.3 is inadmissible against the 0.4 observation gap
    spec = write_spec(tmp_path, h_grid=[0.3])
    assert main(["evidence", "--spec", spec]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bad_spec_exits_one_without_run_dir(tmp_path, capsys):
    spec = write_spec(tmp_path, mcmc={"n_iter": 30})
    run_dir = tmp_path / "run"
    assert main(["sweep", "--spec", spec, "--out", str(run_dir)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not run_dir.exists()
    # overrides are validated too
    spec = write_spec(tmp_path)
    assert main(["evidence", "--spec", spec, "--h", "-0.1"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    spec = write_spec(tmp_path, mcmc={"n_iter": 400, "init": "abc"})
    assert main(["evidence", "--spec", spec, "--h", "0.2"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    spec = write_spec(tmp_path, observations_csv=5)
    assert main(["sweep", "--spec", spec, "--out", str(run_dir)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not run_dir.exists()
    spec = write_spec(tmp_path, params={"K": -5})
    assert main(["sweep", "--spec", spec, "--out", str(run_dir)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not run_dir.exists()
    # JSON's Infinity: a stuck chain that still got a recommendation, and a
    # traceback from the report
    for bad in ({"mcmc": {"n_iter": 400, "step_scale": float("inf")}},
                {"prior": {"shape": float("inf"), "rate": 2.0}}):
        spec = write_spec(tmp_path, **bad)
        assert "Infinity" in Path(spec).read_text()
        assert main(["sweep", "--spec", spec, "--out", str(run_dir)]) == 1
        assert capsys.readouterr().err.startswith("error: bad experiment spec")
        assert not run_dir.exists()
    missing = str(tmp_path / "missing.json")
    assert main(["sweep", "--spec", missing, "--out", str(run_dir)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not run_dir.exists()


def test_sweep_rejects_jobs_below_one(tmp_path, capsys):
    spec = write_spec(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["sweep", "--spec", spec, "--out", str(run_dir),
                 "--jobs", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: jobs must be at least 1")
    assert not run_dir.exists()


def test_report_without_run_record_exits_one(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    (tmp_path / "record.json").write_text("{}")
    assert main(["report", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


# a record that run_sweep did not write this way: each must end in an error
# line before report writes anything, never in a traceback or in a summary
# line that pairs one step's marginal with another step's run
BROKEN_RECORDS = {
    "first_step_deleted":
        lambda rec: rec["recommendation"]["steps"].pop(0),
    "ok_run_without_accept_rate":
        lambda rec: rec["runs"][0].pop("accept_rate"),
    "log_marginal_is_a_string":
        lambda rec: rec["recommendation"]["steps"][1].update(
            log_marginal="-30.5"),
}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("finished")
    run_dir = root / "run"
    assert main(["sweep", "--spec", write_spec(root), "--out",
                 str(run_dir)]) == 0
    return run_dir


@pytest.mark.parametrize("breakage", sorted(BROKEN_RECORDS))
def test_report_rejects_a_record_its_sweep_did_not_write(
        finished_run, tmp_path, capsys, breakage):
    run_dir = tmp_path / "run"
    shutil.copytree(finished_run, run_dir)
    rendered = [p for p in run_dir.iterdir()
                if p.name in ("table.csv", "curve.csv", "summary.txt")
                or p.name.startswith("posterior_hist_")]
    for p in rendered:
        p.unlink()
    record = json.loads((run_dir / "record.json").read_text())
    BROKEN_RECORDS[breakage](record)
    (run_dir / "record.json").write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["report", "--out", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "is not a run record" in err
    assert "Traceback" not in err
    assert len(rendered) == 6 and not any(p.exists() for p in rendered)


def test_console_script_help():
    # the child imports the package these tests import, installed or not
    src = str(Path(stepselect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; from stepselect.cli import main; "
                           "sys.exit(main(['--help']))"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for verb in ("gen", "sweep", "evidence", "report"):
        assert verb in proc.stdout


def test_solver_override(tmp_path, capsys):
    spec = write_spec(tmp_path, h_grid=[0.4])
    assert main(["evidence", "--spec", spec, "--solver", "euler"]) == 0
    assert json.loads(capsys.readouterr().out)["solver"] == "euler"
