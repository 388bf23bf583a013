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


def write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


# a bad input file and the word its error line must contain: each ends in
# exit 1 and an error line, never in a traceback, and a sweep leaves no run
# directory behind; gen reads the spec but not observations_csv
BAD_INPUTS = {
    "spec_not_utf8": lambda tmp: (
        write_bytes(tmp / "spec.json", b'{"model": "\xff"}'), "spec.json"),
    "spec_int_too_long": lambda tmp: (
        write_bytes(tmp / "spec.json", b'{"seed": ' + b"1" * 5000 + b"}"),
        "spec.json"),
    "init_too_large_for_float": lambda tmp: (
        write_spec(tmp, mcmc={"n_iter": 400, "init": 10 ** 400}),
        "mcmc.init"),
    "observations_not_utf8": lambda tmp: (
        write_spec(tmp, observations_csv=write_bytes(
            tmp / "obs.csv", b"t,y\n0,\xff\n")), "obs.csv"),
    "observations_missing": lambda tmp: (
        write_spec(tmp, observations_csv=str(tmp / "obs.csv")), "obs.csv"),
    "observations_malformed": lambda tmp: (
        write_spec(tmp, observations_csv=write_bytes(
            tmp / "obs.csv", b"t,y\n0,1\n0.4,abc\n")), "obs.csv"),
    "observations_not_finite": lambda tmp: (
        write_spec(tmp, observations_csv=write_bytes(
            tmp / "obs.csv", b"t,y\n0,1\n0.4,nan\n")), "obs.csv"),
    "observations_times_repeat": lambda tmp: (
        write_spec(tmp, observations_csv=write_bytes(
            tmp / "obs.csv", b"t,y\n0,1\n0,2\n1,3\n")), "obs.csv"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_file_exits_one_with_error_line(tmp_path, capsys, case):
    spec, named = BAD_INPUTS[case](tmp_path)
    verbs = ["sweep"] if case.startswith("observations") else ["gen", "sweep"]
    for verb in verbs:
        out = tmp_path / ("run" if verb == "sweep" else "out.csv")
        assert main([verb, "--spec", spec, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err
        assert not out.exists()


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
    (tmp_path / "record.json").write_bytes(b'{"spec": "\xff"}')
    assert main(["report", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "record.json" in err


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


def report_on_broken_copy(finished_run, run_dir, capsys, breakage):
    """report's error output on a copy of the finished run, without its
    rendered files, that ``breakage`` changed; report must exit 1 with no
    traceback and render nothing."""
    shutil.copytree(finished_run, run_dir)
    rendered = [p for p in run_dir.iterdir()
                if p.name in ("table.csv", "curve.csv", "summary.txt")
                or p.name.startswith("posterior_hist_")]
    for p in rendered:
        p.unlink()
    breakage(run_dir)
    capsys.readouterr()
    assert main(["report", "--out", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert len(rendered) == 6 and not any(p.exists() for p in rendered)
    return err


@pytest.mark.parametrize("breakage", sorted(BROKEN_RECORDS))
def test_report_rejects_a_record_its_sweep_did_not_write(
        finished_run, tmp_path, capsys, breakage):
    def break_record(run_dir):
        record = json.loads((run_dir / "record.json").read_text())
        BROKEN_RECORDS[breakage](record)
        (run_dir / "record.json").write_text(json.dumps(record))

    err = report_on_broken_copy(finished_run, tmp_path / "run", capsys,
                                break_record)
    assert "is not a run record" in err


# a chain file that a finished run no longer holds intact: report must end
# in an error line naming it before it writes any table or the summary
BROKEN_CHAINS = {
    "deleted": lambda path: path.unlink(),
    "holds_no_header": lambda path: path.write_text("0,abc,1\n"),
    "holds_a_word": lambda path: path.write_text(
        "index,theta_0,energy\n0,abc,1\n"),
}


@pytest.mark.parametrize("breakage", sorted(BROKEN_CHAINS))
def test_report_reads_every_chain_before_it_writes(
        finished_run, tmp_path, capsys, breakage):
    err = report_on_broken_copy(
        finished_run, tmp_path / "run", capsys,
        lambda run_dir: BROKEN_CHAINS[breakage](run_dir / "chain_2.csv"))
    assert "chain_2.csv" in err


def run_child(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports the package these tests
    import, installed or not."""
    src = str(Path(stepselect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)


def test_console_script_help():
    proc = run_child("import sys; from stepselect.cli import main; "
                     "sys.exit(main(['--help']))")
    assert proc.returncode == 0
    for verb in ("gen", "sweep", "evidence", "report"):
        assert verb in proc.stdout


def test_glucose_gen_builds_no_library(tmp_path):
    # gen solves the glucose model once, and the lone library is built only
    # at a system's second solve: the process neither compiles nor
    # imports the C translation
    spec = Path(__file__).resolve().parents[1] / "scripts" / "specs" \
        / "glucose.json"
    proc = run_child(
        "import sys; from stepselect import ode; "
        "from stepselect.cli import main; "
        f"assert main(['gen', '--spec', {str(spec)!r}, "
        f"'--out', {str(tmp_path / 'obs.csv')!r}]) == 0; "
        "print('stepselect.native' in sys.modules, len(ode._LIBRARIES), "
        "len(ode._SOLVED_ONCE))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0 1"


def test_solver_override(tmp_path, capsys):
    spec = write_spec(tmp_path, h_grid=[0.4])
    assert main(["evidence", "--spec", spec, "--solver", "euler"]) == 0
    assert json.loads(capsys.readouterr().out)["solver"] == "euler"
