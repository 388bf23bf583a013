"""Spec serialization, synthetic data, sweep reproducibility, reports."""

import dataclasses
import json
import re
import typing
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from stepselect import Dataset, harness
from stepselect.bayes import make_log_posterior, make_solver_forward
from stepselect.errors import ParseError, StepSelectError
from stepselect.harness import (ExperimentSpec, McmcSettings,
                                RegressionSettings, TimesSpec,
                                build_system, generate_synthetic,
                                load_chain_csv, load_observations,
                                load_or_generate, report, run_single,
                                run_sweep, save_observations)
from stepselect.models import LogisticParams, logistic_exact
from stepselect.ode import SolverConfig

SPECS = Path(__file__).resolve().parents[1] / "scripts" / "specs"


def small_spec(**kw) -> ExperimentSpec:
    base = dict(model="logistic", solver="rk4", h_grid=(0.4, 0.2, 0.1),
                seed=123, sigma=1.0, mcmc=McmcSettings(n_iter=600))
    base.update(kw)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# spec serialization
# ---------------------------------------------------------------------------

def test_spec_dict_roundtrip():
    spec = small_spec(params={"lam": 1.3},
                      mcmc=McmcSettings(n_iter=500, step_scale=0.1))
    again = ExperimentSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.spec_hash() == spec.spec_hash()
    assert json.dumps(spec.to_dict())    # JSON-clean


def test_spec_json_file_roundtrip(tmp_path):
    spec = small_spec(sigma=30.0)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert ExperimentSpec.from_json_file(path) == spec


def test_spec_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        ExperimentSpec.from_json_file(path)


def test_spec_validation():
    with pytest.raises(ParseError):
        ExperimentSpec(model="lorenz")
    with pytest.raises(ParseError):
        ExperimentSpec(h_grid=(0.2, 0.2))
    with pytest.raises(ParseError):
        ExperimentSpec(h_grid=())
    with pytest.raises(ParseError):
        ExperimentSpec.from_dict({"model": "logistic", "bogus": 1})
    with pytest.raises(ParseError):
        ExperimentSpec.from_dict("abc")
    base = small_spec().to_dict()
    for bad in ({"sigma": -1}, {"sigma": True}, {"solver": "rk3"}, {"h_grid": [-0.2, 0.1]},
                {"mcmc": {"step_scale": 0}}, {"evidence": {"shrink": 2}},
                {"mcmc": {"step_scale": float("inf")}},
                {"mcmc": {"step_scale": "0.1"}},
                {"prior": {"shape": 2.0, "rate": -1}},
                {"prior": {"shape": float("inf"), "rate": 2.0}},
                {"prior": {"shape": 2.0, "rate": float("inf")}},
                {"prior": {"shape": "2", "rate": 2.0}},
                {"prior": {"shape": True, "rate": 2.0}},
                {"prior": {"shape": 2.0, "rate": 2.0, "scale": 1.0}},
                {"prior": {"shape": 2.0}}, {"prior": 5},
                {"mcmc": {"n_iter": 30}},        # 24 draws left for the KDE
                {"mcmc": {"n_iter": "abc"}},
                {"mcmc": {"adapt_window": 2.5}},
                {"mcmc": {"init": "abc"}}, {"mcmc": {"init": -0.5}},
                {"mcmc": {"init": float("nan")}}, {"mcmc": {"init": 10 ** 400}},
                {"evidence": {"trunc_lo": -5}},
                {"evidence": {"trunc_lo": 95, "trunc_hi": 5}},
                {"evidence": {"trunc_hi": 100.5}},
                {"seed": -1}, {"times": {"n": "x"}}, {"times": 5},
                {"regression": {"mask_smallest": 0}},
                {"regression": {"mask_smallest": 3.5}},
                {"regression": {"mask_h": [0.2, 0.1]}},
                {"regression": {"mask_h": [0.4, 0.2, 0.05]}},   # 0.05 not in h_grid
                {"jeffreys_threshold": 0}, {"jeffreys_threshold": 1.5},
                {"mcmc": {"adapt": "false"}}, {"mcmc": {"adapt": 0}},
                {"observations_csv": 5}, {"observations_csv": ["obs.csv"]},
                {"params": {"K": -5}}, {"params": {"K": "abc"}},
                {"params": {"K": float("inf")}}, {"params": {"bogus": 1.0}},
                {"params": {"K": True}},
                {"model": "glucose", "params": {"d0": -1.0}},
                {"model": "glucose", "params": {"Gb": float("nan")}}):
        with pytest.raises(ParseError):
            ExperimentSpec.from_dict({**base, **bad})
    # the sampler's settings and the observation grid name their field
    for bad, named in (
            ({"mcmc": {"target_accept": 1.5}}, "mcmc.target_accept"),
            ({"mcmc": {"target_accept": 0}}, "mcmc.target_accept"),
            ({"mcmc": {"adapt_window": 0}}, "mcmc.adapt_window"),
            ({"mcmc": {"step_scale": -1.0}}, "mcmc.step_scale"),
            ({"times": {"start": 0, "stop": 0, "n": 2}}, "times:"),
            ({"times": {"n": 0}}, "times:")):
        with pytest.raises(ParseError, match=re.escape(named)):
            ExperimentSpec.from_dict({**base, **bad})


# True is an int to isinstance, so each of these parsed as 1 or 0 until the
# spec checked for booleans in its number fields
BOOLEAN_NUMBERS = [
    ("h_grid", [0.4, True]), ("times.start", False), ("times.stop", True),
    ("times.n", True), ("evidence.shrink", True),
    ("evidence.trunc_lo", False), ("evidence.trunc_hi", True),
    ("mcmc.init", True), ("seed", True), ("mcmc.n_iter", True),
    ("mcmc.burn_in", True), ("mcmc.adapt_window", True),
    ("evidence.subsample", True), ("regression.mask_smallest", True),
    ("regression.mask_h", [True, 0.5, 0.25]), ("sigma", True),
    ("mcmc.step_scale", True), ("mcmc.target_accept", True),
    ("jeffreys_threshold", True),
]


@pytest.mark.parametrize("field,value", BOOLEAN_NUMBERS,
                         ids=[f for f, _ in BOOLEAN_NUMBERS])
def test_spec_rejects_boolean_in_number_field(field, value):
    spec = small_spec().to_dict()
    if field == "regression.mask_h":
        # True == 1.0 is a step of this grid, so the subset check passes it
        spec["h_grid"] = [1.0, 0.5, 0.25, 0.125]
    *section, key = field.split(".")
    (spec[section[0]] if section else spec)[key] = value
    with pytest.raises(ParseError, match=re.escape(field)):
        ExperimentSpec.from_dict(spec)


def _number_fields(cls, prefix=""):
    """Dotted names of the float and int fields the dataclass ``cls`` and
    its settings groups declare, inside Optional and Tuple too."""
    def leaves(kind):
        return {kind}.union(*map(leaves, typing.get_args(kind)))
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _number_fields(hints[f.name], f"{prefix}{f.name}.")
        elif leaves(hints[f.name]) & {float, int}:
            yield prefix + f.name


def test_boolean_cases_cover_every_declared_number_field():
    # a number field added to the spec needs a case in BOOLEAN_NUMBERS
    declared = set(_number_fields(ExperimentSpec))
    assert {"sigma", "times.n", "mcmc.init", "regression.mask_h"} <= declared
    assert declared - {f for f, _ in BOOLEAN_NUMBERS} == set()


# sha256 of each bundled spec and of the default spec; a record's spec_hash
# must not move when only the spec's code changes
SPEC_HASHES = {
    "glucose.json":
        "79a642e452fcfae43e29b31de9f54c10d5f9e772677023855341208e8c10e29e",
    "logistic_sigma1.json":
        "ae82654e75a150592d4399dd8f7ea63386165b3a7292f131fe742721ad2d8b2d",
    "logistic_sigma30.json":
        "bd04d87944301e6219788a213284730dbf135824cc620042f9418adf671bc260",
}
DEFAULT_SPEC_HASH = \
    "32f48024efdf6c336c7de9786f63969f9ab30f6d6249bbf40ae1695930d4e124"


def test_bundled_specs_round_trip_with_pinned_hashes():
    assert sorted(p.name for p in SPECS.glob("*.json")) == sorted(SPEC_HASHES)
    for name, digest in SPEC_HASHES.items():
        spec = ExperimentSpec.from_json_file(SPECS / name)
        as_json = json.loads(json.dumps(spec.to_dict()))
        assert as_json == json.loads((SPECS / name).read_text()), name
        assert spec.spec_hash() == digest, name
    assert ExperimentSpec().spec_hash() == DEFAULT_SPEC_HASH


def test_spec_params_merge_with_defaults():
    spec = small_spec(params={"lam": 2.5})
    assert spec.params["lam"] == 2.5
    assert spec.params["K"] == 1000.0 and spec.params["X0"] == 100.0
    glu = ExperimentSpec(model="glucose", h_grid=(0.25,))
    assert glu.params["theta1"] == 26.6 and glu.params["d0"] == 90.0


def test_spec_hash_tracks_content():
    assert small_spec(seed=1).spec_hash() != small_spec(seed=2).spec_hash()
    assert small_spec(seed=1).spec_hash() == small_spec(seed=1).spec_hash()


def test_seed_derivation():
    spec = small_spec()
    seeds = [spec.data_seed()] + [spec.chain_seed(k) for k in range(3)]
    assert seeds == [spec.data_seed()] + [spec.chain_seed(k) for k in range(3)]
    assert len(set(seeds)) == 4
    assert small_spec(seed=124).chain_seed(0) != spec.chain_seed(0)


def test_obs_times_and_init():
    spec = small_spec(times=TimesSpec(start=0.0, stop=10.0, n=26))
    t = spec.obs_times()
    assert t.size == 26 and t[0] == 0.0 and t[-1] == 10.0
    assert spec.init_value() == 1.0          # Gamma(2,2) prior mean
    assert small_spec(mcmc=McmcSettings(init=0.7)).init_value() == 0.7


# ---------------------------------------------------------------------------
# synthetic data and observation files
# ---------------------------------------------------------------------------

def test_generate_synthetic_logistic_is_exact_plus_seeded_noise():
    spec = small_spec()
    ds = generate_synthetic(spec)
    truth = logistic_exact(spec.obs_times(), LogisticParams())
    rng = np.random.default_rng(spec.data_seed())
    expected = truth + spec.sigma * rng.standard_normal(truth.size)
    assert np.array_equal(ds.values, expected)
    assert ds.sigma_fixed == spec.sigma
    assert np.array_equal(generate_synthetic(spec).values, ds.values)


def test_generate_synthetic_glucose_wiring():
    spec = ExperimentSpec(model="glucose", h_grid=(0.25,), seed=7, sigma=5.0,
                          times=TimesSpec(start=0.0, stop=2.0, n=5),
                          prior={"shape": 5.0, "rate": 0.4})
    ds = generate_synthetic(spec)
    assert ds.n == 5
    # data start near the true basal level, and the fitted system anchors
    # its initial glucose at the first observation
    assert abs(ds.values[0] - 90.0) < 5 * 5.0
    system = build_system(spec, ds)
    assert system.x0[0] == ds.values[0]
    assert system.x0[3] == 200.0


def test_observations_roundtrip(tmp_path):
    ds = generate_synthetic(small_spec())
    path = tmp_path / "obs.csv"
    save_observations(ds, path)
    back = load_observations(path, sigma=1.0)
    assert np.array_equal(back.times, ds.times)
    assert np.array_equal(back.values, ds.values)
    assert back.sigma_fixed == 1.0
    # blank lines, CRLF endings and spaces around numbers read the same
    loose = tmp_path / "loose.csv"
    lines = path.read_text().splitlines()
    loose.write_bytes("\r\n\r\n".join(
        line.replace(",", " , ") for line in lines).encode())
    again = load_observations(loose)
    assert np.array_equal(again.times, ds.times)
    assert np.array_equal(again.values, ds.values)


@pytest.mark.parametrize("body", [
    "time,y\n0,1\n",            # wrong header
    "t,y\n0,1,2\n",             # too many fields
    "t,y\n0,abc\n",             # non-numeric
    "t,y\n",                    # empty
    "t,y\n# note\n0,1\n",       # comment line
    "t,y\n0,1,\n",              # trailing comma
    "t,y\n0,1\n1,2,3\n",        # mixed field counts
    "t,y\n0,\xff\n",            # not UTF-8
    "t,y\n0,1\n0.4,nan\n",      # not finite
])
def test_load_observations_errors(tmp_path, body):
    path = tmp_path / "obs.csv"
    path.write_bytes(body.encode("latin-1"))
    # the empty table also raises, and lets no warning escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=re.escape(str(path))):
            load_observations(path)


def test_load_or_generate_prefers_csv(tmp_path):
    path = tmp_path / "obs.csv"
    times = np.array([0.0, 0.4, 0.8])
    save_observations(Dataset(times=times, values=np.array([1.0, 2.0, 3.0])),
                      path)
    spec = small_spec(observations_csv=str(path),
                      times=TimesSpec(start=0.0, stop=0.8, n=3))
    ds = load_or_generate(spec)
    assert np.array_equal(ds.values, [1.0, 2.0, 3.0])
    assert ds.sigma_fixed == spec.sigma


# ---------------------------------------------------------------------------
# single runs and sweeps
# ---------------------------------------------------------------------------

def test_run_single_record_and_energy_replay(tmp_path):
    spec = small_spec(mcmc=McmcSettings(n_iter=400))
    ds = generate_synthetic(spec)
    rec = run_single(spec, ds, k=2, out_dir=tmp_path)
    assert rec["h"] == 0.1 and rec["k"] == 2
    assert rec["seed"] == spec.chain_seed(2)
    assert rec["status"] == "ok" and rec["method"] == "gelfand_dey_kde"
    assert np.isfinite(rec["log_marginal"]) and rec["se"] > 0.0
    assert rec["cpu_seconds"] > 0.0 and rec["process_seconds"] > 0.0
    assert 0.0 < rec["ess"] <= 320
    assert rec["step_scale"] > 0.0 and rec["step_scale"] != 0.02  # adapted
    # one solve of 100 RK4 steps per evaluation inside the prior's support:
    # the initial point and each of the 400 proposals
    assert rec["rhs_evals"] == 401 * 100 * 4
    assert run_single(spec, ds, k=2)["rhs_evals"] == rec["rhs_evals"]

    # the stored energies (negated log posterior) must replay exactly
    # through a rebuilt posterior
    draws, energies = load_chain_csv(tmp_path / rec["chain_csv"])
    forward = make_solver_forward(build_system(spec, ds),
                                  SolverConfig(spec.solver, 0.1), ds.times)
    logpost = make_log_posterior(ds, spec.build_prior(), forward)
    replayed = np.array([-logpost(v) for v in draws[:, 0].tolist()])
    assert np.array_equal(replayed, energies)


def test_run_sweep_serial_and_parallel_agree(tmp_path):
    spec = small_spec()
    rec_a = run_sweep(spec, tmp_path / "a", jobs=1)
    rec_b = run_sweep(spec, tmp_path / "b", jobs=2)

    for name in ("observations.csv", "chain_0.csv", "chain_1.csv",
                 "chain_2.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()
    timed = ("cpu_seconds", "process_seconds")
    for ra, rb in zip(rec_a["runs"], rec_b["runs"]):
        assert {k: v for k, v in ra.items() if k not in timed} == \
               {k: v for k, v in rb.items() if k not in timed}
    assert rec_a["curve"] == rec_b["curve"]

    def untimed_steps(rec):
        return [{k: v for k, v in step.items() if k != "cpu_seconds"}
                for step in rec["recommendation"]["steps"]]
    assert untimed_steps(rec_a) == untimed_steps(rec_b)

    report(tmp_path / "a")
    report(tmp_path / "b")
    for name in ("table.csv", "curve.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


def test_run_sweep_submits_finest_step_first(tmp_path, monkeypatch):
    # the finest chain costs the most, so the pool gets it first; the
    # record still lists the steps in h_grid order
    submitted, pools = [], []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args[1])
            future = Future()
            future.set_result(fn(*args))
            return future
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)

    rec = run_sweep(small_spec(h_grid=(0.2, 0.4, 0.1)), tmp_path, jobs=2)
    assert submitted == [2, 0, 1] and pools == [2]
    assert [(r["k"], r["h"]) for r in rec["runs"]] == [(0, 0.2), (1, 0.4),
                                                        (2, 0.1)]
    assert all(r["status"] == "ok" for r in rec["runs"])

    # a pool starts all of its workers on the first submit, so it gets no
    # more than the grid has steps; one step runs in this process
    submitted.clear()
    run_sweep(small_spec(h_grid=(0.2, 0.4, 0.1)), tmp_path / "wide", jobs=64)
    assert submitted == [2, 0, 1] and pools == [2, 3]
    run_sweep(small_spec(h_grid=(0.2,)), tmp_path / "one", jobs=64)
    assert pools == [2, 3]


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_sweep_rejects_jobs_below_one(tmp_path, jobs):
    with pytest.raises(StepSelectError, match="jobs must be at least 1"):
        run_sweep(small_spec(), tmp_path / "run", jobs=jobs)
    assert not (tmp_path / "run").exists()


def test_run_sweep_records_failed_step(tmp_path):
    # 0.3 does not divide the 0.4 observation gap; the step must fail
    # without sinking the sweep or the regression on the surviving runs
    spec = small_spec(h_grid=(0.4, 0.3, 0.2, 0.1))
    rec = run_sweep(spec, tmp_path, jobs=1)
    by_h = {r["h"]: r for r in rec["runs"]}
    assert by_h[0.3]["status"].startswith("failed:")
    assert by_h[0.3]["log_marginal"] is None
    assert all(by_h[h]["status"] == "ok" for h in (0.4, 0.2, 0.1))
    assert rec["curve"] is not None
    assert sum(r["status"] == "ok" for r in rec["runs"]) == 3
    assert len(rec["recommendation"]["steps"]) == 3

    report(tmp_path)
    summary = (tmp_path / "summary.txt").read_text()
    assert "failed:" in summary
    assert not (tmp_path / "posterior_hist_1.csv").exists()


def test_run_sweep_records_any_step_exception(tmp_path, monkeypatch):
    # an exception from outside the package's own error types (here a
    # ValueError, as kde_fit raises on too few draws) fails only its step
    real_run_single = harness.run_single

    def run_single(spec, dataset, k, out_dir=None):
        if k == 1:
            raise ValueError("too few draws")
        return real_run_single(spec, dataset, k, out_dir)
    monkeypatch.setattr(harness, "run_single", run_single)

    spec = small_spec(h_grid=(0.4, 0.2, 0.1, 0.05))
    rec = run_sweep(spec, tmp_path, jobs=1)
    assert [r["status"] for r in rec["runs"]] == [
        "ok", "failed: ValueError: too few draws", "ok", "ok"]
    assert rec["runs"][1]["h"] == 0.2 and rec["runs"][1]["log_marginal"] is None
    assert (tmp_path / "record.json").exists()
    assert len(rec["recommendation"]["steps"]) == 3


@pytest.mark.parametrize("h_grid,mask_h", [
    ((0.4, 0.3, 0.2), None),                 # two steps survive
    ((0.4, 0.3, 0.2, 0.1), (0.3, 0.2, 0.1)),  # the mask loses its 0.3
])
def test_run_sweep_without_curve(tmp_path, h_grid, mask_h):
    # 0.3 fails against the 0.4 observation gap, leaving too few points
    # for the regression; the run directory must still explain itself
    spec = small_spec(h_grid=h_grid,
                      regression=RegressionSettings(mask_h=mask_h))
    run_sweep(spec, tmp_path, jobs=1)
    rec = json.loads((tmp_path / "record.json").read_text())
    assert rec["curve"] is None and rec["recommendation"] is None
    assert "at least three" in rec["curve_error"]

    report(tmp_path)
    rows = (tmp_path / "curve.csv").read_text().splitlines()[1:]
    assert len(rows) == len(h_grid) - 1
    assert all(row.endswith(",,") for row in rows)
    assert rec["curve_error"] in (tmp_path / "summary.txt").read_text()


def test_report_survives_failed_exact_quadrature(tmp_path):
    # at sigma = 1e5 the posterior is the Gamma prior, whose tail at the
    # scan range's end still exceeds the quadrature's boundary threshold
    spec = ExperimentSpec.from_json_file(SPECS / "logistic_sigma1.json")
    spec.sigma, spec.mcmc.n_iter = 1e5, 600
    run_sweep(spec, tmp_path, jobs=1)
    report(tmp_path)
    assert (tmp_path / "table.csv").read_text().splitlines()[1] \
        .split(",")[1:3] == ["", ""]
    assert (tmp_path / "curve.csv").is_file()
    assert all((tmp_path / f"posterior_hist_{k}.csv").is_file()
               for k in range(4))
    summary = (tmp_path / "summary.txt").read_text()
    assert "exact marginal: unavailable: integrand at the window boundary" \
        in summary


def test_report_files(tmp_path):
    spec = small_spec()
    run_sweep(spec, tmp_path, jobs=1)
    rec = report(tmp_path)
    assert rec["spec_hash"] == spec.spec_hash()
    assert {p.name for p in tmp_path.iterdir()} == {
        "observations.csv", "record.json", "table.csv", "curve.csv",
        "summary.txt", *(f"chain_{k}.csv" for k in range(3)),
        *(f"posterior_hist_{k}.csv" for k in range(3))}

    table = (tmp_path / "table.csv").read_text().splitlines()
    assert table[0].startswith("sigma,log_exact_marginal")
    row = table[1].split(",")
    assert float(row[0]) == 1.0
    log_exact, log_fit = float(row[1]), float(row[3])
    assert np.isfinite(log_exact) and np.isfinite(log_fit)

    curve = (tmp_path / "curve.csv").read_text().splitlines()
    hs = [float(line.split(",")[0]) for line in curve[1:]]
    assert hs == sorted(hs) and len(hs) == 3

    record = json.loads((tmp_path / "record.json").read_text())
    assert record["spec"]["solver"] == "rk4"
    payload = record["recommendation"]
    assert set(payload) == {"recommended_h", "speedup", "rhs_ratio", "steps"}
    steps = payload["steps"]
    assert [s["h"] for s in steps] == hs
    for s, line in zip(steps, curve[1:]):
        assert line == "%.17g,%.17g,%.17g,%.17g,%d" % (
            s["h"], s["log_marginal"], s["se"], s["bf"], s["flag"])
        assert s["cpu_seconds"] > 0.0
    summary = (tmp_path / "summary.txt").read_text()
    assert "recommended step" in summary
    for r in record["runs"]:
        assert (f"process={r['process_seconds']:.2f}s ess={r['ess']:.0f} "
                f"scale={r['step_scale']:.4g} rhs={r['rhs_evals']}") in summary

    # a record written before process_seconds, ess, step_scale and warnings
    # still renders
    for r in record["runs"]:
        del r["process_seconds"], r["ess"], r["step_scale"], r["warnings"]
    (tmp_path / "record.json").write_text(json.dumps(record))
    report(tmp_path)
    summary = (tmp_path / "summary.txt").read_text()
    assert "recommended step" in summary and " ess=" not in summary


def test_run_sweep_records_each_steps_warnings(tmp_path):
    # a proposal a thousand times wider than the posterior sticks every
    # chain; each step records the warning, in this process or in a pool
    # worker alike, and the summary shows it under the step's line
    spec = small_spec(h_grid=(0.4, 0.3, 0.2),
                      mcmc=McmcSettings(n_iter=600, step_scale=1e3,
                                        adapt=False))
    recs = [run_sweep(spec, tmp_path / f"jobs{jobs}", jobs=jobs)
            for jobs in (1, 2)]
    for rec in recs:
        ok, failed, ok_too = rec["runs"]   # 0.3 misses the 0.4 gap
        assert ok["status"] == ok_too["status"] == "ok"
        assert failed["status"].startswith("failed:")
        assert list(ok) == list(failed) == list(harness.RUN_FIELDS)
        for run in (ok, ok_too):
            assert any(w.startswith("StuckChainWarning: post burn-in "
                                    "acceptance rate 0.0000")
                       for w in run["warnings"])
        assert failed["warnings"] == []
    assert [r["warnings"] for r in recs[0]["runs"]] == \
        [r["warnings"] for r in recs[1]["runs"]]

    report(tmp_path / "jobs2")
    lines = (tmp_path / "jobs2" / "summary.txt").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("h=0.2 "))
    assert lines[at + 1].startswith("  warning: StuckChainWarning: ")
