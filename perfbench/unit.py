"""One measured unit of a benchmark workload, run in a fresh process.

    python3 perfbench/unit.py --workload NAME --seed N --obs OBS.csv \
        --work DIR --out RESULT.json [--trace] [--size full|tiny]

Loads the workload's spec and the observations the set-up step wrote, runs
the workload body once under a wall clock and rusage, checks the outputs and
writes a JSON result.  An untraced body runs under speed samplers (see
speed.py): in this process when the body runs here, in each pool worker when
it runs in a pool; its times are also given at the reference speed.  With
--trace the stepselect modules are wrapped instead (see tracing.py), nothing
is sampled, and the result carries the per-layer metrics.  run.py starts
these processes; nothing here is meant to be called by hand except for
debugging.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import tracing  # noqa: E402

BAND_16 = (16.0 / 1.5, 16.0 * 1.5)   # fourth-order halving ratio (c3, c5)
BAND_2 = (2.0 / 1.5, 2.0 * 1.5)      # first-order halving ratio (c3)
ORDER_BANDS = {"euler": (1.0, 0.1), "rk2": (2.0, 0.2), "rk4": (4.0, 0.3)}  # c1
C4_TOL = 0.05                         # intercept vs exact marginal, sigma=1
ORDER_H = (0.1, 0.05, 0.025, 0.0125)
RK4_H = (0.2, 0.1, 0.05)

# Run lengths.  "full" is what the benchmark measures; "tiny" only exercises
# the machinery (selftest.py) and drops the two Euler marginals (~27 s).
WORKLOADS = {
    "logistic-sweep": {"spec": "scripts/specs/logistic_sigma1.json", "jobs": 1,
                       "n_iter": {"full": 10000, "tiny": 1500}},
    "glucose-sweep": {"spec": "scripts/specs/glucose.json", "jobs": 2,
                      "n_iter": {"full": 300, "tiny": 200}},
    # The c3 defect-ratio bands hold on the bundled dataset; on other draws
    # the leading h^4 term of the marginal's error can cancel (8 of seeds
    # 1-30 leave the band, seed 5 gives -1829), so this workload's data
    # always come from the bundled spec seed.
    "oracle-scan": {"spec": "scripts/specs/logistic_sigma1.json",
                    "data_seed": 20260816,
                    "euler_h": {"full": (7.8125e-4, 3.90625e-4), "tiny": ()}},
}


def import_package():
    """Import stepselect from this checkout's src/, never from elsewhere."""
    import stepselect
    from stepselect import bayes, evidence, harness, mcmc, ode, stepfit  # noqa: F401
    src = (ROOT / "src").resolve()
    if src not in Path(stepselect.__file__).resolve().parents:
        raise SystemExit(f"stepselect imported from {stepselect.__file__}, "
                         f"not from {src}")
    return stepselect


# ---------------------------------------------------------------------------
# workload bodies
# ---------------------------------------------------------------------------

def sweep_body(pkg, spec, dataset, jobs, out_dir) -> dict:
    t0 = time.perf_counter()
    record = pkg.harness.run_sweep(spec, out_dir, jobs=jobs, dataset=dataset)
    t1 = time.perf_counter()
    pkg.harness.report(out_dir)
    t2 = time.perf_counter()
    out_dir = Path(out_dir)
    exact = (out_dir / "table.csv").read_text().splitlines()[1].split(",")[1]
    summary = (out_dir / "summary.txt").read_text()
    ok_iters = sum(spec.mcmc.n_iter for r in record["runs"]
                   if r["status"] == "ok")
    return {"record": record, "sweep_s": t1 - t0, "report_s": t2 - t1,
            "log_exact": float(exact) if exact else None,
            "summary_has_recommendation": "recommended step:" in summary,
            "evals": ok_iters, "rate_s": t1 - t0}


def oracle_body(pkg, spec, dataset, euler_h) -> dict:
    """The c1/c3/c5 oracle battery on one dataset, no MCMC.

    Every marginal goes through bracket_bounds + quadrature_marginal exactly
    as harness._quadrature_exact does for the exact model (logistic-sweep's
    report calls that function itself).  Integrand evaluations are counted
    at the forward maps the battery builds, which costs one Python call per
    evaluation and needs no tracing.
    """
    import numpy as np
    bayes, evidence, harness, ode, stepfit = (
        pkg.bayes, pkg.evidence, pkg.harness, pkg.ode, pkg.stepfit)
    prior = spec.build_prior()
    comp = prior.theta[0]
    sigma = dataset.sigma_fixed
    evals = [0]
    calls = []            # (item, value or None, error or None)

    def counted(forward):
        def fwd(theta):
            evals[0] += 1
            return forward(theta)
        return fwd

    def marginal(forward):
        def logf(x):
            phi = bayes.ParamVector(theta=np.array([x]), sigma=sigma)
            return bayes.log_posterior_unnorm(dataset, prior, phi, forward)
        lo, hi = evidence.bracket_bounds(logf, 1e-8, comp.mean + 12.0 * comp.sd)
        est = evidence.quadrature_marginal(dataset, prior, forward,
                                           evidence.GridSpec(bounds=((lo, hi),)))
        return est.log_marginal, (lo, hi)

    def attempt(item, fn):
        try:
            value = fn()
        except pkg.StepSelectError as exc:
            calls.append((item, None, f"{type(exc).__name__}: {exc}"))
            return None
        calls.append((item, value, None))
        return value

    t0 = time.perf_counter()
    exact_fwd = counted(harness.exact_forward(spec, dataset))
    got = attempt("exact", lambda: marginal(exact_fwd))
    bounds = got[1] if got else None
    system = harness.build_system(spec, dataset)
    for method, hs in (("rk4", RK4_H), ("euler", euler_h)):
        for h in hs:
            fwd = counted(bayes.make_solver_forward(
                system, ode.SolverConfig(method, h), dataset.times))
            attempt(f"marginal:{method}:{h!r}", lambda: marginal(fwd)[0])
            if method == "rk4" and bounds is not None:
                attempt(f"discrepancy:rk4:{h!r}", lambda: stepfit.posterior_discrepancy(
                    dataset, prior, exact_fwd, fwd, bounds=bounds,
                    statistic="mean"))
    params = pkg.LogisticParams(**spec.params)
    model = pkg.make_logistic_system(params)
    for method in ORDER_BANDS:
        attempt(f"order:{method}", lambda: ode.estimate_order(
            model, np.array([params.lam]), method, ORDER_H, 0.0, 10.0,
            lambda t: pkg.logistic_exact(np.array([t]), params)))
    wall = time.perf_counter() - t0
    values = {item: (v[0] if item == "exact" else v) for item, v, _ in calls
              if v is not None}
    return {"values": values, "errors": {i: e for i, _, e in calls if e},
            "items": len(calls), "evals": evals[0], "rate_s": wall,
            "euler_h": list(euler_h)}


# ---------------------------------------------------------------------------
# output checks: each returns (failed items, list of failure messages)
# ---------------------------------------------------------------------------

def check_sweep(outcome: dict, workload: str):
    """Every step ok with a finite log marginal, a recommendation written,
    and on logistic-sweep the c4 bound.  A failed step counts alone; a
    failure of the whole sweep counts every step."""
    record = outcome["record"]
    steps = []
    for r in record["runs"]:
        if r["status"] != "ok":
            steps.append(f"step h={r['h']:g}: {r['status']}")
        elif not (_finite(r["log_marginal"]) and _finite(r["se"])):
            steps.append(f"step h={r['h']:g}: non-finite log marginal or se")
    msgs = []
    if record.get("curve") is None or record.get("recommendation") is None:
        msgs.append("no recommendation: " + str(record.get("curve_error",
                                                            "curve not fitted")))
    elif not outcome["summary_has_recommendation"]:
        msgs.append("summary.txt lacks the recommendation line")
    if workload == "logistic-sweep" and record.get("curve") is not None:
        if not _finite(outcome["log_exact"]):
            msgs.append("report wrote no exact quadrature marginal")
        else:
            ratio = math.exp(record["curve"]["log_fitted_a"] - outcome["log_exact"])
            if not abs(ratio - 1.0) <= C4_TOL:
                msgs.append(f"c4: intercept/exact = {ratio:.4f}, outside 1 +- {C4_TOL}")
    n_failed = len(record["runs"]) if msgs else len(steps)
    return n_failed, steps + msgs


def check_oracle(outcome: dict):
    vals = outcome["values"]
    msgs = [f"{item}: {err}" for item, err in outcome["errors"].items()]
    msgs += [f"{item}: non-finite value {v!r}" for item, v in vals.items()
             if not _finite(v)]

    def band(label, ratio, lo_hi):
        if not (_finite(ratio) and lo_hi[0] <= ratio <= lo_hi[1]):
            msgs.append(f"{label} = {ratio!r}, outside [{lo_hi[0]:.3g}, {lo_hi[1]:.3g}]")

    for method, (target, tol) in ORDER_BANDS.items():
        v = vals.get(f"order:{method}")
        if v is not None:
            band(f"c1 {method} order", v, (target - tol, target + tol))
    if not msgs:
        def defect(method, h):
            return 1.0 - math.exp(vals[f"marginal:{method}:{h!r}"] - vals["exact"])

        def ratios(key):
            return [key(a) / key(b) for a, b in zip(RK4_H, RK4_H[1:])]

        for r in ratios(lambda h: defect("rk4", h)):
            band("c3 rk4 defect ratio", r, BAND_16)
        for r in ratios(lambda h: vals[f"discrepancy:rk4:{h!r}"]):
            band("c5 mean-shift ratio", r, BAND_16)
        eh = outcome["euler_h"]
        if len(eh) == 2:
            band("c3 euler defect ratio",
                 defect("euler", eh[0]) / defect("euler", eh[1]), BAND_2)
    n_failed = outcome["items"] if msgs else 0
    return n_failed, msgs


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def marginals_of(outcome: dict) -> list:
    """The outputs that must repeat bit for bit under one seed, as hex."""
    if "record" in outcome:
        vals = [r["log_marginal"] for r in outcome["record"]["runs"]]
    else:
        vals = [outcome["values"][k] for k in sorted(outcome["values"])]
    return [float(v).hex() if v is not None else None for v in vals]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--obs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    pkg = import_package()
    import numpy
    import scipy
    cfg = WORKLOADS[args.workload]
    spec = pkg.harness.ExperimentSpec.from_json_file(ROOT / cfg["spec"])
    spec.seed = args.seed
    dataset = pkg.harness.load_observations(args.obs, sigma=spec.sigma)
    if "n_iter" in cfg:
        spec.mcmc.n_iter = cfg["n_iter"][args.size]
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    jobs = min(cfg.get("jobs", 1), len(os.sched_getaffinity(0)))
    tracer = sampler = None
    if args.trace:
        tracer = tracing.Tracer(work / "spans")
        tracing.install(tracer, pkg)
    elif jobs > 1:
        speed.install_in_workers(pkg.harness, work / "speed")
    else:
        sampler = speed.SpeedSampler()

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if sampler is not None:
        sampler.start()
    t0 = time.perf_counter()
    if "n_iter" in cfg:
        outcome = sweep_body(pkg, spec, dataset, jobs, work / "run")
    else:
        outcome = oracle_body(pkg, spec, dataset, cfg["euler_h"][args.size])
    wall = time.perf_counter() - t0
    if sampler is not None:
        sampler.stop()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    child1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if args.trace:
        part = cpu_part = speed.pool([])
    elif sampler is not None:
        part = cpu_part = sampler.part()
    else:
        cpu_part, part = speed.worker_parts(work / "speed")

    if "record" in outcome:
        n_failed, msgs = check_sweep(outcome, args.workload)
        items = len(outcome["record"]["runs"])
    else:
        n_failed, msgs = check_oracle(outcome)
        items = outcome["items"]
    cpu = ((self1.ru_utime + self1.ru_stime - self0.ru_utime - self0.ru_stime)
           + (child1.ru_utime + child1.ru_stime - child0.ru_utime - child0.ru_stime))
    result = {
        "workload": args.workload, "seed": spec.seed, "traced": args.trace,
        "size": args.size, "jobs": jobs,
        "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mb": max(self1.ru_maxrss, child1.ru_maxrss) / 1024.0,
        "evals": outcome["evals"], "evals_per_s": outcome["evals"] / outcome["rate_s"],
        # the same at the reference speed, without the sampling
        "wall_ref_s": speed.at_reference(wall, part),
        "cpu_ref_s": speed.at_reference(cpu, cpu_part),
        "evals_per_ref_s": outcome["evals"] / speed.at_reference(outcome["rate_s"], part),
        "unsampled_wall_s": wall * (1.0 - speed.duty(part)),
        "speed": {"samples": len(part["factors"]), "duty": speed.duty(part),
                  "factor": speed.at_reference(1.0, part) / (1.0 - speed.duty(part))},
        "items": items, "failed_items": n_failed, "failures": msgs,
        "marginals": marginals_of(outcome),
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if "record" in outcome:
        rec = outcome["record"].get("recommendation") or {}
        result.update(sweep_s=outcome["sweep_s"], report_s=outcome["report_s"],
                      recommended_h=rec.get("recommended_h"),
                      speedup=rec.get("speedup"))
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.span_groups(),
                                                 outcome.get("record"))
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
