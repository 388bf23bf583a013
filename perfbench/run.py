#!/usr/bin/env python3
"""stepselect benchmark: time to a recommendation, and the oracle battery.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md for why each):
logistic-sweep, glucose-sweep, oracle-scan.

A run first times the set-up three times: the CLI's ``stepselect gen``
writing the seed's observations, in a fresh process.  Then it repeats units
until the next one would end after --seconds (at least one).  A unit is a
fresh unit.py process that times the workload body once on those
observations and checks its outputs; a fresh process per body keeps caches
from carrying over between bodies, as they do not for a CLI user.  All of a
run's units use one seed, so their log marginals must agree bit for bit.

--trace 0 reports the end-to-end metrics (medians over the units that passed
their checks), every time at the host's reference speed: each set-up and
each untraced unit measures the host's speed in its own processes while it
runs (see speed.py).  --trace 1 alternates untraced and traced units and reports
the per-layer metrics from the traced ones, with the tracing overhead.  The
last line of output is one JSON object; the lines before it are for people,
and a full report goes to .perfbench/.

The benchmark imports only the standard library itself; it exits 2 without
a result when the checkout has no stepselect sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from tracing import COUNTS, LAYER_UNITS  # noqa: E402
from unit import WORKLOADS  # noqa: E402

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "evals_per_s": "1/s", "setup_s": "s"}
PER_LAYER_UNITS = {**LAYER_UNITS, "trace.overhead_s": "s"}
SETUP_PROBES = 3
UNIT_TIMEOUT_S = 170
RUN_CAP_S = 150           # stop starting units past this, whatever --seconds says


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # numpy links a threaded OpenBLAS; one thread per process keeps the
    # process count within nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "load_before": os.getloadavg()}


def setup_probe(root, env, spec, seed, obs) -> tuple:
    """Cold set-up as a CLI user pays it: interpreter start, imports, spec
    parse and data generation, as ``python3 -m stepselect.cli gen``.  Runs
    under a speed sampler; returns (measured seconds, at reference speed)."""
    part_file = obs.with_name("setup-speed.json")
    cmd = [sys.executable, str(HERE / "speed.py"), str(part_file),
           "-m", "stepselect.cli", "gen", "--spec", spec,
           "--seed", str(seed), "--out", str(obs)]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=root, env=env, check=True, timeout=UNIT_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    part = json.loads(part_file.read_text())
    return wall, speed.at_reference(wall, part)


def run_unit(root, env, args, seed, obs, work, traced) -> dict:
    out = work / "result.json"
    cmd = [sys.executable, str(HERE / "unit.py"), "--workload", args.workload,
           "--seed", str(seed), "--obs", str(obs), "--work", str(work),
           "--out", str(out), "--size", args.size]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=root, env=env, timeout=UNIT_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0 or not out.exists():
        return {"crashed": proc.stdout[-2000:], "traced": traced}
    return json.loads(out.read_text())


def median(xs):
    return statistics.median(xs) if xs else 0.0


def summarize(args, units, probes) -> tuple:
    """(correct, attempted, failed, metrics, notes) for one run.  ``probes``
    holds (measured, reference-speed) seconds of each set-up."""
    notes = []
    attempted = failed = 0
    passed = []
    for u in units:
        if "crashed" in u:
            notes.append("unit crashed: " + u["crashed"].strip().splitlines()[-1]
                         if u["crashed"].strip() else "unit crashed")
            attempted += 1
            failed += 1
            continue
        attempted += u["items"]
        failed += u["failed_items"]
        notes += u["failures"]
        if not u["failures"]:
            passed.append(u)
    ran = [u for u in units if "crashed" not in u]
    if len({json.dumps(u["marginals"]) for u in ran}) > 1:
        notes.append("log marginals differ between units of one seed")
    traced = [u for u in passed if u["traced"]]
    for name in COUNTS:
        if len({u["layers"][name] for u in traced}) > 1:
            notes.append(f"count {name} differs between traced units: "
                         f"{[u['layers'][name] for u in traced]}")
    # the trace must hold all the work counted without it, including the
    # chains that ran in pool workers
    seen = ("bayes.logpost_calls" if "euler_h" in WORKLOADS[args.workload]
            else "mcmc.iters")
    for u in traced:
        if u["layers"][seen] != u["evals"]:
            notes.append(f"trace incomplete: {seen} = {u['layers'][seen]}, "
                         f"but the unit counted {u['evals']}")
    correct = not notes and bool(passed)
    timed = passed or ran
    plain = [u for u in timed if not u["traced"]]
    measured = {
        "wall_s": median([u["wall_s"] for u in plain]),
        "cpu_s": median([u["cpu_s"] for u in plain]),
        "peak_rss_mb": median([u["peak_rss_mb"] for u in plain]),
        "evals_per_s": median([u["evals_per_s"] for u in plain]),
        "setup_s": median([p[0] for p in probes]),
    }
    metrics = {"e2e": {
        "wall_s": median([u["wall_ref_s"] for u in plain]),
        "cpu_s": median([u["cpu_ref_s"] for u in plain]),
        "peak_rss_mb": measured["peak_rss_mb"],
        "evals_per_s": median([u["evals_per_ref_s"] for u in plain]),
        "setup_s": median([p[1] for p in probes]),
    }, "measured": measured,
        "speed_factor": median([u["speed"]["factor"] for u in plain])}
    if args.trace:
        traced = [u for u in timed if u["traced"]]
        lay = {name: median([u["layers"][name] for u in traced])
               for name in LAYER_UNITS}
        # both at the host's speed, the untraced one without its sampling
        lay["trace.overhead_s"] = (median([u["wall_s"] for u in traced])
                                   - median([u["unsampled_wall_s"] for u in plain]))
        metrics["layers"] = lay
    return correct, attempted, failed, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=20260816)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: short chains, no Euler marginals (self-test)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    cfg = WORKLOADS[args.workload]
    for need in (root / "src" / "stepselect" / "__init__.py", root / cfg["spec"]):
        if not need.is_file():
            print(f"error: {need} not found; run from a stepselect checkout",
                  file=sys.stderr)
            return 2
    env = child_env(root)
    data_seed = cfg.get("data_seed", args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = root / ".perfbench" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    obs = work / "observations.csv"
    host = machine()

    # trace 1: untraced, traced, traced, untraced, traced, ...
    def plan(i):
        return bool(args.trace) and (i in (1, 2) or (i > 2 and i % 2 == 0))
    min_units = 2 if args.trace else 1
    units, probes = [], []
    start = time.perf_counter()
    longest = 0.0
    try:
        # each probe rewrites the same observation file the units read
        probes = [setup_probe(root, env, cfg["spec"], data_seed, obs)
                  for _ in range(SETUP_PROBES)]
        while True:
            t0 = time.perf_counter()
            unit_dir = work / f"unit{len(units)}"
            units.append(run_unit(root, env, args, data_seed, obs, unit_dir,
                                  plan(len(units))))
            longest = max(longest, time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if len(units) >= min_units and (
                    elapsed + longest > args.seconds or elapsed + longest > RUN_CAP_S):
                break
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    host["load_after"] = os.getloadavg()
    if all("crashed" in u for u in units):
        print("error: every unit crashed:\n" + units[-1]["crashed"], file=sys.stderr)
        return 1

    correct, attempted, failed, metrics, notes = summarize(args, units, probes)
    versions = next(u["versions"] for u in units if "versions" in u)
    ok_units = [u for u in units if "crashed" not in u]
    print(f"perfbench {tag} seconds={args.seconds:g} size={args.size} "
          f"data_seed={data_seed}")
    print(f"machine: nproc={host['nproc']} cpu={host['cpu']!r} "
          f"load_before={host['load_before']} load_after={host['load_after']} "
          + " ".join(f"{k}={v}" for k, v in versions.items()))
    print(f"units: {len(units)} ({sum(1 for u in units if u.get('traced'))} traced), "
          f"setup probes: {len(probes)}, jobs={ok_units[0]['jobs']}")
    e2e = metrics["e2e"]
    print("times at the reference speed; median speed factor of the units "
          f"{metrics['speed_factor']:.4f} (measured times include the sampling)")
    for name, value in e2e.items():
        raw = (f"  (measured {metrics['measured'][name]:.6g})"
               if value != metrics["measured"][name] else "")
        print(f"  {name:<24} {value:14.6g} {E2E_UNITS[name]}{raw}")
    rate = "logf_evals_per_s" if "euler_h" in cfg else "mh_iter_per_s"
    print(f"  {rate:<24} {e2e['evals_per_s']:14.6g} 1/s  (= evals_per_s)")
    print(f"  {'failed_frac':<24} {failed / max(attempted, 1):14.6g} ratio"
          f"  ({failed}/{attempted} {'oracle calls' if 'euler_h' in cfg else 'steps'})")
    if "recommended_h" in ok_units[0]:
        u = ok_units[0]
        print(f"  recommended_h={u['recommended_h']} reported speedup={u['speedup']}")
    if args.trace:
        for name, value in metrics["layers"].items():
            print(f"  {name:<24} {value:14.6g} {PER_LAYER_UNITS[name]}")
    for note in notes:
        print(f"CHECK FAILED: {note}")

    report = {"workload": args.workload, "seed": args.seed, "data_seed": data_seed,
              "trace": args.trace, "seconds": args.seconds, "size": args.size,
              "machine": host, "versions": versions, "correct": correct,
              "attempted": attempted, "failed": failed, "notes": notes,
              "setup_probes_s": probes, "metrics": metrics, "units": units}
    (root / ".perfbench" / f"{tag}.json").write_text(json.dumps(report, indent=1))

    if args.trace:
        shown = {name: {"value": v, "unit": PER_LAYER_UNITS[name]}
                 for name, v in metrics["layers"].items()}
    else:
        shown = {name: {"value": v, "unit": E2E_UNITS[name]}
                 for name, v in metrics["e2e"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
