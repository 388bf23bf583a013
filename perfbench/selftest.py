#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that

- every workload prints every metric of BENCHMARK.json, with its unit, and
  passes its output checks (untraced and traced);
- the deterministic counts repeat between two traced runs of one seed;
- the output checks reject fabricated bad results.

Exits 1 on the first failed expectation.  Takes about 90 s.
"""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import unit  # noqa: E402
from tracing import COUNTS  # noqa: E402

SEED = 20260816


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        raise SystemExit(1)


def bench(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    expect(proc.returncode == 0, f"{workload} trace={trace} exits 0"
           + ("" if proc.returncode == 0 else ": " + proc.stderr[-500:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted(result, declared, label):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{label}: every metric emitted with its unit")
    expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
               for v in result["metrics"].values()), f"{label}: values finite")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: outputs pass their checks")


def good_sweep():
    runs = [{"h": h, "status": "ok", "log_marginal": -42.0 - h * 1e-3,
             "se": 0.01} for h in (0.2, 0.1, 0.05, 0.025)]
    return {"record": {"runs": runs, "curve": {"log_fitted_a": -42.0},
                       "recommendation": {"recommended_h": 0.2, "speedup": 6.0}},
            "log_exact": -42.0, "summary_has_recommendation": True}


def good_oracle():
    def lm(defect):
        return math.log(1.0 - defect)
    values = {"exact": 0.0,
              "order:euler": 1.0, "order:rk2": 2.0, "order:rk4": 4.0,
              "marginal:euler:0.1": lm(0.02), "marginal:euler:0.05": lm(0.0118)}
    for h, d in zip(unit.RK4_H, (1.6e-3, 1e-4, 6.25e-6)):
        values[f"marginal:rk4:{h!r}"] = lm(d)
        values[f"discrepancy:rk4:{h!r}"] = d
    return {"values": values, "errors": {}, "items": len(values),
            "euler_h": [0.1, 0.05]}


def rejects(check, outcome, what):
    n_failed, msgs = check(outcome)
    expect(n_failed > 0 and msgs, f"rejects {what}")


def fabricated():
    sweep = lambda o: unit.check_sweep(o, "logistic-sweep")  # noqa: E731
    expect(sweep(good_sweep()) == (0, []), "accepts a good sweep")
    bad = good_sweep()
    bad["record"]["runs"][1]["status"] = "failed: GridMismatch"
    rejects(sweep, bad, "a failed step")
    bad = good_sweep()
    bad["record"]["runs"][2]["log_marginal"] = float("nan")
    rejects(sweep, bad, "a non-finite log marginal")
    bad = good_sweep()
    bad["record"]["curve"] = bad["record"]["recommendation"] = None
    rejects(sweep, bad, "a sweep without a recommendation")
    bad = good_sweep()
    bad["log_exact"] = -42.0 + math.log(1.1)
    rejects(sweep, bad, "an intercept 10% off the exact marginal (c4)")

    expect(unit.check_oracle(good_oracle()) == (0, []), "accepts a good battery")
    for key, value, what in (
            ("order:rk4", 3.5, "a wrong rk4 order (c1)"),
            ("marginal:rk4:0.1", math.log(1.0 - 1e-3), "an rk4 defect ratio of 1.6 (c3)"),
            ("marginal:euler:0.05", math.log(1.0 - 0.019), "an euler defect ratio of 1.05 (c3)"),
            ("discrepancy:rk4:0.05", 5e-5, "a mean-shift ratio of 2 (c5)"),
            ("exact", float("inf"), "a non-finite marginal")):
        bad = good_oracle()
        bad["values"][key] = value
        rejects(unit.check_oracle, bad, what)
    bad = good_oracle()
    bad["errors"]["marginal:rk4:0.2"] = "BoundsTooTight: ..."
    rejects(unit.check_oracle, bad, "an oracle call that raised")

    args = type("Args", (), {"workload": "logistic-sweep", "trace": 0})()
    u = {"traced": False, "items": 4, "failed_items": 0, "failures": [],
         "marginals": ["-0x1.5p+5"], "wall_s": 1.0, "cpu_s": 1.0,
         "peak_rss_mb": 100.0, "evals_per_s": 10.0, "evals": 10,
         "wall_ref_s": 1.0, "cpu_ref_s": 1.0, "evals_per_ref_s": 10.0,
         "unsampled_wall_s": 1.0, "speed": {"factor": 1.0}}
    v = copy.deepcopy(u)
    v["marginals"] = ["-0x1.50001p+5"]
    correct, *_ = run.summarize(args, [u, copy.deepcopy(u)], [(1.0, 1.0)])
    expect(correct, "accepts units that agree bit for bit")
    correct, *_ = run.summarize(args, [u, v], [(1.0, 1.0)])
    expect(not correct, "rejects units of one seed whose log marginals differ")


def main() -> int:
    declared = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    expect(sorted(names) == sorted(unit.WORKLOADS), "BENCHMARK.json names every workload")
    fabricated()
    for workload in names:
        check_emitted(bench(workload, 0), declared["end_to_end"], f"{workload} trace=0")
        first = bench(workload, 1)
        check_emitted(first, declared["per_layer"], f"{workload} trace=1")
        second = bench(workload, 1)
        same = all(first["metrics"][c]["value"] == second["metrics"][c]["value"]
                   for c in COUNTS)
        expect(same, f"{workload}: counts repeat between traced runs "
               + str({c: first["metrics"][c]["value"] for c in COUNTS}))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
