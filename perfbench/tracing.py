"""Span tracing for the traced benchmark run, installed from outside the package.

``install`` replaces the public functions of the stepselect modules, under
every name their callers look them up by, with wrappers that record one span
per call: (id, parent id, name, start, end, note).  Spans stay in memory.
Worker processes forked by ``run_sweep`` inherit the wrappers; each of their
tasks writes its spans to a file in the spill directory when it ends, because
a worker's memory never returns to the parent.

``layer_metrics`` turns the spans of one unit into the per-layer metrics.
A layer that did no work in a workload reports 0.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter

STAGES = {"euler": 1, "rk2": 2, "rk4": 4}

# per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "ode.step_us.rk4": "us", "ode.step_us.euler": "us", "ode.solves": "count",
    "ode.rhs_evals": "count", "ode.self_s": "s",
    "bayes.logpost_calls": "count", "bayes.logpost_us": "us",
    "bayes.overhead_us": "us",
    "mcmc.iters": "count", "mcmc.iter_us": "us", "mcmc.bookkeeping_us": "us",
    "mcmc.accept_rate": "ratio", "mcmc.chain_s": "s", "mcmc.chain_s_max": "s",
    "evidence.from_chain_s": "s", "evidence.kde_fit_s": "s",
    "evidence.gd_s": "s", "evidence.draws": "count", "evidence.bracket_s": "s",
    "evidence.quadrature_s": "s", "evidence.logf_evals": "count",
    "stepfit.fit_s": "s", "stepfit.discrepancy_s": "s", "stepfit.order_s": "s",
    "harness.io_s": "s", "harness.report_s": "s",
    "harness.pool_efficiency": "ratio", "harness.reported_speedup": "ratio",
    "harness.rhs_ratio": "ratio",
}

# deterministic counts: equal in every traced unit of one seed
COUNTS = ("ode.solves", "ode.rhs_evals", "bayes.logpost_calls", "mcmc.iters",
          "evidence.draws", "evidence.logf_evals")


class Tracer:
    """In-memory span store of one process."""

    def __init__(self, spill_dir):
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.spans = []
        self.stack = []          # open spans as (id, name)
        self.next_id = 0
        self.n_spills = 0

    def wrap(self, name, fn, note=None):
        """Wrapper recording a span per call; ``note(args, kwargs, result)``
        adds call details (result is None when the call raised)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            stack = self.stack
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1,
                                   note(args, kwargs, out) if note else None))
        return traced

    def in_worker(self) -> bool:
        return os.getpid() != self.pid

    def start_worker_task(self):
        # a forked worker starts with a copy of the parent's spans and stack
        self.spans = []
        self.stack = []

    def spill(self):
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{os.getpid()}-{self.n_spills}.json"
        self.n_spills += 1
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
        self.spans = []

    def span_groups(self):
        """Spans of this process followed by those spilled by workers, one
        list per process task; span ids are local to their list."""
        groups = [list(self.spans)]
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            with open(path) as fh:
                groups.append([tuple(s) for s in json.load(fh)])
        return groups


def install(tracer: Tracer, pkg) -> None:
    """Wrap the public functions of ``pkg``'s modules under every name the
    package's own callers (and the benchmark) use."""
    ode, bayes, mcmc, evidence, stepfit, harness = (
        pkg.ode, pkg.bayes, pkg.mcmc, pkg.evidence, pkg.stepfit, pkg.harness)
    w = tracer.wrap

    solve = w("ode.solve", ode.integrate_states,
              note=lambda a, k, out: (a[2].method, int(a[4])))
    ode.integrate_states = bayes.integrate_states = solve

    # The log posterior a chain samples is a closure from make_log_posterior;
    # its span covers the closure's own work (parameter vector, prior), not
    # just log_posterior_unnorm.  Quadrature calls log_posterior_unnorm
    # directly, so that gets the same span name unless already inside one.
    unnorm = w("bayes.logpost", bayes.log_posterior_unnorm)
    raw_unnorm = bayes.log_posterior_unnorm

    def log_posterior_unnorm(*args, **kwargs):
        if tracer.stack and tracer.stack[-1][1] == "bayes.logpost":
            return raw_unnorm(*args, **kwargs)
        return unnorm(*args, **kwargs)
    bayes.log_posterior_unnorm = evidence.log_posterior_unnorm = \
        stepfit.log_posterior_unnorm = log_posterior_unnorm

    def chain_note(a, k, out):
        n_iter = k["n_iter"] if "n_iter" in k else a[3]
        if out is None:
            return (int(n_iter), None, None)
        return (int(n_iter), float(out.accept_rate), int(out.n_draws))
    chain = w("mcmc.chain", mcmc.mh_run, note=chain_note)

    @functools.wraps(mcmc.mh_run)
    def mh_run(log_posterior, *args, **kwargs):
        return chain(w("bayes.logpost", log_posterior), *args, **kwargs)
    harness.mh_run = mh_run

    harness.evidence_from_chain = w(
        "evidence.from_chain", evidence.evidence_from_chain,
        note=lambda a, k, out: int(len(a[0].draws)))
    evidence.kde_fit = w("evidence.kde_fit", evidence.kde_fit)
    evidence.gelfand_dey = w("evidence.gd", evidence.gelfand_dey)
    evidence.bracket_bounds = harness.bracket_bounds = w(
        "evidence.bracket", evidence.bracket_bounds)
    evidence.quadrature_marginal = harness.quadrature_marginal = w(
        "evidence.quadrature", evidence.quadrature_marginal)

    harness.fit_curve = w("stepfit.fit", stepfit.fit_curve)
    harness.build_report = w("stepfit.fit", stepfit.build_report)
    stepfit.posterior_discrepancy = w("stepfit.discrepancy",
                                      stepfit.posterior_discrepancy)
    # the convergence-order oracle lives in ode but is one of the c1/c3/c5
    # oracles, so it is reported with stepfit's
    ode.estimate_order = w("stepfit.order", ode.estimate_order)

    harness.save_chain_csv = w("harness.io", harness.save_chain_csv)
    harness.load_chain_csv = w("harness.io", harness.load_chain_csv)
    harness.report = w("harness.report", harness.report)
    harness.run_sweep = w("harness.sweep", harness.run_sweep,
                          note=lambda a, k, out: int(k.get("jobs", 1)))

    step = w("harness.step", harness._sweep_worker,
             note=lambda a, k, out: int(a[1]))

    @functools.wraps(harness._sweep_worker)
    def sweep_worker(*args, **kwargs):
        worker = tracer.in_worker()
        if worker:
            tracer.start_worker_task()
        try:
            return step(*args, **kwargs)
        finally:
            if worker:
                tracer.spill()
    harness._sweep_worker = sweep_worker


def _owners(spans, names):
    """Map span id -> id of its nearest enclosing span (itself included)
    whose name is in ``names``, or None."""
    owner = {}
    for sid, parent, name, *_ in sorted(spans):
        owner[sid] = sid if name in names else owner.get(parent)
    return owner


def layer_metrics(groups, record=None) -> dict:
    """Per-layer metrics from the span groups of one unit.

    ``record`` is the sweep's run record, for the recommended step; None on
    workloads without a sweep.
    """
    total = defaultdict(float)      # name -> summed span seconds
    self_s = defaultdict(float)     # name -> summed self seconds
    calls = defaultdict(int)
    steps = defaultdict(int)        # method -> solver steps
    solve_s = defaultdict(float)    # method -> solve seconds
    rhs_evals = 0
    rhs_by_step = defaultdict(int)  # sweep index k -> rhs evaluations
    iters = draws = kept = logf_evals = 0
    accepted = 0.0
    chain_max = 0.0
    sweep_jobs = []
    for spans in groups:
        child = defaultdict(float)
        for sid, parent, name, t0, t1, note in spans:
            child[parent] += t1 - t0
        in_quad = _owners(spans, ("evidence.bracket", "evidence.quadrature"))
        step_of = _owners(spans, ("harness.step",))
        k_of = {sid: note for sid, _, name, _, _, note in spans
                if name == "harness.step"}
        for sid, parent, name, t0, t1, note in spans:
            dur = t1 - t0
            total[name] += dur
            self_s[name] += dur - child[sid]
            calls[name] += 1
            if name == "ode.solve":
                method, n = note
                steps[method] += n
                solve_s[method] += dur
                rhs_evals += n * STAGES[method]
                if step_of.get(sid) is not None:
                    rhs_by_step[k_of[step_of[sid]]] += n * STAGES[method]
            elif name == "bayes.logpost" and in_quad.get(sid) is not None:
                logf_evals += 1
            elif name == "mcmc.chain":
                n_iter, rate, n_draws = note
                iters += n_iter
                chain_max = max(chain_max, dur)
                if n_draws:
                    kept += n_draws
                    accepted += rate * n_draws
            elif name == "evidence.from_chain":
                draws += note
            elif name == "harness.sweep":
                sweep_jobs.append((note, dur))

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {
        "ode.step_us.rk4": per(solve_s["rk4"], steps["rk4"], 1e6),
        "ode.step_us.euler": per(solve_s["euler"], steps["euler"], 1e6),
        "ode.solves": calls["ode.solve"],
        "ode.rhs_evals": rhs_evals,
        "ode.self_s": self_s["ode.solve"],
        "bayes.logpost_calls": calls["bayes.logpost"],
        "bayes.logpost_us": per(total["bayes.logpost"], calls["bayes.logpost"], 1e6),
        "bayes.overhead_us": per(self_s["bayes.logpost"], calls["bayes.logpost"], 1e6),
        "mcmc.iters": iters,
        "mcmc.iter_us": per(total["mcmc.chain"], iters, 1e6),
        "mcmc.bookkeeping_us": per(self_s["mcmc.chain"], iters, 1e6),
        "mcmc.accept_rate": per(accepted, kept),
        "mcmc.chain_s": total["mcmc.chain"],
        "mcmc.chain_s_max": chain_max,
        "evidence.from_chain_s": total["evidence.from_chain"],
        "evidence.kde_fit_s": total["evidence.kde_fit"],
        "evidence.gd_s": total["evidence.gd"],
        "evidence.draws": draws,
        "evidence.bracket_s": total["evidence.bracket"],
        "evidence.quadrature_s": total["evidence.quadrature"],
        "evidence.logf_evals": logf_evals,
        "stepfit.fit_s": total["stepfit.fit"],
        "stepfit.discrepancy_s": total["stepfit.discrepancy"],
        "stepfit.order_s": total["stepfit.order"],
        "harness.io_s": total["harness.io"],
        "harness.report_s": total["harness.report"],
        "harness.pool_efficiency": per(total["harness.step"],
                                       sum(j * d for j, d in sweep_jobs)),
        "harness.reported_speedup": 0.0,
        "harness.rhs_ratio": 0.0,
    }
    rec = (record or {}).get("recommendation") or {}
    if rec.get("recommended_h") is not None:
        h_grid = record["spec"]["h_grid"]
        k_rec = h_grid.index(rec["recommended_h"])
        k_fine = h_grid.index(min(h_grid))
        m["harness.reported_speedup"] = rec["speedup"]
        m["harness.rhs_ratio"] = per(rhs_by_step[k_fine], rhs_by_step[k_rec])
    return m
