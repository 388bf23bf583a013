"""Experiment harness: specs, synthetic data, sweeps over h, and reports.

An :class:`ExperimentSpec` is a plain JSON-compatible tree that pins every
knob of a study: model, solver, step grid, seeds, priors, sampler and
estimator settings.  ``run_sweep`` executes one MCMC + evidence estimate per
step size (independent runs, optionally in parallel worker processes),
regresses the evidence curve, and leaves a self-contained run directory
behind whose ``record.json`` holds every per-step result, the fitted curve and
the Bayes-factor table of :func:`stepfit.build_report`; ``report`` renders
that record as flat CSV tables and a text summary, computing nothing of the
table itself.

Reproducibility contract: the same spec produces byte-identical observation,
table and curve CSVs.  Timings are real and therefore live only in
``record.json`` and ``summary.txt``, never in the deterministic tables.
Per-step chain seeds derive from the spec seed and the step index, so a sweep
is reproducible run-by-run no matter how work is distributed over workers.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import __version__
from .bayes import (Dataset, GammaPrior, Prior, make_log_posterior,
                    make_logistic_exact_forward, make_solver_forward)
from .errors import ParseError, StepSelectError
from .evidence import (GridSpec, evidence_from_chain, posterior_window,
                       quadrature_marginal)
from .mcmc import (ProposalConfig, effective_sample_size, load_chain_csv,
                   mh_run, save_chain_csv)
from .models import (GlucoseParams, LogisticParams, logistic_exact,
                     make_glucose_system, make_logistic_system)
from .ode import METHOD_ORDERS, SolverConfig, check_grid
from .stepfit import build_report, fit_curve

MODELS = ("logistic", "glucose")

LOGISTIC_DEFAULTS = {"lam": 1.0, "K": 1000.0, "X0": 100.0}
GLUCOSE_DEFAULTS = {"theta0": 10.0, "theta1": 26.6, "theta2": 0.2,
                    "a": 1.0, "b": 2.0, "Gb": 80.0, "d0": 90.0, "D0": 200.0}
PARAM_DEFAULTS = {"logistic": LOGISTIC_DEFAULTS, "glucose": GLUCOSE_DEFAULTS}


@dataclass
class TimesSpec:
    start: float = 0.0
    stop: float = 10.0
    n: int = 26


@dataclass
class McmcSettings:
    n_iter: int = 12000
    burn_in: Optional[int] = None      # None -> 20% of n_iter
    step_scale: float = 0.02
    adapt: bool = True
    adapt_window: int = 50
    target_accept: float = 0.30
    init: Optional[float] = None       # None -> prior mean

    def resolved_burn_in(self) -> int:
        return self.n_iter // 5 if self.burn_in is None else self.burn_in


@dataclass
class EvidenceSettings:
    subsample: int = 500
    shrink: float = 0.5
    trunc_lo: float = 5.0
    trunc_hi: float = 95.0


@dataclass
class RegressionSettings:
    mask_smallest: int = 4
    mask_h: Optional[Tuple[float, ...]] = None


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc


@dataclass
class ExperimentSpec:
    model: str = "logistic"
    solver: str = "rk4"
    h_grid: Tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    seed: int = 0
    sigma: float = 1.0
    params: dict = field(default_factory=dict)
    times: TimesSpec = field(default_factory=TimesSpec)
    observations_csv: Optional[str] = None
    prior: dict = field(default_factory=lambda: {"shape": 2.0, "rate": 2.0})
    mcmc: McmcSettings = field(default_factory=McmcSettings)
    evidence: EvidenceSettings = field(default_factory=EvidenceSettings)
    regression: RegressionSettings = field(default_factory=RegressionSettings)
    jeffreys_threshold: float = 0.99

    def __post_init__(self):
        if self.model not in MODELS:
            raise ParseError(f"unknown model {self.model!r}")
        if len(self.h_grid) < 1 or len(set(self.h_grid)) != len(self.h_grid):
            raise ParseError("h_grid must be non-empty without duplicates")
        merged = dict(PARAM_DEFAULTS[self.model])
        merged.update(self.params)
        self.params = merged
        try:
            self._validate()
        except (ValueError, TypeError, KeyError, OverflowError) as exc:
            raise ParseError(f"bad experiment spec: {exc}") from exc

    def model_params(self):
        """The model's constants: LogisticParams or GlucoseParams (the
        glucose spec's d0 and D0 stay in ``params``)."""
        p = self.params
        if self.model == "logistic":
            return LogisticParams(lam=p["lam"], K=p["K"], X0=p["X0"])
        return GlucoseParams(theta0=p["theta0"], theta1=p["theta1"],
                             theta2=p["theta2"], a=p["a"], b=p["b"], Gb=p["Gb"])

    def _validate(self) -> None:
        """Reject values the sweep would only trip over after it started."""
        for name, value in self.params.items():
            if name not in PARAM_DEFAULTS[self.model]:
                raise ValueError(f"unknown {self.model} parameter {name!r}")
            if isinstance(value, bool) or not (
                    isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"params.{name} must be a finite number, "
                                 f"got {value!r}")
        constants = self.model_params()
        if self.model == "glucose":
            make_glucose_system(constants, d0=self.params["d0"],
                                D0=self.params["D0"])
        for h in self.h_grid:
            SolverConfig(self.solver, h)
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        prior = self.build_prior()
        self.build_proposal()
        for name, value in (("seed", self.seed), ("times.n", self.times.n),
                            ("mcmc.n_iter", self.mcmc.n_iter),
                            ("mcmc.burn_in", self.mcmc.burn_in or 0),
                            ("mcmc.adapt_window", self.mcmc.adapt_window),
                            ("evidence.subsample", self.evidence.subsample),
                            ("regression.mask_smallest",
                             self.regression.mask_smallest)):
            if not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.mcmc.adapt, bool):
            raise TypeError(f"mcmc.adapt must be true or false, "
                            f"got {self.mcmc.adapt!r}")
        if not isinstance(self.observations_csv, (str, type(None))):
            raise TypeError(f"observations_csv must be null or a path, "
                            f"got {self.observations_csv!r}")
        times = self.obs_times()
        Dataset(times=times, values=np.zeros(times.size))
        n_iter, burn_in = self.mcmc.n_iter, self.mcmc.resolved_burn_in()
        if not 0 <= burn_in < n_iter:
            raise ValueError("mcmc needs n_iter > burn_in >= 0")
        init = self.mcmc.init
        if init is not None and not (
                isinstance(init, (int, float)) and math.isfinite(init)
                and math.isfinite(prior.theta[0].logpdf(init))):
            raise ValueError(f"mcmc.init must be null or a finite number "
                             f"inside the prior's support, got {init!r}")
        kept = n_iter - burn_in
        if min(kept, self.evidence.subsample) < 30:
            raise ValueError(
                f"the weighting density needs at least 30 draws, but mcmc "
                f"keeps {kept} after burn-in and evidence subsamples "
                f"{self.evidence.subsample}")
        if not 0.0 < self.evidence.shrink <= 1.0:
            raise ValueError("evidence.shrink must be in (0, 1]")
        if not 0.0 <= self.evidence.trunc_lo < self.evidence.trunc_hi <= 100.0:
            raise ValueError("evidence truncation percentiles need "
                             "0 <= trunc_lo < trunc_hi <= 100")
        reg = self.regression
        if reg.mask_smallest < 3:
            raise ValueError("regression.mask_smallest must be at least 3")
        if reg.mask_h is not None and not (
                len(set(reg.mask_h)) >= 3 and set(reg.mask_h) <= set(self.h_grid)):
            raise ValueError("regression.mask_h must name at least three "
                             "steps of h_grid")
        if not 0.0 < self.jeffreys_threshold < 1.0:
            raise ValueError("jeffreys_threshold must be in (0, 1)")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["h_grid"] = list(self.h_grid)
        if self.regression.mask_h is not None:
            d["regression"]["mask_h"] = list(self.regression.mask_h)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        try:
            d = dict(d)
            if "times" in d and isinstance(d["times"], dict):
                d["times"] = TimesSpec(**d["times"])
            if "mcmc" in d and isinstance(d["mcmc"], dict):
                d["mcmc"] = McmcSettings(**d["mcmc"])
            if "evidence" in d and isinstance(d["evidence"], dict):
                d["evidence"] = EvidenceSettings(**d["evidence"])
            if "regression" in d and isinstance(d["regression"], dict):
                reg = dict(d["regression"])
                if reg.get("mask_h") is not None:
                    reg["mask_h"] = tuple(reg["mask_h"])
                d["regression"] = RegressionSettings(**reg)
            if "h_grid" in d:
                d["h_grid"] = tuple(d["h_grid"])
            return cls(**d)
        except (TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"bad experiment spec: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "ExperimentSpec":
        return cls.from_dict(_read_json(path))

    def spec_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    # -- derived helpers ----------------------------------------------------

    def chain_seed(self, k: int) -> int:
        """Deterministic per-step seed; index k is the position in h_grid."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(k + 1,))
        return int(ss.generate_state(1, dtype=np.uint64)[0])

    def data_seed(self) -> int:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(0,))
        return int(ss.generate_state(1, dtype=np.uint64)[0])

    def obs_times(self) -> np.ndarray:
        return np.linspace(self.times.start, self.times.stop, self.times.n)

    def build_prior(self) -> Prior:
        return Prior((GammaPrior(shape=float(self.prior["shape"]),
                                 rate=float(self.prior["rate"])),))

    def build_proposal(self) -> ProposalConfig:
        return ProposalConfig(step_scales=np.array([self.mcmc.step_scale]),
                              adapt=self.mcmc.adapt,
                              adapt_window=self.mcmc.adapt_window,
                              target_accept=self.mcmc.target_accept)

    def init_value(self) -> float:
        if self.mcmc.init is not None:
            return float(self.mcmc.init)
        comp = self.build_prior().theta[0]
        return comp.mean


def build_system(spec: ExperimentSpec, dataset: Dataset):
    if spec.model == "logistic":
        return make_logistic_system(spec.model_params())
    return make_glucose_system(spec.model_params(), d0=float(dataset.values[0]),
                               D0=spec.params["D0"])


def exact_forward(spec: ExperimentSpec, dataset: Dataset):
    """Closed-form forward map, or None when the model has none."""
    if spec.model != "logistic":
        return None
    return make_logistic_exact_forward(spec.model_params(), dataset.times)


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------

def generate_synthetic(spec: ExperimentSpec) -> Dataset:
    """Draw y_i = f(X(t_i)) + noise from the spec's true parameters.

    The logistic truth comes from the closed-form solution, so no solver
    error contaminates the data.  The glucose model has no closed form; its
    truth is a reference RK4 solve 2^11 steps per observation gap deep,
    which parks the discretisation error at the 1e-15 level.
    """
    times = spec.obs_times()
    p = spec.params
    if spec.model == "logistic":
        truth = logistic_exact(times, spec.model_params())
    else:
        system = make_glucose_system(spec.model_params(), d0=p["d0"], D0=p["D0"])
        gap = float(times[1] - times[0]) if times.size > 1 else 1.0
        forward = make_solver_forward(system, SolverConfig("rk4", gap / 2048.0),
                                      times)
        truth = forward(np.array([p["theta0"]]))
    rng = np.random.default_rng(spec.data_seed())
    values = truth + spec.sigma * rng.standard_normal(times.size)
    return Dataset(times=times, values=values, sigma_fixed=spec.sigma)


def save_observations(dataset: Dataset, path) -> None:
    with open(path, "w") as fh:
        fh.write("t,y\n")
        for t, y in zip(dataset.times, dataset.values):
            fh.write("%.17g,%.17g\n" % (t, y))


def load_observations(path, sigma: Optional[float] = None) -> Dataset:
    """Read a t,y CSV (header required, '.' decimal separator)."""
    times, values = [], []
    with open(path) as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "t,y":
            raise ParseError(f"expected header 't,y' in {path}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"line {lineno} of {path}: expected 2 fields, "
                                 f"got {len(parts)}")
            try:
                times.append(float(parts[0]))
                values.append(float(parts[1]))
            except ValueError as exc:
                raise ParseError(f"line {lineno} of {path}: {exc}") from exc
    if not times:
        raise ParseError(f"{path} holds no observations")
    return Dataset(times=np.asarray(times), values=np.asarray(values),
                   sigma_fixed=sigma)


def load_or_generate(spec: ExperimentSpec) -> Dataset:
    if spec.observations_csv is not None:
        return load_observations(spec.observations_csv, sigma=spec.sigma)
    return generate_synthetic(spec)


# ---------------------------------------------------------------------------
# single-step run and sweep
# ---------------------------------------------------------------------------

def run_single(spec: ExperimentSpec, dataset: Dataset, k: int,
               out_dir: Optional[Path] = None) -> dict:
    """One MCMC chain plus evidence estimate at h = spec.h_grid[k].

    The reported cpu_seconds is the sampler wall clock only: posterior
    evaluations included, data generation and file writing excluded;
    process_seconds is this process's CPU time over the same loop.  ess is
    the chain's effective sample size and step_scale the proposal scale
    adapted during burn-in.
    """
    h = float(spec.h_grid[k])
    config = SolverConfig(spec.solver, h)
    check_grid(h, dataset.times)
    system = build_system(spec, dataset)
    forward = make_solver_forward(system, config, dataset.times)
    logpost = make_log_posterior(dataset, spec.build_prior(), forward)

    seed = spec.chain_seed(k)
    chain = mh_run(logpost, np.array([spec.init_value()]),
                   spec.build_proposal(), n_iter=spec.mcmc.n_iter,
                   burn_in=spec.mcmc.resolved_burn_in(), seed=seed)
    est = evidence_from_chain(chain, subsample=spec.evidence.subsample,
                              shrink=spec.evidence.shrink, seed=seed,
                              trunc_pct=(spec.evidence.trunc_lo,
                                         spec.evidence.trunc_hi))
    run = {"h": h, "k": k, "seed": seed, "status": "ok",
           "log_marginal": est.log_marginal, "se": est.mc_standard_error,
           "method": est.method, "solver": spec.solver,
           "cpu_seconds": chain.wall_clock_seconds,
           "process_seconds": chain.process_seconds,
           "accept_rate": chain.accept_rate,
           "ess": effective_sample_size(chain),
           "step_scale": float(chain.step_scales[0]), "chain_csv": None}
    if out_dir is not None:
        chain_name = f"chain_{k}.csv"
        save_chain_csv(chain, Path(out_dir) / chain_name)
        run["chain_csv"] = chain_name
    return run


def _sweep_worker(spec_dict: dict, k: int, out_dir: str, obs_csv: str) -> dict:
    """One step of a sweep; any exception from its run becomes a failed run."""
    spec = ExperimentSpec.from_dict(spec_dict)
    dataset = load_observations(obs_csv, sigma=spec.sigma)
    try:
        return run_single(spec, dataset, k, Path(out_dir))
    except Exception as exc:
        reason = str(exc) if isinstance(exc, StepSelectError) \
            else f"{type(exc).__name__}: {exc}"
        return {"h": float(spec.h_grid[k]), "k": k, "seed": spec.chain_seed(k),
                "status": f"failed: {reason}", "log_marginal": None, "se": None,
                "method": None, "solver": spec.solver, "cpu_seconds": None,
                "process_seconds": None, "accept_rate": None, "ess": None,
                "step_scale": None, "chain_csv": None}


def run_sweep(spec: ExperimentSpec, out_dir, jobs: int = 1,
              dataset: Optional[Dataset] = None) -> dict:
    """Run the whole step-size sweep and leave a run directory behind.

    Steps run independently (in min(jobs, steps) worker processes when
    that is more than one) against the same saved observation file; a step
    that fails (misaligned grid, divergent solve) is recorded and skipped,
    never fatal.  Returns the run record, also written to ``record.json``.
    StepSelectError, before anything is written, when jobs is below 1.
    """
    if jobs < 1:
        raise StepSelectError(f"jobs must be at least 1, got {jobs}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if dataset is None:
        dataset = load_or_generate(spec)
    obs_csv = out_dir / "observations.csv"
    save_observations(dataset, obs_csv)
    # round-trip through the file so serial and parallel runs see identical bits
    dataset = load_observations(obs_csv, sigma=spec.sigma)

    ks = list(range(len(spec.h_grid)))
    workers = min(jobs, len(ks))   # a pool starts all of its workers at once
    if workers > 1:
        # finest step first: its chain costs the most, so queued last it
        # would run alone after the others and set the makespan
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {k: pool.submit(_sweep_worker, spec.to_dict(), k,
                                      str(out_dir), str(obs_csv))
                       for k in sorted(ks, key=lambda k: spec.h_grid[k])}
            runs = [futures[k].result() for k in ks]
    else:
        runs = [_sweep_worker(spec.to_dict(), k, str(out_dir), str(obs_csv))
                for k in ks]

    record = {"spec": spec.to_dict(), "spec_hash": spec.spec_hash(),
              "version": __version__, "observations_csv": "observations.csv",
              "runs": runs, "curve": None, "recommendation": None}

    ok = sorted((r for r in runs if r["status"] == "ok"), key=lambda r: r["h"])
    try:
        curve = fit_curve([(r["h"], r["log_marginal"], r["se"]) for r in ok],
                          p=METHOD_ORDERS[spec.solver],
                          mask_h=spec.regression.mask_h,
                          mask_smallest=spec.regression.mask_smallest)
        record["curve"] = {
            "p": curve.p, "log_fitted_a": curve.log_fitted_a,
            "rel_se_a": curve.rel_se_a, "by": curve.by, "r2": curve.r2,
            "mask_h": curve.h[curve.mask].tolist(),
        }
        record["recommendation"] = build_report(
            curve, [r["cpu_seconds"] for r in ok],
            threshold=spec.jeffreys_threshold).as_dict()
    except StepSelectError as exc:
        record["curve_error"] = str(exc)

    with open(out_dir / "record.json", "w") as fh:
        json.dump(record, fh, indent=2)
    return record


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _quadrature_exact(spec: ExperimentSpec, dataset: Dataset):
    """Deterministic exact-model marginal, for models with a closed form."""
    fwd = exact_forward(spec, dataset)
    if fwd is None:
        return None
    prior = spec.build_prior()
    window = posterior_window(dataset, prior, fwd)
    return quadrature_marginal(dataset, prior, fwd, GridSpec(bounds=(window,)))


def report(out_dir) -> dict:
    """Render the flat tables of a finished run directory from its record.

    Emits table.csv (exact vs extrapolated marginal), curve.csv (h, log
    marginal, se, Bayes factor, Jeffreys flag), a posterior histogram per
    step, and summary.txt.  The exact cells of table.csv stay empty when
    the model has no closed form or its quadrature fails; the summary then
    gives the failure.  The Bayes factors and flags are the ones
    ``run_sweep`` stored in ``record["recommendation"]["steps"]``; without
    a fitted curve their cells stay empty.  Everything except the summary's
    timing figures is byte-deterministic given the spec.
    """
    out_dir = Path(out_dir)
    path = out_dir / "record.json"
    record = _read_json(path)
    try:
        spec = ExperimentSpec.from_dict(record["spec"])
        obs_csv = out_dir / record["observations_csv"]
        ok = sorted((r for r in record["runs"] if r["status"] == "ok"),
                    key=lambda r: r["h"])
        curve = record.get("curve")
        rec = record.get("recommendation")
        steps = (rec["steps"] if rec is not None
                 else [dict(r, bf=None, flag=None) for r in ok])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path} is not a run record "
                         f"({type(exc).__name__}: {exc})") from exc
    dataset = load_observations(obs_csv, sigma=spec.sigma)
    exact_error = None
    try:
        exact = _quadrature_exact(spec, dataset)
    except StepSelectError as exc:
        exact, exact_error = None, str(exc)

    with open(out_dir / "table.csv", "w") as fh:
        fh.write("sigma,log_exact_marginal,exact_marginal,"
                 "log_extrapolated,extrapolated_marginal\n")
        ex_log = "%.17g" % exact.log_marginal if exact is not None else ""
        ex_lin = "%.17g" % exact.marginal if exact is not None else ""
        if curve is not None:
            fit_log = "%.17g" % curve["log_fitted_a"]
            fit_lin = "%.17g" % math.exp(curve["log_fitted_a"])
        else:
            fit_log = fit_lin = ""
        fh.write("%.17g,%s,%s,%s,%s\n" % (spec.sigma, ex_log, ex_lin,
                                          fit_log, fit_lin))

    with open(out_dir / "curve.csv", "w") as fh:
        fh.write("h,log_marginal,se,bf,flag\n")
        for s in steps:
            bf_flag = ",," if s["bf"] is None else ",%.17g,%d" % (s["bf"],
                                                                s["flag"])
            fh.write("%.17g,%.17g,%.17g%s\n" % (s["h"], s["log_marginal"],
                                                s["se"], bf_flag))

    for r in ok:
        if r["chain_csv"] is None:
            continue
        draws, _ = load_chain_csv(out_dir / r["chain_csv"])
        counts, edges = np.histogram(draws[:, 0], bins=60, density=True)
        with open(out_dir / f"posterior_hist_{r['k']}.csv", "w") as fh:
            fh.write("bin_lo,bin_hi,density\n")
            for i in range(counts.size):
                fh.write("%.17g,%.17g,%.17g\n" % (edges[i], edges[i + 1],
                                                  counts[i]))

    lines = [f"model={spec.model} solver={spec.solver} sigma={spec.sigma:g} "
             f"n_obs={dataset.n} seed={spec.seed}"]
    if exact is not None:
        lines.append(f"exact marginal (quadrature): {exact.marginal:.6g} "
                     f"(log {exact.log_marginal:.6f})")
    elif exact_error is not None:
        lines.append(f"exact marginal: unavailable: {exact_error}")
    if curve is not None:
        lines.append(f"extrapolated marginal: {math.exp(curve['log_fitted_a']):.6g} "
                     f"(log {curve['log_fitted_a']:.6f}, rel se {curve['rel_se_a']:.3g}, "
                     f"fit mask h={curve['mask_h']})")
    for s, r in zip(steps, ok):
        bf_s = "" if s["bf"] is None else f"  BF={s['bf']:.6f}"
        # records written before these fields existed still render
        chain_s = "" if r.get("ess") is None else (
            f" process={r['process_seconds']:.2f}s ess={r['ess']:.0f} "
            f"scale={r['step_scale']:.4g}")
        lines.append(f"h={s['h']:<8g} log P = {s['log_marginal']:.6f} "
                     f"+- {s['se']:.4f}{bf_s}  cpu={s['cpu_seconds']:.2f}s "
                     f"accept={r['accept_rate']:.3f}{chain_s}")
    failed = [r for r in record["runs"] if r["status"] != "ok"]
    for r in failed:
        lines.append(f"h={r['h']:<8g} {r['status']}")
    if "curve_error" in record:
        lines.append(f"no evidence curve: {record['curve_error']}")
    if rec is not None and rec["recommended_h"] is not None:
        lines.append(f"recommended step: h={rec['recommended_h']:g} "
                     f"(speedup {rec['speedup']:.2f}x over the finest step)")
    elif rec is not None:
        lines.append("recommended step: none admissible at this threshold")
    with open(out_dir / "summary.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return record
