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
import functools
import hashlib
import json
import math
import sys
import typing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import __version__
from .bayes import (Dataset, GammaPrior, Prior, make_log_posterior,
                    make_logistic_exact_forward, make_solver_forward)
from .errors import NonMonotoneTimes, ParseError, StepSelectError
from .evidence import (GridSpec, evidence_from_chain, posterior_window,
                       quadrature_marginal)
from .mcmc import Chain, McmcSettings, effective_sample_size, mh_run
from .models import (GlucoseParams, LogisticParams, logistic_exact,
                     make_glucose_system, make_logistic_system)
from .ode import METHOD_ORDERS, SolverConfig
from .stepfit import DEFAULT_THRESHOLD, build_report, fit_curve

# each model's constants class; its fields and defaults are the spec's params
MODELS = {"logistic": LogisticParams, "glucose": GlucoseParams}
PARAM_DEFAULTS = {name: {f.name: f.default for f in dataclasses.fields(cls)}
                  for name, cls in MODELS.items()}
# the glucose spec also sets the initial glucose d0 and the gut deposit D0
PARAM_DEFAULTS["glucose"].update(d0=90.0, D0=200.0)

# the keys of every run in record.json, ok or failed, in this order
RUN_FIELDS = ("h", "k", "seed", "status", "log_marginal", "se", "method",
              "solver", "cpu_seconds", "process_seconds", "rhs_evals",
              "accept_rate", "ess", "step_scale", "chain_csv", "warnings")


@dataclass
class TimesSpec:
    start: float = 0.0
    stop: float = 10.0
    n: int = 26


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

    def __post_init__(self):
        if isinstance(self.mask_h, list):     # a JSON array
            self.mask_h = tuple(self.mask_h)


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:    # bad JSON or UTF-8, or a too-long int
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc


@functools.lru_cache(maxsize=None)
def _fields(cls) -> tuple:
    """(name, declared type) of each field of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def _check(name: str, value, declared) -> None:
    """Reject ``value`` unless it is of the type ``declared``: a float is a
    finite int or float and an int an int, never a bool; Optional allows
    None, a tuple is checked entry by entry and a group field by field."""
    if declared is float:
        if isinstance(value, bool) or not (isinstance(value, (int, float))
                                           and abs(value) <= sys.float_info.max):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
    elif declared is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an integer, got {value!r}")
    elif isinstance(declared, type):          # bool, str, dict or a group
        if not isinstance(value, declared):
            raise TypeError(f"{name} must be a {declared.__name__}, "
                            f"got {value!r}")
        if dataclasses.is_dataclass(declared):
            for key, kind in _fields(declared):
                _check(f"{name}.{key}" if name else key, getattr(value, key),
                       kind)
    elif typing.get_origin(declared) is typing.Union:    # Optional[X]
        if value is not None:
            _check(name, value, typing.get_args(declared)[0])
    elif not isinstance(value, tuple):                   # Tuple[X, ...]
        raise TypeError(f"{name} must be a list, got {value!r}")
    else:
        for i, v in enumerate(value):
            _check(f"{name}[{i}]", v, typing.get_args(declared)[0])


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
    jeffreys_threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if isinstance(self.h_grid, list):     # a JSON array
            self.h_grid = tuple(self.h_grid)
        try:
            _check("", self, ExperimentSpec)
            if self.model not in MODELS:
                raise ValueError(f"unknown model {self.model!r}")
            if len(self.h_grid) < 1 or len(set(self.h_grid)) != len(self.h_grid):
                raise ValueError("h_grid must be non-empty without duplicates")
            self.params = {**PARAM_DEFAULTS[self.model], **self.params}
            self._validate()
        except (ValueError, TypeError, KeyError, AttributeError,
                OverflowError) as exc:
            raise ParseError(f"bad experiment spec: {exc}") from exc

    def model_params(self):
        """The model's constants: LogisticParams or GlucoseParams (the
        glucose spec's d0 and D0 stay in ``params``)."""
        cls = MODELS[self.model]
        return cls(**{f.name: self.params[f.name]
                      for f in dataclasses.fields(cls)})

    def _validate(self) -> None:
        """Reject values the sweep would only trip over after it started;
        every field already has its declared type."""
        for group, values, known in (
                ("params", self.params, PARAM_DEFAULTS[self.model]),
                ("prior", self.prior, ("shape", "rate"))):
            for name, value in values.items():
                if name not in known:
                    raise ValueError(f"unknown {group} key {name!r}")
                _check(f"{group}.{name}", value, float)
        constants = self.model_params()
        if self.model == "glucose":
            make_glucose_system(constants, d0=self.params["d0"],
                                D0=self.params["D0"])
        for h in self.h_grid:
            SolverConfig(self.solver, h)
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        prior = self.build_prior()
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        try:
            times = self.obs_times()
            Dataset(times=times, values=np.zeros(times.size))
        except (ValueError, NonMonotoneTimes) as exc:
            raise ValueError(f"times: {exc}") from exc
        n_iter, burn_in = self.mcmc.n_iter, self.mcmc.resolved_burn_in()
        if not 0 <= burn_in < n_iter:
            raise ValueError("mcmc needs n_iter > burn_in >= 0")
        if not self.mcmc.step_scale > 0.0:
            raise ValueError("mcmc.step_scale must be positive")
        if not 0.0 < self.mcmc.target_accept < 1.0:
            raise ValueError("mcmc.target_accept must be in (0, 1)")
        if self.mcmc.adapt_window < 1:
            raise ValueError("mcmc.adapt_window must be at least 1")
        init = self.mcmc.init
        if init is not None and not math.isfinite(prior.theta[0].logpdf(init)):
            raise ValueError(f"mcmc.init must be null or inside the "
                             f"prior's support, got {init!r}")
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
        """The spec as a dict; its tuples go to JSON as arrays."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        try:
            groups = dict(_fields(cls))
            return cls(**{key: groups[key](**value)
                          if isinstance(value, dict)
                          and dataclasses.is_dataclass(groups.get(key))
                          else value for key, value in d.items()})
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

    def init_value(self) -> float:
        if self.mcmc.init is not None:
            return float(self.mcmc.init)
        return self.build_prior().theta[0].mean


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


def _write_table(path, header: str, rows) -> None:
    """Write the rows under a header line as comma-separated numbers to 17
    significant digits, which read back bit for bit (an integral float
    prints as an integer and a True flag as 1); a None cell stays empty."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(["" if v is None else "%.17g" % v for v in row])
                      + "\n" for row in rows)


def _read_table(path, header_ok) -> np.ndarray:
    """The rows of a number table in ``_write_table``'s format, 2-D.

    ParseError naming ``path`` unless ``header_ok`` accepts the header's
    column names and at least one row follows, each a finite number per
    column; blank lines, CRLF endings and spaces around numbers are accepted.
    """
    try:
        with open(path) as fh:
            header, lines = fh.readline().strip(), fh.readlines()
        columns = header.replace(" ", "").split(",")
        if not header_ok(columns):
            raise ValueError(f"unexpected header {header!r}")
        if not any(line.strip() for line in lines):   # loadtxt only warns
            raise ValueError("no rows after the header")
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if rows.shape[1] != len(columns):
            raise ValueError(f"the header names {len(columns)} columns, its "
                             f"rows have {rows.shape[1]}")
        if not np.isfinite(rows).all():
            raise ValueError("a number is not finite")
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return rows


def save_observations(dataset: Dataset, path) -> None:
    _write_table(path, "t,y",
                 np.column_stack((dataset.times, dataset.values)).tolist())


def load_observations(path, sigma: Optional[float] = None) -> Dataset:
    """Read a t,y CSV (header required, '.' decimal separator)."""
    rows = _read_table(path, lambda columns: columns == ["t", "y"])
    try:
        return Dataset(times=rows[:, 0], values=rows[:, 1], sigma_fixed=sigma)
    except (ValueError, NonMonotoneTimes) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_chain_csv(chain: Chain, path) -> None:
    """Write index, theta_0, energy per draw in full precision."""
    _write_table(path, "index,theta_0,energy", np.column_stack(
        (np.arange(chain.n_draws), chain.draws, chain.energies)).tolist())


def load_chain_csv(path):
    """Read a chain CSV back; returns (draws, energies), draws (L, 1)."""
    rows = _read_table(path, lambda columns:
                       columns == ["index", "theta_0", "energy"])
    return rows[:, 1:2], rows[:, 2]


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
    process_seconds is this process's CPU time over the same loop, and
    rhs_evals the right-hand-side evaluations of its solves, a cost that
    does not depend on the host.  ess is the chain's effective sample size
    and step_scale the proposal scale adapted during burn-in.  The record
    holds every RUN_FIELDS key; ``warnings`` stays None here and the sweep
    fills it.
    """
    config = SolverConfig(spec.solver, float(spec.h_grid[k]))
    system = build_system(spec, dataset)
    forward = make_solver_forward(system, config, dataset.times)
    logpost = make_log_posterior(dataset, spec.build_prior(), forward)

    seed = spec.chain_seed(k)
    chain = mh_run(logpost, spec.init_value(), spec.mcmc,
                   n_iter=spec.mcmc.n_iter,
                   burn_in=spec.mcmc.resolved_burn_in(), seed=seed)
    est = evidence_from_chain(chain, subsample=spec.evidence.subsample,
                              shrink=spec.evidence.shrink, seed=seed,
                              trunc_pct=(spec.evidence.trunc_lo,
                                         spec.evidence.trunc_hi))
    run = _run_record(spec, k, "ok", log_marginal=est.log_marginal,
                      se=est.mc_standard_error, method=est.method,
                      cpu_seconds=chain.wall_clock_seconds,
                      process_seconds=chain.process_seconds,
                      rhs_evals=logpost.rhs_evals(),
                      accept_rate=chain.accept_rate,
                      ess=effective_sample_size(chain.draws[:, 0]),
                      step_scale=chain.step_scale)
    if out_dir is not None:
        chain_name = f"chain_{k}.csv"
        save_chain_csv(chain, Path(out_dir) / chain_name)
        run["chain_csv"] = chain_name
    return run


def _run_record(spec: ExperimentSpec, k: int, status: str, **fields) -> dict:
    """A run of step k with every RUN_FIELDS key; None where ``fields``
    gives no value."""
    run = dict.fromkeys(RUN_FIELDS)
    run.update(h=float(spec.h_grid[k]), k=k, seed=spec.chain_seed(k),
               status=status, solver=spec.solver, **fields)
    return run


def _sweep_worker(spec_dict: dict, k: int, out_dir: str, obs_csv: str) -> dict:
    """One step of a sweep; any exception from its run becomes a failed run.

    Every warning the step raises is recorded in the run's ``warnings`` as
    "Category: message", in this process or in a pool worker alike.
    """
    spec = ExperimentSpec.from_dict(spec_dict)
    dataset = load_observations(obs_csv, sigma=spec.sigma)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            run = run_single(spec, dataset, k, Path(out_dir))
        except Exception as exc:
            reason = str(exc) if isinstance(exc, StepSelectError) \
                else f"{type(exc).__name__}: {exc}"
            run = _run_record(spec, k, f"failed: {reason}")
    run["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
    return run


def run_sweep(spec: ExperimentSpec, out_dir, jobs: int = 1,
              dataset: Optional[Dataset] = None) -> dict:
    """Run the whole step-size sweep and leave a run directory behind.

    Steps run independently (in min(jobs, steps) worker processes when
    that is more than one) against the same saved observation file; a step
    that fails (misaligned grid, divergent solve) is recorded and skipped,
    never fatal.  Returns the run record, also written to ``record.json``.
    Nothing is written when jobs is below 1 or the data fail to load.
    """
    if jobs < 1:
        raise StepSelectError(f"jobs must be at least 1, got {jobs}")
    if dataset is None:
        dataset = load_or_generate(spec)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    obs_csv = out_dir / "observations.csv"
    save_observations(dataset, obs_csv)

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
            [r["rhs_evals"] for r in ok], threshold=spec.jeffreys_threshold)
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
    timing figures is byte-deterministic given the spec.  Every input (the
    record, the observations, each ok step's chain) is read and every row
    built before ``_write_table`` writes a table, so a bad record is a
    ParseError and a missing or malformed file an error naming it, and
    nothing is written.
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
        if [s["h"] for s in steps] != [r["h"] for r in ok]:
            raise ValueError("its steps and its ok runs name different h")
        fit_cells, curve_rows, lines = (None, None), [], []
        if curve is not None:
            log_a = curve["log_fitted_a"]
            fit_cells = (log_a, math.exp(log_a))
            lines.append(f"extrapolated marginal: {math.exp(log_a):.6g} "
                         f"(log {log_a:.6f}, rel se {curve['rel_se_a']:.3g}, "
                         f"fit mask h={curve['mask_h']})")
        for s, r in zip(steps, ok):
            bf_flag = (None, None) if s["bf"] is None else (
                s["bf"], math.trunc(s["flag"]))    # a flag prints as 0 or 1
            curve_rows.append((s["h"], s["log_marginal"], s["se"], *bf_flag))
            bf_s = "" if s["bf"] is None else f"  BF={s['bf']:.6f}"
            # records written before these fields existed still render
            chain_s = "" if r.get("ess") is None else (
                f" process={r['process_seconds']:.2f}s ess={r['ess']:.0f} "
                f"scale={r['step_scale']:.4g}")
            rhs_s = "" if r.get("rhs_evals") is None else f" rhs={r['rhs_evals']}"
            lines.append(f"h={s['h']:<8g} log P = {s['log_marginal']:.6f} "
                         f"+- {s['se']:.4f}{bf_s}  cpu={s['cpu_seconds']:.2f}s "
                         f"accept={r['accept_rate']:.3f}{chain_s}{rhs_s}")
            lines.extend(f"  warning: {w}" for w in r.get("warnings") or ())
        chains = [(r["k"], out_dir / r["chain_csv"]) for r in ok
                  if r["chain_csv"] is not None]
        for r in record["runs"]:
            if r["status"] != "ok":
                lines.append(f"h={r['h']:<8g} {r['status']}")
                lines.extend(f"  warning: {w}" for w in r.get("warnings") or ())
        if "curve_error" in record:
            lines.append(f"no evidence curve: {record['curve_error']}")
        if rec is not None and rec["recommended_h"] is not None:
            rhs_s = "" if rec.get("rhs_ratio") is None else (
                f", {rec['rhs_ratio']:.2f}x fewer RHS evaluations")
            lines.append(f"recommended step: h={rec['recommended_h']:g} "
                         f"(speedup {rec['speedup']:.2f}x over the finest step"
                         f"{rhs_s})")
        elif rec is not None:
            lines.append("recommended step: none admissible at this threshold")
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise ParseError(f"{path} is not a run record "
                         f"({type(exc).__name__}: {exc})") from exc
    dataset = load_observations(obs_csv, sigma=spec.sigma)
    exact_error = None
    try:
        exact = _quadrature_exact(spec, dataset)
    except StepSelectError as exc:
        exact, exact_error = None, str(exc)
    hists = [(k, np.histogram(load_chain_csv(chain_csv)[0][:, 0], bins=60,
                              density=True)) for k, chain_csv in chains]

    head = [f"model={spec.model} solver={spec.solver} sigma={spec.sigma:g} "
            f"n_obs={dataset.n} seed={spec.seed}"]
    if exact is not None:
        head.append(f"exact marginal (quadrature): {exact.marginal:.6g} "
                    f"(log {exact.log_marginal:.6f})")
    elif exact_error is not None:
        head.append(f"exact marginal: unavailable: {exact_error}")

    exact_cells = (None, None) if exact is None else (exact.log_marginal,
                                                      exact.marginal)
    _write_table(out_dir / "table.csv", "sigma,log_exact_marginal,"
                 "exact_marginal,log_extrapolated,extrapolated_marginal",
                 [(spec.sigma, *exact_cells, *fit_cells)])
    _write_table(out_dir / "curve.csv", "h,log_marginal,se,bf,flag",
                 curve_rows)
    for k, (counts, edges) in hists:
        _write_table(out_dir / f"posterior_hist_{k}.csv",
                     "bin_lo,bin_hi,density",
                     np.column_stack((edges[:-1], edges[1:], counts)).tolist())
    with open(out_dir / "summary.txt", "w") as fh:
        fh.write("\n".join(head + lines) + "\n")
    return record
