"""Command-line entry points.

Verbs:
  gen       write a synthetic observation CSV from a spec
  sweep     run the full step-size sweep and report into a directory
  evidence  run a single step size and emit one evidence JSON record
  report    rebuild the report tables for an existing run directory
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import StepSelectError
from .harness import (MODELS, ExperimentSpec, generate_synthetic, report,
                      run_single, run_sweep, save_observations, load_or_generate)
from .ode import METHOD_ORDERS


def _load_spec(args) -> ExperimentSpec:
    """The spec file with the command-line overrides applied, re-validated."""
    d = ExperimentSpec.from_json_file(args.spec).to_dict()
    if getattr(args, "seed", None) is not None:
        d["seed"] = args.seed
    if getattr(args, "model", None) is not None:
        d.update(model=args.model, params={})
    if getattr(args, "solver", None) is not None:
        d["solver"] = args.solver
    if getattr(args, "h", None) is not None:
        d["h_grid"] = [args.h]
        d["regression"]["mask_h"] = None
    return ExperimentSpec.from_dict(d)


def cmd_gen(args) -> int:
    spec = _load_spec(args)
    dataset = generate_synthetic(spec)
    save_observations(dataset, args.out)
    print(f"wrote {dataset.n} observations to {args.out}")
    return 0


def cmd_sweep(args) -> int:
    run_sweep(_load_spec(args), args.out, jobs=args.jobs)
    return cmd_report(args)


def cmd_evidence(args) -> int:
    spec = _load_spec(args)
    if args.h is None and len(spec.h_grid) != 1:
        print("evidence needs --h (or a single-entry h_grid in the spec)",
              file=sys.stderr)
        return 2
    dataset = load_or_generate(spec)
    run = run_single(spec, dataset, 0)
    rec = {"log_marginal": run["log_marginal"], "se": run["se"],
           "method": run["method"], "h": run["h"], "solver": run["solver"]}
    payload = json.dumps(rec, indent=2)
    if args.out is not None:
        Path(args.out).write_text(payload + "\n")
    print(payload)
    return 0


def cmd_report(args) -> int:
    report(args.out)
    print((Path(args.out) / "summary.txt").read_text(), end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stepselect",
        description="Bayes-factor selection of ODE solver step sizes")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, spec_required=True):
        p.add_argument("--spec", required=spec_required,
                       help="experiment spec JSON file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the spec seed")
        p.add_argument("--solver", choices=METHOD_ORDERS,
                       default=None, help="override the spec solver")

    p_gen = sub.add_parser("gen", help="generate a synthetic observation CSV")
    add_common(p_gen)
    p_gen.add_argument("--model", choices=MODELS, default=None)
    p_gen.add_argument("--out", required=True, help="output CSV path")
    p_gen.set_defaults(fn=cmd_gen)

    p_sweep = sub.add_parser("sweep", help="run the full h sweep")
    add_common(p_sweep)
    p_sweep.add_argument("--out", required=True, help="run directory")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes (at least 1; no "
                              "more are started than the grid has steps)")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_ev = sub.add_parser("evidence", help="single-step evidence estimate")
    add_common(p_ev)
    p_ev.add_argument("--h", type=float, default=None, help="step size")
    p_ev.add_argument("--out", default=None, help="output JSON path")
    p_ev.set_defaults(fn=cmd_evidence)

    p_rep = sub.add_parser("report", help="rebuild report tables for a run")
    p_rep.add_argument("--out", required=True, help="existing run directory")
    p_rep.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (StepSelectError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
