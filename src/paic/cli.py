"""Command-line front end.

Two subcommands:

  paic compute    --model normal|normal-flat|hier-logit --data y.csv
                  [--draws draws.csv] [--criteria paic,bpic,waic2,loo,dic,popt]
                  --seed N --out report.json [--format json|csv]

  paic experiment normal|logit --reps R --seed N --out DIR [scenario flags]

``compute`` scores the exact posterior expectations of the built-in models
(S = 0), or the user's own draws from ``--draws``.

Exit codes are a stable contract: 0 success (including partial success where
individual criteria report errors), 2 validation error (including a file
that cannot be read or written), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import criteria as crit
from ._version import __version__
from .exceptions import PaicError, ValidationError
from .experiments import (
    LogitExperimentConfig,
    NormalExperimentConfig,
    run_logit_experiment,
    run_normal_bias_experiment,
)
from .fileio import (
    data_row_line,
    provenance,
    read_draws_csv,
    read_observations_csv,
    write_experiment_outputs,
    write_reports_csv,
    write_reports_json,
)
from .infomat import info_matrix_pair
from .models import ConjugateNormalModel, HierLogitModel
from .optimize import find_posterior_mode, laplace_approx

KNOWN_CRITERIA = ("paic", "bpic", "waic2", "loo", "dic", "popt")
# the default --criteria of the hierarchical logit: popt is the normal model's closed form
HIER_LOGIT_CRITERIA = ("paic", "bpic", "waic2", "loo", "dic")
DRAW_CRITERIA = ("paic", "bpic", "waic2", "dic")  # the ones that read the posterior summary


def _int_list(text: str):
    return tuple(int(x) for x in text.split(",") if x.strip())


def _float_list(text: str):
    return tuple(float(x) for x in text.split(",") if x.strip())


def _str_list(text: str):
    return tuple(x.strip() for x in text.split(",") if x.strip())


def default_threads() -> int:
    env = os.environ.get("PAIC_THREADS")
    if not env:
        return os.cpu_count() or 1
    if not env.strip().isdigit() or int(env) < 1:
        raise ValidationError(f"PAIC_THREADS must be an integer >= 1, got {env!r}")
    return int(env)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paic",
        description="Bias-corrected predictive criteria for Bayesian models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute criteria for one dataset")
    pc.add_argument("--model", required=True,
                    choices=["normal", "normal-flat", "hier-logit"])
    pc.add_argument("--data", required=True, help="observation CSV (column y)")
    pc.add_argument("--draws", default=None, help="optional posterior draw CSV")
    pc.add_argument("--criteria", type=_str_list, default=None,
                    help="comma list from: " + ",".join(KNOWN_CRITERIA)
                    + " (default: all of them; for hier-logit all but popt)")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", required=True)
    pc.add_argument("--format", choices=["json", "csv"], default="json")
    pc.add_argument("--sigma-a2", type=float, default=1.0)
    pc.add_argument("--mu0", type=float, default=0.0)
    pc.add_argument("--tau02", type=float, default=1e4)
    pc.add_argument("--mu-mean", type=float, default=0.0)
    pc.add_argument("--mu-var", type=float, default=1000.0 ** 2)
    pc.add_argument("--nu", type=float, default=0.1)
    pc.add_argument("--s2", type=float, default=10.0)
    pc.set_defaults(func=cmd_compute)

    pe = sub.add_parser("experiment", help="run a replication study")
    pe.add_argument("kind", choices=["normal", "logit"])
    pe.add_argument("--reps", type=int, required=True)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--out", required=True, help="output directory")
    pe.add_argument("--threads", type=int, default=None,
                    help="worker count (default: PAIC_THREADS or all cores)")
    # normal scenario flags
    pe.add_argument("--n", type=_int_list, default=(25, 50, 100, 200))
    pe.add_argument("--sigma-a2", type=_float_list, default=(1.0,))
    pe.add_argument("--tau02-rule", type=_str_list, default=("1e4",))
    pe.add_argument("--mu-t", type=float, default=0.0)
    pe.add_argument("--sigma-t2", type=float, default=1.0)
    pe.add_argument("--mu0", type=float, default=0.0)
    # logit scenario flags
    pe.add_argument("--groups", type=int, default=15)
    pe.add_argument("--trials", type=int, default=50)
    pe.set_defaults(func=cmd_experiment)
    return parser


def _build_model(args, data):
    if args.model == "normal":
        return ConjugateNormalModel(args.sigma_a2, args.mu0, args.tau02)
    if args.model == "normal-flat":
        return ConjugateNormalModel.flat(args.sigma_a2)
    if data.trial_sizes is None:
        raise ValidationError("hier-logit needs an n_trials column in the data CSV")
    return HierLogitModel(data.trial_sizes, args.mu_mean, args.mu_var,
                          args.nu, args.s2)


def _read_draws(args, model):
    draws = read_draws_csv(args.draws)
    if draws.p != model.p:
        raise ValidationError(
            f"draw file has dimension {draws.p}, model needs {model.p}"
        )
    lo, hi = np.array(model.support()).T
    outside = (draws.draws <= lo) | (draws.draws >= hi)
    if outside.any():
        s, j = np.argwhere(outside)[0]
        raise ValidationError(
            f"{args.draws}:{data_row_line(args.draws, s)}: theta_{j + 1} = "
            f"{draws.draws[s, j]:.17g} lies outside the model's support"
        )
    return draws


def cmd_compute(args) -> int:
    names = args.criteria
    if names is None:
        names = HIER_LOGIT_CRITERIA if args.model == "hier-logit" else KNOWN_CRITERIA
    if not names:
        raise ValidationError("--criteria names no criterion")
    for k, name in enumerate(names):
        if name not in KNOWN_CRITERIA:
            raise ValidationError(f"unknown criterion {name!r}")
        if name in names[:k]:
            raise ValidationError(f"criterion {name!r} named twice")
    data = read_observations_csv(args.data)
    model = _build_model(args, data)
    model.validate_data(data)
    # one fit (a mode search, then the Laplace step, where an unconverged mode fails)
    # serves the LOO grid and the one info pair of the paic/bpic penalties
    get_mode = functools.cache(lambda: find_posterior_mode(model, data, seed=args.seed))
    get_lap = functools.cache(lambda: laplace_approx(model, data, get_mode()))
    get_pair = functools.cache(lambda: info_matrix_pair(model, data, get_lap().mean))
    # a supplied draw file is read (and refused, exit 2) before any criterion,
    # unless only loo and popt, which read no posterior summary, are requested
    if args.draws is not None and not set(names).isdisjoint(DRAW_CRITERIA):
        draws = _read_draws(args, model)
        get_summary = functools.cache(lambda: crit.draw_summary(model, data, draws))
    elif isinstance(model, HierLogitModel):
        get_summary = functools.cache(lambda: crit.grid_summary(model, data, get_lap()))
    else:
        get_summary = functools.cache(lambda: crit.normal_summary(model, data))
    # with draws, the hierarchical logit's loo builds its own grid on the fit
    loo_lap = get_lap if args.draws is not None else None

    reports = []
    errors = []
    for name in names:
        try:
            report = crit.criterion_report(name, model, data, get_summary, get_mode,
                                           get_pair, loo_lap)
        except PaicError as exc:
            errors.append((name, exc))
            continue
        reports.append(dataclasses.replace(report, seed=args.seed))

    config = {
        "subcommand": "compute",
        "model": args.model,
        "criteria": list(names),
        "sigma_a2": args.sigma_a2, "mu0": args.mu0, "tau02": args.tau02,
        "mu_mean": args.mu_mean, "mu_var": args.mu_var,
        "nu": args.nu, "s2": args.s2,
        "draws_supplied": args.draws is not None,
        "seed": args.seed,
    }
    prov = provenance(config, args.seed)
    if args.format == "json":
        write_reports_json(args.out, reports, prov, errors=errors)
    else:
        write_reports_csv(args.out, reports, prov, errors=errors)
    return 0


def cmd_experiment(args) -> int:
    threads = args.threads if args.threads is not None else default_threads()
    if args.kind == "normal":
        cfg = NormalExperimentConfig(
            mu_T=args.mu_t, sigma_T2=args.sigma_t2,
            sigma_A2_grid=args.sigma_a2, tau02_rules=args.tau02_rule,
            mu0=args.mu0, n_grid=args.n,
            replications=args.reps, seed=args.seed,
        )
        result = run_normal_bias_experiment(cfg)
    else:
        cfg = LogitExperimentConfig(
            N=args.groups, n_i=args.trials,
            replications=args.reps,
            seed=args.seed,
            workers=threads,
        )
        result = run_logit_experiment(cfg)
    prov = provenance(result.config, args.seed)
    write_experiment_outputs(args.out, result, prov)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:  # Philox streams take a nonnegative seed
            parser.error(f"argument --seed: must be >= 0, got {args.seed}")
    except SystemExit as exc:
        # argparse uses exit code 2 for bad flags, matching the validation code
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PaicError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
