"""Command-line front end.

Two subcommands:

  paic compute    --model normal|normal-flat|hier-logit --data y.csv
                  [--draws draws.csv] --criteria paic,bpic,waic2,loo,dic,popt
                  --seed N --out report.json [--format json|csv]

  paic experiment normal|logit --reps R --seed N --out DIR [scenario flags]

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

from . import criteria as crit
from ._version import __version__
from .exceptions import NumericalError, PaicError, ValidationError
from .experiments import (
    LogitExperimentConfig,
    NormalExperimentConfig,
    run_logit_experiment,
    run_normal_bias_experiment,
)
from .fileio import (
    provenance,
    read_draws_csv,
    read_observations_csv,
    write_experiment_outputs,
    write_reports_csv,
    write_reports_json,
)
from .infomat import info_matrix_pair
from .mcmc import SamplerBudget, sample_conjugate_normal, sample_hier_logit
from .models import ConjugateNormalModel, HierLogitModel
from .optimize import find_posterior_mode, laplace_approx

KNOWN_CRITERIA = ("paic", "bpic", "waic2", "loo", "dic", "popt")


def _int_list(text: str):
    return tuple(int(x) for x in text.split(",") if x.strip())


def _float_list(text: str):
    return tuple(float(x) for x in text.split(",") if x.strip())


def _str_list(text: str):
    return tuple(x.strip() for x in text.split(",") if x.strip())


def default_threads() -> int:
    env = os.environ.get("PAIC_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValidationError(f"PAIC_THREADS is not an integer: {env!r}")
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paic",
        description="Bias-corrected predictive criteria for Bayesian models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    default_budget = SamplerBudget()
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute criteria for one dataset")
    pc.add_argument("--model", required=True,
                    choices=["normal", "normal-flat", "hier-logit"])
    pc.add_argument("--data", required=True, help="observation CSV (column y)")
    pc.add_argument("--draws", default=None, help="optional posterior draw CSV")
    pc.add_argument("--criteria", type=_str_list, default=KNOWN_CRITERIA,
                    help="comma list from: " + ",".join(KNOWN_CRITERIA))
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
    pc.add_argument("--draw-count", type=int, default=20000,
                    help="draws for the exact normal sampler")
    pc.add_argument("--chains", type=int, default=default_budget.chains)
    pc.add_argument("--samples", type=int, default=default_budget.draws_per_chain,
                    help="post-warmup draws per chain (hier-logit)")
    pc.add_argument("--warmup", type=int, default=default_budget.warmup)
    pc.add_argument("--fold-samples", type=int, default=crit.LOO_BUDGET.draws_per_chain)
    pc.add_argument("--fold-warmup", type=int, default=crit.LOO_BUDGET.warmup)
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
    pe.add_argument("--chains", type=int, default=default_budget.chains)
    pe.add_argument("--samples", type=int, default=default_budget.draws_per_chain)
    pe.add_argument("--warmup", type=int, default=default_budget.warmup)
    pe.add_argument("--fold-samples", type=int, default=crit.LOO_BUDGET.draws_per_chain)
    pe.add_argument("--fold-warmup", type=int, default=crit.LOO_BUDGET.warmup)
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


def _obtain_draws(args, model, data, get_mode, budget):
    if args.draws is not None:
        draws = read_draws_csv(args.draws)
        if draws.p != model.p:
            raise ValidationError(
                f"draw file has dimension {draws.p}, model needs {model.p}"
            )
        return draws
    if isinstance(model, ConjugateNormalModel):
        return sample_conjugate_normal(model, data, args.draw_count, args.seed)
    mode = get_mode()
    if not mode.converged:
        raise NumericalError("posterior mode search did not converge")
    lap = laplace_approx(model, data, mode)
    draws, _ = sample_hier_logit(model, data, budget=budget, seed=args.seed,
                                 init=lap, check=True)
    return draws


def _budgets(args):
    """The main and the exact-LOO fold sampler budgets the flags ask for."""
    return (SamplerBudget(args.chains, args.samples, args.warmup),
            SamplerBudget(args.chains, args.fold_samples, args.fold_warmup))


def cmd_compute(args) -> int:
    budget, fold_budget = _budgets(args)  # checked before any work
    if not args.criteria:
        raise ValidationError("--criteria names no criterion")
    for name in args.criteria:
        if name not in KNOWN_CRITERIA:
            raise ValidationError(f"unknown criterion {name!r}")
    data = read_observations_csv(args.data)
    model = _build_model(args, data)
    model.validate_data(data)
    # one mode search serves the sampler's start and the paic/bpic penalties,
    # and one information-matrix pair serves both penalties
    get_mode = functools.cache(lambda: find_posterior_mode(model, data, seed=args.seed))
    get_pair = functools.cache(lambda: info_matrix_pair(model, data, get_mode().theta_hat))
    draws = _obtain_draws(args, model, data, get_mode, budget)
    min_draws = min(crit.MIN_DRAWS, draws.S)  # supplied draw files may be small
    get_pointwise = functools.cache(lambda: crit.pointwise_loglik(model, data, draws))

    reports = []
    errors = []
    for name in args.criteria:
        try:
            if name == "paic":
                report = crit.paic(get_pointwise(), get_pair(), min_draws=min_draws)
            elif name == "bpic":
                report = crit.bpic(model, data, draws, get_mode(), get_pair(),
                                   min_draws=min_draws)
            elif name == "waic2":
                report = crit.waic2(get_pointwise())
            elif name == "dic":
                report = crit.dic(model, data, draws, min_draws=min_draws)
            elif name == "popt":
                report = crit.popt_closed_form(model, data)
            else:
                report = crit.loo_exact(model, data, fold_budget, args.seed)
        except PaicError as exc:
            errors.append((name, str(exc)))
            continue
        reports.append(dataclasses.replace(report, seed=args.seed))

    config = {
        "subcommand": "compute",
        "model": args.model,
        "criteria": list(args.criteria),
        "sigma_a2": args.sigma_a2, "mu0": args.mu0, "tau02": args.tau02,
        "mu_mean": args.mu_mean, "mu_var": args.mu_var,
        "nu": args.nu, "s2": args.s2,
        "draw_count": args.draw_count, "chains": args.chains,
        "samples": args.samples, "warmup": args.warmup,
        "fold_samples": args.fold_samples, "fold_warmup": args.fold_warmup,
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
        budget, fold_budget = _budgets(args)
        cfg = LogitExperimentConfig(
            N=args.groups, n_i=args.trials,
            replications=args.reps,
            budget=budget, fold_budget=fold_budget,
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
