"""Replication studies: bias-estimator calibration for the two built-in models.

The normal study draws y ~ N(mu_T, sigma_T2), analyzes it with the (possibly
misspecified) fixed-variance normal model, and compares five closed-form
per-observation bias estimates -- plus the generic info-matrix penalties as a
cross-check -- against the known true bias sigma_T2 * sigma_hat2 / sigma_A2^2.

The logit study simulates group logits from N(mu_true, tau_true^2), counts
from the matching binomials, fits the hierarchical model by MCMC, and scores
the criteria that ``paic compute`` ships (paic, bpic, waic2 and exact LOO)
against the true out-of-sample value: each bias estimate is the in-sample
average log likelihood minus the report's fit term per group, plus its
penalty per group.  The out-of-sample average log likelihood is computed
exactly by summing over each group's finite support.

Everything is driven by Philox substreams keyed on (seed, cell, replication),
so results are bit-identical for a given (config, seed) no matter how many
workers run the replications.
"""

from __future__ import annotations

import dataclasses
import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .criteria import (
    LOO_BUDGET,
    bpic,
    closed_form_bias_estimators,
    loo_exact,
    mean_insample_loglik,
    paic,
    pointwise_loglik,
    waic2,
)
from .exceptions import ExperimentError, PaicError, ValidationError
from .infomat import info_matrix_pair, trace_correction
from .mcmc import SamplerBudget, PosteriorDraws, sample_hier_logit
from .models import (ConjugateNormalModel, HierLogitModel, ObservationSet,
                     _binom_loglik, _expit, softplus)
from .optimize import find_posterior_mode, laplace_approx, posterior_mode
from .rng import substream

TAU02_RULES = ("1e4", "1e4_over_n", "0.25", "flat")

NORMAL_ESTIMATORS = ("paic", "bpic", "waic2", "popt", "cv",
                     "paic_generic", "bpic_generic")
LOGIT_ESTIMATORS = ("paic", "bpic", "waic2", "cv")


@dataclass(frozen=True)
class NormalExperimentConfig:
    mu_T: float = 0.0
    sigma_T2: float = 1.0
    sigma_A2_grid: tuple = (1.0, 2.25, 0.25)
    tau02_rules: tuple = ("1e4",)
    mu0: float = 0.0
    n_grid: tuple = (25, 50, 100, 200)
    replications: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.mu_T):
            raise ValidationError(f"mu_T must be finite, got {self.mu_T}")
        if not 0 < self.sigma_T2 < np.inf:
            raise ValidationError(f"sigma_T2 must be positive and finite, got {self.sigma_T2}")
        for name in ("sigma_A2_grid", "tau02_rules", "n_grid"):
            if not getattr(self, name):
                raise ValidationError(f"{name} is empty")
        if not all(0 < s < np.inf for s in self.sigma_A2_grid):
            raise ValidationError("sigma_A2_grid values must be positive and finite")
        if min(self.n_grid) < 2:
            raise ValidationError(f"n_grid values must be >= 2, got {min(self.n_grid)}")
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")
        for rule in self.tau02_rules:
            resolve_tau02(rule, 10)  # raises on unknown rules


@dataclass(frozen=True)
class LogitExperimentConfig:
    N: int = 15
    n_i: int = 50
    mu_true: float = 0.0
    tau_true: float = 1.0
    replications: int = 100
    budget: SamplerBudget = SamplerBudget(chains=3, draws_per_chain=5000, warmup=2000)
    fold_budget: SamplerBudget = LOO_BUDGET
    seed: int = 0
    max_fail_frac: float = 0.05
    workers: int = 1

    def __post_init__(self):
        if self.N < 2 or self.n_i < 1:
            raise ValidationError("need N >= 2 groups and n_i >= 1 trials")
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")


@dataclass
class CellResult:
    keys: dict
    records: dict
    aggregates: dict
    excluded: int = 0


@dataclass
class ExperimentResult:
    experiment: str
    config: dict
    seed: int
    cells: list


def resolve_tau02(rule: str, n: int) -> Optional[float]:
    """Prior-variance rule -> numeric value (None means the flat prior)."""
    if rule == "1e4":
        return 1e4
    if rule == "1e4_over_n":
        return 1e4 / n
    if rule == "0.25":
        return 0.25
    if rule == "flat":
        return None
    try:
        value = float(rule)
    except ValueError:
        raise ValidationError(f"unknown tau02 rule: {rule!r}")
    if not 0 < value < np.inf:
        raise ValidationError(f"tau02 must be positive and finite, got {rule!r}")
    return value


def true_bias_normal(cfg: NormalExperimentConfig, n: int,
                     tau02: Optional[float], sigma_A2: float) -> float:
    """Exact expected optimism sigma_T2 * sigma_hat2 / sigma_A2^2."""
    _, sigma_hat2 = ConjugateNormalModel(sigma_A2, cfg.mu0, tau02).posterior(n, 0.0)
    return cfg.sigma_T2 * sigma_hat2 / sigma_A2 ** 2


def _aggregate_vs_truth(values: np.ndarray, truth: float) -> dict:
    err = values - truth
    return {
        "mean": float(np.mean(values)),
        "sd": float(np.std(values, ddof=1)) if values.size > 1 else 0.0,
        "mean_abs_err": float(np.mean(np.abs(err))),
        "mean_sq_err": float(np.mean(err ** 2)),
    }


def aggregate_normal_cell(records: dict, true_bias: float) -> dict:
    return {
        est: _aggregate_vs_truth(np.asarray(records[f"b_{est}"]), true_bias)
        for est in NORMAL_ESTIMATORS
    }


def run_normal_bias_experiment(cfg: NormalExperimentConfig) -> ExperimentResult:
    """Five closed-form estimators plus the generic penalties, every cell."""
    cells = []
    for rule in cfg.tau02_rules:
        for sigma_A2 in cfg.sigma_A2_grid:
            for n in cfg.n_grid:
                tau02 = resolve_tau02(rule, n)
                model = ConjugateNormalModel(sigma_A2, cfg.mu0, tau02)
                b_true = true_bias_normal(cfg, n, tau02, sigma_A2)
                records = {f"b_{est}": np.empty(cfg.replications)
                           for est in NORMAL_ESTIMATORS}
                records["replication"] = np.arange(cfg.replications)
                for r in range(cfg.replications):
                    gen = substream(cfg.seed, "normal", rule, f"sA2={sigma_A2}", n, r)
                    y = cfg.mu_T + np.sqrt(cfg.sigma_T2) * gen.standard_normal(n)
                    data = ObservationSet(y)
                    cf = closed_form_bias_estimators(model, data)
                    mode = posterior_mode(model, data, model.default_init(data))
                    tr_paic = trace_correction(
                        info_matrix_pair(model, data, mode.theta_hat, "paic")).value
                    tr_bpic = trace_correction(
                        info_matrix_pair(model, data, mode.theta_hat, "bpic")).value
                    records["b_paic"][r] = cf.paic
                    records["b_bpic"][r] = cf.bpic
                    records["b_waic2"][r] = cf.waic2
                    records["b_popt"][r] = cf.popt
                    records["b_cv"][r] = cf.cv
                    records["b_paic_generic"][r] = tr_paic / n
                    records["b_bpic_generic"][r] = tr_bpic / n
                keys = {"n": n, "tau02_rule": rule, "sigma_A2": sigma_A2,
                        "true_bias": b_true}
                cells.append(CellResult(
                    keys=keys,
                    records=records,
                    aggregates=aggregate_normal_cell(records, b_true),
                ))
    return ExperimentResult(
        experiment="normal",
        config=dataclasses.asdict(cfg),
        seed=cfg.seed,
        cells=cells,
    )


# -- logit study -----------------------------------------------------------


def true_predictive_loglik_exact(draws: PosteriorDraws, beta_true: np.ndarray,
                                 trial_sizes: np.ndarray) -> float:
    """(1/N) sum_i E_z[mean_draws log g(z | beta_i)] with z ~ Bin(n_i, true).

    The expectation over z is an exact finite sum over {0, ..., n_i}.  The
    binomial log pmf is linear in z given beta, so the per-group posterior
    means of beta and softplus(beta) give the draw average for every z.
    """
    beta_true = np.asarray(beta_true, dtype=float)
    trial_sizes = np.asarray(trial_sizes)
    N = beta_true.size
    B = draws.draws[:, :N]
    beta_bar, sp_bar = B.mean(axis=0), softplus(B).mean(axis=0)
    total = 0.0
    for i in range(N):
        n_i = float(trial_sizes[i])
        z = np.arange(int(n_i) + 1, dtype=float)
        pmf_true = np.exp(_binom_loglik(n_i, z, beta_true[i], softplus(beta_true[i])))
        total += float(pmf_true @ _binom_loglik(n_i, z, beta_bar[i], sp_bar[i]))
    return total / N


_LOGIT_RECORD_FIELDS = (
    "replication", "eta_hat", "eta_true",
    "b_paic", "b_bpic", "b_waic2", "b_cv",
    "err_paic", "err_bpic", "err_waic2", "err_cv",
    "max_rhat", "min_ess", "loo_flagged", "attempts",
)


def _logit_replication(cfg: LogitExperimentConfig, rep: int) -> Optional[dict]:
    """One replication, or None when excluded (mode/Laplace failure or two gate failures)."""
    trial_sizes = np.full(cfg.N, cfg.n_i)
    model = HierLogitModel(trial_sizes)
    gen = substream(cfg.seed, "logit", rep, "truth")
    beta_true = cfg.mu_true + cfg.tau_true * gen.standard_normal(cfg.N)
    y = gen.binomial(trial_sizes, _expit(beta_true))
    data = ObservationSet(y.astype(float), trial_sizes)

    try:
        mode = find_posterior_mode(model, data, seed=cfg.seed)
        lap = laplace_approx(model, data, mode)
    except PaicError:
        return None
    for attempt in range(2):
        budget = cfg.budget if attempt == 0 else cfg.budget.scaled(2.0)
        try:
            draws, diag = sample_hier_logit(
                model, data, budget=budget, seed=cfg.seed,
                rng_path=("logit", rep, "main", attempt), init=lap, check=True,
            )
            break
        except PaicError:
            continue  # sampler gate failure: retry once with a doubled budget
    else:
        return None

    pw = pointwise_loglik(model, data, draws)
    eta_hat = mean_insample_loglik(pw)
    pair = functools.partial(info_matrix_pair, model, data, mode.theta_hat)
    reports = {
        "paic": paic(pw, pair("paic"), min_draws=draws.S),
        "bpic": bpic(model, data, draws, mode, pair("bpic"), min_draws=draws.S),
        "waic2": waic2(pw),
        "cv": loo_exact(model, data, cfg.fold_budget, cfg.seed, rng_path=("logit", rep)),
    }
    eta_true = true_predictive_loglik_exact(draws, beta_true, trial_sizes)
    record = {"replication": rep, "eta_hat": eta_hat, "eta_true": eta_true}
    for est, r in reports.items():
        b = (eta_hat - r.fit_term / cfg.N) + r.penalty / cfg.N
        record[f"b_{est}"] = b
        record[f"err_{est}"] = (eta_hat - eta_true) - b
    record.update(
        max_rhat=diag.max_rhat,
        min_ess=diag.min_ess,
        loo_flagged=float(len(reports["cv"].flagged_folds)),
        attempts=float(attempt + 1),
    )
    return record


def aggregate_logit_cell(records: dict) -> dict:
    out = {}
    for est in LOGIT_ESTIMATORS:
        err = np.asarray(records[f"err_{est}"])
        out[est] = {
            "actual_err_mean": float(np.mean(err)),
            "actual_err_sd": float(np.std(err, ddof=1)) if err.size > 1 else 0.0,
            "abs_err_mean": float(np.mean(np.abs(err))),
            "abs_err_sd": float(np.std(np.abs(err), ddof=1)) if err.size > 1 else 0.0,
            "sq_err_mean": float(np.mean(err ** 2)),
            "sq_err_sd": float(np.std(err ** 2, ddof=1)) if err.size > 1 else 0.0,
        }
    return out


def run_logit_experiment(cfg: LogitExperimentConfig) -> ExperimentResult:
    """Replicated study of the four bias estimators for the logit model.

    Replications whose sampler fails the convergence gate even after one
    doubled-budget retry are excluded; more than ``max_fail_frac`` of them
    aborts the study.
    """
    reps = range(cfg.replications)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_logit_replication, [cfg] * cfg.replications, reps))
    else:
        results = [_logit_replication(cfg, rep) for rep in reps]

    kept = [r for r in results if r is not None]
    excluded = cfg.replications - len(kept)
    if excluded > cfg.max_fail_frac * cfg.replications:
        raise ExperimentError(
            f"{excluded}/{cfg.replications} replications failed the sampler gate"
        )
    if not kept:
        raise ExperimentError("no replications survived")
    records = {
        name: np.array([r[name] for r in kept], dtype=float)
        for name in _LOGIT_RECORD_FIELDS
    }
    cell = CellResult(
        keys={"N": cfg.N, "n_i": cfg.n_i},
        records=records,
        aggregates=aggregate_logit_cell(records),
        excluded=excluded,
    )
    config = dataclasses.asdict(cfg)
    config.pop("workers")  # execution detail; results do not depend on it
    return ExperimentResult(
        experiment="logit",
        config=config,
        seed=cfg.seed,
        cells=[cell],
    )
