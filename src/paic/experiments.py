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

The logit replications run in one batch per worker.  A batch samples and
reduces each replication's exact-LOO folds, then passes all its main chains
to the sampler in one call and scores each replication as the sampler
yields its chains; the sampler sizes its own loops.  Everything is driven by
Philox substreams keyed on (seed, cell, replication), so results are
bit-identical for a given (config, seed) however many workers run the
batches.
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
    CriterionReport,
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
from .mcmc import Diagnostics, PosteriorDraws, SamplerBudget, _sample_hier_logit_rows
from .models import (ConjugateNormalModel, HierLogitModel, ObservationSet,
                     _binom_loglik, _expit, softplus)
from .optimize import (LaplaceApprox, ModeResult, find_posterior_mode, laplace_approx,
                       posterior_mode)
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
    budget: SamplerBudget = SamplerBudget()
    fold_budget: SamplerBudget = LOO_BUDGET
    seed: int = 0
    max_fail_frac: float = 0.05
    workers: int = 1

    def __post_init__(self):
        # N >= 3: an exact-LOO fold keeps N - 1 >= 2 groups
        for name, low in (("N", 3), ("n_i", 1), ("workers", 1)):
            value = getattr(self, name)
            if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
                    or not -2 ** 63 <= value < 2 ** 63):
                raise ValidationError(f"{name} must be an integer in the int64 range, "
                                      f"got {value!r}")
            if value < low:
                raise ValidationError(f"{name} must be >= {low}, got {value}")
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
                    tr = trace_correction(
                        info_matrix_pair(model, data, mode.theta_hat)).value
                    records["b_paic"][r] = cf.paic
                    records["b_bpic"][r] = cf.bpic
                    records["b_waic2"][r] = cf.waic2
                    records["b_popt"][r] = cf.popt
                    records["b_cv"][r] = cf.cv
                    records["b_paic_generic"][r] = tr / n
                    records["b_bpic_generic"][r] = tr * (n - 1) / n / n
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


@dataclass(frozen=True)
class _LogitFit:
    """One replication's data and everything fitted to it before its main chains."""

    model: HierLogitModel
    data: ObservationSet
    beta_true: np.ndarray
    mode: ModeResult
    lap: LaplaceApprox
    loo: CriterionReport


def _logit_fit(cfg: LogitExperimentConfig, rep: int) -> Optional[_LogitFit]:
    """Simulate replication ``rep``, find its mode and Laplace start and run
    its exact LOO; None when the mode search or the Laplace step fails."""
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
    loo = loo_exact(model, data, cfg.fold_budget, cfg.seed, rng_path=("logit", rep))
    return _LogitFit(model, data, beta_true, mode, lap, loo)


def _logit_replication(cfg: LogitExperimentConfig, rep: int, fit: _LogitFit,
                       draws: PosteriorDraws, diag: Diagnostics, attempts: int) -> dict:
    """Score replication ``rep`` from its fit and its main-chain draws.

    perfbench's tracer wraps this function and reads ``rep`` (argument 1)
    as the id of the replication its spans belong to.
    """
    model, data = fit.model, fit.data
    pw = pointwise_loglik(model, data, draws)
    eta_hat = mean_insample_loglik(pw)
    pair = info_matrix_pair(model, data, fit.mode.theta_hat)
    reports = {
        "paic": paic(pw, pair, min_draws=draws.S),
        "bpic": bpic(model, data, draws, fit.mode, pair, min_draws=draws.S),
        "waic2": waic2(pw),
        "cv": fit.loo,
    }
    eta_true = true_predictive_loglik_exact(draws, fit.beta_true, model.trial_sizes)
    record = {"replication": rep, "eta_hat": eta_hat, "eta_true": eta_true}
    for est, r in reports.items():
        b = (eta_hat - r.fit_term / cfg.N) + r.penalty / cfg.N
        record[f"b_{est}"] = b
        record[f"err_{est}"] = (eta_hat - eta_true) - b
    record.update(
        max_rhat=diag.max_rhat,
        min_ess=diag.min_ess,
        loo_flagged=float(len(fit.loo.flagged_folds)),
        attempts=float(attempts),
    )
    return record


def _logit_batch(cfg: LogitExperimentConfig, reps: range) -> list:
    """Records of replications ``reps``, None for an excluded one (mode or
    Laplace failure, or two gate failures).

    Every replication's LOO folds are sampled and reduced first.  Attempt 0
    then passes all fitted replications to the sampler in one call; each one
    that passes the convergence gate is scored as the sampler yields its
    chains, and the failed ones are rerun together once with a doubled
    budget.  Each row's substream is keyed by (replication, attempt), so a
    replication's chains do not depend on which others share its loop.
    """
    fits = {rep: _logit_fit(cfg, rep) for rep in reps}
    records = dict.fromkeys(reps)
    pending = [rep for rep in reps if fits[rep] is not None]
    for attempt, budget in enumerate((cfg.budget, cfg.budget.scaled(2.0))):
        sampled = _sample_hier_logit_rows(
            [(fits[rep].model, fits[rep].data, fits[rep].lap, ("logit", rep, "main", attempt))
             for rep in pending], budget, cfg.seed)
        failed = []
        for rep in pending:
            draws, diag = next(sampled)
            if diag.ok():
                records[rep] = _logit_replication(cfg, rep, fits[rep], draws, diag,
                                                  attempt + 1)
            else:
                failed.append(rep)
            # explicit release: no draws of this loop stay held while the
            # sampler runs its next one
            del draws
        pending = failed
    return list(records.values())


def _logit_batches(cfg: LogitExperimentConfig) -> list:
    """One contiguous range of replications per worker, or one per
    replication when there are fewer; sizes differ by at most one."""
    R = cfg.replications
    n = min(R, cfg.workers)
    bounds = [b * R // n for b in range(n + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


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
    run_batch = functools.partial(_logit_batch, cfg)
    ranges = _logit_batches(cfg)
    if len(ranges) > 1:
        # a forked pool starts all its processes at once: one per batch
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            batches = list(pool.map(run_batch, ranges))
    else:
        batches = [run_batch(reps) for reps in ranges]

    kept = [r for batch in batches for r in batch if r is not None]
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
