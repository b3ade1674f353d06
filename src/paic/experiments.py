"""Replication studies: bias-estimator calibration for the two built-in models.

The normal study draws y ~ N(mu_T, sigma_T2), analyzes it with the (possibly
misspecified) fixed-variance normal model, and compares five closed-form
per-observation bias estimates -- plus the generic info-matrix penalties as a
cross-check -- against the known true bias sigma_T2 * sigma_hat2 / sigma_A2^2.

The logit study simulates group logits from N(mu_true, tau_true^2), counts
from the matching binomials, fits the hierarchical model once and scores the
criteria that ``paic compute`` ships (paic, bpic, waic2 and exact LOO)
against the true out-of-sample value: each bias estimate is the in-sample
average log likelihood minus the report's fit term per group, plus its
penalty per group.  Every posterior expectation these need is exact, a sum
over the exact-LOO grid (``criteria.grid_summary``), so the study scores
each estimator's value in the limit of infinitely many draws, and no
sampler runs: the reports are those ``paic compute`` makes of the same data.
The out-of-sample average log likelihood is computed exactly by summing over
each group's finite support.

The logit replications run in one contiguous chunk per worker.  Everything
is driven by Philox substreams keyed on (seed, cell, replication), and a
replication's numbers do not depend on the others in its chunk, so results
are bit-identical for a given (config, seed) however many workers run the
chunks.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .criteria import (
    closed_form_bias_estimators,
    criterion_report,
    grid_summary,
    mean_insample_loglik,
)
from .exceptions import ExperimentError, NumericalError, ValidationError, require_int
from .infomat import info_matrix_pair, trace_correction
from .models import (ConjugateNormalModel, HierLogitModel, ObservationSet,
                     _binom_loglik, _expit, softplus)
from .optimize import find_posterior_mode, laplace_approx, posterior_mode
from .rng import substream

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
        for n in self.n_grid:
            require_int("n_grid values", n, 2)
        require_int("replications", self.replications, 1)
        require_int("seed", self.seed, 0)
        for rule in self.tau02_rules:
            resolve_tau02(rule, 10)  # raises on unknown rules


@dataclass(frozen=True)
class LogitExperimentConfig:
    N: int = 15
    n_i: int = 50
    mu_true: float = 0.0
    tau_true: float = 1.0
    replications: int = 100
    seed: int = 0
    max_fail_frac: float = 0.05
    workers: int = 1

    def __post_init__(self):
        # N >= 3: exact LOO refuses one-group folds (only a hyperprior holds tau2)
        for name, low in (("N", 3), ("n_i", 1), ("replications", 1), ("seed", 0),
                          ("workers", 1)):
            require_int(name, getattr(self, name), low)
        if not np.isfinite(self.mu_true):
            raise ValidationError(f"mu_true must be finite, got {self.mu_true}")
        if not 0 <= self.tau_true < np.inf:
            raise ValidationError(f"tau_true must be finite and >= 0, got {self.tau_true}")
        if not 0 <= self.max_fail_frac <= 1:
            raise ValidationError(f"max_fail_frac must be in [0, 1], got {self.max_fail_frac}")


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
    if rule == "1e4_over_n":
        return 1e4 / n
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


def true_predictive_loglik_exact(beta_means: np.ndarray, softplus_means: np.ndarray,
                                 beta_true: np.ndarray, trial_sizes: np.ndarray) -> float:
    """(1/N) sum_i E_z[E_post log g(z | beta_i)] with z ~ Bin(n_i, true).

    The expectation over z is an exact finite sum over {0, ..., n_i}.  The
    binomial log pmf is linear in z given beta, so the per-group posterior
    means of beta and softplus(beta) give the posterior mean for every z.
    """
    beta_true = np.asarray(beta_true, dtype=float)
    trial_sizes = np.asarray(trial_sizes)
    terms = np.empty(beta_true.size)
    for n_i in np.unique(trial_sizes):  # log C(n_i, z) once per distinct n_i
        rows = np.flatnonzero(trial_sizes == n_i)
        z = np.arange(int(n_i) + 1, dtype=float)
        b_true = beta_true[rows, None]
        pmf_true = np.exp(_binom_loglik(float(n_i), z, b_true, softplus(b_true)))
        loglik = _binom_loglik(float(n_i), z, beta_means[rows, None], softplus_means[rows, None])
        terms[rows] = [p @ ll for p, ll in zip(pmf_true, loglik)]
    return float(np.add.accumulate(terms)[-1]) / beta_true.size  # summed in group order


_LOGIT_RECORD_FIELDS = (
    "replication", "eta_hat", "eta_true",
    "b_paic", "b_bpic", "b_waic2", "b_cv",
    "err_paic", "err_bpic", "err_waic2", "err_cv",
    "grid_points", "grid_span", "border_mass",
)


def _logit_replication(cfg: LogitExperimentConfig, rep: int) -> Optional[dict]:
    """Simulate replication ``rep``, fit it once and score it on the exact
    posterior summary of its LOO grid; None when the mode search, the Laplace
    step or the grid fails.

    perfbench's tracer wraps this function and reads ``rep`` (argument 1)
    as the id of the replication its spans belong to.
    """
    trial_sizes = np.full(cfg.N, cfg.n_i)
    model = HierLogitModel(trial_sizes)
    gen = substream(cfg.seed, "logit", rep, "truth")
    beta_true = cfg.mu_true + cfg.tau_true * gen.standard_normal(cfg.N)
    y = gen.binomial(trial_sizes, _expit(beta_true))
    data = ObservationSet(y.astype(float), trial_sizes)
    try:
        mode = find_posterior_mode(model, data, seed=cfg.seed)
        summary = grid_summary(model, data, laplace_approx(model, data, mode))
    except NumericalError:  # an unconverged mode, or a posterior the LOO grid cannot hold
        return None
    pair = info_matrix_pair(model, data, mode.theta_hat)
    reports = {est: criterion_report("loo" if est == "cv" else est, model, data,
                                     lambda: summary, lambda: mode, lambda: pair)
               for est in LOGIT_ESTIMATORS}
    eta_hat = mean_insample_loglik(summary)
    eta_true = true_predictive_loglik_exact(summary.beta_means, summary.softplus_means,
                                            beta_true, trial_sizes)
    record = {"replication": rep, "eta_hat": eta_hat, "eta_true": eta_true,
              "grid_points": summary.grid_points, "grid_span": summary.grid_span,
              "border_mass": summary.border_mass}
    for est, r in reports.items():
        b = (eta_hat - r.fit_term / cfg.N) + r.penalty / cfg.N
        record[f"b_{est}"] = b
        record[f"err_{est}"] = (eta_hat - eta_true) - b
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

    Replications whose mode search, Laplace step or LOO grid fails are
    excluded; more than ``max_fail_frac`` of them aborts the study.
    """
    R = cfg.replications
    workers = min(R, cfg.workers)
    run = functools.partial(_logit_replication, cfg)
    if workers > 1:
        # imported here: `paic compute` never loads the process pool
        from concurrent.futures import ProcessPoolExecutor

        # a forked pool starts all its processes at once: one per chunk
        chunk = -(-R // workers)
        with ProcessPoolExecutor(max_workers=-(-R // chunk)) as pool:
            results = list(pool.map(run, range(R), chunksize=chunk))
    else:
        results = [run(rep) for rep in range(R)]

    kept = [r for r in results if r is not None]
    excluded = R - len(kept)
    if excluded > cfg.max_fail_frac * R:
        raise ExperimentError(f"{excluded}/{R} replications excluded (mode or grid)")
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
