"""Predictive model-selection criteria on the deviance scale.

Every report satisfies value = -2*fit + 2*penalty.  The criteria differ in
the fit term (posterior-averaged log likelihood vs. plug-in at the posterior
mode) and in how the penalty estimates the optimism from using the data for
both fitting and evaluation:

  paic   posterior-averaged fit, trace penalty tr{J^-1 I} with the 1/(n-1)
         score convention; defined for improper priors as well
  bpic   plug-in fit at the mode, prior-dependent correction whose trace
         divides the score sum by n, i.e. (n-1)/n times paic's trace from
         the same pair; refuses improper priors
  waic2  posterior-averaged fit, penalty = sum of per-observation posterior
         variances of the log likelihood
  loo    exact leave-one-out refits (no penalty term)
  popt   expected-deviance penalized loss, closed form for the normal model
  dic    plug-in fit at the posterior mean (reference criterion)

Per-observation bias comparisons in the experiments divide penalties by n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import (
    ImproperPriorError,
    NumericalError,
    UnsupportedModelError,
    ValidationError,
)
from .infomat import InfoMatrixPair, trace_correction
from .mcmc import PosteriorDraws, SamplerBudget, _sample_hier_logit_rows
from .models import (
    ConjugateNormalModel,
    HierLogitModel,
    ObservationSet,
    _binom_loglik,
    _normal_loglik,
    conjugate_posterior,
    softplus,
)
from .optimize import LaplaceApprox, ModeResult, find_posterior_mode, laplace_approx

MIN_DRAWS = 1000
LOO_MAX_N = 1000
# sampler budget of each exact-LOO fold refit
LOO_BUDGET = SamplerBudget(chains=3, draws_per_chain=2000, warmup=1000)

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(32)
_GH_WEIGHTS = _GH_WEIGHTS / math.sqrt(math.pi)


@dataclass(frozen=True)
class PointwiseLogLik:
    """S x n matrix of log g(y_i | theta^(s)) values."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 2:
            raise ValidationError("pointwise log-likelihood must be S x n")

    @property
    def S(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def column_means(self) -> np.ndarray:
        return self.values.mean(axis=0)

    def column_vars(self) -> np.ndarray:
        return self.values.var(axis=0, ddof=1)


@dataclass(frozen=True)
class CriterionReport:
    name: str
    value: float
    fit_term: float
    penalty: float
    n: int
    S: int
    notes: str = ""
    warnings: tuple = ()
    seed: Optional[int] = None
    # indices of exact-LOO folds that failed convergence diagnostics
    flagged_folds: tuple = ()


def _report(name, fit, penalty, n, S, notes="", warnings=(),
            flagged_folds=()) -> CriterionReport:
    return CriterionReport(
        name=name,
        value=-2.0 * fit + 2.0 * penalty,
        fit_term=float(fit),
        penalty=float(penalty),
        n=int(n),
        S=int(S),
        notes=notes,
        warnings=tuple(warnings),
        flagged_folds=tuple(flagged_folds),
    )


def pointwise_loglik(model, data: ObservationSet, draws: PosteriorDraws) -> PointwiseLogLik:
    """Evaluate log g(y_i | theta^(s)) for every draw and observation."""
    model.validate_data(data)
    if draws.p != model.p:
        raise ValidationError("draw dimension does not match the model")
    mat = model.loglik_matrix(data, draws.draws)
    if not np.all(np.isfinite(mat)):
        s, i = np.argwhere(~np.isfinite(mat))[0]
        raise NumericalError(f"non-finite log likelihood at draw {s}, observation {i}")
    return PointwiseLogLik(mat)


def mean_insample_loglik(pointwise: PointwiseLogLik) -> float:
    """(1/n) sum_i E_draws[log g(y_i | theta)], the in-sample estimate."""
    return float(np.mean(pointwise.column_means()))


def _check_draws(S: int, min_draws: int):
    if S < min_draws:
        raise ValidationError(f"need at least {min_draws} draws, got {S}")


def paic(pointwise: PointwiseLogLik, info_pair: InfoMatrixPair,
         min_draws: int = MIN_DRAWS) -> CriterionReport:
    """Posterior-averaging criterion: -2 sum_i E[log g] + 2 tr{J^-1 I}."""
    _check_draws(pointwise.S, min_draws)
    if info_pair.score_denominator != "n-1":
        raise ValidationError("paic needs the 1/(n-1) score convention")
    penalty = trace_correction(info_pair).value
    fit = float(np.sum(pointwise.column_means()))
    return _report("paic", fit, penalty, pointwise.n, pointwise.S)


def bpic(model, data: ObservationSet, draws: PosteriorDraws, mode: ModeResult,
         info_pair: InfoMatrixPair, min_draws: int = MIN_DRAWS) -> CriterionReport:
    """Plug-in criterion: -2 log{pi L}(theta_hat) + 2 [E log pi + tr + p/2].

    ``info_pair`` is the pair paic takes; tr is its trace times (n-1)/n, the
    trace with the score sum divided by n.  The fit term is the mode's
    ``logpost``.  The prior expectation is a draw average, so this refuses
    improper priors (their log density is only defined up to a constant).
    """
    if not model.prior_proper:
        raise ImproperPriorError("BPIC undefined under degenerate prior")
    _check_draws(draws.S, min_draws)
    if info_pair.score_denominator != "n-1":
        raise ValidationError("bpic needs the 1/(n-1) pair that paic takes")
    tr = trace_correction(info_pair).value * (data.n - 1) / data.n
    e_logprior = float(np.mean(model.logprior_draws(draws.draws)))
    fit = mode.logpost
    penalty = e_logprior + tr + 0.5 * model.p
    return _report("bpic", fit, penalty, data.n, draws.S)


def waic2(pointwise: PointwiseLogLik) -> CriterionReport:
    """Posterior-variance penalty: p = sum_i Var_draws[log g(y_i | theta)]."""
    _check_draws(pointwise.S, 2)
    fit = float(np.sum(pointwise.column_means()))
    penalty = float(np.sum(pointwise.column_vars()))
    return _report("waic2", fit, penalty, pointwise.n, pointwise.S)


def dic(model, data: ObservationSet, draws: PosteriorDraws,
        min_draws: int = MIN_DRAWS) -> CriterionReport:
    """Deviance criterion at the posterior mean (reference only)."""
    _check_draws(draws.S, min_draws)
    theta_bar = draws.draws.mean(axis=0)
    if not model.in_support(theta_bar):
        raise NumericalError(
            "posterior-mean parameter lies outside the model support; "
            "consider reparameterization"
        )
    pw = pointwise_loglik(model, data, draws)
    loglik_bar = float(np.sum(model.loglik_terms(data, theta_bar)))
    mean_loglik = float(np.mean(pw.values.sum(axis=1)))
    p_d = 2.0 * (loglik_bar - mean_loglik)
    return _report("dic", loglik_bar, p_d, data.n, draws.S)


# -- closed forms for the conjugate normal model -------------------------


@dataclass(frozen=True)
class ClosedFormBias:
    """The five per-observation bias estimates for the conjugate normal model."""

    paic: float
    bpic: float
    waic2: float
    popt: float
    cv: float


def _insample_loglik(model: ConjugateNormalModel, y, mu_hat, s2) -> float:
    return float(np.mean(_normal_loglik(y, mu_hat, model.sigma_A2, s2)))


def closed_form_insample_loglik(model: ConjugateNormalModel, data: ObservationSet) -> float:
    """Exact (1/n) sum_i E_post[log g(y_i | mu)] for the normal model."""
    mu_hat, s2 = conjugate_posterior(model, data)
    return _insample_loglik(model, data.y, mu_hat, s2)


def closed_form_bias_estimators(model: ConjugateNormalModel,
                                data: ObservationSet) -> ClosedFormBias:
    """Literal evaluation of the five per-observation bias formulas.

    waic2 is the total posterior-variance penalty divided by n; cv is the
    in-sample value minus the exact leave-one-out estimate of ``loo_exact``.
    """
    mu_hat, s2 = conjugate_posterior(model, data)
    y = data.y
    n = data.n
    sA2 = model.sigma_A2

    scores = model.score_matrix(data, mu_hat)[:, 0]
    ssq = float(np.sum(scores ** 2))
    b_paic = s2 * ssq / (n - 1.0)
    b_bpic = s2 * ssq / n

    rss = float(np.sum((y - mu_hat) ** 2))
    b_waic2 = (s2 / sA2 ** 2) * (n * s2 / 2.0 + rss) / n

    _, s2_loo = model.posterior(n - 1.0, 0.0)  # no fold's variance depends on y
    b_popt = s2_loo / sA2

    b_cv = (_insample_loglik(model, y, mu_hat, s2)
            - float(np.sum(_loo_terms_normal(model, data))) / n)

    return ClosedFormBias(b_paic, b_bpic, b_waic2, b_popt, b_cv)


def popt_closed_form(model: ConjugateNormalModel, data: ObservationSet) -> CriterionReport:
    """Expected-deviance penalized loss; total penalty is n times the
    per-observation value 1/(1/tau02 + (n-1)/sigma_A2)/sigma_A2."""
    bias = closed_form_bias_estimators(model, data)
    fit = data.n * closed_form_insample_loglik(model, data)
    penalty = data.n * bias.popt
    return _report("popt", fit, penalty, data.n, 0,
                   notes="closed form; no draws used")


# -- exact leave-one-out ---------------------------------------------------


def _gh_mean_softplus(mu_draws: np.ndarray, sd_draws: np.ndarray) -> np.ndarray:
    """E[softplus(b)] for b ~ N(mu_s, sd_s^2), one value per draw (32-node GH)."""
    nodes = mu_draws[:, None] + math.sqrt(2.0) * sd_draws[:, None] * _GH_NODES[None, :]
    return softplus(nodes) @ _GH_WEIGHTS


def _loo_terms_normal(model: ConjugateNormalModel, data: ObservationSet) -> np.ndarray:
    mu_loo, s2_loo = model.posterior(data.n - 1.0, np.sum(data.y) - data.y)
    return _normal_loglik(data.y, mu_loo, model.sigma_A2, s2_loo)


def _fold_problem(model: HierLogitModel, data: ObservationSet, i: int, seed: int, rng_path):
    """Fold i as a sampler problem (model, data, Laplace start, rng_path), and
    whether its mode search succeeded."""
    keep = np.arange(model.N) != i
    sub_model = model.drop_group(i)
    sub_data = ObservationSet(data.y[keep], data.trial_sizes[keep])
    mode = None
    try:
        mode = find_posterior_mode(sub_model, sub_data, seed=seed)
        lap, ok = laplace_approx(sub_model, sub_data, mode), True
    except (ValidationError, NumericalError):
        # unconverged fold mode: start from where its search stopped (or the
        # data-driven init) with a crude diagonal spread, and flag it
        ok = False
        if mode is not None:
            diag_h = np.clip(np.diag(mode.neg_hessian), 1e-2, None)
            lap = LaplaceApprox(mode.theta_hat, np.diag(1.0 / diag_h))
        else:
            init = sub_model.default_init(sub_data)
            lap = LaplaceApprox(init, np.diag(np.full(sub_model.p, 0.25)))
    return (sub_model, sub_data, lap, (*rng_path, "loo-fold", i)), ok


def _loo_terms_hier_logit(model: HierLogitModel, data: ObservationSet,
                          budget: SamplerBudget, seed: int, rng_path):
    """Refit without each group; the held-out logit is integrated against its
    conditional N(mu, tau2) by quadrature under every retained draw.

    All N folds go to the sampler in one call, which sizes its own loops
    under ``mcmc.LOOP_DRAW_BYTES``.  Each fold's draws are cut to the mu and
    tau2 columns its term needs as the sampler yields them, and the
    quadrature runs once the sampler has released its last loop.
    """
    if model.N < 3:  # a fold keeps N - 1 groups and the model needs two
        raise ValidationError(f"exact LOO needs at least 3 groups, got {model.N}")
    problems, mode_ok = zip(*(_fold_problem(model, data, i, seed, rng_path)
                              for i in range(model.N)))

    def cut(sampled):
        draws, diag = sampled
        return draws.draws[:, model.N - 1].copy(), np.sqrt(draws.draws[:, model.N]), diag.ok()

    # map holds no fold's draws while the sampler runs its next loop
    hyper = list(map(cut, _sample_hier_logit_rows(problems, budget, seed)))
    terms = np.array([
        _binom_loglik(float(data.trial_sizes[i]), float(data.y[i]),
                      float(np.mean(mu_d)), float(np.mean(_gh_mean_softplus(mu_d, sd_d))))
        for i, (mu_d, sd_d, _) in enumerate(hyper)])
    flagged = [i for i, ((*_, good), ok) in enumerate(zip(hyper, mode_ok)) if not (good and ok)]
    return terms, flagged


def loo_exact(model, data: ObservationSet, budget: SamplerBudget = LOO_BUDGET,
              seed: int = 0, rng_path=()) -> CriterionReport:
    """Exact-refit leave-one-out: value = -2 sum_i E_post(-i)[log g(y_i | theta)].

    The normal model uses analytic fold posteriors and ignores the sampler
    arguments.  The hierarchical logit needs at least 3 groups; it re-samples
    each fold with ``budget`` from the substreams ``(seed, *rng_path,
    "loo-fold", i)``, passing all folds to the sampler at once, which runs
    them as rows of as few loops as keep the retained draws under
    ``mcmc.LOOP_DRAW_BYTES`` (each fold's draws are those of sampling it
    alone).  Folds failing convergence diagnostics are flagged in the report,
    not dropped.
    """
    model.validate_data(data)
    if data.n > LOO_MAX_N:
        raise ValidationError(f"exact LOO guarded at n <= {LOO_MAX_N}")
    flagged = ()
    if isinstance(model, ConjugateNormalModel):
        terms = _loo_terms_normal(model, data)
        notes = "analytic fold posteriors"
        S = 0
    elif isinstance(model, HierLogitModel):
        terms, flagged = _loo_terms_hier_logit(model, data, budget, seed, rng_path)
        notes = "sampled fold posteriors"
        S = budget.chains * budget.draws_per_chain
    else:
        raise UnsupportedModelError("exact LOO implemented for the built-in models only")
    warnings_ = (
        (f"{len(flagged)} fold(s) failed convergence diagnostics",) if flagged else ()
    )
    fit = float(np.sum(terms))
    return _report("loo", fit, 0.0, data.n, S, notes=notes, warnings=warnings_,
                   flagged_folds=flagged)
