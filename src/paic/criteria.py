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
  loo    exact leave-one-out (no penalty term), by group for the logit model
  popt   expected-deviance penalized loss, closed form for the normal model
  dic    plug-in fit at the posterior mean (reference criterion)

paic, bpic, waic2 and dic read a PosteriorSummary, exact for the built-in
models or over draws.  ``criterion_report`` maps a criterion name to its
report for ``paic compute`` and the logit study alike.

Per-observation bias comparisons in the experiments divide penalties by n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .exceptions import (
    GridBorderError,
    ImproperPriorError,
    NumericalError,
    UnsupportedModelError,
    ValidationError,
)
from .infomat import InfoMatrixPair, trace_correction
from .mcmc import PosteriorDraws
from .models import (
    ConjugateNormalModel,
    HierLogitModel,
    ObservationSet,
    _binom_loglik,
    _expit,
    _normal_loglik,
    conjugate_posterior,
    scaled_inv_chi2_logpdf,
    softplus,
)
from .optimize import LaplaceApprox, ModeResult

MIN_DRAWS = 1000
LOO_MAX_N = 1000
# hierarchical-logit LOO grid: LOO_GRID_STEP Laplace sd apart, half-width LOO_SPANS[0]
# sd, widened while a (fold) posterior holds more than LOO_BORDER_MASS on its outer
# ring.  A screen first takes each group integral's Laplace value at every point of
# a square (its conditional mode searched to a step of LOO_SCREEN_TOL, no nodes); the
# nodes then run only at the points whose screened log weight, under the posterior
# or some fold, is above -LOO_SCREEN_FLOOR.  The screen checks itself: where a kept
# point next to a dropped one has an exact log weight more than LOO_SCREEN_MARGIN
# above its screened one, the nodes run at every point of the square, so a dropped
# point's exact log weight stays below about -30 (e^-30 = 1e-13) unless the Laplace
# error jumps by more than the margin from one point to the next.  Measured on 100
# study replications of seed 1234, the one-of-ten and half-extreme datasets of the
# tests and 50, 200 and 1000 groups of 2 or 10 trials: the exact log weights at the
# edge lie within 0.33 nats of the screened ones on the study's squares and within
# 5.5 on the others, and on the squares these datasets use no dropped point's exact
# log weight is above -35.3.  Only the widest square of 12 of 15 groups at 0 of 50
# falls back (15 nats short; its border check fails there as well).  The screen's
# mode tolerance moves its log weights by at most 0.005 nats on 15 study
# replications and 0.08 on the wider squares, against Laplace errors of up to 2.8
# and 6.5 nats.  The group integrals search their modes in blocks of distinct counts
# whose (counts, G) arrays hold at most LOO_CHUNK_BYTES each, then run the nodes one
# count pair at a time in a (G, nodes) buffer (430 KB on a full 41 x 41 square)
LOO_GRID_STEP = 0.6
LOO_SPANS = (12.0, 18.0, 27.0, 40.0)
LOO_BORDER_MASS = 1e-5
LOO_SCREEN_FLOOR = 40.0
LOO_SCREEN_TOL = 1e-3
LOO_SCREEN_MARGIN = 10.0
LOO_CHUNK_BYTES = 500_000

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

    def require_draws(self, min_draws: int):
        if self.S < min_draws:
            raise ValidationError(f"need at least {min_draws} draws, got {self.S}")

    def column_means(self) -> np.ndarray:
        return self.values.mean(axis=0)

    def column_vars(self) -> np.ndarray:
        return self.values.var(axis=0, ddof=1)


@dataclass(frozen=True, kw_only=True)
class PosteriorSummary:
    """Per observation the posterior mean and variance of l_i = log g(y_i |
    theta), with E[log pi], theta_bar and E[sum_i l_i]: over S draws, or exact
    (S = 0).  paic and waic2 read it as they read a PointwiseLogLik."""

    loglik_means: np.ndarray
    loglik_vars: Optional[np.ndarray]  # None from a single draw
    e_logprior: float
    theta_bar: np.ndarray
    e_loglik: float
    S: int = 0

    @property
    def n(self) -> int:
        return self.loglik_means.size

    def require_draws(self, min_draws: int):
        if 0 < self.S < min_draws:  # exact expectations have no draws to count
            raise ValidationError(f"need at least {min_draws} draws, got {self.S}")

    def column_means(self) -> np.ndarray:
        return self.loglik_means

    def column_vars(self) -> np.ndarray:
        return self.loglik_vars


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


def _report(name, fit, penalty, n, S, notes="") -> CriterionReport:
    return CriterionReport(name=name, value=-2.0 * fit + 2.0 * penalty, fit_term=float(fit),
                           penalty=float(penalty), n=int(n), S=int(S), notes=notes)


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


def draw_summary(model, data: ObservationSet, draws: PosteriorDraws) -> PosteriorSummary:
    """The posterior summary of S draws, from ``pointwise_loglik``'s matrix."""
    values = pointwise_loglik(model, data, draws).values
    return PosteriorSummary(
        loglik_means=values.mean(axis=0),
        loglik_vars=values.var(axis=0, ddof=1) if draws.S > 1 else None,
        e_logprior=float(model.logprior_draws(draws.draws).mean()),
        theta_bar=draws.draws.mean(axis=0),
        e_loglik=float(np.mean(values.sum(axis=1))),
        S=draws.S,
    )


def mean_insample_loglik(pointwise: PointwiseLogLik | PosteriorSummary) -> float:
    """(1/n) sum_i E_draws[log g(y_i | theta)], the in-sample estimate."""
    return float(np.mean(pointwise.column_means()))


def paic(pointwise: PointwiseLogLik | PosteriorSummary, info_pair: InfoMatrixPair,
         min_draws: int = MIN_DRAWS) -> CriterionReport:
    """Posterior-averaging criterion: -2 sum_i E[log g] + 2 tr{J^-1 I}, over
    the draws of a PointwiseLogLik or from a PosteriorSummary."""
    pointwise.require_draws(min_draws)
    if info_pair.score_denominator != "n-1":
        raise ValidationError("paic needs the 1/(n-1) score convention")
    penalty = trace_correction(info_pair).value
    fit = float(np.sum(pointwise.column_means()))
    return _report("paic", fit, penalty, pointwise.n, pointwise.S)


def bpic(model, data: ObservationSet, mode: ModeResult, info_pair: InfoMatrixPair,
         summary: PosteriorSummary) -> CriterionReport:
    """Plug-in criterion: -2 log{pi L}(theta_hat) + 2 [E log pi + tr + p/2].

    ``info_pair`` is the pair paic takes; tr is its trace times (n-1)/n, the
    trace with the score sum divided by n.  The fit term is the mode's
    ``logpost``; E log pi is the summary's.  Refuses improper priors (their
    log density is only defined up to a constant).
    """
    if not model.prior_proper:
        raise ImproperPriorError("BPIC undefined under degenerate prior")
    if info_pair.score_denominator != "n-1":
        raise ValidationError("bpic needs the 1/(n-1) pair that paic takes")
    tr = trace_correction(info_pair).value * (data.n - 1) / data.n
    fit = mode.logpost
    penalty = summary.e_logprior + tr + 0.5 * model.p
    return _report("bpic", fit, penalty, data.n, summary.S)


def waic2(pointwise: PointwiseLogLik | PosteriorSummary) -> CriterionReport:
    """Posterior-variance penalty: p = sum_i Var[log g(y_i | theta)], over the
    draws of a PointwiseLogLik or from a PosteriorSummary."""
    pointwise.require_draws(2)
    fit = float(np.sum(pointwise.column_means()))
    penalty = float(np.sum(pointwise.column_vars()))
    return _report("waic2", fit, penalty, pointwise.n, pointwise.S)


def dic(model, data: ObservationSet, summary: PosteriorSummary) -> CriterionReport:
    """Deviance criterion at the posterior mean (reference only)."""
    theta_bar = summary.theta_bar
    if not model.in_support(theta_bar):
        raise NumericalError(
            "posterior-mean parameter lies outside the model support; "
            "consider reparameterization"
        )
    loglik_bar = float(np.sum(model.loglik_terms(data, theta_bar)))
    p_d = 2.0 * (loglik_bar - summary.e_loglik)
    return _report("dic", loglik_bar, p_d, data.n, summary.S)


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


def normal_summary(model: ConjugateNormalModel, data: ObservationSet) -> PosteriorSummary:
    """Exact summary of the normal model: each l_i is quadratic in mu ~
    N(mu_hat, s2); the flat prior's log density is taken as 0."""
    mu_hat, s2 = conjugate_posterior(model, data)
    sA2 = model.sigma_A2
    means = _normal_loglik(data.y, mu_hat, sA2, s2)
    return PosteriorSummary(
        loglik_means=means,
        loglik_vars=(2.0 * s2 ** 2 + 4.0 * (data.y - mu_hat) ** 2 * s2) / (4.0 * sA2 ** 2),
        e_logprior=(0.0 if model.tau02 is None
                    else float(_normal_loglik(mu_hat, model.mu0, model.tau02, s2))),
        theta_bar=np.array([mu_hat]),
        e_loglik=float(np.sum(means)),
    )


def popt_closed_form(model: ConjugateNormalModel, data: ObservationSet) -> CriterionReport:
    """Expected-deviance penalized loss; total penalty is n times the
    per-observation value 1/(1/tau02 + (n-1)/sigma_A2)/sigma_A2."""
    fit = data.n * closed_form_insample_loglik(model, data)
    _, s2_loo = model.posterior(data.n - 1.0, 0.0)
    penalty = data.n * (s2_loo / model.sigma_A2)
    return _report("popt", fit, penalty, data.n, 0,
                   notes="closed form; no draws used")


# -- exact leave-one-out ---------------------------------------------------


def _gh_mean_softplus(mu: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """E[softplus(b)] for b ~ N(mu_k, sd_k^2), one value per k (32-node GH)."""
    nodes = mu[:, None] + math.sqrt(2.0) * sd[:, None] * _GH_NODES[None, :]
    return softplus(nodes) @ _GH_WEIGHTS


def _loo_terms_normal(model: ConjugateNormalModel, data: ObservationSet) -> np.ndarray:
    mu_loo, s2_loo = model.posterior(data.n - 1.0, np.sum(data.y) - data.y)
    return _normal_loglik(data.y, mu_loo, model.sigma_A2, s2_loo)


def _conditional_modes(y, n, mu, tau2, tol=1e-10):
    """Mode and Laplace sd of y b - n softplus(b) - (b - mu)^2 / (2 tau2) for each
    element of the broadcast of y, n, mu and tau2: Newton in a bracket shrinking
    from [mu, mu + tau2 f'(mu)], bisecting where a step leaves it or stalls
    (Numerical Recipes' rtsafe).  Each element stops at its first iteration
    whose step (or bracket) is within tol (1 + |b|) and leaves the search, so
    its result is the one it gets searched alone, whatever else shares the call."""
    shape = np.broadcast_shapes(np.shape(y), np.shape(n), np.shape(mu), np.shape(tau2))
    y, n, mu, tau2 = (np.broadcast_to(a, shape).ravel() for a in (y, n, mu, tau2))
    mode, sd = np.empty(y.size), np.empty(y.size)
    idx = np.arange(y.size)
    end = mu + tau2 * (y * _expit(-mu) - (n - y) * _expit(mu))
    lo, hi = np.minimum(mu, end), np.maximum(mu, end)
    ph = (y + 0.5) / (n + 1.0)  # start between mu and the empirical logit
    w = n * ph * (1.0 - ph)
    b = np.clip((mu / tau2 + w * np.log(ph / (1.0 - ph))) / (1.0 / tau2 + w), lo, hi)
    dx = dx_old = np.full(y.size, np.inf)
    for _ in range(100):  # 3 to 5 iterations on the criterion-4 grids
        s, sc = _expit(b), _expit(-b)  # both, for precision where expit saturates
        grad = y * sc - (n - y) * s - (b - mu) / tau2
        lo, hi = np.where(grad > 0, b, lo), np.where(grad < 0, b, hi)
        curv = n * s * sc + 1.0 / tau2
        step = grad / curv
        live = np.minimum(np.abs(step), hi - lo) > tol * (1.0 + np.abs(b))
        if not live.all():
            done = ~live
            mode[idx[done]] = np.clip(b[done] + step[done], lo[done], hi[done])
            sd[idx[done]] = 1.0 / np.sqrt(curv[done])
            if not live.any():
                return mode.reshape(shape), sd.reshape(shape)
            idx, y, n, mu, tau2, b, lo, hi, step, dx, dx_old = (
                a[live] for a in (idx, y, n, mu, tau2, b, lo, hi, step, dx, dx_old))
        new = b + step
        bisect = (new < lo) | (new > hi) | (2.0 * np.abs(step) > dx_old)
        new = np.where(bisect, 0.5 * (lo + hi), new)
        dx_old, dx, b = dx, np.abs(new - b), new
    raise NumericalError("group conditional-mode search did not converge")


def _group_integrals(data: ObservationSet, mu: np.ndarray, tau2: np.ndarray,
                     moments: bool = False, laplace: bool = False):
    """(log_m, cond): the (N, G) log m_i = log int Bin(y_i | n_i, expit(b))
    N(b | mu, tau2) db by Gauss-Hermite at each integrand's mode and Laplace sd
    (Liu & Pierce 1994).  With ``moments``, cond holds, from the same nodes,
    five (N, G) moments of b under each group's conditional posterior (its
    integrand over m_i): E[b], E[softplus(b)], E[(b - mu)^2], and the mean and
    centred variance of l_i = log Bin(y_i | n_i, expit(b)); else None.  With
    ``laplace``, log_m is the Laplace approximation (the node sum set to 1),
    its modes searched to LOO_SCREEN_TOL, and no nodes run.

    Each integral is a function of its own counts (y_i, n_i) and grid point
    only, so it is evaluated once per distinct (y_i, n_i) and written to every
    group with those counts.  The mode searches run in blocks of distinct
    counts whose (counts, G) arrays hold at most LOO_CHUNK_BYTES each; the
    nodes then run one count pair at a time in a (G, nodes) buffer."""
    counts, group = np.unique(np.column_stack([data.y, data.trial_sizes.astype(float)]),
                              axis=0, return_inverse=True)
    group = group.ravel()
    y, n = counts[:, :1], counts[:, 1:]
    log_c, log_tau = _binom_loglik(n, y, 0.0, 0.0), 0.5 * np.log(tau2)
    log_m = np.empty((data.n, mu.size))
    cond = np.empty((5,) + log_m.shape) if moments else None
    block = max(1, LOO_CHUNK_BYTES // (mu.size * 8))
    for start in range(0, len(counts), block):
        yb, nb = y[start:start + block], n[start:start + block]
        b, sd = _conditional_modes(yb, nb, mu, tau2, LOO_SCREEN_TOL if laplace else 1e-10)
        # the log integrand y b - n softplus(b) - (b - mu)^2 / (2 tau2), less log C - log tau
        f_mode = yb * b - nb * softplus(b) - (b - mu) ** 2 / (2.0 * tau2)
        if not laplace:  # made after the search, whose temporaries are freed by then
            nodes, sp, dev2, lik, f, tmp = np.empty((6, mu.size, _GH_NODES.size))
        for k in range(len(b)):
            rows = group == start + k
            log_lap = f_mode[k] + np.log(sd[k])
            if laplace:
                log_m[rows] = log_c[start + k] - log_tau + log_lap
                continue
            np.multiply(math.sqrt(2.0) * sd[k, :, None], _GH_NODES, out=nodes)
            nodes += b[k, :, None]
            softplus(nodes, out=sp)
            np.subtract(nodes, mu[:, None], out=dev2)
            np.square(dev2, out=dev2)
            np.multiply(yb[k], nodes, out=lik)  # l_i less log C
            lik -= np.multiply(nb[k], sp, out=tmp)
            # f_mode's log integrand, at the nodes
            np.subtract(lik, np.divide(dev2, 2.0 * tau2[:, None], out=f), out=f)
            f += np.subtract(_GH_NODES ** 2, f_mode[k, :, None], out=tmp)
            e = np.exp(f, out=f)
            # not a BLAS matvec, whose sum order depends on the row's position
            z = np.einsum("...k,k->...", e, _GH_WEIGHTS)
            log_m[rows] = log_c[start + k] - log_tau + (log_lap + np.log(z))
            if moments:
                e *= _GH_WEIGHTS
                e /= z[:, None]  # the nodes' conditional posterior weights

                def mean(x):
                    return np.einsum("...k,...k->...", e, x)

                e_lik = mean(lik)
                cond[:, rows] = np.stack([
                    mean(nodes), mean(sp), mean(dev2), e_lik + log_c[start + k],
                    mean(np.square(np.subtract(lik, e_lik[:, None], out=tmp), out=tmp))])[:, None]
    return log_m, cond


class _Grid(NamedTuple):
    mu: np.ndarray  # (G,)
    tau2: np.ndarray  # (G,)
    log_w: np.ndarray  # (G,) normalized log weights of the posterior
    log_fold_w: np.ndarray  # (N, G) those of each leave-one-group-out posterior
    cond: Optional[np.ndarray]  # (5, N, G) conditional moments of _group_integrals
    span: float  # the square's half-width in Laplace sd
    border_mass: float


def _square(model: HierLogitModel, lap: LaplaceApprox, span: float):
    """(mu, tau2, log_prior, ring) of the (2h + 1)^2 points of half-width ``span``
    Laplace sd around the mode of the fit ``lap``: the hyperprior's log density
    on (mu, log tau2) with the mu axis's scale, and the outer ring's mask."""
    mu_hat, tau2_hat = lap.mean[-2:]
    sd_mu, sd_tau2 = lap.marginal_sd()[-2:]
    half = round(span / LOO_GRID_STEP)
    k_mu, k_lam = np.indices((2 * half + 1, 2 * half + 1)).reshape(2, -1) - half
    lam = math.log(tau2_hat) + sd_tau2 / tau2_hat * LOO_GRID_STEP * k_lam
    # given tau2, mu spreads like tau: its axis scales by sqrt((1 + tau2 / tau2_hat) / 2)
    log_scale = 0.5 * (softplus(lam - math.log(tau2_hat)) - math.log(2.0))
    mu = mu_hat + sd_mu * LOO_GRID_STEP * k_mu * np.exp(log_scale)
    tau2 = np.exp(lam)
    log_prior = (_normal_loglik(mu, model.mu_mean, model.mu_var) + lam + log_scale
                 + scaled_inv_chi2_logpdf(tau2, model.nu, model.s2))
    return mu, tau2, log_prior, np.maximum(np.abs(k_mu), np.abs(k_lam)) == half


def _log_weights(log_prior: np.ndarray, log_m: np.ndarray):
    """Normalized log weights of the posterior (G,) and of each leave-one-group-out
    posterior (N, G).  Given (mu, tau2) the groups are independent: the posterior
    is the hyperprior times the marginals m_i, fold i divides m_i out."""
    log_w = log_prior + log_m.sum(axis=0)
    log_w -= _logsumexp(log_w)
    log_fold_w = log_w - log_m
    log_fold_w -= _logsumexp(log_fold_w)
    return log_w, log_fold_w


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis, kept as an axis of length 1."""
    top = x.max(axis=-1, keepdims=True)
    return top + np.log(np.exp(x - top).sum(axis=-1, keepdims=True))


def _screen(data: ObservationSet, mu: np.ndarray, tau2: np.ndarray, log_prior: np.ndarray):
    """(keep, edge, screened): the mask of the points whose log weight from the
    Laplace group integrals is above -LOO_SCREEN_FLOOR under the posterior or
    some fold, its ``_edge``, and the (N + 1, edge points) screened log weights
    there, posterior first."""
    log_w, log_fold_w = _log_weights(log_prior, _group_integrals(data, mu, tau2, laplace=True)[0])
    keep = (log_w > -LOO_SCREEN_FLOOR) | (log_fold_w > -LOO_SCREEN_FLOOR).any(axis=0)
    edge = _edge(keep)
    return keep, edge, np.vstack([log_w[edge], log_fold_w[:, edge]])


def _edge(keep: np.ndarray) -> np.ndarray:
    """The kept points of a square's mask next to a dropped one along either axis."""
    k = keep.reshape(math.isqrt(keep.size), -1)
    inner = k.copy()
    inner[1:] &= k[:-1]
    inner[:-1] &= k[1:]
    inner[:, 1:] &= k[:, :-1]
    inner[:, :-1] &= k[:, 1:]
    return (k & ~inner).ravel()


def _weighed(data: ObservationSet, mu: np.ndarray, tau2: np.ndarray, log_prior: np.ndarray,
             moments: bool):
    """(log_w, log_fold_w, cond) of the points (mu, tau2) from their group integrals."""
    log_m, cond = _group_integrals(data, mu, tau2, moments)
    return (*_log_weights(log_prior, log_m), cond)


def _hyper_grid(model: HierLogitModel, data: ObservationSet, lap: LaplaceApprox,
                moments: bool = False) -> _Grid:
    """The points of a square over (mu, log tau2) in Laplace sd around the mode
    of the fit ``lap`` that carry posterior or fold weight (``_screen``; every
    point where the screen falls short by more than LOO_SCREEN_MARGIN at its
    edge), with the normalized log weights of the posterior and of each
    leave-one-group-out posterior (Rue, Martino & Chopin 2009).  Every kept
    point's group integrals are the full square's, bit for bit: each is a
    function of its own counts and point.  ``moments`` keeps the group
    integrals' conditional moments."""
    for span in LOO_SPANS:
        mu, tau2, log_prior, ring = _square(model, lap, span)
        keep, edge, screened = _screen(data, mu, tau2, log_prior)
        log_w, log_fold_w, cond = _weighed(data, mu[keep], tau2[keep], log_prior[keep], moments)
        edge = edge[keep]
        # next to the points it dropped, the screen fell short by more than its margin
        if (np.vstack([log_w[edge], log_fold_w[:, edge]]) - screened > LOO_SCREEN_MARGIN).any():
            del log_fold_w, cond
            keep[:] = True
            log_w, log_fold_w, cond = _weighed(data, mu, tau2, log_prior, moments)
        mu, tau2, ring = mu[keep], tau2[keep], ring[keep]
        border = max(np.exp(log_w[ring]).sum(), np.exp(log_fold_w[:, ring]).sum(axis=1).max())
        if border <= LOO_BORDER_MASS:
            return _Grid(mu, tau2, log_w, log_fold_w, cond, span, float(border))
    raise GridBorderError(f"posterior mass {border:.2g} on the LOO grid border", border_mass=border)


def _loo_terms_hier_logit(data: ObservationSet, grid: _Grid) -> np.ndarray:
    """log C + y_i E[mu] - n_i E[E(softplus(b) | mu, tau2)], b ~ N(mu, tau2),
    under each fold posterior of ``grid``."""
    fold_w = np.exp(grid.log_fold_w)
    mean_sp = _gh_mean_softplus(grid.mu, np.sqrt(grid.tau2))
    return _binom_loglik(data.trial_sizes.astype(float), data.y, fold_w @ grid.mu,
                         fold_w @ mean_sp)


_GRID_NOTES = "quadrature fold posteriors"


def _loo_report(data: ObservationSet, terms: np.ndarray, notes: str) -> CriterionReport:
    return _report("loo", float(np.sum(terms)), 0.0, data.n, 0, notes=notes)


def _check_loo(model, data: ObservationSet, lap: Optional[LaplaceApprox]):
    """The checks of an exact-LOO request, made before any grid is built."""
    model.validate_data(data)
    if isinstance(model, HierLogitModel):
        if data.n > LOO_MAX_N:
            raise ValidationError(f"the hierarchical-logit grid is guarded at n <= {LOO_MAX_N}, "
                                  f"got {data.n}")
        if model.N < 3:  # a one-group fold: only its hyperprior holds tau2
            raise ValidationError(f"the hierarchical-logit grid needs at least 3 groups, "
                                  f"got {model.N}")
        if lap is None:
            raise ValidationError("exact LOO for the hierarchical logit needs its Laplace fit")


def loo_exact(model, data: ObservationSet, lap: Optional[LaplaceApprox] = None) -> CriterionReport:
    """Exact leave-one-out: value = -2 sum_i E_post(-i)[log g(y_i | theta)].

    The normal model uses analytic fold posteriors and takes no fit.  The
    hierarchical logit leaves out one group at a time (at least 3 groups); its
    fold posteriors all come from ``_hyper_grid`` around the fit ``lap`` (the
    sampler's start; required), with no draws (S = 0), or raise GridBorderError.
    """
    _check_loo(model, data, lap)
    if isinstance(model, ConjugateNormalModel):
        return _loo_report(data, _loo_terms_normal(model, data), "analytic fold posteriors")
    if isinstance(model, HierLogitModel):
        return _loo_report(data, _loo_terms_hier_logit(data, _hyper_grid(model, data, lap)),
                           _GRID_NOTES)
    raise UnsupportedModelError("exact LOO implemented for the built-in models only")


# -- exact posterior expectations for the hierarchical logit --------------


@dataclass(frozen=True, kw_only=True)
class GridSummary(PosteriorSummary):
    """``grid_summary``'s exact posterior summary (S = 0), with E[beta_i] and
    E[softplus(beta_i)] per group, the exact LOO, and the grid's kept point
    count, span (its square's half-width in Laplace sd, one of LOO_SPANS) and
    border mass."""

    beta_means: np.ndarray
    softplus_means: np.ndarray
    loo: CriterionReport
    grid_points: int
    grid_span: float
    border_mass: float


def grid_summary(model: HierLogitModel, data: ObservationSet, lap: LaplaceApprox) -> GridSummary:
    """Exact posterior expectations of a hierarchical-logit dataset, and its
    exact LOO, from one evaluation of ``_hyper_grid`` around the fit ``lap``:
    per group the mean and variance of l_i = log g(y_i | beta_i), E[beta_i]
    and E[softplus(beta_i)], E[log pi] and theta_bar = (E[beta], E[mu],
    E[tau2]).

    Each grid point's conditional moments are averaged over the posterior
    weights; a variance adds the spread of the conditional means about their
    average (the law of total variance, centred).  log pi is linear in
    sum_i (beta_i - mu)^2 given (mu, tau2), so its expectation takes that sum's.
    Refuses what ``loo_exact`` refuses, and raises GridBorderError as it does.
    """
    _check_loo(model, data, lap)
    if not isinstance(model, HierLogitModel):
        raise UnsupportedModelError("the grid summary is built for the hierarchical logit only")
    grid = _hyper_grid(model, data, lap, moments=True)
    w = np.exp(grid.log_w)
    e_b, e_sp, e_dev2, e_l, var_l = grid.cond
    means = e_l @ w
    beta_means = e_b @ w
    return GridSummary(
        loglik_means=means,
        loglik_vars=var_l @ w + (e_l - means[:, None]) ** 2 @ w,
        e_logprior=float(model.logprior_hyper(grid.mu, grid.tau2, e_dev2.sum(axis=0)) @ w),
        theta_bar=np.concatenate([beta_means, [w @ grid.mu, w @ grid.tau2]]),
        e_loglik=float(np.sum(means)),
        beta_means=beta_means,
        softplus_means=e_sp @ w,
        loo=_loo_report(data, _loo_terms_hier_logit(data, grid), _GRID_NOTES),
        grid_points=grid.mu.size,
        grid_span=grid.span,
        border_mass=grid.border_mass,
    )


# -- one report per criterion name -----------------------------------------


def criterion_report(name: str, model, data: ObservationSet,
                     summary: Callable[[], PosteriorSummary], mode: Callable[[], ModeResult],
                     pair: Callable[[], InfoMatrixPair],
                     lap: Optional[Callable[[], LaplaceApprox]] = None) -> CriterionReport:
    """The report of criterion ``name``.  ``summary``, ``mode``, ``pair`` and
    ``lap`` return the dataset's posterior summary and fit, called only by
    the criteria that read them; a summary is taken at any draw count.  The
    hierarchical logit's loo is the GridSummary's own unless ``lap`` is given."""
    if name == "paic":
        return paic(summary(), pair(), min_draws=1)
    if name == "bpic":
        return bpic(model, data, mode(), pair(), summary())
    if name == "waic2":
        return waic2(summary())
    if name == "dic":
        return dic(model, data, summary())
    if name == "popt":
        return popt_closed_form(model, data)
    if isinstance(model, HierLogitModel):
        return loo_exact(model, data, lap()) if lap is not None else summary().loo
    return loo_exact(model, data)
