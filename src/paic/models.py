"""Model protocol and built-in models.

A model writes each formula once, as four matrix forms: ``loglik_matrix``
(the S x n matrix of log g(y_i | theta_s) over draws), ``logprior_draws``
(log pi per draw; an improper prior is known only up to a constant), and
``score_matrix`` (n x p) and ``hess_term_sum`` (p x p), the gradients and the
summed Hessians of the prior-weighted per-observation terms

    t_i(theta) = log g(y_i | theta) + (1/n) * log pi(theta).

The ``(1/n) log pi`` weighting is what makes prior curvature enter the
information matrices at the per-observation scale; for a flat prior the term
is identically zero.  The base class derives ``loglik_terms``, ``loglik_i``,
``logprior``, ``term_grad``, the vector ``terms`` of all n values t_i(theta)
and the log-posterior gradient and Hessian for the mode search from these
four.

Two built-ins cover the bundled simulation studies: a normal location model
with known variance and conjugate (or flat) normal prior, and a hierarchical
binomial-logit random-effects model; both also give the per-term Hessian
``term_hess``.  User models are supplied programmatically through
:class:`ModelDefinition`, which loops its per-observation callables into the
matrix forms and, lacking analytic derivatives, builds them from central
finite differences of ``terms``, so callers never choose a derivative path:
each perturbed point is evaluated once for all n terms, and the prior once
per point, not once per observation.

Each likelihood is written once, as a private elementwise function that the
models, the closed forms, the exact LOO and the study oracles all call:
``_normal_loglik`` (the Gaussian log density, or its mean when the location
is itself normal) and ``_binom_loglik`` (the binomial log pmf; it is linear in
beta and softplus(beta), so their posterior means give the mean log pmf).

The special functions are numpy and the standard library only: ``_expit`` is
1 / (1 + exp(-x)) (the overflow of exp(-x) below x = -709.78 gives the exact
limit 0 and is not warned about), ``softplus`` is max(x, 0) + log1p(exp(-|x|))
on numpy's vectorized exp and log1p (the form ``np.logaddexp(0, x)`` evaluates
with the scalar libm functions, about five times slower), and ``_gammaln`` is
``math.lgamma`` looped over an array, so the log binomial coefficient is
lgamma(n + 1) - lgamma(y + 1) - lgamma(n - y + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .calculus import grad_fd, hess_fd
from .exceptions import NumericalError, UnsupportedModelError, ValidationError, require_int

LOG_2PI = math.log(2.0 * math.pi)
SOFTPLUS_BLOCK = 8192  # elements of softplus's positive part held at once


def softplus(x, out=None):
    """log(1 + e^x) = max(x, 0) + log1p(exp(-|x|)), elementwise (Maechler 2012).

    Each step is an elementwise ufunc written into the result (or ``out``,
    which must have x's shape), so an element gets the same bits wherever it
    sits in an array; the positive part is added in blocks of at most
    SOFTPLUS_BLOCK elements, so no temporary the size of x is held.  Within
    2 eps relative of ``np.logaddexp(0, x)``; +-inf map to inf and 0, nan to
    nan, and a 0-d input without ``out`` gives a scalar.
    """
    x = np.asarray(x)
    res = np.empty(x.shape) if out is None else out
    np.copysign(x, -1.0, out=res)
    np.exp(res, out=res)
    np.log1p(res, out=res)
    if res.size <= SOFTPLUS_BLOCK:
        res += np.maximum(x, 0.0)
    else:
        with np.nditer([x, res], ["external_loop", "buffered"], [["readonly"], ["readwrite"]],
                       buffersize=SOFTPLUS_BLOCK) as blocks:
            for xb, rb in blocks:
                rb += np.maximum(xb, 0.0)
    return res[()] if out is None and res.ndim == 0 else res


def _expit(x):
    """Logistic function 1 / (1 + e^-x).  Below x = -709.78 the exponential
    overflows to inf and the quotient is the exact limit 0, so the overflow
    is silenced rather than warned about."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def _gammaln(x):
    """log|Gamma(x)|: math.lgamma, looped over the elements of an array."""
    return np.asarray(_lgamma(x), dtype=float)


def scaled_inv_chi2_logpdf(x, nu, s2):
    """Log density of the scaled inverse chi-squared distribution.

    Parameterized by degrees of freedom ``nu`` and scale ``s2``:
    p(x) ∝ x^-(nu/2 + 1) exp(-nu s2 / (2x)), x > 0.
    """
    half_nu = 0.5 * nu
    return (
        half_nu * math.log(half_nu)
        - math.lgamma(half_nu)
        + half_nu * np.log(s2)
        - (half_nu + 1.0) * np.log(x)
        - half_nu * s2 / x
    )


def _normal_loglik(x, mean, var, spread=0.0):
    """E[log N(x | m, var)] for m ~ N(mean, spread), elementwise; with
    ``spread`` 0 it is the log density itself."""
    return -0.5 * (LOG_2PI + math.log(var)) - ((x - mean) ** 2 + spread) / (2.0 * var)


def _log_choose(trials, y):
    """log C(trials, y), elementwise."""
    return _gammaln(trials + 1.0) - _gammaln(y + 1.0) - _gammaln(trials - y + 1.0)


def _binom_loglik(trials, y, beta, softplus_beta):
    """log Bin(y | trials, expit(beta)) = log C(trials, y) + y beta
    - trials softplus(beta), elementwise."""
    return _log_choose(trials, y) + y * beta - trials * softplus_beta


def _trial_sizes(values) -> np.ndarray:
    """Binomial trial sizes as ints; refuses NaN, fractions and sizes outside [1, 2**63)."""
    t = np.asarray(values)
    if t.dtype.kind not in "iu":
        t = t.astype(float)
    if not (np.all(t >= 1) and np.all(t < 2 ** 63) and np.all(t == np.round(t))):
        raise ValidationError("trial_sizes must be integers in [1, 2**63)")
    return t.astype(int)


@dataclass(frozen=True)
class ObservationSet:
    """Observed data: a vector y and, for binomial data, per-unit trial counts.

    Requires n >= 2 (the score outer-product matrix carries a 1/(n-1)
    factor).  Binomial counts must be integers in [0, trial_sizes[i]].
    """

    y: np.ndarray
    trial_sizes: Optional[np.ndarray] = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if y.ndim != 1:
            raise ValidationError("y must be a 1-D vector")
        if y.size < 2:
            raise ValidationError("need at least 2 observations")
        if not np.all(np.isfinite(y)):
            raise ValidationError("y contains non-finite values")
        if self.trial_sizes is not None:
            t = _trial_sizes(self.trial_sizes)
            object.__setattr__(self, "trial_sizes", t)
            if t.shape != y.shape:
                raise ValidationError("trial_sizes length must match y")
            if np.any(y != np.round(y)) or np.any(y < 0) or np.any(y > t):
                raise ValidationError("binomial y must be integers in [0, n_i]")

    @property
    def n(self) -> int:
        return self.y.size


def _as_draws(draws, p: int) -> np.ndarray:
    """An S x p matrix of finite parameter vectors, one per row."""
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or draws.shape[1] != p:
        raise ValidationError(f"draws must be an S x {p} matrix, got shape {draws.shape}")
    finite = np.isfinite(draws).all(axis=1)
    if not finite.all():
        raise ValidationError(f"draw {int(np.argmin(finite))} contains non-finite entries")
    return draws


def _as_theta(theta, p: int) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (p,):
        raise ValidationError(f"parameter vector must have length {p}, got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValidationError("parameter vector contains non-finite entries")
    return theta


class _ModelBase:
    """Derives every single-point form from the four matrix forms."""

    p: int
    prior_proper: bool

    def support(self):
        """Per-coordinate open-interval bounds (lo, hi)."""
        return [(-np.inf, np.inf)] * self.p

    def in_support(self, theta) -> bool:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (self.p,) or not np.all(np.isfinite(theta)):
            return False
        return all(lo < t < hi for t, (lo, hi) in zip(theta, self.support()))

    def validate_data(self, data: ObservationSet) -> None:
        pass

    # -- single-point forms, each one row of a matrix form ---------------

    def loglik_terms(self, data: ObservationSet, theta) -> np.ndarray:
        return self.loglik_matrix(data, _as_theta(theta, self.p)[None, :])[0]

    def loglik_i(self, data: ObservationSet, i: int, theta) -> float:
        return float(self.loglik_terms(data, theta)[i])

    def logprior(self, theta) -> float:
        return float(self.logprior_draws(_as_theta(theta, self.p)[None, :])[0])

    def term_grad(self, data: ObservationSet, i: int, theta) -> np.ndarray:
        return self.score_matrix(data, theta)[i]

    def terms(self, data: ObservationSet, theta) -> np.ndarray:
        """t(theta): the n prior-weighted terms log g(y_i | theta) + log pi(theta) / n."""
        row = _as_theta(theta, self.p)[None, :]
        return self.loglik_matrix(data, row)[0] + self.logprior_draws(row)[0] / data.n

    @property
    def has_analytic_derivatives(self) -> bool:
        return True

    def logpost_derivatives(self, data: ObservationSet, theta):
        """(gradient, Hessian) of log{L(theta|y) pi(theta)}: the sums over t_i."""
        return self.score_matrix(data, theta).sum(axis=0), self.hess_term_sum(data, theta)

    def default_init(self, data: ObservationSet) -> np.ndarray:
        return np.zeros(self.p)


class ConjugateNormalModel(_ModelBase):
    """Normal location model g(y_i | mu) = N(mu, sigma_A2) with known variance.

    Prior on the mean is N(mu0, tau02), or flat (pi(mu) ∝ 1, represented as
    logprior ≡ 0 with ``prior_proper = False``) when ``tau02`` is None.  The
    posterior is available in closed form, which makes this model the oracle
    for the generic machinery.
    """

    p = 1

    def __init__(self, sigma_A2: float, mu0: float = 0.0, tau02: Optional[float] = 1e4):
        if not 0 < sigma_A2 < math.inf:
            raise ValidationError("sigma_A2 must be positive and finite")
        if not math.isfinite(mu0):
            raise ValidationError("mu0 must be finite")
        if tau02 is not None and not 0 < tau02 < math.inf:
            raise ValidationError(
                "tau02 must be positive and finite (or None for a flat prior)")
        self.sigma_A2 = float(sigma_A2)
        self.mu0 = float(mu0)
        self.tau02 = None if tau02 is None else float(tau02)

    @classmethod
    def flat(cls, sigma_A2: float) -> "ConjugateNormalModel":
        return cls(sigma_A2, mu0=0.0, tau02=None)

    @property
    def prior_proper(self) -> bool:
        return self.tau02 is not None

    def validate_data(self, data: ObservationSet) -> None:
        if data.trial_sizes is not None:
            raise ValidationError("normal model takes continuous data without trial_sizes")

    def loglik_matrix(self, data: ObservationSet, draws: np.ndarray) -> np.ndarray:
        mus = np.asarray(draws, dtype=float).reshape(-1, 1)
        return _normal_loglik(data.y[None, :], mus, self.sigma_A2)

    def logprior_draws(self, draws: np.ndarray) -> np.ndarray:
        mus = np.asarray(draws, dtype=float).reshape(-1)
        if self.tau02 is None:
            return np.zeros(mus.size)
        return _normal_loglik(mus, self.mu0, self.tau02)

    def posterior(self, count, total):
        """Posterior (mean, variance) of mu from ``count`` observations summing
        to ``total``; a leave-one-out fold is (n - 1, sum(y) - y_i)."""
        inv_tau = 0.0 if self.tau02 is None else 1.0 / self.tau02
        prior_part = 0.0 if self.tau02 is None else self.mu0 / self.tau02
        variance = 1.0 / (inv_tau + count / self.sigma_A2)
        return (prior_part + total / self.sigma_A2) * variance, variance

    # -- analytic derivatives of t_i = log g_i + (1/n) log pi ----------

    def term_hess(self, data: ObservationSet, i: int, theta) -> np.ndarray:
        h = -1.0 / self.sigma_A2
        if self.tau02 is not None:
            h -= 1.0 / (data.n * self.tau02)
        return np.array([[h]])

    def score_matrix(self, data: ObservationSet, theta) -> np.ndarray:
        mu = _as_theta(theta, 1)[0]
        s = (data.y - mu) / self.sigma_A2
        if self.tau02 is not None:
            s = s + (self.mu0 - mu) / (data.n * self.tau02)
        return s.reshape(-1, 1)

    def hess_term_sum(self, data: ObservationSet, theta) -> np.ndarray:
        return data.n * self.term_hess(data, 0, theta)

    def default_init(self, data: ObservationSet) -> np.ndarray:
        return np.array([float(np.mean(data.y))])


class HierLogitModel(_ModelBase):
    """Hierarchical binomial model with logit-normal random effects.

    Observations are counts y_i ~ Bin(n_i, logit^-1(beta_i)) with group logits
    beta_i ~ N(mu, tau2) and a proper hyperprior on (mu, tau2): normal on mu
    and scaled inverse chi-squared on tau2.  The parameter vector is
    theta = (beta_1, ..., beta_N, mu, tau2), p = N + 2; the random-effects
    layer belongs to the prior, so every per-observation likelihood term
    touches only its own beta_i.
    """

    def __init__(
        self,
        trial_sizes: Sequence[int],
        mu_mean: float = 0.0,
        mu_var: float = 1000.0 ** 2,
        nu: float = 0.1,
        s2: float = 10.0,
    ):
        t = _trial_sizes(trial_sizes)
        if t.ndim != 1 or t.size < 2:
            raise ValidationError("trial_sizes must be a vector of >=2 positive counts")
        if not math.isfinite(mu_mean):
            raise ValidationError("mu_mean must be finite")
        if not all(0 < v < math.inf for v in (mu_var, nu, s2)):
            raise ValidationError("mu_var, nu and s2 must be positive and finite")
        self.trial_sizes = t
        self.mu_mean = float(mu_mean)
        self.mu_var = float(mu_var)
        self.nu = float(nu)
        self.s2 = float(s2)

    @property
    def N(self) -> int:
        return self.trial_sizes.size

    @property
    def p(self) -> int:
        return self.N + 2

    @property
    def prior_proper(self) -> bool:
        return True

    def support(self):
        bounds = [(-np.inf, np.inf)] * (self.N + 1)
        bounds.append((0.0, np.inf))
        return bounds

    def validate_data(self, data: ObservationSet) -> None:
        if data.trial_sizes is None:
            raise ValidationError("hierarchical logit model needs trial_sizes")
        if data.n != self.N:
            raise ValidationError(
                f"model declares {self.N} groups but data has {data.n}"
            )
        if np.any(data.trial_sizes != self.trial_sizes):
            raise ValidationError("data trial_sizes disagree with the model")

    def split(self, theta):
        theta = _as_theta(theta, self.p)
        return theta[: self.N], theta[self.N], theta[self.N + 1]

    def loglik_matrix(self, data: ObservationSet, draws: np.ndarray) -> np.ndarray:
        draws = np.asarray(draws, dtype=float)
        B = draws[:, : self.N]
        t = data.trial_sizes.astype(float)
        # _binom_loglik's terms, in its order, built in two (S, N) buffers
        out = np.multiply(data.y, B)
        out += _log_choose(t, data.y)
        t_sp = softplus(B)
        t_sp *= t
        out -= t_sp
        return out

    def logprior_draws(self, draws: np.ndarray) -> np.ndarray:
        draws = np.asarray(draws, dtype=float)
        B = draws[:, : self.N]
        mu = draws[:, self.N]
        tau2 = draws[:, self.N + 1]
        outside = tau2 <= 0
        if outside.any():  # log density -inf off the support, not NaN
            lp = np.full(tau2.size, -np.inf)
            lp[~outside] = self.logprior_draws(draws[~outside])
            return lp
        d = B - mu[:, None]
        d *= d
        return self.logprior_hyper(mu, tau2, np.sum(d, axis=1))

    def logprior_hyper(self, mu, tau2, sq_dev):
        """log pi(theta) from (mu, tau2) and sq_dev = sum_i (beta_i - mu)^2,
        elementwise; linear in sq_dev, so its conditional expectation given
        (mu, tau2) gives that of log pi."""
        lp = -0.5 * self.N * (LOG_2PI + np.log(tau2)) - 0.5 * sq_dev / tau2
        lp += _normal_loglik(mu, self.mu_mean, self.mu_var)
        lp += scaled_inv_chi2_logpdf(tau2, self.nu, self.s2)
        return lp

    # -- analytic derivatives -------------------------------------------

    def _prior_grad(self, theta) -> np.ndarray:
        beta, mu, tau2 = self.split(theta)
        d = beta - mu
        g = np.empty(self.p)
        g[: self.N] = -d / tau2
        g[self.N] = np.sum(d) / tau2 - (mu - self.mu_mean) / self.mu_var
        g[self.N + 1] = (
            -0.5 * self.N / tau2
            + 0.5 * np.sum(d * d) / tau2 ** 2
            - (0.5 * self.nu + 1.0) / tau2
            + 0.5 * self.nu * self.s2 / tau2 ** 2
        )
        return g

    def _prior_hess(self, theta) -> np.ndarray:
        beta, mu, tau2 = self.split(theta)
        d = beta - mu
        N, p = self.N, self.p
        H = np.zeros((p, p))
        H[np.arange(N), np.arange(N)] = -1.0 / tau2
        H[: N, N] = H[N, :N] = 1.0 / tau2
        H[: N, N + 1] = H[N + 1, :N] = d / tau2 ** 2
        H[N, N] = -N / tau2 - 1.0 / self.mu_var
        H[N, N + 1] = H[N + 1, N] = -np.sum(d) / tau2 ** 2
        H[N + 1, N + 1] = (
            0.5 * N / tau2 ** 2
            - np.sum(d * d) / tau2 ** 3
            + (0.5 * self.nu + 1.0) / tau2 ** 2
            - self.nu * self.s2 / tau2 ** 3
        )
        return H

    def term_hess(self, data: ObservationSet, i: int, theta) -> np.ndarray:
        beta, _, _ = self.split(theta)
        H = self._prior_hess(theta) / data.n
        xi = _expit(beta[i])
        H[i, i] += -data.trial_sizes[i] * xi * (1.0 - xi)
        return H

    def score_matrix(self, data: ObservationSet, theta) -> np.ndarray:
        beta, _, _ = self.split(theta)
        base = self._prior_grad(theta) / data.n
        S = np.tile(base, (data.n, 1))
        xi = _expit(beta)
        S[np.arange(data.n), np.arange(data.n)] += data.y - data.trial_sizes * xi
        return S

    def hess_term_sum(self, data: ObservationSet, theta) -> np.ndarray:
        beta, _, _ = self.split(theta)
        H = self._prior_hess(theta).copy()
        xi = _expit(beta)
        H[np.arange(self.N), np.arange(self.N)] += -data.trial_sizes * xi * (1.0 - xi)
        return H

    def default_init(self, data: ObservationSet) -> np.ndarray:
        # empirical logits with a continuity correction keep 0 and n_i counts finite
        t = data.trial_sizes.astype(float)
        b = np.log((data.y + 0.5) / (t - data.y + 0.5))
        theta = np.empty(self.p)
        theta[: self.N] = b
        theta[self.N] = np.mean(b)
        theta[self.N + 1] = max(float(np.var(b)), 0.1)
        return theta


@dataclass
class ModelDefinition(_ModelBase):
    """Programmatic user model built from per-observation callables.

    ``loglik_i_fn(theta, i, data)`` returns log g(y_i | theta); ``logprior``
    may be improper (then set ``prior_proper=False`` and criteria that need
    a proper prior will refuse).  ``analytic_grad`` and ``analytic_hess`` are
    given together or not at all; they differentiate the prior-weighted
    per-observation term, and ``calculus.check_gradient`` is there for users
    to compare them against finite differences (nothing calls it for them).
    Without them, scores, Hessian sums and the mode search's derivatives
    are central finite differences (of ``terms``, whose every perturbed point
    is evaluated once for all n terms, or of the log posterior).
    ``support_bounds`` holds one open interval (lo, hi) per coordinate (default
    the real line); the mode search takes a (0, inf) coordinate on the log scale.
    """

    p: int
    loglik_i_fn: Callable[[np.ndarray, int, ObservationSet], float]
    logprior_fn: Callable[[np.ndarray], float]
    prior_proper: bool = True
    analytic_grad: Optional[Callable[[np.ndarray, int, ObservationSet], np.ndarray]] = None
    analytic_hess: Optional[Callable[[np.ndarray, int, ObservationSet], np.ndarray]] = None
    support_bounds: Optional[list] = None

    def __post_init__(self):
        require_int("p", self.p, 1)
        if (self.analytic_grad is None) != (self.analytic_hess is None):
            raise ValidationError("analytic_grad and analytic_hess must be given together")
        if self.support_bounds is not None and len(self.support_bounds) != self.p:
            raise ValidationError(f"support_bounds needs {self.p} (lo, hi) pairs")

    def support(self):
        return super().support() if self.support_bounds is None else list(self.support_bounds)

    # the callables are per observation, so one term never costs n of them
    def loglik_i(self, data: ObservationSet, i: int, theta) -> float:
        return float(self.loglik_i_fn(_as_theta(theta, self.p), i, data))

    def logprior(self, theta) -> float:
        return float(self.logprior_fn(_as_theta(theta, self.p)))

    def loglik_matrix(self, data: ObservationSet, draws: np.ndarray) -> np.ndarray:
        draws = _as_draws(draws, self.p)
        out = np.empty((len(draws), data.n))
        for s, row in enumerate(draws):
            out[s] = [float(self.loglik_i_fn(row, i, data)) for i in range(data.n)]
        return out

    def logprior_draws(self, draws: np.ndarray) -> np.ndarray:
        return np.array([float(self.logprior_fn(row)) for row in _as_draws(draws, self.p)],
                        dtype=float)

    @property
    def has_analytic_derivatives(self) -> bool:
        return self.analytic_grad is not None

    def score_matrix(self, data: ObservationSet, theta) -> np.ndarray:
        theta = _as_theta(theta, self.p)
        if not self.has_analytic_derivatives:
            return grad_fd(partial(self.terms, data), theta)
        rows = [self.analytic_grad(theta, i, data) for i in range(data.n)]
        return np.vstack([np.asarray(r, dtype=float) for r in rows])

    def hess_term_sum(self, data: ObservationSet, theta) -> np.ndarray:
        theta = _as_theta(theta, self.p)
        if self.has_analytic_derivatives:
            terms = (np.asarray(self.analytic_hess(theta, i, data), dtype=float)
                     for i in range(data.n))
        else:
            terms = hess_fd(partial(self.terms, data), theta)
        H = np.zeros((self.p, self.p))
        for term in terms:  # in observation order, which fixes the sum's rounding
            H += term
        return H

    def logpost_derivatives(self, data: ObservationSet, theta):
        if self.has_analytic_derivatives:
            return super().logpost_derivatives(data, theta)
        f = partial(_safe_logpost, self, data)
        return grad_fd(f, theta), hess_fd(f, theta)


# -- module-level operations -------------------------------------------


def _finite_sum(terms: np.ndarray) -> float:
    if not np.all(np.isfinite(terms)):
        i = int(np.flatnonzero(~np.isfinite(terms))[0])
        raise NumericalError(f"non-finite log-likelihood term at observation {i}")
    return float(np.sum(terms))


def loglik_total(model, data: ObservationSet, theta) -> float:
    """Total log likelihood sum_i log g(y_i | theta)."""
    model.validate_data(data)
    return _finite_sum(model.loglik_terms(data, theta))


def logpost_unnorm(model, data: ObservationSet, theta) -> float:
    """Log unnormalized posterior log{L(theta|y) pi(theta)}."""
    model.validate_data(data)
    row = _as_theta(theta, model.p)[None, :]
    return (_finite_sum(model.loglik_matrix(data, row)[0])
            + float(model.logprior_draws(row)[0]))


def _safe_logpost(model, data: ObservationSet, theta) -> float:
    """logpost_unnorm, or -inf off the support or where a term is not finite.

    A line search may try a point where a term overflows (a tiny tau2 in the
    hierarchical prior); the result is already -inf there, so the overflow
    is not warned about."""
    if not model.in_support(theta):
        return -np.inf
    try:
        with np.errstate(over="ignore", divide="ignore"):
            return logpost_unnorm(model, data, theta)
    except NumericalError:
        return -np.inf


def conjugate_posterior(model: ConjugateNormalModel, data: ObservationSet):
    """Exact posterior (mu_hat, sigma_hat2) of the conjugate normal model.

    mu_hat  = (mu0/tau02 + sum(y)/sigma_A2) / (1/tau02 + n/sigma_A2)
    sigma_hat2 = 1 / (1/tau02 + n/sigma_A2)

    With a flat prior the 1/tau02 terms vanish: mu_hat = mean(y),
    sigma_hat2 = sigma_A2/n.
    """
    if not isinstance(model, ConjugateNormalModel):
        raise UnsupportedModelError("closed forms exist only for the conjugate normal model")
    model.validate_data(data)
    mu_hat, sigma_hat2 = model.posterior(data.n, np.sum(data.y))
    return float(mu_hat), float(sigma_hat2)
