"""Posterior mode search and the Gaussian (Laplace) posterior approximation.

The mode maximizes log{L(theta|y) pi(theta)} by damped Newton iterations with
an Armijo backtracking line search, falling back to gradient steps wherever
the curvature is indefinite.  The coordinates whose support is (0, inf)
are searched on the log scale; the objective is the unchanged
theta-parameterization density, so the reported mode and curvature are
theta-space quantities.  Its gradient and Hessian come from
the model (``logpost_derivatives``), once per iterate.
The search stops on the Newton decrement g'(-H)^-1 g / 2, the predicted gain
of a full Newton step, relative to the rounding of the log posterior (Boyd &
Vandenberghe 2004, sec. 9.5).  A search that raises is retried from a
perturbed start; an unconverged search is returned as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    NotPositiveDefiniteError,
    NumericalError,
    SingularHessianError,
    ValidationError,
)
from .rng import substream
from .models import ObservationSet, _safe_logpost

DECREMENT_TOL = 1e-15
RIDGE_SCALE = 1e-8
ARMIJO_C = 1e-4
MODE_RESTARTS = 3
MAX_ITER = 200  # Newton steps before a search is returned unconverged


@dataclass(frozen=True)
class ModeResult:
    theta_hat: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool
    neg_hessian: np.ndarray
    logpost: float


@dataclass(frozen=True)
class LaplaceApprox:
    """Gaussian posterior approximation N(theta_hat, covariance)."""

    mean: np.ndarray
    covariance: np.ndarray

    def marginal_sd(self) -> np.ndarray:
        return np.sqrt(np.diag(self.covariance))


class _Transform:
    """Bijection theta <-> u with the model's (0, inf) coordinates on the log scale."""

    def __init__(self, model):
        self.mask = np.array([(lo, hi) == (0.0, np.inf) for lo, hi in model.support()])

    def to_u(self, theta: np.ndarray) -> np.ndarray:
        u = np.array(theta, dtype=float)
        if np.any(u[self.mask] <= 0):
            raise ValidationError("log-scale coordinate must be positive")
        u[self.mask] = np.log(u[self.mask])
        return u

    def to_theta(self, u: np.ndarray) -> np.ndarray:
        theta = np.array(u, dtype=float)
        theta[self.mask] = np.exp(theta[self.mask])
        return theta

    def chain(self, theta, g_theta, H_theta):
        """(grad, Hessian) of f(u) = f(theta(u)) from theta-space derivatives."""
        d1 = np.where(self.mask, theta, 1.0)  # dtheta/du
        g_u = g_theta * d1
        H_u = H_theta * np.outer(d1, d1)
        # second-derivative term: d2theta/du2 equals theta on log coords
        H_u[np.diag_indices_from(H_u)] += np.where(self.mask, g_theta * theta, 0.0)
        return g_u, H_u


def _solve_ascent(H_u: np.ndarray, g_u: np.ndarray):
    """Newton direction from (-H) d = g, ridged once if the factorization fails.

    Returns None when the curvature is indefinite even after the ridge (the
    caller then takes a gradient step, as away from the mode the posterior
    need not be concave).  Non-finite curvature raises, since no retry can
    recover it.
    """
    if not np.all(np.isfinite(H_u)):
        raise SingularHessianError(
            "Hessian contains non-finite entries; ridge retry cannot recover"
        )
    A = -H_u
    ridge = RIDGE_SCALE * max(np.trace(A), 1.0) / A.shape[0]
    for M in (A, A + ridge * np.eye(A.shape[0])):
        try:
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            continue
        return np.linalg.solve(L.T, np.linalg.solve(L, g_u))
    return None


def posterior_mode(model, data: ObservationSet, init) -> ModeResult:
    """Damped Newton ascent on the log unnormalized posterior from ``init``.

    Convergence requires the Newton decrement on the search scale, g'd / 2
    with d the Newton direction, to fall below DECREMENT_TOL * max(1,
    |logpost|), and the negative Hessian at the mode to be positive definite.
    ``iterations`` counts the Newton steps taken; hitting MAX_ITER of them,
    or a line search that finds no ascent, returns converged=False rather
    than raising.
    """
    model.validate_data(data)
    init = np.atleast_1d(np.asarray(init, dtype=float))
    if not model.in_support(init):
        raise ValidationError("init outside model support")
    tr = _Transform(model)
    u = tr.to_u(init)
    theta = tr.to_theta(u)
    fval = _safe_logpost(model, data, theta)
    if not np.isfinite(fval):
        raise ValidationError("log posterior not finite at init")

    iterations = 0
    while True:
        g_theta, H_theta = model.logpost_derivatives(data, theta)
        g_u, H_u = tr.chain(theta, g_theta, H_theta)
        d = _solve_ascent(H_u, g_u)
        slope = float(g_u @ d) if d is not None else 0.0
        converged = d is not None and 0.5 * slope <= DECREMENT_TOL * max(1.0, abs(fval))
        if converged or iterations == MAX_ITER:
            break
        if d is None:  # indefinite curvature: take a gradient step
            d = g_u
            slope = float(g_u @ g_u)
        alpha = 1.0
        while alpha > 1e-18:
            u_new = u + alpha * d
            f_new = _safe_logpost(model, data, tr.to_theta(u_new))
            if f_new >= fval + ARMIJO_C * alpha * slope:
                break
            alpha *= 0.5
        else:
            break  # the line search found no ascent from this iterate
        iterations += 1
        u = u_new
        theta = tr.to_theta(u)
        fval = f_new

    neg_hess = 0.5 * ((-H_theta) + (-H_theta).T)
    try:
        np.linalg.cholesky(neg_hess)
    except np.linalg.LinAlgError:
        converged = False  # a maximum needs a positive definite negative Hessian
    return ModeResult(
        theta_hat=theta,
        grad_norm=float(np.max(np.abs(g_theta))),
        iterations=iterations,
        converged=bool(converged),
        neg_hessian=neg_hess,
        logpost=float(fval),
    )


def find_posterior_mode(model, data: ObservationSet, seed: int = 0) -> ModeResult:
    """First search from the model's default init that does not raise.

    A search that raises is retried from a perturbed start, up to
    MODE_RESTARTS searches, and NumericalError follows if all of them raise.
    An unconverged search is returned as it is; callers check ``converged``.
    """
    tr = _Transform(model)
    u0 = tr.to_u(model.default_init(data))
    rng = substream(seed, "mode-restarts")
    for r in range(MODE_RESTARTS):
        u_start = u0 if r == 0 else u0 + 0.3 * rng.standard_normal(model.p)
        try:
            return posterior_mode(model, data, tr.to_theta(u_start))
        except (ValidationError, NumericalError):
            continue
    raise NumericalError("all mode-search restarts failed")


def laplace_approx(model, data: ObservationSet, mode: ModeResult) -> LaplaceApprox:
    """Gaussian approximation with covariance (n * hess_info)^-1 at the mode.

    n * hess_info equals the negative Hessian of the log posterior already
    carried by the ModeResult, so the covariance is its SPD inverse.  An
    unconverged mode fails here, for every consumer of the fit.
    """
    if not mode.converged:
        raise NumericalError("posterior mode search did not converge")
    A = mode.neg_hessian
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "negative Hessian at the mode is not positive definite",
            eigenvalues=np.linalg.eigvalsh(A),
        )
    Linv = np.linalg.solve(L, np.eye(A.shape[0]))
    cov = Linv.T @ Linv
    cov = 0.5 * (cov + cov.T)
    return LaplaceApprox(mean=mode.theta_hat.copy(), covariance=cov)
