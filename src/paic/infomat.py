"""Empirical information matrices and the trace penalty.

Both matrices are built from the prior-weighted per-observation terms
t_i(theta) = log g(y_i|theta) + (1/n) log pi(theta), evaluated at the
posterior mode:

    hess_info  = -(1/n)     sum_i  d^2 t_i / dtheta dtheta'    (curvature)
    score_info = (1/(n-1)) sum_i (dt_i/dtheta)(dt_i/dtheta)'  (score outer products)

One pair serves both criteria: the plug-in (BPIC) penalty divides the score
sum by n instead, so its trace is the pair's trace times (n-1)/n.
Scores are not centered: at the mode their prior-weighted sum is already
(numerically) zero.  Adding a constant to log pi changes neither matrix.
Scores and the Hessian sum come from the model, which decides whether they
are analytic or finite differences.

The penalty tr{J^-1 I} is the sum of the generalized eigenvalues of
I v = lambda J v.  They are computed in numpy by the Cholesky reduction
J = L L', A = L^-1 I L^-T, lambda = ``np.linalg.eigvalsh(A)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import IllConditionedError, NumericalError, ValidationError
from .models import ObservationSet

COND_LIMIT = 1e12


@dataclass(frozen=True)
class InfoMatrixPair:
    """Curvature / score-outer-product pair at the posterior mode.

    ``cond`` is the spectral condition number of the curvature matrix;
    computations refuse to proceed past COND_LIMIT.  ``score_denominator``
    is "n" only on the view that divides the score sum by n.
    """

    hess_info: np.ndarray
    score_info: np.ndarray
    theta_hat: np.ndarray
    cond: float
    score_denominator: str = "n-1"


@dataclass(frozen=True)
class TraceCorrection:
    """tr{J^-1 I} with the generalized eigenvalues of (I, J) as diagnostics."""

    value: float
    eigenvalues: np.ndarray


def compute_hess_info(model, data: ObservationSet, theta_hat) -> np.ndarray:
    """-(1/n) sum of per-term Hessians, as the model supplies them."""
    model.validate_data(data)
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    H = model.hess_term_sum(data, theta_hat)
    if not np.all(np.isfinite(H)):
        raise NumericalError("non-finite Hessian term sum")
    J = -H / data.n
    return 0.5 * (J + J.T)


def compute_score_info(model, data: ObservationSet, theta_hat) -> np.ndarray:
    """Sum of score outer products over observations, divided by n-1."""
    model.validate_data(data)
    theta_hat = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    S = model.score_matrix(data, theta_hat)
    if not np.all(np.isfinite(S)):
        i = int(np.flatnonzero(~np.isfinite(S).all(axis=1))[0])
        raise NumericalError(f"non-finite score for observation {i}")
    I_mat = S.T @ S / (data.n - 1.0)
    return 0.5 * (I_mat + I_mat.T)


def info_matrix_pair(model, data: ObservationSet, theta_hat,
                     convention: str = "paic") -> InfoMatrixPair:
    """Assemble the pair at theta_hat, the one that paic and bpic both take.

    ``convention="bpic"`` gives a view of the same pair with the score sum
    divided by n (``score_denominator="n"``); the criteria refuse that view.
    """
    if convention not in ("paic", "bpic"):
        raise ValidationError("convention must be 'paic' or 'bpic'")
    J = compute_hess_info(model, data, theta_hat)
    I_mat = compute_score_info(model, data, theta_hat)
    eig = np.linalg.eigvalsh(J)
    if eig[0] <= 0:
        cond = np.inf
    else:
        cond = float(eig[-1] / eig[0])
    theta_hat = np.atleast_1d(np.asarray(theta_hat, float))
    if convention == "bpic":
        return InfoMatrixPair(J, I_mat * ((data.n - 1.0) / data.n), theta_hat, cond, "n")
    return InfoMatrixPair(J, I_mat, theta_hat, cond)


def trace_correction(pair: InfoMatrixPair) -> TraceCorrection:
    """tr(J^-1 I) as the sum of the generalized eigenvalues of I v = lambda J v.

    The pencil is reduced by the Cholesky factor J = L L': the eigenvalues are
    those of the symmetric A = L^-1 I L^-T (``np.linalg.eigvalsh``), and
    tr(A) = tr(J^-1 I).  Nonnegative whenever J is positive definite at a
    proper mode (I is PSD by construction).  Refuses ill-conditioned J
    (cond > 1e12).
    """
    if not np.isfinite(pair.cond) or pair.cond > COND_LIMIT:
        raise IllConditionedError(
            f"curvature matrix condition number {pair.cond:.3e} exceeds {COND_LIMIT:.0e}",
            cond=pair.cond,
        )
    L_inv = np.linalg.inv(np.linalg.cholesky(pair.hess_info))
    A = L_inv @ pair.score_info @ L_inv.T
    lam = np.linalg.eigvalsh(0.5 * (A + A.T))
    return TraceCorrection(float(np.sum(lam)), lam)
