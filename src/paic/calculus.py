"""Central finite differences for gradients and Hessians.

The trace correction is sensitive to Hessian error, so only central schemes
are used (O(h^2) truncation).  Hessians are assembled from 2p central
gradient calls (central differencing of central gradients, symmetrized)
instead of the 4 p^2 function-call stencil; with p up to ~20 inside
replication loops the call count matters, and one-sided gradient differences
were not accurate enough for the verification tolerances.

``f`` may return a scalar or a vector of n terms, one per observation.  A
vector f is evaluated once at each perturbed point for all n terms, and each
term gets the same elementwise arithmetic that a scalar f of that term alone
would get: the gradient is then n x p and the Hessian n x p x p, one
symmetrized matrix per term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import NumericalError, ValidationError

# cube root of double-precision epsilon; near-optimal step for central schemes
DEFAULT_REL_STEP = 6.06e-6
# outer step for gradient-of-gradient differencing: the inner gradient noise
# is amplified by 1/h, so the outer optimum sits near eps^(1/4), not eps^(1/3)
DEFAULT_HESS_REL_STEP = 2e-4
# largest relative score error check_gradient passes
GRAD_CHECK_TOL = 1e-5


def _finite(fp, fm, j: int, h: float) -> None:
    """Refuse a non-finite value of f at theta +- h e_j, naming the first
    non-finite term of a vector f."""
    if np.isfinite(fp).all() and np.isfinite(fm).all():
        return
    bad = ~(np.isfinite(fp) & np.isfinite(fm))
    where = f" at observation {int(np.flatnonzero(bad)[0])}" if np.ndim(bad) else ""
    raise NumericalError(
        f"non-finite evaluation{where} while differencing coordinate {j} "
        f"with step {h:.3e}"
    )


def grad_fd(f, theta) -> np.ndarray:
    """Central-difference gradient; step j is DEFAULT_REL_STEP * max(1, |theta_j|).

    A scalar f gives shape (p,), a vector f of n terms shape (n, p)."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    h = DEFAULT_REL_STEP * np.maximum(1.0, np.abs(theta))
    g = None
    for j in range(theta.size):
        tp = theta.copy()
        tm = theta.copy()
        tp[j] += h[j]
        tm[j] -= h[j]
        fp = f(tp)
        fm = f(tm)
        _finite(fp, fm, j, h[j])
        if g is None:
            g = np.empty(np.shape(fp) + (theta.size,))
        g[..., j] = (fp - fm) / (2.0 * h[j])
    return g


def hess_fd(f, theta) -> np.ndarray:
    """Hessian from 2p central-gradient calls, symmetrized as (H + H')/2.

    A scalar f gives shape (p, p), a vector f of n terms shape (n, p, p),
    each term's matrix symmetrized on its own."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    p = theta.size
    h = DEFAULT_HESS_REL_STEP * np.maximum(1.0, np.abs(theta))
    H = None
    for j in range(p):
        tp = theta.copy()
        tm = theta.copy()
        tp[j] += h[j]
        tm[j] -= h[j]
        col = (grad_fd(f, tp) - grad_fd(f, tm)) / (2.0 * h[j])
        if H is None:
            H = np.empty(col.shape + (p,))
        H[..., j] = col
    return 0.5 * (H + np.swapaxes(H, -1, -2))


@dataclass(frozen=True)
class GradientCheckReport:
    max_rel_err: float
    worst_obs: int
    worst_coord: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def check_gradient(model, data, theta) -> GradientCheckReport:
    """Compare the model's analytic per-observation scores against grad_fd
    of ``model.terms``, all n terms differenced at the same perturbed points.

    Relative error per term is ||g_a - g_fd||_inf / max(1, ||g_a||_inf) so
    near-zero coordinates do not blow up the ratio.
    """
    if not getattr(model, "has_analytic_derivatives", False):
        raise ValidationError("model has no analytic gradient to check")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    scores = model.score_matrix(data, theta)
    fd_scores = grad_fd(partial(model.terms, data), theta)
    worst = (0.0, 0, 0)
    for i, (ga, gf) in enumerate(zip(scores, fd_scores)):
        denom = max(1.0, float(np.max(np.abs(ga))))
        err = np.abs(ga - gf) / denom
        j = int(np.argmax(err))
        if err[j] > worst[0]:
            worst = (float(err[j]), i, j)
    return GradientCheckReport(worst[0], worst[1], worst[2], GRAD_CHECK_TOL)
