"""Posterior samplers and convergence diagnostics.

The conjugate normal model is sampled exactly (iid draws from the analytic
posterior).  The hierarchical logit model uses Metropolis-within-Gibbs:
each group logit gets an adaptive random-walk Metropolis update (the group
conditionals are independent given the hyperparameters, so all groups move
in one vectorized step), while mu and tau2 have exact conjugate Gibbs
updates.  Step sizes adapt toward a 0.44 acceptance rate during warmup only;
the post-warmup kernel is frozen.

One loop runs the chains of several problems at once as rows of one state
array; rows may belong to different datasets (the exact-LOO folds of a
dataset, or the main chains of several logit-study replications).  Callers
pass all their problems, and the sampler splits them into as few loops as
keep each loop's retained draws under LOOP_DRAW_BYTES, with sizes that
differ by at most one (6 problems that fit 5 to a loop run as 3 + 3, not
5 + 1).  Each row draws from its own Philox substream keyed by (seed,
*path, "chain", c): all four of its noise blocks (proposal normals,
acceptance uniforms, and the mu normals and tau2 chi-squares of the Gibbs
steps) are replayed from it in chunks of REPLAY_CHUNK iterations, so a
row's trajectory does not depend on the other rows or on how the
surrounding code schedules work, and the noise held at once does not grow
with the chain length.

ESS (Geyer's initial monotone sequence, per chain) and split R-hat (BDA3)
are array kernels over the sampler's (chains, draws, p) layout; the public
single-series ``ess`` and ``rhat`` reshape their input into it.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .exceptions import NonConvergenceError, ValidationError
from .models import ConjugateNormalModel, HierLogitModel, ObservationSet, conjugate_posterior, softplus
from .optimize import LaplaceApprox, find_posterior_mode, laplace_approx
from .rng import substream

TARGET_ACCEPT = 0.44
ADAPT_BATCH = 50
RHAT_MAX = 1.05
ESS_MIN = 400.0
ESS_MIN_SERIES = 10  # shortest series the ESS kernel accepts
REPLAY_CHUNK = 64  # sampler iterations of each row's noise held per refill
# cap on the retained draws of one sampler loop, summed over its rows
LOOP_DRAW_BYTES = 12_000_000


@dataclass(frozen=True)
class SamplerBudget:
    chains: int = 3
    draws_per_chain: int = 5000
    warmup: int = 2000

    def __post_init__(self):
        for name, low in (("chains", 1), ("draws_per_chain", ESS_MIN_SERIES), ("warmup", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValidationError(f"sampler budget {name} must be >= {low}, got {value}")

    def scaled(self, factor: float) -> "SamplerBudget":
        return SamplerBudget(
            self.chains,
            int(np.ceil(self.draws_per_chain * factor)),
            int(np.ceil(self.warmup * factor)),
        )


@dataclass(frozen=True)
class PosteriorDraws:
    draws: np.ndarray
    chain_ids: np.ndarray
    warmup_discarded: int
    seed: int

    def __post_init__(self):
        d = np.asarray(self.draws, dtype=float)
        object.__setattr__(self, "draws", d)
        ids = np.asarray(self.chain_ids, dtype=int)
        object.__setattr__(self, "chain_ids", ids)
        if d.ndim != 2 or d.shape[0] < 1:
            raise ValidationError("draws must be a non-empty S x p matrix")
        if ids.shape != (d.shape[0],):
            raise ValidationError("chain_ids length must match draw count")

    @property
    def S(self) -> int:
        return self.draws.shape[0]

    @property
    def p(self) -> int:
        return self.draws.shape[1]


@dataclass(frozen=True)
class Diagnostics:
    ess: np.ndarray
    rhat: np.ndarray
    accept_rate: np.ndarray
    step_scales_warmup_end: np.ndarray
    step_scales_final: np.ndarray

    @property
    def max_rhat(self) -> float:
        return float(np.max(self.rhat))

    @property
    def min_ess(self) -> float:
        return float(np.min(self.ess))

    def ok(self) -> bool:
        return self.max_rhat <= RHAT_MAX and self.min_ess >= ESS_MIN


def _ess_kernel(chains: np.ndarray) -> np.ndarray:
    """ESS of each series of a (chains, n, p) array, as (chains, p)."""
    n = chains.shape[1]
    if n < ESS_MIN_SERIES:
        raise ValidationError(f"ess needs a 1-D series of at least {ESS_MIN_SERIES} draws")
    # 2n points keep every lag unwrapped; squaring in place bounds the FFT buffers at two
    acov = np.fft.rfft(chains - chains.mean(axis=1, keepdims=True), 2 * n, axis=1)
    acov *= np.conj(acov)
    acov = np.fft.irfft(acov, 2 * n, axis=1)[:, :n]
    # equal values are constant even when their rounded mean leaves acov[0] > 0
    constant = (np.ptp(chains, axis=1, keepdims=True) == 0.0) | (acov[:, :1] == 0.0)
    rho = acov / np.where(constant, 1.0, acov[:, :1])
    m_max = n // 2
    gam = rho[:, 0 : 2 * m_max : 2] + rho[:, 1 : 2 * m_max : 2]
    keep = np.logical_and.accumulate(gam > 0.0, axis=1)
    tau = 2.0 * np.sum(np.minimum.accumulate(gam, axis=1), axis=1, where=keep) - 1.0
    out = np.where(keep[:, 0], n / np.maximum(tau, 1e-3), float(n))
    if np.any(constant):
        warnings.warn("constant series: ESS defined as 0")
    return np.where(constant[:, 0], 0.0, out)


def _rhat_kernel(chains: np.ndarray) -> np.ndarray:
    """Split-chain R-hat of each coordinate of a (chains, n, p) array, as (p,)."""
    C, n, p = chains.shape
    L = n // 2
    if L < 2:
        raise ValidationError("chains too short to split")
    halves = chains[:, : 2 * L].reshape(2 * C, L, p)
    # a half (or a coordinate) of equal values has no spread, whatever the
    # rounding of its mean leaves in var()
    W = np.where(np.ptp(halves, axis=1) == 0.0, 0.0, halves.var(axis=1, ddof=1)).mean(axis=0)
    B = L * halves.mean(axis=1).var(axis=0, ddof=1)
    r = np.sqrt(((L - 1) / L * W + B / L) / np.where(W == 0.0, 1.0, W))
    return np.where(W == 0.0, np.where(np.ptp(halves, axis=(0, 1)) == 0.0, 1.0, np.inf), r)


def ess(x) -> float:
    """Effective sample size via the initial monotone sequence estimator.

    Pairwise autocorrelation sums Gamma_m = rho_{2m} + rho_{2m+1} are kept
    until the first non-positive one and forced monotone non-increasing; the
    integrated autocorrelation time is 2*sum(Gamma) - 1.  A constant series
    (all values equal) has no information: ESS is defined as 0 (with a warning).  The series
    runs through the sampler's kernel as a (1, n, 1) array.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"ess needs a 1-D series of at least {ESS_MIN_SERIES} draws")
    return float(_ess_kernel(x[None, :, None])[0, 0])


def rhat(x, chain_ids) -> float:
    """Split-chain potential scale reduction for one coordinate.

    Each chain is split in half (a single chain is allowed: its halves act
    as two chains), so within-chain drift inflates the statistic.  Runs on
    the draws grouped by chain id, in order, as a (chains, n, 1) array.
    """
    x = np.asarray(x, dtype=float)
    ids = np.asarray(chain_ids)
    if x.shape != ids.shape:
        raise ValidationError("draws and chain_ids must align")
    _, lengths = np.unique(ids, return_counts=True)
    if np.unique(lengths).size != 1:
        raise ValidationError("chains must have equal lengths")
    grouped = x.ravel()[np.argsort(ids.ravel(), kind="stable")]
    return float(_rhat_kernel(grouped.reshape(lengths.size, -1, 1))[0])


def compute_diagnostics(chains: np.ndarray, accept_rate: np.ndarray,
                        scales_warm: np.ndarray, scales_final: np.ndarray) -> Diagnostics:
    """ESS (summed over chains, capped at the draw count) and split R-hat of
    every coordinate of a (chains, draws, p) array.

    The ESS kernel runs chain by chain, which bounds its FFT buffers at one
    chain's and gives the same values as one call over all chains.
    """
    C, n, _ = chains.shape
    ess_sum = sum(_ess_kernel(chains[c : c + 1])[0] for c in range(C))
    return Diagnostics(
        ess=np.minimum(ess_sum, float(C * n)),
        rhat=_rhat_kernel(chains),
        accept_rate=accept_rate,
        step_scales_warmup_end=scales_warm,
        step_scales_final=scales_final,
    )


def sample_conjugate_normal(model: ConjugateNormalModel, data: ObservationSet,
                            S: int, seed: int, rng_path=()) -> PosteriorDraws:
    """Exact iid draws from the analytic normal posterior."""
    if S < 1:
        raise ValidationError("S must be >= 1")
    mu_hat, sigma_hat2 = conjugate_posterior(model, data)
    gen = substream(seed, *rng_path, "conjugate")
    draws = mu_hat + np.sqrt(sigma_hat2) * gen.standard_normal(S)
    return PosteriorDraws(
        draws=draws.reshape(-1, 1),
        chain_ids=np.zeros(S, dtype=int),
        warmup_discarded=0,
        seed=seed,
    )


def _initial_states(model: HierLogitModel, lap: LaplaceApprox,
                    chains: int, seed: int, rng_path) -> Tuple[np.ndarray, np.ndarray]:
    """Overdispersed chain starts around the Laplace mean; tau2 stays positive."""
    N, p = model.N, model.p
    sd = lap.marginal_sd()
    states = np.empty((chains, p))
    for c in range(chains):
        z = substream(seed, *rng_path, "init", c).standard_normal(p)
        states[c, : N + 1] = lap.mean[: N + 1] + 2.0 * sd[: N + 1] * z[: N + 1]
        states[c, N + 1] = lap.mean[N + 1] * np.exp(0.5 * z[N + 1])
    scales = np.tile(2.4 * sd[:N], (chains, 1))
    return states, scales


def _fork(gen: np.random.Generator) -> np.random.Generator:
    """A generator that continues ``gen``'s stream from where it stands."""
    bit_gen = np.random.Philox(key=0)
    bit_gen.state = gen.bit_generator.state
    return np.random.Generator(bit_gen)


def _row_streams(seed: int, path, T: int, N: int):
    """One row's randomness, in the order it is drawn from its substream.

    Returns four generators, each standing at the start of one block: the
    (T, N) ``z_move`` and ``log_u`` blocks, then the length-T ``z_mu`` and
    ``chi2`` series.  Each block is replayed chunk by chunk (consecutive
    draws continue one stream).
    """
    gen = substream(seed, *path)
    z_gen = _fork(gen)
    gen.standard_normal((T, N))  # skip past the z_move block ...
    u_gen = _fork(gen)
    gen.random((T, N))  # ... the log_u block ...
    mu_gen = _fork(gen)
    gen.standard_normal(T)  # ... and the z_mu series
    return z_gen, u_gen, mu_gen, gen


def _sample_hier_logit_rows(problems, budget: SamplerBudget, seed: int):
    """Metropolis-within-Gibbs for any number of hierarchical logit problems.

    A problem is (model, data, init LaplaceApprox, rng_path).  All must share
    N and the hyperpriors; that and every problem's data are checked before
    any loop runs.  Returns an iterator over one (PosteriorDraws, Diagnostics)
    pair per problem, in order, from the fewest balanced loops under
    LOOP_DRAW_BYTES.
    """
    problems = list(problems)
    if not problems:
        return iter(())
    model = problems[0][0]
    for m, d, _, _ in problems:
        if (m.N, m.mu_mean, m.mu_var, m.nu, m.s2) != (
                model.N, model.mu_mean, model.mu_var, model.nu, model.s2):
            raise ValidationError("batched problems must share N and the hyperpriors")
        m.validate_data(d)
    per_loop = max(1, LOOP_DRAW_BYTES // (budget.chains * budget.draws_per_chain * model.p * 8))
    loops = -(-len(problems) // per_loop)
    bounds = [k * len(problems) // loops for k in range(loops + 1)]
    return itertools.chain.from_iterable(
        _sample_loop(problems[lo:hi], budget, seed) for lo, hi in zip(bounds, bounds[1:]))


def _sample_loop(problems, budget: SamplerBudget, seed: int):
    """One sampler loop: each problem's C chains are rows of one state array
    with their own counts, trial sizes, start, step scales and substream
    (seed, *rng_path, "chain", c).  Every update is elementwise per row, so
    each problem's draws are those of sampling it alone."""
    models, datas, inits, paths = zip(*problems)
    model = models[0]
    N, p, C, D = model.N, model.p, budget.chains, budget.draws_per_chain
    T = budget.warmup + D
    R = len(problems) * C
    y = np.repeat([d.y for d in datas], C, axis=0).astype(float)
    t = np.repeat([d.trial_sizes for d in datas], C, axis=0).astype(float)

    starts = [_initial_states(m, init, C, seed, path)
              for m, init, path in zip(models, inits, paths)]
    beta_mu_tau = np.concatenate([s for s, _ in starts])
    scales = np.concatenate([sc for _, sc in starts])
    beta = beta_mu_tau[:, :N].copy()
    mu = beta_mu_tau[:, N].copy()
    tau2 = np.maximum(beta_mu_tau[:, N + 1], 1e-8)

    df = model.nu + N
    streams = [_row_streams(seed, (*path, "chain", c), T, N)
               for path in paths for c in range(C)]
    z_move = np.empty((R, min(REPLAY_CHUNK, T), N))
    log_u = np.empty_like(z_move)
    z_mu = np.empty(z_move.shape[:2])
    chi2 = np.empty_like(z_mu)

    sp_beta = softplus(beta)
    out = np.empty((R, D, p))
    batch_acc = np.zeros((R, N))
    accept_total = np.zeros((R, N))
    scales_warm = scales.copy()
    warmup = budget.warmup
    nu_s2 = model.nu * model.s2
    inv_mu_var = 1.0 / model.mu_var
    prior_mean_term = model.mu_mean * inv_mu_var

    for it in range(T):
        j = it % REPLAY_CHUNK
        if j == 0:
            L = min(REPLAY_CHUNK, T - it)
            for r, (z_gen, u_gen, mu_gen, chi_gen) in enumerate(streams):
                z_gen.standard_normal(out=z_move[r, :L])
                u_gen.random(out=log_u[r, :L])
                mu_gen.standard_normal(out=z_mu[r, :L])
                chi2[r, :L] = chi_gen.chisquare(df, L)
            np.log(log_u[:, :L], out=log_u[:, :L])
        prop = beta + scales * z_move[:, j]
        sp_prop = softplus(prop)
        dlp = (
            y * (prop - beta)
            - t * (sp_prop - sp_beta)
            - ((prop - mu[:, None]) ** 2 - (beta - mu[:, None]) ** 2)
            / (2.0 * tau2[:, None])
        )
        acc = log_u[:, j] < dlp
        beta = np.where(acc, prop, beta)
        sp_beta = np.where(acc, sp_prop, sp_beta)
        if it < warmup:
            batch_acc += acc
            if (it + 1) % ADAPT_BATCH == 0:
                m = (it + 1) // ADAPT_BATCH
                delta = min(0.25, m ** -0.5)
                scales = scales * np.exp(
                    np.where(batch_acc / ADAPT_BATCH > TARGET_ACCEPT, delta, -delta)
                )
                batch_acc[:] = 0.0
            if it == warmup - 1:
                scales_warm = scales.copy()
        else:
            accept_total += acc
        v = 1.0 / (inv_mu_var + N / tau2)
        mu = v * (prior_mean_term + beta.sum(axis=1) / tau2) + np.sqrt(v) * z_mu[:, j]
        sse = ((beta - mu[:, None]) ** 2).sum(axis=1)
        tau2 = (nu_s2 + sse) / chi2[:, j]
        if it >= warmup:
            k = it - warmup
            out[:, k, :N] = beta
            out[:, k, N] = mu
            out[:, k, N + 1] = tau2

    for first in range(0, R, C):
        rows = slice(first, first + C)
        draws = PosteriorDraws(
            draws=out[rows].reshape(C * D, p),
            chain_ids=np.repeat(np.arange(C), D),
            warmup_discarded=warmup,
            seed=seed,
        )
        yield draws, compute_diagnostics(
            out[rows], accept_total[rows].mean(axis=0) / D, scales_warm[rows], scales[rows])


def sample_hier_logit(model: HierLogitModel, data: ObservationSet,
                      budget: SamplerBudget = SamplerBudget(),
                      seed: int = 0, rng_path=(),
                      init: Optional[LaplaceApprox] = None,
                      check: bool = True):
    """Adaptive Metropolis-within-Gibbs for the hierarchical logit posterior.

    Returns (PosteriorDraws, Diagnostics); with ``check=True`` raises
    NonConvergenceError (carrying the diagnostics) when any coordinate has
    rhat above RHAT_MAX or ESS below ESS_MIN -- callers may retry
    with a larger budget.
    """
    model.validate_data(data)
    if init is None:
        mode = find_posterior_mode(model, data, seed=seed)
        init = laplace_approx(model, data, mode)
    [(draws, diag)] = _sample_hier_logit_rows([(model, data, init, rng_path)], budget, seed)
    if check and not diag.ok():
        raise NonConvergenceError(
            f"sampler did not converge: max rhat {diag.max_rhat:.4f}, "
            f"min ess {diag.min_ess:.0f}",
            diagnostics=diag,
        )
    return draws, diag
