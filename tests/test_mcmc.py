import numpy as np
import pytest

from paic import (
    ConjugateNormalModel,
    HierLogitModel,
    NonConvergenceError,
    ObservationSet,
    SamplerBudget,
    ValidationError,
    conjugate_posterior,
    ess,
    rhat,
    sample_conjugate_normal,
    sample_hier_logit,
)
from paic import info_matrix_pair, mcmc
from paic.criteria import (_gh_mean_softplus, _hyper_grid, _loo_terms_hier_logit,
                           grid_summary, paic, pointwise_loglik, waic2)
from paic.mcmc import (ADAPT_BATCH, NOISE_BLOCKS, REPLAY_CHUNK, TARGET_ACCEPT, _ess_kernel,
                        compute_diagnostics)
from paic.models import _binom_loglik, logpost_unnorm, softplus
from paic.rng import substream

from conftest import criterion_4_data, laplace_fit


def test_conjugate_sampler_moments():
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(np.array([1.0, 2.0, 3.0]))
    S = 100_000
    draws = sample_conjugate_normal(m, data, S, seed=1)
    mu_hat, s2 = conjugate_posterior(m, data)
    x = draws.draws[:, 0]
    assert abs(x.mean() - mu_hat) <= 3 * np.sqrt(s2 / S)
    # sampling variance of the sample variance of a normal: 2 sigma^4 / (S-1)
    assert abs(x.var(ddof=1) - s2) <= 3 * np.sqrt(2 * s2 ** 2 / (S - 1))


def test_conjugate_sampler_deterministic():
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=2.0)
    data = ObservationSet(np.array([0.4, -0.4, 1.0]))
    a = sample_conjugate_normal(m, data, 5000, seed=42)
    b = sample_conjugate_normal(m, data, 5000, seed=42)
    np.testing.assert_array_equal(a.draws, b.draws)
    c = sample_conjugate_normal(m, data, 5000, seed=43)
    assert not np.array_equal(a.draws, c.draws)


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: SamplerBudget(3, 100.0, 50), "draws_per_chain", id="draws-float"),
    pytest.param(lambda: SamplerBudget(True, 100, 50), "chains", id="chains-bool"),
    pytest.param(lambda: SamplerBudget(3, 100, np.float64(50)), "warmup", id="warmup-float64"),
    pytest.param(lambda: SamplerBudget(3, 100, False), "warmup", id="warmup-bool"),
    pytest.param(lambda: sample_conjugate_normal(ConjugateNormalModel(1.0), ObservationSet(
        np.array([0.5, 1.5])), 2.5, 1), "S", id="conjugate-S-float"),
    pytest.param(lambda: sample_conjugate_normal(ConjugateNormalModel(1.0), ObservationSet(
        np.array([0.5, 1.5])), True, 1), "S", id="conjugate-S-bool"),
])
def test_sampler_sizes_refuse_non_integers(build, message):
    with pytest.raises(ValidationError, match=f"{message} must be an integer"):
        build()


def test_sampler_sizes_accept_numpy_integers():
    assert SamplerBudget(np.int64(2), np.int32(60), np.int64(0)) == SamplerBudget(2, 60, 0)
    data = ObservationSet(np.array([0.5, 1.5]))
    assert sample_conjugate_normal(ConjugateNormalModel(1.0), data, np.int64(7), 1).S == 7


def test_hier_sampler_converges_and_respects_support(hier_model, hier_data):
    draws, diag = sample_hier_logit(hier_model, hier_data, SamplerBudget(3, 5000, 2000), seed=0,
                                    init=laplace_fit(hier_model, hier_data))
    assert diag.max_rhat <= 1.05
    assert diag.min_ess >= 400
    assert np.all(draws.draws[:, -1] > 0)
    assert draws.S == 15000
    assert np.all(np.isfinite(draws.draws))


def test_hier_sampler_deterministic(hier_model, hier_data):
    lap = laplace_fit(hier_model, hier_data, seed=9)
    a, _ = sample_hier_logit(hier_model, hier_data, SamplerBudget(2, 500, 300),
                             seed=9, init=lap, check=False)
    b, _ = sample_hier_logit(hier_model, hier_data, SamplerBudget(2, 500, 300),
                             seed=9, init=lap, check=False)
    np.testing.assert_array_equal(a.draws, b.draws)
    np.testing.assert_array_equal(a.chain_ids, b.chain_ids)


def test_hier_sampler_adaptation_frozen(hier_model, hier_data):
    _, diag = sample_hier_logit(hier_model, hier_data, SamplerBudget(2, 1500, 600),
                                seed=3, init=laplace_fit(hier_model, hier_data, seed=3),
                                check=False)
    np.testing.assert_array_equal(diag.step_scales_warmup_end,
                                  diag.step_scales_final)


def test_hier_sampler_degenerate_counts():
    model = HierLogitModel(np.full(8, 40))
    data = ObservationSet(np.zeros(8), np.full(8, 40))
    draws, diag = sample_hier_logit(model, data, SamplerBudget(3, 2000, 1000),
                                    seed=4, init=laplace_fit(model, data, seed=4), check=False)
    assert np.all(np.isfinite(draws.draws))
    assert np.all(draws.draws[:, -1] > 0)
    # every observed count is zero: the random-effect means sit well below 0
    assert draws.draws[:, :8].mean() < -2.0


def test_hier_sampler_gate_raises(hier_model, hier_data):
    with pytest.raises(NonConvergenceError) as exc:
        sample_hier_logit(hier_model, hier_data, SamplerBudget(2, 60, 30), seed=0,
                          init=laplace_fit(hier_model, hier_data))
    assert exc.value.diagnostics is not None


def test_substream_refuses_a_negative_seed():
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        substream(-1, "logit", 0)


@pytest.mark.parametrize("seed", [2.5, 2.0, np.float64(2.0), True, "2"])
def test_substream_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValidationError, match="seed must be an integer"):
        substream(seed, "a")


def test_substream_takes_numpy_integer_seeds():
    assert substream(np.int64(2), "a").random() == substream(2, "a").random()


def test_ess_iid():
    x = substream(5, "ess-iid").standard_normal(10_000)
    e = ess(x)
    assert 0.8 * 10_000 <= e <= 1.2 * 10_000


def test_ess_ar1():
    rho = 0.9
    gen = substream(6, "ess-ar1")
    n = 10_000
    x = np.empty(n)
    x[0] = gen.standard_normal()
    innov = gen.standard_normal(n) * np.sqrt(1 - rho ** 2)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + innov[t]
    target = n * (1 - rho) / (1 + rho)  # ~526
    e = ess(x)
    assert target / 1.5 <= e <= target * 1.5


def test_ess_constant_series():
    with pytest.warns(UserWarning):
        assert ess(np.ones(100)) == 0.0


def test_rhat_identical_chains():
    gen = substream(7, "rhat")
    x = gen.standard_normal(4000)
    ids = np.repeat([0, 1], 2000)
    assert rhat(x, ids) == pytest.approx(1.0, abs=0.02)


def test_rhat_separated_chains():
    gen = substream(8, "rhat-sep")
    x = np.concatenate([gen.standard_normal(1000), gen.standard_normal(1000) + 5.0])
    ids = np.repeat([0, 1], 1000)
    assert rhat(x, ids) > 1.1


def test_rhat_single_chain_split():
    x = substream(9, "rhat-single").standard_normal(4000)
    assert rhat(x, np.zeros(4000, dtype=int)) <= 1.02


def test_generic_rwm_agrees_with_exact_sampler():
    """Plain random-walk Metropolis on the same posterior (test harness only)."""
    m = ConjugateNormalModel(1.0, mu0=0.2, tau02=1.5)
    data = ObservationSet(np.array([0.6, -0.1, 1.3, 0.8, 0.0]))
    mu_hat, s2 = conjugate_posterior(m, data)

    gen = substream(10, "rwm")
    S, warm = 40_000, 2_000
    x = np.empty(S)
    cur = 0.0
    lp = logpost_unnorm(m, data, [cur])
    scale = 2.4 * np.sqrt(s2)
    for t in range(-warm, S):
        prop = cur + scale * gen.standard_normal()
        lp_prop = logpost_unnorm(m, data, [prop])
        if np.log(gen.random()) < lp_prop - lp:
            cur, lp = prop, lp_prop
        if t >= 0:
            x[t] = cur
    e = ess(x)
    exact = sample_conjugate_normal(m, data, 50_000, seed=11).draws[:, 0]
    se_mean = np.sqrt(s2 / e + s2 / exact.size)
    assert abs(x.mean() - exact.mean()) <= 3 * se_mean
    # variance standard error, conservative: 2 sigma^4 (1/ess_rwm + 1/S_exact)
    se_var = np.sqrt(2 * s2 ** 2 * (1 / e + 1 / exact.size))
    assert abs(x.var(ddof=1) - exact.var(ddof=1)) <= 3 * se_var


def _ar1_chains(seed, shape, phis):
    """(chains, n, p) array whose column k is an AR(1) series with phi_k."""
    gen = substream(seed, "ar1-chains")
    C, n, p = shape
    x = np.empty(shape)
    x[:, 0] = gen.standard_normal((C, p))
    innov = gen.standard_normal(shape) * np.sqrt(1 - np.asarray(phis) ** 2)
    for t in range(1, n):
        x[:, t] = np.asarray(phis) * x[:, t - 1] + innov[:, t]
    return x


def _ess_reference(x):
    """Initial monotone sequence ESS from direct autocovariance sums."""
    n = x.size
    d = x - x.mean()
    acov = np.correlate(d, d, "full")[n - 1:] / n
    rho = acov / acov[0]
    total, prev = 0.0, np.inf
    for m in range(n // 2):
        g = rho[2 * m] + rho[2 * m + 1]
        if g <= 0.0:
            break
        prev = min(prev, g)
        total += prev
    else:
        m = n // 2
    if m == 0:
        return float(n)
    return n / max(2.0 * total - 1.0, 1e-3)


def _rhat_reference(chains):
    """Split R-hat (BDA3) of a list of equal-length 1-D chains."""
    halves = []
    for ch in chains:
        L = ch.size // 2
        halves += [ch[:L], ch[L:2 * L]]
    L = halves[0].size
    W = np.mean([h.var(ddof=1) for h in halves])
    B = L * np.var([h.mean() for h in halves], ddof=1)
    return float(np.sqrt(((L - 1) / L * W + B / L) / W))


def test_compute_diagnostics_matches_single_series_functions():
    C, n, p = 3, 500, 4
    chains = _ar1_chains(12, (C, n, p), [0.0, 0.5, 0.9, -0.3])
    diag = compute_diagnostics(chains, np.zeros(1), np.zeros(1), np.zeros(1))
    ids = np.repeat(np.arange(C), n)
    for k in range(p):
        total = sum(ess(chains[c, :, k]) for c in range(C))
        np.testing.assert_allclose(diag.ess[k], min(total, C * n), rtol=1e-12)
        np.testing.assert_allclose(diag.rhat[k], rhat(chains[:, :, k].ravel(), ids),
                                   rtol=1e-12)
    # negative autocorrelation pushes the per-chain sum past S: the cap applies
    assert diag.ess[3] == C * n


def test_compute_diagnostics_ess_chain_by_chain_equals_one_kernel_call():
    # the main chains' shape: the chain-by-chain ESS must be bit-identical
    C, n, p = 3, 5000, 17
    chains = _ar1_chains(21, (C, n, p), np.linspace(-0.5, 0.95, p))
    diag = compute_diagnostics(chains, np.zeros(p), np.zeros(p), np.zeros(p))
    np.testing.assert_array_equal(diag.ess, np.minimum(_ess_kernel(chains).sum(0), C * n))


def test_compute_diagnostics_constant_coordinate():
    chains = _ar1_chains(13, (1, 200, 3), [0.3, 0.3, 0.3])
    chains[0, :, 1] = 3.0
    with pytest.warns(UserWarning, match="constant series"):
        diag = compute_diagnostics(chains, np.zeros(1), np.zeros(1), np.zeros(1))
    assert diag.ess[1] == 0.0
    assert diag.rhat[1] == 1.0
    for k in (0, 2):
        assert diag.ess[k] == pytest.approx(ess(chains[0, :, k]), rel=1e-12)
        assert diag.ess[k] > 0.0


def test_rhat_interleaved_chain_ids_equal_grouped():
    x = _ar1_chains(14, (2, 400, 1), [0.6])[:, :, 0]
    x[1] += 0.2
    grouped = rhat(x.ravel(), np.repeat([0, 1], 400))
    interleaved = rhat(x.T.ravel(), np.tile([0, 1], 400))
    assert interleaved == grouped


def test_odd_length_series_match_direct_references():
    x = _ar1_chains(15, (3, 1001, 1), [0.7])[:, :, 0]
    assert ess(x[0]) == pytest.approx(_ess_reference(x[0]), rel=1e-10)
    ids = np.repeat(np.arange(3), 1001)
    assert rhat(x.ravel(), ids) == pytest.approx(_rhat_reference(list(x)), rel=1e-12)


def test_ess_antithetic_series_hits_tau_floor():
    # lag-1 autocorrelation near -1: every pair sum is tiny, tau floors at 1e-3
    x = np.where(np.arange(501) % 2 == 0, 1.0, -1.0)
    x = x + 1e-3 * substream(16, "alternating").standard_normal(501)
    assert ess(x) == pytest.approx(501 / 1e-3, rel=1e-12)
    assert _ess_reference(x) == pytest.approx(501 / 1e-3, rel=1e-12)


def test_constant_series_with_inexact_mean():
    # the mean of 0.1s is not exactly 0.1, so the centred series is not zero
    x = np.full(100, 0.1)
    with pytest.warns(UserWarning, match="constant series"):
        assert ess(x) == 0.0
    assert rhat(x, np.zeros(100, dtype=int)) == 1.0
    with pytest.warns(UserWarning, match="constant series"):
        diag = compute_diagnostics(np.full((3, 100, 1), 0.1), np.zeros(3),
                                   np.zeros(1), np.zeros(1))
    assert diag.ess[0] == 0.0
    assert diag.rhat[0] == 1.0


def test_rhat_constant_halves_with_different_values():
    x = np.concatenate([np.full(50, 0.1), np.full(50, 0.7)])
    assert rhat(x, np.zeros(100, dtype=int)) == np.inf


# one chunk exactly, whole chunks only, and partial last chunks
@pytest.mark.parametrize("T", [REPLAY_CHUNK, 4 * REPLAY_CHUNK, 100, 549, 66, 67])
def test_chunked_replay_equals_whole_draws(T):
    # each noise block's refills continue its own substream chunk after chunk
    N, df = 15, 15.1
    path = ("replay", "chain", 1)
    draw = {
        "z_move": lambda gen, L: gen.standard_normal((L, N)),
        "log_u": lambda gen, L: np.log(gen.random((L, N))),
        "z_mu": lambda gen, L: gen.standard_normal(L),
        "chi2": lambda gen, L: gen.chisquare(df, L),
    }
    assert tuple(draw) == NOISE_BLOCKS
    sizes = [min(REPLAY_CHUNK, T - s) for s in range(0, T, REPLAY_CHUNK)]
    for block, take in draw.items():
        gen = substream(7, *path, block)
        chunked = np.concatenate([take(gen, L) for L in sizes])
        np.testing.assert_array_equal(chunked, take(substream(7, *path, block), T))


@pytest.mark.parametrize("before", range(6))
@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 9, 1003])
def test_skip_raw_equals_drawing_uniforms(before, count):
    # a log_u refill may start at any position inside a Philox output block:
    # a chunk of count uniforms takes count raw 64-bit outputs, so drawing it
    # continues the block's substream exactly as one whole draw does
    path = ("skip", "chain", 0, "log_u")
    whole, chunked, skipped = (substream(11, *path) for _ in range(3))
    for gen in (chunked, skipped):
        gen.random(before)
    expected = whole.random(before + count)
    np.testing.assert_array_equal(chunked.random(count), expected[before:])
    skipped.bit_generator.random_raw(count)
    z, u = whole.standard_normal(9), whole.random(5)
    for gen in (chunked, skipped):
        np.testing.assert_array_equal(gen.standard_normal(9), z)
        np.testing.assert_array_equal(gen.random(5), u)


def test_hier_draws_do_not_depend_on_the_replay_chunk(hier_model, hier_data, monkeypatch):
    budget = SamplerBudget(2, 60, 40)
    T = budget.warmup + budget.draws_per_chain
    lap = laplace_fit(hier_model, hier_data, seed=4)
    reference, _ = sample_hier_logit(hier_model, hier_data, budget, seed=4, init=lap, check=False)
    for chunk in (1, 7, 64, T + 1):
        monkeypatch.setattr(mcmc, "REPLAY_CHUNK", chunk)
        draws, _ = sample_hier_logit(hier_model, hier_data, budget, seed=4, init=lap,
                                     check=False)
        np.testing.assert_array_equal(draws.draws, reference.draws)



def _reference_loop(model, data, init, budget, seed):
    """The sampler loop with a fresh array per operation and np.where, as it
    was first written; returns the (C, D, p) draws, the (C, N) post-warmup
    acceptance counts and the step scales at the end of warmup and at the end."""
    N, p, C, D = model.N, model.p, budget.chains, budget.draws_per_chain
    T = budget.warmup + D
    y = np.tile(data.y, (C, 1)).astype(float)
    t = np.tile(data.trial_sizes, (C, 1)).astype(float)
    beta_mu_tau, scales = mcmc._initial_states(model, init, C, seed)
    beta = beta_mu_tau[:, :N].copy()
    mu = beta_mu_tau[:, N].copy()
    tau2 = np.maximum(beta_mu_tau[:, N + 1], 1e-8)
    df = model.nu + N
    streams = [[substream(seed, "chain", c, block) for block in NOISE_BLOCKS]
               for c in range(C)]
    z_move = np.empty((C, min(REPLAY_CHUNK, T), N))
    log_u = np.empty_like(z_move)
    z_mu = np.empty(z_move.shape[:2])
    chi2 = np.empty_like(z_mu)
    sp_beta = softplus(beta)
    out = np.empty((C, D, p))
    batch_acc = np.zeros((C, N))
    accept_total = np.zeros((C, N))
    scales_warm = scales.copy()
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
        if it < budget.warmup:
            batch_acc += acc
            if (it + 1) % ADAPT_BATCH == 0:
                delta = min(0.25, ((it + 1) // ADAPT_BATCH) ** -0.5)
                scales = scales * np.exp(
                    np.where(batch_acc / ADAPT_BATCH > TARGET_ACCEPT, delta, -delta))
                batch_acc[:] = 0.0
            if it == budget.warmup - 1:
                scales_warm = scales.copy()
        else:
            accept_total += acc
        inv_mu_var = 1.0 / model.mu_var
        v = 1.0 / (inv_mu_var + N / tau2)
        mu = v * (model.mu_mean * inv_mu_var + beta.sum(axis=1) / tau2) + np.sqrt(v) * z_mu[:, j]
        sse = ((beta - mu[:, None]) ** 2).sum(axis=1)
        tau2 = (model.nu * model.s2 + sse) / chi2[:, j]
        if it >= budget.warmup:
            k = it - budget.warmup
            out[:, k, :N] = beta
            out[:, k, N] = mu
            out[:, k, N + 1] = tau2
    return out, accept_total, scales_warm, scales


def test_sampler_step_is_the_reference_chain(hier_model, hier_data):
    # warmup 130 + 70 draws crosses two adaptation batches, the end of
    # warmup and three replay refills; three datasets, one with other trial
    # sizes
    sizes = np.arange(20, 80, 4)
    problems = [(hier_model, hier_data), criterion_4_data(1)]
    problems.append((HierLogitModel(sizes),
                     ObservationSet(np.floor(0.3 * sizes) + np.arange(15) % 3, sizes)))
    budget = SamplerBudget(2, 70, 130)
    assert budget.warmup % ADAPT_BATCH and budget.warmup > 2 * REPLAY_CHUNK
    C, D = budget.chains, budget.draws_per_chain
    for k, (model, data) in enumerate(problems):
        lap = laplace_fit(model, data)
        out, accepted, scales_warm, scales = _reference_loop(model, data, lap, budget, seed=21 + k)
        draws, diag = sample_hier_logit(model, data, budget, seed=21 + k, init=lap, check=False)
        np.testing.assert_array_equal(draws.draws, out.reshape(C * D, -1))
        np.testing.assert_array_equal(diag.accept_rate, accepted.mean(axis=0) / D)
        np.testing.assert_array_equal(diag.step_scales_warmup_end, scales_warm)
        np.testing.assert_array_equal(diag.step_scales_final, scales)


# -- the nested-quadrature oracle ------------------------------------------


def _mc_se(series, chains):
    """Monte Carlo standard error of the mean of a draw series, from the ESS
    summed over its chains."""
    ess = _ess_kernel(series.reshape(chains, -1, 1)).sum()
    return series.std(ddof=1) / np.sqrt(ess)


@pytest.mark.parametrize("rep", [1, 3, 5, "near-equal"])
def test_hier_sampler_means_match_the_quadrature_oracle(rep):
    # posterior means of mu and tau2 from 3 x 20000 draws lie within 4 Monte
    # Carlo standard errors (ESS-based) of the grid's; replication 5 has
    # tau2 near 2.2 and a group at 1 of 50, the near-equal counts put tau2
    # against its hyperprior near 0.  So do the grid summary's theta_bar,
    # dic's plug-in point, in every coordinate, and the numbers paic, waic2
    # and bpic take from the summary: paic's fit, waic2's penalty and E[log pi]
    model, data = criterion_4_data(rep)
    lap = laplace_fit(model, data, seed=1234)
    grid = _hyper_grid(model, data, lap)
    C = 3
    draws, diag = sample_hier_logit(model, data, SamplerBudget(C, 20000, 2000), seed=1,
                                    init=laplace_fit(model, data, seed=1))
    w = np.exp(grid.log_w)
    for k, oracle in ((model.N, w @ grid.mu), (model.N + 1, w @ grid.tau2)):
        x = draws.draws[:, k]
        assert abs(x.mean() - oracle) <= 4.0 * x.std(ddof=1) / np.sqrt(diag.ess[k])

    summary = grid_summary(model, data, lap)
    x = draws.draws
    assert np.all(np.abs(x.mean(axis=0) - summary.theta_bar)
                  <= 4.0 * x.std(axis=0, ddof=1) / np.sqrt(diag.ess))
    pair = info_matrix_pair(model, data, lap.mean)
    pw = pointwise_loglik(model, data, draws)
    logprior = model.logprior_draws(draws.draws)
    sampled = (paic(pw, pair).fit_term, waic2(pw).penalty, float(np.mean(logprior)))
    exact = (paic(summary, pair).fit_term, waic2(summary).penalty, summary.e_logprior)
    # waic2's penalty is the mean of sum_i (l_i - mean_i)^2 times S / (S - 1)
    series = (pw.values.sum(axis=1), ((pw.values - pw.column_means()) ** 2).sum(axis=1), logprior)
    for got, want, x in zip(sampled, exact, series):
        assert abs(got - want) <= 4.0 * _mc_se(x, C)


def test_hier_sampler_fold_sum_matches_the_quadrature_oracle():
    # replication 5: the 15 leave-one-group-out terms from sampled fold
    # posteriors (3 x 10000 draws each), summed, lie within 4 Monte Carlo
    # standard errors of the grid's sum; fold i samples with seed 1 + i, so the
    # folds' streams are independent
    model, data = criterion_4_data(5)
    C, D = 3, 10000
    total = var = 0.0
    for i in range(model.N):
        keep = np.arange(model.N) != i
        fold = HierLogitModel(model.trial_sizes[keep])
        fold_data = ObservationSet(data.y[keep], data.trial_sizes[keep])
        draws, _ = sample_hier_logit(fold, fold_data, SamplerBudget(C, D, 2000), seed=1 + i,
                                     init=laplace_fit(fold, fold_data, seed=1 + i))
        mu = draws.draws[:, fold.N]
        mean_sp = _gh_mean_softplus(mu, np.sqrt(draws.draws[:, fold.N + 1]))
        n_i, y_i = float(data.trial_sizes[i]), data.y[i]
        total += _binom_loglik(n_i, y_i, mu.mean(), mean_sp.mean())
        t = y_i * mu - n_i * mean_sp
        var += t.var(ddof=1) / _ess_kernel(t.reshape(C, D, 1)).sum()
    lap = laplace_fit(model, data, seed=1234)
    grid = float(np.sum(_loo_terms_hier_logit(data, _hyper_grid(model, data, lap))))
    assert abs(total - grid) <= 4.0 * np.sqrt(var)
