import math

import numpy as np
import pytest
from scipy.stats import norm

from paic import (
    ConjugateNormalModel,
    HierLogitModel,
    ImproperPriorError,
    LaplaceApprox,
    ObservationSet,
    PointwiseLogLik,
    PosteriorDraws,
    SamplerBudget,
    UnsupportedModelError,
    ValidationError,
    bpic,
    closed_form_bias_estimators,
    closed_form_insample_loglik,
    conjugate_posterior,
    dic,
    find_posterior_mode,
    info_matrix_pair,
    laplace_approx,
    logpost_unnorm,
    loo_exact,
    mean_insample_loglik,
    paic,
    pointwise_loglik,
    popt_closed_form,
    posterior_mode,
    sample_conjugate_normal,
    sample_hier_logit,
    trace_correction,
    waic2,
)
from paic import mcmc
from paic.criteria import MIN_DRAWS, _gh_mean_softplus
from paic.infomat import InfoMatrixPair
from paic.mcmc import _sample_hier_logit_rows
from paic.models import _binom_loglik
from paic.rng import substream

from conftest import assert_decomposition


def draws_from(matrix, seed=0):
    matrix = np.asarray(matrix, dtype=float)
    return PosteriorDraws(matrix, np.zeros(matrix.shape[0], dtype=int), 0, seed)


@pytest.fixture(scope="module")
def normal_setup():
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=1e4)
    y = substream(50, "criteria-data").normal(0.0, 1.0, 50)
    data = ObservationSet(y)
    mode = posterior_mode(m, data, m.default_init(data))
    draws = sample_conjugate_normal(m, data, 200_000, seed=123)
    return m, data, mode, draws


def test_pointwise_single_draw_is_loglik_row(normal_setup):
    m, data, mode, _ = normal_setup
    single = draws_from(mode.theta_hat.reshape(1, 1))
    pw = pointwise_loglik(m, data, single)
    np.testing.assert_allclose(pw.values[0], m.loglik_terms(data, mode.theta_hat),
                               rtol=1e-14)


def test_pointwise_column_means_match_analytic(normal_setup):
    m, data, _, draws = normal_setup
    pw = pointwise_loglik(m, data, draws)
    mu_hat, s2 = conjugate_posterior(m, data)
    expected = (-0.5 * math.log(2 * math.pi * m.sigma_A2)
                - ((data.y - mu_hat) ** 2 + s2) / (2 * m.sigma_A2))
    se = pw.values.std(axis=0, ddof=1) / math.sqrt(pw.S)
    assert np.all(np.abs(pw.column_means() - expected) <= 3 * se)


def test_pointwise_permutation_invariant(normal_setup):
    m, data, _, draws = normal_setup
    pw = pointwise_loglik(m, data, draws)
    perm = substream(1, "perm").permutation(draws.S)
    pw2 = PointwiseLogLik(pw.values[perm])
    np.testing.assert_allclose(pw.column_means(), pw2.column_means(), rtol=1e-12)


def test_paic_penalty_matches_closed_form(normal_setup):
    m, data, mode, draws = normal_setup
    pw = pointwise_loglik(m, data, draws)
    pair = info_matrix_pair(m, data, mode.theta_hat, "paic")
    report = paic(pw, pair)
    cf = closed_form_bias_estimators(m, data)
    assert report.penalty / data.n == pytest.approx(cf.paic, rel=1e-6)
    assert_decomposition(report)


def test_paic_identity_penalty_is_p(hier_model, hier_data):
    from paic import find_posterior_mode, compute_hess_info

    mode = find_posterior_mode(hier_model, hier_data, seed=0)
    J = compute_hess_info(hier_model, hier_data, mode.theta_hat)
    pair = InfoMatrixPair(J, J.copy(), mode.theta_hat, cond=1.0)
    pw = PointwiseLogLik(np.zeros((2000, hier_data.n)))
    report = paic(pw, pair)
    assert report.penalty == pytest.approx(hier_model.p, rel=1e-9)


def test_degenerate_prior_contract():
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(substream(2, "flat").normal(0, 1, 30))
    mode = posterior_mode(m, data, m.default_init(data))
    draws = sample_conjugate_normal(m, data, 5000, seed=3)
    pw = pointwise_loglik(m, data, draws)
    pair = info_matrix_pair(m, data, mode.theta_hat, "paic")
    report = paic(pw, pair)
    assert np.isfinite(report.value)
    with pytest.raises(ImproperPriorError, match="degenerate prior"):
        bpic(m, data, draws, mode, pair)


def test_bpic_closed_form_and_ratio(normal_setup):
    m, data, mode, draws = normal_setup
    pair = info_matrix_pair(m, data, mode.theta_hat)
    report = bpic(m, data, draws, mode, pair)
    assert_decomposition(report)
    cf = closed_form_bias_estimators(m, data)
    # deterministic trace part equals the closed-form value exactly
    tr = trace_correction(pair).value * (data.n - 1) / data.n
    assert tr / data.n == pytest.approx(cf.bpic, rel=1e-6)
    assert cf.bpic / cf.paic == pytest.approx((data.n - 1) / data.n, rel=1e-10)
    # full bias estimate (draw-averaged prior term) agrees within MC error:
    # eta_bpic = -value / (2n); bias = eta_hat - eta_bpic
    pw = pointwise_loglik(m, data, draws)
    eta_hat = mean_insample_loglik(pw)
    b_generic = eta_hat - (-report.value / (2 * data.n))
    lp = pw.values.sum(axis=1) + m.logprior_draws(draws.draws)
    se = lp.std(ddof=1) / math.sqrt(draws.S) / data.n
    assert abs(b_generic - cf.bpic) <= 5 * se + 1e-9


@pytest.mark.parametrize("case", ["normal", "hier"])
def test_bpic_takes_the_paic_pair(case, normal_setup, hier_model, hier_data):
    if case == "normal":
        m, data, mode, draws = normal_setup
    else:
        m, data = hier_model, hier_data
        mode = find_posterior_mode(m, data, seed=0)
        draws = draws_from(mode.theta_hat * np.linspace(0.9, 1.1, 1000)[:, None])
    pair = info_matrix_pair(m, data, mode.theta_hat)
    report = bpic(m, data, draws, mode, pair)
    tr = trace_correction(pair).value
    e_logprior = float(np.mean(m.logprior_draws(draws.draws)))
    assert report.penalty == pytest.approx(
        e_logprior + (data.n - 1) / data.n * tr + 0.5 * m.p, rel=1e-13)
    # the fit term is the mode's own log posterior, to the last bit
    assert report.fit_term == logpost_unnorm(m, data, mode.theta_hat)


def test_paic_and_bpic_reject_the_bpic_view(normal_setup):
    m, data, mode, draws = normal_setup
    view = info_matrix_pair(m, data, mode.theta_hat, "bpic")
    assert view.score_denominator == "n"
    with pytest.raises(ValidationError, match=r"1/\(n-1\)"):
        paic(PointwiseLogLik(np.zeros((MIN_DRAWS, data.n))), view)
    with pytest.raises(ValidationError, match=r"1/\(n-1\)"):
        bpic(m, data, draws, mode, view)


def test_waic2_identical_draws_zero_penalty(normal_setup):
    m, data, mode, _ = normal_setup
    rep = draws_from(np.tile(mode.theta_hat, (1500, 1)))
    pw = pointwise_loglik(m, data, rep)
    report = waic2(pw)
    assert report.penalty == pytest.approx(0.0, abs=1e-20)
    assert report.value == pytest.approx(
        -2 * np.sum(m.loglik_terms(data, mode.theta_hat)), rel=1e-12)
    assert_decomposition(report)


def test_waic2_penalty_matches_closed_form(normal_setup):
    m, data, _, draws = normal_setup
    pw = pointwise_loglik(m, data, draws)
    report = waic2(pw)
    mu_hat, s2 = conjugate_posterior(m, data)
    expected = (s2 / m.sigma_A2 ** 2) * (data.n * s2 / 2
                                         + np.sum((data.y - mu_hat) ** 2))
    # block-wise standard error of the total-variance penalty
    K = 20
    blocks = pw.values.reshape(K, -1, pw.n)
    block_pen = np.array([np.sum(b.var(axis=0, ddof=1)) for b in blocks])
    se = block_pen.std(ddof=1) / math.sqrt(K)
    assert abs(report.penalty - expected) <= 3 * se


def test_waic2_single_column_penalty():
    col = substream(4, "waic-single").normal(-1.0, 0.3, 5000).reshape(-1, 1)
    report = waic2(PointwiseLogLik(col))
    assert report.penalty == pytest.approx(float(col.var(ddof=1)), rel=1e-12)


def test_loo_exact_conjugate_matches_closed_form(normal_setup):
    m, data, mode, draws = normal_setup
    report = loo_exact(m, data)
    assert report.penalty == 0.0
    assert_decomposition(report)
    cf = closed_form_bias_estimators(m, data)
    eta_hat = closed_form_insample_loglik(m, data)
    b_cv = eta_hat - report.fit_term / data.n
    assert b_cv == pytest.approx(cf.cv, rel=1e-10)


def test_loo_two_identical_observations_symmetric():
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(np.array([1.3, 1.3]))
    report = loo_exact(m, data)
    from paic.criteria import _loo_terms_normal

    terms = _loo_terms_normal(m, data)
    assert terms[0] == pytest.approx(terms[1], rel=1e-14)
    assert report.value == pytest.approx(-2 * terms.sum(), rel=1e-14)


def test_loo_guard_on_large_n():
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(np.zeros(1001) + substream(5, "big").normal(0, 1, 1001))
    with pytest.raises(ValidationError, match="n <= 1000"):
        loo_exact(m, data)


def test_loo_hier_logit_completes(hier_model, hier_data):
    import time

    t0 = time.perf_counter()
    report = loo_exact(hier_model, hier_data, SamplerBudget(2, 600, 300), seed=0,
                       rng_path=("t",))
    elapsed = time.perf_counter() - t0
    assert np.isfinite(report.value)
    assert report.n == 15
    assert elapsed < 120.0
    assert_decomposition(report)


def test_loo_flagged_folds_carried_as_indices(hier_model, hier_data):
    # 100 draws per fold cannot reach ESS 400, so every fold is flagged
    report = loo_exact(hier_model, hier_data, SamplerBudget(2, 50, 50), seed=0,
                       rng_path=("t",))
    assert report.flagged_folds == tuple(range(15))
    assert report.warnings == ("15 fold(s) failed convergence diagnostics",)


def test_popt_closed_form_values():
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(substream(6, "popt").normal(0, 1, 11))
    report = popt_closed_form(m, data)
    assert report.penalty / data.n == pytest.approx(0.1, rel=1e-12)
    assert_decomposition(report)

    m2 = ConjugateNormalModel(1.0, mu0=0.0, tau02=0.25)
    data2 = ObservationSet(substream(7, "popt2").normal(0, 1, 5))
    report2 = popt_closed_form(m2, data2)
    assert report2.penalty / data2.n == pytest.approx(0.125, rel=1e-12)


def test_popt_rejects_other_models(hier_model, hier_data):
    with pytest.raises(UnsupportedModelError):
        popt_closed_form(hier_model, hier_data)


def test_dic_point_mass_zero_penalty(normal_setup):
    m, data, mode, _ = normal_setup
    rep = draws_from(np.tile(mode.theta_hat, (1200, 1)))
    report = dic(m, data, rep)
    assert report.penalty == pytest.approx(0.0, abs=1e-10)
    assert_decomposition(report)


def test_dic_effective_dimension_near_one():
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=1e4)
    data = ObservationSet(substream(8, "dic").normal(0, 1, 100))
    draws = sample_conjugate_normal(m, data, 100_000, seed=9)
    report = dic(m, data, draws)
    assert abs(report.penalty - 1.0) <= 0.1
    assert_decomposition(report)


def test_dic_hier_logit_finite(hier_model, hier_data):
    from paic import find_posterior_mode, laplace_approx, sample_hier_logit

    mode = find_posterior_mode(hier_model, hier_data, seed=0)
    lap = laplace_approx(hier_model, hier_data, mode)
    draws, _ = sample_hier_logit(hier_model, hier_data, SamplerBudget(2, 1500, 800),
                                 seed=10, init=lap, check=False)
    report = dic(hier_model, hier_data, draws)
    assert np.isfinite(report.value)
    assert_decomposition(report)


def test_closed_form_ratio_holds_for_random_configs():
    gen = substream(11, "ratio")
    for _ in range(50):
        n = int(gen.integers(5, 300))
        tau02 = None if gen.random() < 0.25 else float(gen.uniform(0.2, 1e4))
        m = ConjugateNormalModel(float(gen.uniform(0.25, 2.25)),
                                 mu0=float(gen.normal()), tau02=tau02)
        data = ObservationSet(gen.normal(0, 1, n))
        cf = closed_form_bias_estimators(m, data)
        assert cf.bpic / cf.paic == pytest.approx((n - 1) / n, rel=1e-10)


def test_closed_form_zero_scores():
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(np.full(9, 2.5))
    cf = closed_form_bias_estimators(m, data)
    assert cf.paic == 0.0
    assert cf.bpic == 0.0


def test_closed_form_paic_concentrates_near_true_bias():
    gen = substream(12, "concentration")
    n = 50
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=1e4)
    _, s2 = conjugate_posterior(m, ObservationSet(np.zeros(n) + 1.0))
    b_true = s2  # sigma_T2 * s2 / sigma_A2^2 with unit variances
    hits = 0
    for _ in range(1000):
        data = ObservationSet(gen.normal(0, 1, n))
        cf = closed_form_bias_estimators(m, data)
        hits += 0.5 * b_true <= cf.paic <= 2.0 * b_true
    assert hits >= 980


def test_insample_fit_beats_loo_fit_on_average():
    # in-sample optimism: eta_hat >= LOO estimate in expectation
    gen = substream(13, "optimism")
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=10.0)
    diffs = []
    for _ in range(500):
        data = ObservationSet(gen.normal(0, 1, 20))
        eta_hat = closed_form_insample_loglik(m, data)
        cf = closed_form_bias_estimators(m, data)
        diffs.append(cf.cv)  # = eta_hat - eta_loo
    assert np.mean(diffs) > 0


def test_min_draws_enforced(normal_setup):
    m, data, mode, _ = normal_setup
    small = sample_conjugate_normal(m, data, 100, seed=14)
    pw = pointwise_loglik(m, data, small)
    pair = info_matrix_pair(m, data, mode.theta_hat, "paic")
    with pytest.raises(ValidationError, match="at least"):
        paic(pw, pair)
    report = paic(pw, pair, min_draws=100)
    assert np.isfinite(report.value)


def test_pointwise_names_offending_entry():
    from paic import ModelDefinition, NumericalError

    def loglik_i(theta, i, data):
        return float("nan") if i == 1 else -0.5

    md = ModelDefinition(p=1, loglik_i_fn=loglik_i, logprior_fn=lambda t: 0.0)
    data = ObservationSet(np.array([0.0, 1.0, 2.0]))
    draws = draws_from(np.zeros((3, 1)))
    with pytest.raises(NumericalError, match=r"draw 0, observation 1"):
        pointwise_loglik(md, data, draws)


def test_report_seed_passthrough(normal_setup):
    m, data, mode, draws = normal_setup
    pw = pointwise_loglik(m, data, draws)
    pair = info_matrix_pair(m, data, mode.theta_hat, "paic")
    report = paic(pw, pair)
    assert report.S == draws.S
    assert report.n == data.n


@pytest.mark.parametrize("rule", ["1e4", "1e4_over_n", "0.25", "flat"])
def test_closed_form_cv_is_insample_minus_exact_loo(rule):
    from paic.experiments import resolve_tau02

    y = substream(21, "cv-identity", rule).normal(0.4, 1.3, 40)
    data = ObservationSet(y)
    m = ConjugateNormalModel(2.25, mu0=0.0, tau02=resolve_tau02(rule, data.n))
    cv = closed_form_bias_estimators(m, data).cv
    assert cv == closed_form_insample_loglik(m, data) - loo_exact(m, data).fit_term / data.n


@pytest.mark.parametrize("tau02", [1e4, 0.25, None])
def test_closed_form_insample_matches_gauss_hermite(tau02):
    y = substream(22, "gh-insample").normal(-0.3, 1.1, 30)
    data = ObservationSet(y)
    m = ConjugateNormalModel(1.5, mu0=0.2, tau02=tau02)
    mu_hat, s2 = conjugate_posterior(m, data)
    nodes, weights = np.polynomial.hermite.hermgauss(4)
    mus = mu_hat + math.sqrt(2.0 * s2) * nodes
    gh = float(np.mean(weights @ m.loglik_matrix(data, mus))) / math.sqrt(math.pi)
    assert closed_form_insample_loglik(m, data) == pytest.approx(gh, rel=1e-12)


@pytest.mark.parametrize("folds_per_group", [1, 4, 15])
def test_loo_fold_groups_equal_one_call_per_fold(hier_model, hier_data, monkeypatch,
                                                  folds_per_group):
    # T = 1343 is not a multiple of the replay chunk; at 4 folds per group the
    # 15 folds run as balanced loops of 3, 4, 4, 4; about half of the folds
    # are flagged
    budget = SamplerBudget(2, 1200, 143)
    fold_bytes = budget.chains * budget.draws_per_chain * (hier_model.p - 1) * 8
    monkeypatch.setattr(mcmc, "LOOP_DRAW_BYTES", folds_per_group * fold_bytes)
    loops, sample_loop = [], mcmc._sample_loop

    def counted_loop(problems, *args):
        loops.append(len(problems))
        return sample_loop(problems, *args)

    monkeypatch.setattr(mcmc, "_sample_loop", counted_loop)
    path = ("t", 5)
    report = loo_exact(hier_model, hier_data, budget, seed=1, rng_path=path)
    assert loops == {1: [1] * 15, 4: [3, 4, 4, 4], 15: [15]}[folds_per_group]

    terms, flagged = [], []
    for i in range(hier_model.N):
        keep = np.arange(hier_model.N) != i
        sub_model = hier_model.drop_group(i)
        sub_data = ObservationSet(hier_data.y[keep], hier_data.trial_sizes[keep])
        mode = find_posterior_mode(sub_model, sub_data, seed=1)
        draws, diag = sample_hier_logit(
            sub_model, sub_data, budget, seed=1, rng_path=(*path, "loo-fold", i),
            init=laplace_approx(sub_model, sub_data, mode), check=False)
        if not diag.ok():
            flagged.append(i)
        mu_d = draws.draws[:, sub_model.N]
        sd_d = np.sqrt(draws.draws[:, sub_model.N + 1])
        terms.append(_binom_loglik(float(hier_data.trial_sizes[i]), float(hier_data.y[i]),
                                   float(np.mean(mu_d)),
                                   float(np.mean(_gh_mean_softplus(mu_d, sd_d)))))
    assert report.fit_term == float(np.sum(terms))
    assert report.flagged_folds == tuple(flagged)
    assert 0 < len(flagged) < hier_model.N


@pytest.mark.parametrize("other", [
    HierLogitModel(np.full(14, 50)),
    HierLogitModel(np.full(15, 50), nu=0.2),
    HierLogitModel(np.full(15, 50), mu_var=4.0),
])
def test_batched_sampler_rejects_mixed_problems(hier_model, hier_data, monkeypatch, other):
    def problem(model, c):
        data = ObservationSet(hier_data.y[:model.N], hier_data.trial_sizes[:model.N])
        lap = LaplaceApprox(model.default_init(data), np.eye(model.p))
        return model, data, lap, ("mixed", c)

    # under the second cap each loop holds one problem, so the mismatched one
    # would be sampled only in the second loop, yet the call itself raises
    for cap in (mcmc.LOOP_DRAW_BYTES, 20 * hier_model.p * 8):
        monkeypatch.setattr(mcmc, "LOOP_DRAW_BYTES", cap)
        with pytest.raises(ValidationError, match="share N and the hyperpriors"):
            _sample_hier_logit_rows([problem(hier_model, 0), problem(other, 1)],
                                    SamplerBudget(1, 20, 10), seed=0)


def test_loo_exact_hier_logit_needs_three_groups(monkeypatch):
    import paic.criteria

    def no_refit(*args, **kwargs):
        raise AssertionError("a fold was refitted")

    monkeypatch.setattr(paic.criteria, "find_posterior_mode", no_refit)
    monkeypatch.setattr(paic.criteria, "_sample_hier_logit_rows", no_refit)
    model = HierLogitModel(np.array([10, 10]))
    data = ObservationSet(np.array([3.0, 7.0]), np.array([10, 10]))
    with pytest.raises(ValidationError, match="needs at least 3 groups, got 2"):
        loo_exact(model, data, SamplerBudget(1, 20, 10), seed=0)
