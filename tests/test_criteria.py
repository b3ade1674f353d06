import linecache
import math
import sys

import numpy as np
import pytest
from scipy.stats import norm

from paic import (
    ConjugateNormalModel,
    GridBorderError,
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
from paic import criteria
from paic.criteria import MIN_DRAWS, draw_summary, normal_summary
from paic.infomat import InfoMatrixPair
from paic.rng import substream

from conftest import assert_decomposition, criterion_4_data, laplace_fit


def draws_from(matrix, seed=0):
    matrix = np.asarray(matrix, dtype=float)
    return PosteriorDraws(matrix, np.zeros(matrix.shape[0], dtype=int), 0, seed)


def bpic_of_draws(model, data, draws, mode, pair):
    """bpic with the draw average of log pi, as paic compute takes it."""
    return bpic(model, data, mode, pair, draw_summary(model, data, draws))


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
        bpic_of_draws(m, data, draws, mode, pair)


def test_bpic_closed_form_and_ratio(normal_setup):
    m, data, mode, draws = normal_setup
    pair = info_matrix_pair(m, data, mode.theta_hat)
    report = bpic_of_draws(m, data, draws, mode, pair)
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
    report = bpic_of_draws(m, data, draws, mode, pair)
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
        bpic_of_draws(m, data, draws, mode, view)


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


@pytest.mark.parametrize("extra", [-1, 0, 1, "many"])
@pytest.mark.parametrize("sliced", [False, True])
def test_column_vars_equal_numpy_var_to_the_bit(extra, sliced):
    # waic2's penalty is the sum of numpy's column variances, bit for bit, at
    # draw counts about MIN_DRAWS and at 15000; a column slice of a wider
    # matrix is not contiguous
    n = 15
    S = 15000 if extra == "many" else criteria.MIN_DRAWS + extra
    wide = substream(6, "column-vars").normal(-40.0, 3.0, (S, 3 * n))
    values = wide[:, n:2 * n] if sliced else np.ascontiguousarray(wide[:, :n])
    assert values.flags.c_contiguous != sliced
    var = values.var(axis=0, ddof=1)
    np.testing.assert_array_equal(PointwiseLogLik(values).column_vars(), var)
    assert waic2(PointwiseLogLik(values)).penalty == float(np.sum(var))


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


def test_loo_guard_on_large_n(monkeypatch):
    # LOO_MAX_N guards the hierarchical logit's grid, before it is built
    def no_grid(*args, **kwargs):
        raise AssertionError("the LOO grid was built")

    monkeypatch.setattr(criteria, "_hyper_grid", no_grid)
    n_i = np.full(criteria.LOO_MAX_N + 1, 20)
    model = HierLogitModel(n_i)
    data = ObservationSet(substream(5, "big").binomial(n_i, 0.4).astype(float), n_i)
    lap = LaplaceApprox(model.default_init(data), np.eye(model.p))
    for build in (loo_exact, criteria.grid_summary):
        with pytest.raises(ValidationError, match="n <= 1000"):
            build(model, data, lap)


def test_loo_hier_logit_completes(hier_model, hier_data):
    import time

    t0 = time.perf_counter()
    report = loo_exact(hier_model, hier_data, laplace_fit(hier_model, hier_data, seed=0))
    elapsed = time.perf_counter() - t0
    assert np.isfinite(report.value)
    assert report.n == 15
    assert (report.S, report.notes) == (0, "quadrature fold posteriors")
    assert elapsed < 120.0
    assert_decomposition(report)


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
    report = dic(m, data, draw_summary(m, data, rep))
    assert report.penalty == pytest.approx(0.0, abs=1e-10)
    assert_decomposition(report)


def test_dic_effective_dimension_near_one():
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=1e4)
    data = ObservationSet(substream(8, "dic").normal(0, 1, 100))
    draws = sample_conjugate_normal(m, data, 100_000, seed=9)
    report = dic(m, data, draw_summary(m, data, draws))
    assert abs(report.penalty - 1.0) <= 0.1
    assert_decomposition(report)


def test_dic_hier_logit_finite(hier_model, hier_data):
    from paic import find_posterior_mode, laplace_approx, sample_hier_logit

    mode = find_posterior_mode(hier_model, hier_data, seed=0)
    lap = laplace_approx(hier_model, hier_data, mode)
    draws, _ = sample_hier_logit(hier_model, hier_data, SamplerBudget(2, 1500, 800),
                                 seed=10, init=lap, check=False)
    report = dic(hier_model, hier_data, draw_summary(hier_model, hier_data, draws))
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


@pytest.mark.parametrize("rep", [5, 19, 25, "near-equal"])
def test_loo_grid_matches_a_fine_reference(rep, monkeypatch):
    # against a 241 x 241 grid (0.1 Laplace sd apart, +-12 sd), both with
    # 32-node group integrals: within 1e-3 (measured: 5e-7), a hundredth of
    # the Monte Carlo noise of a fold term from a 3 x 2000-draw refit.
    # Replication 25 has a group with 50 successes out of 50.
    model, data = criterion_4_data(rep)
    lap = laplace_fit(model, data, seed=1234)
    terms = criteria._loo_terms_hier_logit(data, criteria._hyper_grid(model, data, lap))
    monkeypatch.setattr(criteria, "LOO_GRID_STEP", 0.1)
    monkeypatch.setattr(criteria, "LOO_SPANS", (12.0,))
    reference = criteria._loo_terms_hier_logit(data, criteria._hyper_grid(model, data, lap))
    np.testing.assert_allclose(terms, reference, rtol=0, atol=1e-3)


def test_group_log_marginals_match_brute_force_integrals():
    # log of int Bin(y | n, expit(b)) N(b | mu, tau2) db against a trapezoid
    # rule with 1e-3 spacing, for counts at and near the ends of their range;
    # with them, the five conditional moments of b from the same nodes
    from scipy.stats import binom
    from scipy.special import expit

    data = ObservationSet(np.array([0.0, 3.0, 25.0, 49.0, 50.0]), np.array([50, 10, 50, 50, 50]))
    mu, tau2 = (g.ravel() for g in np.meshgrid([-6.0, 0.0, 0.5, 4.0], [1e-3, 0.05, 1.0, 4.0]))
    got, cond = criteria._group_integrals(data, mu, tau2, moments=True)
    np.testing.assert_array_equal(criteria._group_integrals(data, mu, tau2)[0], got)
    b = np.linspace(-40.0, 40.0, 80_001)
    for i in range(data.n):
        log_lik = binom.logpmf(data.y[i], data.trial_sizes[i], expit(b))
        for j in range(mu.size):
            log_f = log_lik + norm.logpdf(b, mu[j], math.sqrt(tau2[j]))
            top = log_f.max()
            f = np.exp(log_f - top)
            mass = np.trapezoid(f, b)
            assert got[i, j] == pytest.approx(top + math.log(mass), abs=1e-5)

            def mean(x):
                return np.trapezoid(f * x, b) / mass

            # log_lik is -inf where expit(b) rounds to 0 or 1; l_i is finite there
            lik = (data.y[i] * b - data.trial_sizes[i] * np.logaddexp(0.0, b)
                   + binom.logpmf(data.y[i], data.trial_sizes[i], 0.5)
                   + data.trial_sizes[i] * math.log(2.0))
            e_lik = mean(lik)
            expected = (mean(b), mean(np.logaddexp(0.0, b)), mean((b - mu[j]) ** 2), e_lik,
                        mean((lik - e_lik) ** 2))
            # tau2 = 4 holds the one-sided integrands (counts at 0 or n_i far
            # from mu) where 32 nodes lose digits: measured 8e-4 at 0 of 50
            # and mu = -6 (ROADMAP item 3); at most 2.5e-8 where tau2 <= 1
            rtol = 1e-6 if tau2[j] <= 1.0 else 2e-3
            np.testing.assert_allclose(cond[:, i, j], expected, rtol=rtol, atol=1e-8)


# counts at and near the ends of their range, mu from -6 to 4 and tau2 up to
# 1000: the one-sided integrands whose searches bisect
_EDGE_Y = np.array([0.0, 3.0, 25.0, 49.0, 50.0])
_EDGE_N = np.array([50, 10, 50, 50, 50])
_EDGE_MU, _EDGE_TAU2 = (g.ravel() for g in np.meshgrid(np.linspace(-6.0, 4.0, 21),
                                                       np.geomspace(1e-3, 1e3, 41)))


def test_conditional_modes_each_as_if_searched_alone():
    y, n = _EDGE_Y[:, None], _EDGE_N[:, None].astype(float)
    b, sd = criteria._conditional_modes(y, n, _EDGE_MU, _EDGE_TAU2)
    assert b.shape == sd.shape == (_EDGE_Y.size, _EDGE_MU.size)
    for i in range(_EDGE_Y.size):
        for j in range(_EDGE_MU.size):
            alone = criteria._conditional_modes(y[i], n[i], _EDGE_MU[j], _EDGE_TAU2[j])
            assert (alone[0][0], alone[1][0]) == (b[i, j], sd[i, j])
    # a batch that starts with the slowest searches settles each element the same
    order = np.argsort(-np.abs(b - _EDGE_MU), axis=None)
    flat = (np.broadcast_to(a, b.shape).ravel()[order] for a in (y, n, _EDGE_MU, _EDGE_TAU2))
    shuffled = criteria._conditional_modes(*flat)
    np.testing.assert_array_equal(shuffled[0], b.ravel()[order])
    np.testing.assert_array_equal(shuffled[1], sd.ravel()[order])


def test_conditional_modes_cases_reach_the_bisection(monkeypatch):
    # count the elements that the search's `np.where(bisect, ...)` line sends
    # to the bracket's midpoint, whatever other np.where calls there are
    bisected = []
    where = np.where

    def counting_where(cond, *args):
        caller = sys._getframe(1)
        if (caller.f_code is criteria._conditional_modes.__code__ and "bisect" in
                linecache.getline(caller.f_code.co_filename, caller.f_lineno)):
            bisected.append(np.count_nonzero(cond))
        return where(cond, *args)

    monkeypatch.setattr(criteria.np, "where", counting_where)
    criteria._conditional_modes(_EDGE_Y[:, None], _EDGE_N[:, None].astype(float),
                                _EDGE_MU, _EDGE_TAU2)
    assert bisected and sum(bisected) > 0


def test_group_integrals_once_per_distinct_count_pair(monkeypatch):
    # each row is a function of its own counts and grid point only: permuted
    # and duplicated groups, a group alone and any block size give its bits
    data = ObservationSet(_EDGE_Y, _EDGE_N)
    log_m, cond = criteria._group_integrals(data, _EDGE_MU, _EDGE_TAU2, moments=True)
    order = np.array([4, 0, 2, 0, 1, 3, 4, 2, 3, 3])
    got = criteria._group_integrals(ObservationSet(_EDGE_Y[order], _EDGE_N[order]),
                                    _EDGE_MU, _EDGE_TAU2, moments=True)
    np.testing.assert_array_equal(got[0], log_m[order])
    np.testing.assert_array_equal(got[1], cond[:, order])
    for i in range(data.n):
        twice = ObservationSet(_EDGE_Y[[i, i]], _EDGE_N[[i, i]])
        got = criteria._group_integrals(twice, _EDGE_MU, _EDGE_TAU2, moments=True)
        np.testing.assert_array_equal(got[0], log_m[[i, i]])
        np.testing.assert_array_equal(got[1], cond[:, [i, i]])
    # mode searches in blocks of 1, 2 and all count pairs
    for pairs in (1, 2, data.n):
        monkeypatch.setattr(criteria, "LOO_CHUNK_BYTES", pairs * _EDGE_MU.size * 8)
        got = criteria._group_integrals(data, _EDGE_MU, _EDGE_TAU2, moments=True)
        np.testing.assert_array_equal(got[0], log_m)
        np.testing.assert_array_equal(got[1], cond)


def test_group_integrals_hold_a_few_blocks_beyond_their_output():
    # 300 distinct count pairs on the 41 x 41 grid: the mode searches and the
    # nodes run in blocks, so beyond log_m the call holds a bounded number of
    # LOO_CHUNK_BYTES (measured: 34), not a multiple of the (N, G) output
    import tracemalloc

    rng = substream(9, "gi-peak")
    n = rng.permutation(np.arange(20, 320))
    data = ObservationSet(rng.binomial(n, 0.3).astype(float), n)
    k_mu, k_lam = np.indices((41, 41)).reshape(2, -1) - 20
    mu, tau2 = -0.8 + 0.06 * k_mu, np.exp(0.1 * k_lam)
    tracemalloc.start()
    try:
        log_m, _ = criteria._group_integrals(data, mu, tau2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log_m.shape == (300, mu.size)
    assert peak <= log_m.nbytes + 50 * criteria.LOO_CHUNK_BYTES


@pytest.mark.parametrize("count", ["none", "all"])
def test_loo_grid_refuses_mass_on_its_border(count):
    # with every count 0 (or every count n_i) only the N(0, 1000^2) prior
    # holds mu, and the widest grid still holds 8.8e-5 on its border
    model = HierLogitModel(np.full(15, 50))
    y = np.zeros(15) if count == "none" else model.trial_sizes.astype(float)
    data = ObservationSet(y, model.trial_sizes)
    with pytest.raises(GridBorderError) as err:
        loo_exact(model, data, laplace_fit(model, data, seed=0))
    assert err.value.border_mass > criteria.LOO_BORDER_MASS


@pytest.mark.parametrize("rep", [5, 25, "near-equal"])
def test_grid_summary_matches_a_fine_reference(rep, monkeypatch):
    # every expectation of the summary against a 121 x 121 grid (0.2 Laplace
    # sd apart, +-12 sd); its LOO report is loo_exact's, to the bit
    model, data = criterion_4_data(rep)
    lap = laplace_fit(model, data, seed=1234)
    summary = criteria.grid_summary(model, data, lap)
    assert summary.loo == loo_exact(model, data, lap)
    assert summary.S == 0 and summary.n == data.n
    # the grid keeps the points of its first square above the screen's floor
    mu, tau2, log_prior, _ = criteria._square(model, lap, criteria.LOO_SPANS[0])
    keep = criteria._screen(data, mu, tau2, log_prior)[0]
    assert summary.grid_points == np.count_nonzero(keep) < keep.size
    assert summary.grid_span == criteria.LOO_SPANS[0]
    assert summary.border_mass <= criteria.LOO_BORDER_MASS
    monkeypatch.setattr(criteria, "LOO_GRID_STEP", 0.2)
    monkeypatch.setattr(criteria, "LOO_SPANS", (12.0,))
    fine = criteria.grid_summary(model, data, lap)
    for name in ("loglik_means", "loglik_vars", "beta_means", "softplus_means", "e_logprior"):
        np.testing.assert_allclose(getattr(summary, name), getattr(fine, name),
                                   rtol=1e-6, atol=1e-6, err_msg=name)


# counts at 0 or n_i in most groups: grids wider than the first square
_WIDE_DATA = {"one-of-ten": ([0, 0, 1, 0, 10, 10, 9, 0, 1, 10], 10),
              "half-extreme": ([0, 0, 0, 50, 50, 50, 0, 50, 25, 10, 40, 0, 50, 3, 47], 50),
              "twelve-at-zero": ([0] * 12 + [1, 2, 3], 50)}
# many groups of few trials, beta_i ~ N(0, tau^2): (groups, n_i, tau); the
# Laplace errors of the group integrals add up over the groups
_MANY_DATA = {"fifty-at-2": (50, 2, 1.0), "two-hundred-at-10": (200, 10, 2.0),
              "thousand-at-10": (1000, 10, 2.0), "two-hundred-at-1": (200, 1, 1.0)}


def _counts(name):
    if name in _MANY_DATA:
        from paic.models import _expit

        groups, n, tau = _MANY_DATA[name]
        rng = substream(0, "many-groups")
        n_i = np.full(groups, n)
        y = rng.binomial(n_i, _expit(rng.normal(0.0, tau, groups)))
    else:
        y, n = _WIDE_DATA[name]
        n_i = np.full(len(y), n)
    return HierLogitModel(n_i), ObservationSet(np.array(y, dtype=float), n_i)


def _dropped_log_weight(full, keep):
    """The largest exact log weight, under the posterior or some fold, of the
    points of the full square ``full`` outside the mask ``keep``."""
    return max(full.log_w[~keep].max(initial=-np.inf),
               full.log_fold_w[:, ~keep].max(initial=-np.inf))


@pytest.mark.parametrize("case", [5, 19, 25, "near-equal", "one-of-ten", "half-extreme",
                                  "fifty-at-2", "two-hundred-at-10"])
def test_screened_grid_agrees_with_the_full_square(case, monkeypatch):
    # a floor of inf keeps every point of the square: the screen drops only
    # points whose exact weight is far below the rounding of the grid's sums,
    # and the kept points' integrals are the full square's to the bit
    model, data = criterion_4_data(case) if case in (5, 19, 25, "near-equal") else _counts(case)
    lap = laplace_fit(model, data, seed=1234)
    grid = criteria._hyper_grid(model, data, lap, moments=True)
    summary = criteria.grid_summary(model, data, lap)
    mu, tau2, log_prior, _ = criteria._square(model, lap, grid.span)
    keep = criteria._screen(data, mu, tau2, log_prior)[0]
    monkeypatch.setattr(criteria, "LOO_SCREEN_FLOOR", math.inf)
    full = criteria._hyper_grid(model, data, lap, moments=True)
    full_summary = criteria.grid_summary(model, data, lap)
    assert full.span == grid.span and full.mu.size == keep.size > grid.mu.size
    np.testing.assert_array_equal(grid.mu, full.mu[keep])
    np.testing.assert_array_equal(grid.tau2, full.tau2[keep])
    # relative to each field's largest magnitude: E[beta_i] of a group at the
    # centre of near-equal counts is 0 up to rounding
    pairs = [(getattr(summary, name), getattr(full_summary, name))
             for name in ("loglik_means", "loglik_vars", "beta_means", "softplus_means",
                          "theta_bar", "e_logprior", "e_loglik")]
    pairs.append((criteria._loo_terms_hier_logit(data, grid),
                  criteria._loo_terms_hier_logit(data, full)))
    for got, expected in pairs:
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
    log_m, cond = criteria._group_integrals(data, full.mu, full.tau2, moments=True)
    kept = criteria._group_integrals(data, grid.mu, grid.tau2, moments=True)
    np.testing.assert_array_equal(kept[0], log_m[:, keep])
    np.testing.assert_array_equal(kept[1], cond[:, :, keep])
    np.testing.assert_array_equal(grid.cond, kept[1])
    assert _dropped_log_weight(full, keep) < -30.0


def test_screened_grid_agrees_on_a_thousand_groups(monkeypatch):
    # 1000 groups of 10 trials on a 61 x 61 square, without the moments (a
    # (5, 1000, 3721) array): the exact LOO and the kept points' integrals
    model, data = _counts("thousand-at-10")
    lap = laplace_fit(model, data, seed=0)
    grid = criteria._hyper_grid(model, data, lap)
    mu, tau2, log_prior, _ = criteria._square(model, lap, grid.span)
    keep = criteria._screen(data, mu, tau2, log_prior)[0]
    monkeypatch.setattr(criteria, "LOO_SCREEN_FLOOR", math.inf)
    full = criteria._hyper_grid(model, data, lap)
    assert full.span == grid.span == criteria.LOO_SPANS[1]
    assert full.mu.size == keep.size > 5 * grid.mu.size
    expected = criteria._loo_terms_hier_logit(data, full)
    np.testing.assert_allclose(criteria._loo_terms_hier_logit(data, grid), expected,
                               rtol=0, atol=1e-12 * np.abs(expected).max())
    np.testing.assert_array_equal(criteria._group_integrals(data, grid.mu, grid.tau2)[0],
                                  criteria._group_integrals(data, full.mu, full.tau2)[0][:, keep])
    assert _dropped_log_weight(full, keep) < -30.0


@pytest.mark.parametrize("case", ["none", "all", "twelve-at-zero", "two-hundred-at-1"])
def test_screened_grid_refuses_what_the_full_square_refuses(case, monkeypatch):
    # every count 0, every count n_i, twelve of 15 groups at 0 of 50, and 200
    # groups of one trial: the widest square holds too much on its border,
    # screened or not
    if case in ("none", "all"):
        model = HierLogitModel(np.full(15, 50))
        y = np.zeros(15) if case == "none" else model.trial_sizes.astype(float)
        data = ObservationSet(y, model.trial_sizes)
    else:
        model, data = _counts(case)
    lap = laplace_fit(model, data, seed=0)
    masses = []
    for floor in (criteria.LOO_SCREEN_FLOOR, math.inf):
        monkeypatch.setattr(criteria, "LOO_SCREEN_FLOOR", floor)
        with pytest.raises(GridBorderError) as err:
            criteria.grid_summary(model, data, lap)
        masses.append(err.value.border_mass)
    assert masses[0] == pytest.approx(masses[1], rel=1e-6)
    assert masses[0] > criteria.LOO_BORDER_MASS


def test_screen_falls_back_to_the_full_square_where_it_falls_short(monkeypatch):
    # on the widest square of twelve-at-zero the Laplace log weights fall 15
    # nats short of the exact ones next to the points the screen drops, and one
    # of those holds e^-25: the grid takes every point of the square
    model, data = _counts("twelve-at-zero")
    lap = laplace_fit(model, data, seed=0)
    monkeypatch.setattr(criteria, "LOO_SPANS", (criteria.LOO_SPANS[-1],))
    monkeypatch.setattr(criteria, "LOO_BORDER_MASS", math.inf)
    full = criteria._hyper_grid(model, data, lap)
    mu, tau2, log_prior, _ = criteria._square(model, lap, full.span)
    keep = criteria._screen(data, mu, tau2, log_prior)[0]
    assert full.mu.size == keep.size > np.count_nonzero(keep)
    assert _dropped_log_weight(full, keep) > -30.0
    # with a margin wider than the shortfall, the screen's points stand
    monkeypatch.setattr(criteria, "LOO_SCREEN_MARGIN", 20.0)
    assert criteria._hyper_grid(model, data, lap).mu.size == np.count_nonzero(keep)


def test_screen_edge_is_the_kept_points_next_to_a_dropped_one():
    keep = np.zeros((5, 5), dtype=bool)
    keep[:3, 1:4] = True  # a 3 x 3 block on the square's first row
    edge = criteria._edge(keep.ravel()).reshape(5, 5)
    expected = keep.copy()
    expected[1, 2] = False  # the block's centre
    expected[0, 2] = False  # its neighbours are kept; outside the square does not count
    np.testing.assert_array_equal(edge, expected)


def test_criteria_read_the_grid_summary_as_draws(hier_model, hier_data):
    # paic and waic2 read the exact summary through the members they read of a
    # PointwiseLogLik, with no draw count to check; bpic takes its E[log pi]
    lap = laplace_fit(hier_model, hier_data)
    summary = criteria.grid_summary(hier_model, hier_data, lap)
    pair = info_matrix_pair(hier_model, hier_data, lap.mean)
    mode = find_posterior_mode(hier_model, hier_data, seed=0)
    reports = [paic(summary, pair), waic2(summary),
               bpic(hier_model, hier_data, mode, pair, summary)]
    fit = float(np.sum(summary.loglik_means))
    assert [r.S for r in reports] == [0, 0, 0]
    assert reports[0].fit_term == reports[1].fit_term == fit
    assert reports[0].penalty == trace_correction(pair).value
    assert reports[1].penalty == float(np.sum(summary.loglik_vars))
    tr = trace_correction(pair).value * (hier_data.n - 1) / hier_data.n
    assert reports[2].penalty == summary.e_logprior + tr + 0.5 * hier_model.p
    for r in reports:
        assert_decomposition(r)
    with pytest.raises(UnsupportedModelError):
        criteria.grid_summary(ConjugateNormalModel(1.0), ObservationSet(hier_data.y), lap)


def test_loo_exact_hier_logit_needs_its_fit(hier_model, hier_data):
    message = "the hierarchical-logit grid needs its Laplace fit"
    with pytest.raises(ValidationError, match=message):
        loo_exact(hier_model, hier_data)
    with pytest.raises(ValidationError, match=message):
        criteria.grid_summary(hier_model, hier_data, None)


def test_loo_exact_hier_logit_needs_three_groups(monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the LOO grid was built")

    monkeypatch.setattr(criteria, "_hyper_grid", no_grid)
    model = HierLogitModel(np.array([10, 10]))
    data = ObservationSet(np.array([3.0, 7.0]), np.array([10, 10]))
    with pytest.raises(ValidationError, match="needs at least 3 groups, got 2"):
        loo_exact(model, data, LaplaceApprox(model.default_init(data), np.eye(model.p)))


@pytest.mark.parametrize("tau02", [1e4, 0.25, None])
def test_normal_summary_is_the_closed_form(tau02):
    # paic's fit, waic2's penalty and dic's n s2 / sigma_A2 from the exact summary
    data = ObservationSet(substream(23, "normal-summary").normal(0.3, 1.2, 40))
    m = ConjugateNormalModel(1.7, mu0=0.1, tau02=tau02)
    summary = normal_summary(m, data)
    _, s2 = conjugate_posterior(m, data)
    mode = posterior_mode(m, data, m.default_init(data))
    pair = info_matrix_pair(m, data, mode.theta_hat)
    cf = closed_form_bias_estimators(m, data)
    n = data.n
    reports = [paic(summary, pair), waic2(summary), dic(m, data, summary)]
    assert [r.S for r in reports] == [0, 0, 0]
    assert reports[0].fit_term == pytest.approx(n * closed_form_insample_loglik(m, data), rel=1e-12)
    assert reports[1].penalty == pytest.approx(n * cf.waic2, rel=1e-12)
    assert reports[2].penalty == pytest.approx(n * s2 / m.sigma_A2, rel=1e-12)


@pytest.mark.parametrize("tau02", [1e4, 0.25])
def test_normal_summary_matches_the_sampler(tau02):
    # paic's fit, waic2's penalty, dic's penalty (its spread by the delta
    # method) and bpic's E[log pi] from the closed form lie within 4 Monte
    # Carlo standard errors of those of 200 000 exact draws
    data = ObservationSet(substream(24, "normal-summary-mc").normal(-0.2, 0.9, 30))
    m = ConjugateNormalModel(1.3, mu0=0.4, tau02=tau02)
    exact = normal_summary(m, data)
    draws = sample_conjugate_normal(m, data, 200_000, seed=25)
    sampled = draw_summary(m, data, draws)
    values = pointwise_loglik(m, data, draws).values
    rows = values.sum(axis=1)
    mu_hat, _ = conjugate_posterior(m, data)
    grad = float(np.sum(data.y - mu_hat)) / m.sigma_A2  # of sum_i l_i at theta_bar
    for got, want, series in (
            (waic2(sampled).fit_term, waic2(exact).fit_term, rows),
            (waic2(sampled).penalty, waic2(exact).penalty,
             ((values - values.mean(axis=0)) ** 2).sum(axis=1)),
            (dic(m, data, sampled).penalty, dic(m, data, exact).penalty,
             2.0 * (grad * draws.draws[:, 0] - rows)),
            (sampled.e_logprior, exact.e_logprior, m.logprior_draws(draws.draws))):
        assert abs(got - want) <= 4.0 * series.std(ddof=1) / math.sqrt(draws.S)
