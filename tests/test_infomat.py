import numpy as np
import pytest

from paic import (
    ConjugateNormalModel,
    IllConditionedError,
    InfoMatrixPair,
    ModelDefinition,
    ObservationSet,
    closed_form_bias_estimators,
    compute_hess_info,
    compute_score_info,
    find_posterior_mode,
    info_matrix_pair,
    posterior_mode,
    trace_correction,
)
from paic.rng import substream


def test_hess_info_conjugate_closed_form():
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=1e4)
    data = ObservationSet(np.arange(10, dtype=float))
    J = compute_hess_info(m, data, [4.5])
    assert J[0, 0] == pytest.approx(1.00001, rel=1e-12)


def test_hess_info_flat_prior_exact():
    m = ConjugateNormalModel(2.0, tau02=None)
    data = ObservationSet(np.array([0.0, 1.0, 4.0]))
    J = compute_hess_info(m, data, [2.0])
    assert J[0, 0] == 0.5


def test_hess_info_hier_logit_pd_and_beta_dominant(hier_model, hier_data):
    mode = find_posterior_mode(hier_model, hier_data, seed=0)
    J = compute_hess_info(hier_model, hier_data, mode.theta_hat)
    assert np.all(np.linalg.eigvalsh(J) > 0)
    N = hier_model.N
    for i in range(N):
        off = np.sum(np.abs(J[i, :N])) - abs(J[i, i])
        assert abs(J[i, i]) > off


def test_score_info_conjugate_matches_formula():
    m = ConjugateNormalModel(1.3, mu0=0.4, tau02=2.0)
    data = ObservationSet(np.array([0.5, -1.0, 2.0, 0.3]))
    theta_hat = posterior_mode(m, data, [0.0]).theta_hat
    I = compute_score_info(m, data, theta_hat)
    mu = theta_hat[0]
    s = (m.mu0 - mu) / (data.n * m.tau02) + (data.y - mu) / m.sigma_A2
    assert I[0, 0] == pytest.approx(np.sum(s ** 2) / (data.n - 1), rel=1e-12)


def test_score_info_zero_at_mode_for_constant_data():
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(np.full(6, 3.7))
    I = compute_score_info(m, data, [3.7])
    assert I[0, 0] == pytest.approx(0.0, abs=1e-25)


def test_information_equality_when_well_specified():
    gen = substream(21, "info-equality")
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(gen.standard_normal(10_000))
    theta_hat = posterior_mode(m, data, [0.0]).theta_hat
    J = compute_hess_info(m, data, theta_hat)
    I = compute_score_info(m, data, theta_hat)
    assert abs(I[0, 0] - J[0, 0]) <= 0.1 * J[0, 0]


def test_trace_identity_when_equal(hier_model, hier_data):
    mode = find_posterior_mode(hier_model, hier_data, seed=0)
    J = compute_hess_info(hier_model, hier_data, mode.theta_hat)
    pair = InfoMatrixPair(J, J.copy(), mode.theta_hat, cond=1.0)
    tc = trace_correction(pair)
    assert tc.value == pytest.approx(hier_model.p, rel=1e-9)
    np.testing.assert_allclose(tc.eigenvalues, 1.0, rtol=1e-9)


def test_trace_conjugate_scalar_algebra():
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=5.0)
    data = ObservationSet(np.array([0.2, 1.4, -0.8, 0.9, 2.1]))
    from paic import conjugate_posterior

    mu_hat, s2 = conjugate_posterior(m, data)
    pair = info_matrix_pair(m, data, [mu_hat], "paic")
    tc = trace_correction(pair)
    assert pair.hess_info[0, 0] == pytest.approx(1.0 / (data.n * s2), rel=1e-12)
    assert tc.value == pytest.approx(
        data.n * s2 * pair.score_info[0, 0], rel=1e-12)


def test_trace_diagonal_example():
    pair = InfoMatrixPair(np.diag([2.0, 4.0]), np.eye(2), np.zeros(2), cond=2.0)
    assert trace_correction(pair).value == pytest.approx(0.75, rel=1e-12)


def test_trace_nonnegative(hier_model, hier_data):
    mode = find_posterior_mode(hier_model, hier_data, seed=0)
    pair = info_matrix_pair(hier_model, hier_data, mode.theta_hat, "paic")
    tc = trace_correction(pair)
    assert tc.value >= 0.0
    assert np.all(tc.eigenvalues >= -1e-12)


def test_trace_refuses_ill_conditioned():
    pair = InfoMatrixPair(np.diag([1.0, 1e-13]), np.eye(2), np.zeros(2),
                          cond=1e13)
    with pytest.raises(IllConditionedError):
        trace_correction(pair)


def test_generic_penalty_matches_closed_form_paic():
    gen = substream(22, "generic-vs-closed")
    for _ in range(20):
        n = int(gen.integers(5, 200))
        m = ConjugateNormalModel(float(gen.uniform(0.3, 3.0)),
                                 mu0=float(gen.normal()),
                                 tau02=float(gen.uniform(0.2, 100.0)))
        data = ObservationSet(gen.standard_normal(n))
        mode = posterior_mode(m, data, m.default_init(data))
        tr = trace_correction(info_matrix_pair(m, data, mode.theta_hat, "paic")).value
        cf = closed_form_bias_estimators(m, data)
        assert tr / n == pytest.approx(cf.paic, rel=1e-6)


def test_bpic_convention_scales_by_n_minus_1_over_n():
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=3.0)
    data = ObservationSet(np.array([0.1, 0.7, -0.9, 1.8, 0.2, -0.3]))
    theta = posterior_mode(m, data, [0.0]).theta_hat
    I_paic = info_matrix_pair(m, data, theta).score_info
    I_bpic = info_matrix_pair(m, data, theta, "bpic").score_info
    np.testing.assert_allclose(I_bpic, I_paic * (data.n - 1) / data.n, rtol=1e-14)


def test_prior_constant_invariance():
    # adding a constant to log pi changes neither matrix nor the trace
    from scipy.stats import norm

    def make(offset):
        return ModelDefinition(
            p=1,
            loglik_i_fn=lambda t, i, d: float(norm.logpdf(d.y[i], t[0], 1.0)),
            logprior_fn=lambda t: float(norm.logpdf(t[0], 0.0, 2.0)) + offset,
        )

    data = ObservationSet(np.array([0.5, -0.2, 1.1]))
    theta = np.array([0.4])
    J0 = compute_hess_info(make(0.0), data, theta)
    J1 = compute_hess_info(make(100.0), data, theta)
    I0 = compute_score_info(make(0.0), data, theta)
    I1 = compute_score_info(make(100.0), data, theta)
    # differencing noise scales with |f|, so the offset shows up at ~1e-6
    np.testing.assert_allclose(J0, J1, atol=2e-5)
    np.testing.assert_allclose(I0, I1, atol=1e-6)


def test_fd_fallback_matches_analytic(hier_model, hier_data):
    stripped = ModelDefinition(
        p=hier_model.p,
        loglik_i_fn=lambda t, i, d: hier_model.loglik_i(d, i, t),
        logprior_fn=hier_model.logprior,
        support_bounds=hier_model.support(),
    )
    mode = find_posterior_mode(hier_model, hier_data, seed=0)
    J_fd = compute_hess_info(stripped, hier_data, mode.theta_hat)
    J_an = compute_hess_info(hier_model, hier_data, mode.theta_hat)
    assert np.linalg.norm(J_fd - J_an) / np.linalg.norm(J_an) < 1e-5
    I_fd = compute_score_info(stripped, hier_data, mode.theta_hat)
    I_an = compute_score_info(hier_model, hier_data, mode.theta_hat)
    assert np.linalg.norm(I_fd - I_an) / np.linalg.norm(I_an) < 1e-5


def _spd(gen, p):
    X = gen.standard_normal((2 * p + 2, p))
    return X.T @ X / (2 * p + 2)


def test_trace_eigenvalues_match_scipy_generalized_eigh(hier_model, hier_data):
    from scipy.linalg import eigh

    gen = np.random.default_rng(17)
    for p in range(1, 18):
        for _ in range(5):
            J, I_mat = _spd(gen, p), _spd(gen, p)
            pair = InfoMatrixPair(J, I_mat, np.zeros(p), float(np.linalg.cond(J)))
            np.testing.assert_allclose(trace_correction(pair).eigenvalues,
                                       eigh(I_mat, J, eigvals_only=True), rtol=1e-12)
    # p = 17 > n = 15: the score Gram is rank-deficient, so two eigenvalues
    # are zero up to rounding of the largest
    mode = find_posterior_mode(hier_model, hier_data, seed=0)
    pair = info_matrix_pair(hier_model, hier_data, mode.theta_hat, "paic")
    ref = eigh(pair.score_info, pair.hess_info, eigvals_only=True)
    np.testing.assert_allclose(trace_correction(pair).eigenvalues, ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref)))
