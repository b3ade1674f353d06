import math

import numpy as np
import pytest
from scipy.special import expit as scipy_expit
from scipy.special import gammaln as scipy_gammaln
from scipy.stats import binom, invgamma, norm

from paic import (
    ConjugateNormalModel,
    HierLogitModel,
    ModelDefinition,
    ObservationSet,
    ValidationError,
    conjugate_posterior,
    loglik_total,
    logpost_unnorm,
)
from paic.models import (SOFTPLUS_BLOCK, _binom_loglik, _expit, _safe_logpost,
                         scaled_inv_chi2_logpdf, softplus)


def test_observation_set_validation():
    with pytest.raises(ValidationError):
        ObservationSet(np.array([1.0]))  # n >= 2
    with pytest.raises(ValidationError):
        ObservationSet(np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        ObservationSet(np.array([3.0, 7.5]), np.array([10, 10]))  # non-integer count
    with pytest.raises(ValidationError):
        ObservationSet(np.array([3.0, 11.0]), np.array([10, 10]))  # y > n_i
    data = ObservationSet(np.array([3.0, 7.0]), np.array([10, 10]))
    assert data.n == 2


@pytest.mark.parametrize("bad", [2.5, np.nan, np.inf, 1e30, 0, -3, 2 ** 63, 2.0 ** 63])
@pytest.mark.parametrize("build", [
    lambda t: ObservationSet(np.ones(3), t),
    lambda t: HierLogitModel(t),
], ids=["observation-set", "hier-logit-model"])
def test_trial_sizes_must_be_integers_in_range(build, bad):
    # a fraction is refused rather than cut to an integer
    with pytest.raises(ValidationError, match=r"integers in \[1, 2\*\*63\)"):
        build([2, 3, bad])
    for good in ([2, 3, 4], np.array([2, 3, 4], dtype=np.uint8), [2.0, 3.0, 4.0],
                 [2, 3, 2 ** 63 - 1]):
        t = build(good).trial_sizes
        assert t.dtype == np.int64 and t.tolist() == [int(v) for v in good]


def test_normal_loglik_standard_point():
    # standard normal density at 0 for one term
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(np.array([0.0, 5.0]))
    assert m.loglik_i(data, 0, [0.0]) == pytest.approx(-0.5 * math.log(2 * math.pi))
    assert m.loglik_i(data, 0, [0.0]) == pytest.approx(norm.logpdf(0.0), abs=1e-12)


def test_normal_loglik_total_two_symmetric_points():
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(np.array([1.0, -1.0]))
    assert loglik_total(m, data, [0.0]) == pytest.approx(-math.log(2 * math.pi) - 1.0)


def test_hier_loglik_half_probability():
    m = HierLogitModel(np.full(4, 50))
    data = ObservationSet(np.full(4, 25.0), np.full(4, 50))
    theta = np.concatenate([np.zeros(4), [0.0, 1.0]])
    expected = binom.logpmf(25, 50, 0.5)
    terms = m.loglik_terms(data, theta)
    np.testing.assert_allclose(terms, expected, rtol=1e-12)
    assert loglik_total(m, data, theta) == pytest.approx(4 * expected)


def test_logpost_flat_prior_equals_loglik():
    m = ConjugateNormalModel(2.0, tau02=None)
    data = ObservationSet(np.array([0.3, -1.2, 0.7]))
    for theta in ([0.0], [1.3], [-2.0]):
        assert logpost_unnorm(m, data, theta) == pytest.approx(
            loglik_total(m, data, theta))


def test_logpost_proper_prior_at_its_mean():
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=1.0)
    data = ObservationSet(np.array([0.5, -0.5]))
    expected = loglik_total(m, data, [0.0]) - 0.5 * math.log(2 * math.pi)
    assert logpost_unnorm(m, data, [0.0]) == pytest.approx(expected)


def test_logpost_hier_logit_closed_form_pieces():
    m = HierLogitModel(np.full(3, 50))
    data = ObservationSet(np.array([20.0, 25.0, 30.0]), np.full(3, 50))
    theta = np.concatenate([np.zeros(3), [0.0, 10.0]])
    expected = (
        binom.logpmf(data.y, 50, 0.5).sum()
        + 3 * norm.logpdf(0.0, 0.0, math.sqrt(10.0))
        + norm.logpdf(0.0, 0.0, 1000.0)
        + invgamma.logpdf(10.0, 0.05, scale=0.5)  # scaled-inv-chi2(0.1, 10)
    )
    assert logpost_unnorm(m, data, theta) == pytest.approx(expected, rel=1e-12)


def test_scaled_inv_chi2_matches_invgamma():
    # Inv-chi2(nu, s2) == InvGamma(nu/2, nu*s2/2)
    for x in (0.1, 1.0, 7.3):
        assert scaled_inv_chi2_logpdf(x, 0.1, 10.0) == pytest.approx(
            invgamma.logpdf(x, 0.05, scale=0.5), rel=1e-12)
        assert scaled_inv_chi2_logpdf(x, 3.0, 2.0) == pytest.approx(
            invgamma.logpdf(x, 1.5, scale=3.0), rel=1e-12)


def test_conjugate_posterior_flat():
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(np.array([1.0, 2.0, 3.0]))
    mu_hat, s2 = conjugate_posterior(m, data)
    assert mu_hat == pytest.approx(2.0)
    assert s2 == pytest.approx(1.0 / 3.0)


def test_conjugate_posterior_weak_prior():
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=1e4)
    data = ObservationSet(np.array([0.5, 1.5]))
    mu_hat, s2 = conjugate_posterior(m, data)
    assert mu_hat == pytest.approx(2.0 / 2.0001, rel=1e-12)
    assert s2 == pytest.approx(1.0 / 2.0001, rel=1e-12)


def test_conjugate_posterior_strong_prior_shrinks():
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=0.25)
    data = ObservationSet(np.array([4.0, 4.0]))
    mu_hat, s2 = conjugate_posterior(m, data)
    # precision 4 + 2, mean pulled toward the prior mean 0
    assert mu_hat == pytest.approx(8.0 / 6.0, rel=1e-12)
    assert s2 == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert abs(mu_hat) < 4.0


def test_posterior_variance_monotone():
    rng = np.random.default_rng(7)
    y10 = rng.standard_normal(10)
    y50 = np.concatenate([y10, rng.standard_normal(40)])
    m = ConjugateNormalModel(1.0, tau02=4.0)
    _, s2_small = conjugate_posterior(m, ObservationSet(y10))
    _, s2_big = conjugate_posterior(m, ObservationSet(y50))
    assert s2_big < s2_small
    m_tight = ConjugateNormalModel(1.0, tau02=0.5)
    _, s2_tight = conjugate_posterior(m_tight, ObservationSet(y10))
    assert s2_tight < s2_small


def test_posterior_mean_convex_combination():
    rng = np.random.default_rng(8)
    y = rng.standard_normal(20) + 3.0
    m = ConjugateNormalModel(2.0, mu0=-1.0, tau02=0.7)
    data = ObservationSet(y)
    mu_hat, _ = conjugate_posterior(m, data)
    w = (1.0 / m.tau02) / (1.0 / m.tau02 + data.n / m.sigma_A2)
    assert mu_hat == pytest.approx(w * m.mu0 + (1 - w) * np.mean(y), rel=1e-12)
    lo, hi = sorted([m.mu0, float(np.mean(y))])
    assert lo <= mu_hat <= hi


def test_normal_logpost_is_quadratic_with_mode_at_mu_hat():
    m = ConjugateNormalModel(1.3, mu0=0.4, tau02=0.9)
    data = ObservationSet(np.array([0.2, 1.1, -0.6, 2.2]))
    grid = np.linspace(-3, 3, 9)
    vals = np.array([logpost_unnorm(m, data, [t]) for t in grid])
    second = np.diff(vals, 2)
    np.testing.assert_allclose(second, second[0], rtol=1e-9)
    # argmax of the fitted parabola equals the conjugate posterior mean
    coeffs = np.polyfit(grid, vals, 2)
    mu_hat, _ = conjugate_posterior(m, data)
    assert -coeffs[1] / (2 * coeffs[0]) == pytest.approx(mu_hat, abs=1e-10)


def test_hier_loglik_group_permutation_invariant():
    trials = np.array([50, 30, 70, 40])
    m = HierLogitModel(trials)
    y = np.array([20.0, 11.0, 60.0, 5.0])
    beta = np.array([0.1, -0.5, 1.2, -1.8])
    theta = np.concatenate([beta, [0.2, 1.5]])
    base = loglik_total(m, ObservationSet(y, trials), theta)
    perm = np.array([2, 0, 3, 1])
    m2 = HierLogitModel(trials[perm])
    theta2 = np.concatenate([beta[perm], [0.2, 1.5]])
    permuted = loglik_total(m2, ObservationSet(y[perm], trials[perm]), theta2)
    assert permuted == pytest.approx(base, rel=1e-12)
    assert logpost_unnorm(m2, ObservationSet(y[perm], trials[perm]), theta2) == \
        pytest.approx(logpost_unnorm(m, ObservationSet(y, trials), theta), rel=1e-12)


def test_hier_support_and_validation():
    m = HierLogitModel(np.full(3, 10))
    assert not m.in_support(np.array([0.0, 0.0, 0.0, 0.0, -1.0]))
    assert m.in_support(np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValidationError):
        m.validate_data(ObservationSet(np.array([1.0, 2.0, 3.0])))
    with pytest.raises(ValidationError):
        m.validate_data(ObservationSet(np.array([1.0, 2.0]), np.array([10, 10])))


def test_model_definition_wraps_callables():
    # normal location model with unit variance via the programmatic interface
    def loglik_i(theta, i, data):
        return float(norm.logpdf(data.y[i], theta[0], 1.0))

    md = ModelDefinition(p=1, loglik_i_fn=loglik_i, logprior_fn=lambda t: 0.0,
                         prior_proper=False)
    data = ObservationSet(np.array([1.0, -1.0]))
    assert loglik_total(md, data, [0.0]) == pytest.approx(-math.log(2 * math.pi) - 1.0)
    assert not md.has_analytic_derivatives


def test_loglik_total_reports_offending_index():
    def loglik_i(theta, i, data):
        return float("nan") if i == 1 else 0.0

    md = ModelDefinition(p=1, loglik_i_fn=loglik_i, logprior_fn=lambda t: 0.0)
    data = ObservationSet(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(Exception, match="observation 1"):
        loglik_total(md, data, [0.0])


def test_single_point_forms_are_rows_of_matrix_forms(hier_model, hier_data):
    rng = np.random.default_rng(12)
    normal = ConjugateNormalModel(1.3, mu0=0.4, tau02=0.9)
    normal_data = ObservationSet(rng.standard_normal(7))
    cases = [(normal, normal_data, lambda: rng.normal(size=1)),
             (hier_model, hier_data, lambda: np.concatenate([
                 rng.normal(size=15), [rng.normal()], [np.exp(rng.normal())]]))]
    for m, data, draw in cases:
        for _ in range(5):
            theta = draw()
            row = theta[None, :]
            lik = m.loglik_matrix(data, row)[0]
            np.testing.assert_array_equal(m.loglik_terms(data, theta), lik)
            np.testing.assert_array_equal(
                [m.loglik_i(data, i, theta) for i in range(data.n)], lik)
            np.testing.assert_array_equal(m.logprior(theta), m.logprior_draws(row)[0])
            S = m.score_matrix(data, theta)
            for i in range(data.n):
                np.testing.assert_array_equal(m.term_grad(data, i, theta), S[i])


def test_hier_logprior_minus_inf_off_support():
    import warnings

    m = HierLogitModel(np.full(3, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau2 in (0.0, -1.0):
            assert m.logprior(np.array([0.1, -0.2, 0.3, 0.0, tau2])) == -np.inf
        lp = m.logprior_draws(np.array([[0.1, -0.2, 0.3, 0.0, -1.0],
                                        [0.1, -0.2, 0.3, 0.0, 1.0]]))
    assert lp[0] == -np.inf and np.isfinite(lp[1])


def _hier_draws(S, N, seed, stride=1):
    """S x (N + 2) draws with tau2 > 0; with stride > 1, a column-sliced view."""
    gen = np.random.default_rng(seed)
    wide = gen.normal(0.0, 2.0, (S, stride * (N + 2)))
    draws = wide[:, ::stride]
    draws[:, N + 1] = np.abs(draws[:, N + 1]) + 0.05
    return draws


@pytest.mark.parametrize("stride", [1, 3])
def test_hier_scoring_forms_equal_their_textbook_expressions(stride):
    # the in-place buffers keep every operand and its order: equal to the bit
    N = 15
    m = HierLogitModel(np.full(N, 50))
    data = ObservationSet(np.random.default_rng(1).integers(0, 51, N).astype(float),
                          np.full(N, 50))
    draws = _hier_draws(2000, N, 2, stride)
    assert draws.flags.c_contiguous == (stride == 1)
    B, mu, tau2 = draws[:, :N], draws[:, N], draws[:, N + 1]
    np.testing.assert_array_equal(
        m.loglik_matrix(data, draws),
        _binom_loglik(m.trial_sizes.astype(float), data.y, B, softplus(B)))
    d = B - mu[:, None]
    lp = -0.5 * N * (math.log(2.0 * math.pi) + np.log(tau2)) - 0.5 * np.sum(d * d, axis=1) / tau2
    lp += -0.5 * (math.log(2.0 * math.pi) + math.log(m.mu_var)) - (mu - m.mu_mean) ** 2 / (
        2.0 * m.mu_var)
    lp += scaled_inv_chi2_logpdf(tau2, m.nu, m.s2)
    np.testing.assert_array_equal(m.logprior_draws(draws), lp)


def test_hier_pointwise_loglik_memory_stays_small():
    # the S x N result and one S x N buffer for the softplus term; the
    # expression with a temporary per operation peaked at about 3 S N doubles
    import tracemalloc

    from paic import PosteriorDraws, pointwise_loglik

    S, N = 15000, 15
    m = HierLogitModel(np.full(N, 50))
    data = ObservationSet(np.arange(N, dtype=float), np.full(N, 50))
    draws = PosteriorDraws(_hier_draws(S, N, 3), np.zeros(S, dtype=int), 0, 0)
    tracemalloc.start()
    try:
        pointwise_loglik(m, data, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * S * N * 8


def test_expit_within_two_ulp_of_scipy():
    import warnings

    gen = np.random.default_rng(20)
    x = np.concatenate([np.linspace(-800.0, 800.0, 16001),
                        3.0 * gen.standard_normal(10 ** 6)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _expit(x)
    ref = scipy_expit(x)
    assert np.all(np.abs(got - ref) <= 2.0 * np.spacing(ref))
    assert _expit(-800.0) == 0.0 and _expit(800.0) == 1.0



def test_softplus_within_two_ulp_of_logaddexp():
    # ulp of the reference's magnitude, eps |ref|: just below a power of two
    # the vector exp's last bit lands in the binade above, so counted in
    # representable doubles the gap reaches 3 there
    import warnings

    gen = np.random.default_rng(20)
    x = np.concatenate([np.linspace(-800.0, 800.0, 16001),
                        5.0 * gen.standard_normal(10 ** 6)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = softplus(x)
    ref = np.logaddexp(0.0, x)
    assert np.all(np.abs(got - ref) <= 2.0 * np.finfo(float).eps * ref)


def test_softplus_limits_and_scalars():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = softplus(np.array([np.inf, -np.inf, np.nan, 800.0, -800.0]))
        np.testing.assert_array_equal(got, [np.inf, 0.0, np.nan, 800.0, 0.0])
        assert isinstance(softplus(0.5), np.float64) and softplus(0.0) == math.log(2.0)
        out = np.empty(())
        assert softplus(np.array(0.5), out=out) is out and out[()] == softplus(0.5)


@pytest.mark.parametrize("offset", range(17))
def test_softplus_does_not_depend_on_position(offset):
    # an element gets the same bits alone or anywhere in an array, in any
    # layout, written to a fresh result or to a contiguous or strided out
    v = 6.0 * np.random.default_rng(21).standard_normal(16 + 270)
    single = np.array([softplus(v[i:i + 1])[0] for i in range(v.size)])
    assert all(softplus(v[i]) == single[i] for i in range(offset, offset + 20))
    for length in (1, 2, 3, 7, 8, 9, 15, 16, 17, 33, 270):
        x, want = v[offset:offset + length], single[offset:offset + length]
        strided = np.zeros(3 * length)
        strided[::3] = x
        wide = np.zeros((length, 4))
        wide[:, 1], wide[:, 2] = x, x[::-1]
        for arr, expected in ((x.copy(), want), (strided[::3], want),
                              (wide[:, 1:3], np.stack([want, want[::-1]], axis=1))):
            np.testing.assert_array_equal(softplus(arr), expected)
            for out in (np.full(arr.shape, np.nan), np.full(arr.shape + (2,), np.nan)[..., 1]):
                assert softplus(arr, out=out) is out
                np.testing.assert_array_equal(out, expected)


def test_softplus_blocks_give_the_bits_of_one_pass():
    # above SOFTPLUS_BLOCK elements the positive part is added block by block
    draws = 6.0 * np.random.default_rng(22).standard_normal((2000, 17))
    B = draws[:, :15]
    assert B.size > SOFTPLUS_BLOCK and not B.flags.c_contiguous
    np.testing.assert_array_equal(softplus(B), np.array([softplus(row) for row in B]))


def test_binom_log_coefficient_matches_gammaln_form():
    n = np.arange(1.0, 5002.0)
    for y in (np.zeros_like(n), np.ones_like(n), np.floor(n / 3), np.floor(n / 2),
              n - 1.0, n):
        got = _binom_loglik(n, y, 0.0, 0.0)
        ref = scipy_gammaln(n + 1.0) - scipy_gammaln(y + 1.0) - scipy_gammaln(n - y + 1.0)
        # at y = 1 or n - 1 the coefficient log(n) is a small difference of
        # terms of size gammaln(n + 1), so allow a few roundings of those
        atol = 8.0 * np.finfo(float).eps * scipy_gammaln(n + 1.0)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref) + atol)


def test_safe_logpost_tiny_tau2_is_minus_inf_without_warning():
    import warnings

    m = HierLogitModel(np.full(15, 50))
    data = ObservationSet(np.full(15, 10.0), m.trial_sizes)
    theta = np.zeros(m.p)
    theta[-1] = 1e-310
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _safe_logpost(m, data, theta) == -np.inf


@pytest.mark.parametrize("given", ["analytic_grad", "analytic_hess"])
def test_model_definition_refuses_a_lone_analytic_derivative(given):
    # with one derivative alone both would quietly be finite differences
    with pytest.raises(ValidationError, match="must be given together"):
        ModelDefinition(p=1, loglik_i_fn=lambda t, i, d: 0.0, logprior_fn=lambda t: 0.0,
                        **{given: lambda t, i, d: np.zeros(1)})


def test_model_definition_refuses_support_bounds_of_another_length():
    with pytest.raises(ValidationError, match="needs 2 \\(lo, hi\\) pairs"):
        ModelDefinition(p=2, loglik_i_fn=lambda t, i, d: 0.0, logprior_fn=lambda t: 0.0,
                        support_bounds=[(0.0, np.inf)])
