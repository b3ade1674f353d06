import numpy as np
import pytest
from scipy.special import expit

from paic import (
    ConjugateNormalModel,
    HierLogitModel,
    ModelDefinition,
    NumericalError,
    ObservationSet,
    check_gradient,
    grad_fd,
    hess_fd,
)


def term_fn(model, data, i):
    return lambda th: model.loglik_i(data, i, th) + model.logprior(th) / data.n


def test_grad_quadratic():
    g = grad_fd(lambda t: t[0] ** 2, np.array([3.0]))
    assert g[0] == pytest.approx(6.0, abs=1e-6)


def test_grad_normal_score():
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(np.array([1.0, 0.0]))
    g = grad_fd(lambda th: m.loglik_i(data, 0, th), np.array([0.3]))
    assert g[0] == pytest.approx(0.7, abs=1e-7)  # (y - theta)/sigma_A2


def test_grad_matches_hier_logit_analytic_score():
    m = HierLogitModel(np.full(5, 50))
    rng = np.random.default_rng(3)
    y = rng.binomial(50, expit(rng.standard_normal(5)))
    data = ObservationSet(y.astype(float), np.full(5, 50))
    for _ in range(10):
        theta = np.concatenate([rng.standard_normal(5), [0.3, np.exp(rng.normal(0, 0.3))]])
        i = int(rng.integers(5))
        ga = m.term_grad(data, i, theta)
        gf = grad_fd(term_fn(m, data, i), theta)
        denom = max(1.0, np.max(np.abs(ga)))
        assert np.max(np.abs(ga - gf)) / denom < 1e-5


def test_grad_linear_exact():
    c = np.array([2.0, -3.0, 0.5])
    g = grad_fd(lambda t: float(c @ t), np.array([0.3, 0.7, -1.1]))
    np.testing.assert_allclose(g, c, rtol=1e-10)


def test_hess_quadratic_form():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    H = hess_fd(lambda t: 0.5 * float(t @ A @ t), np.array([0.4, -0.2]))
    np.testing.assert_allclose(H, A, atol=1e-4)


def test_hess_normal_term_constant():
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=1e4)
    data = ObservationSet(np.arange(10, dtype=float))
    H = hess_fd(term_fn(m, data, 4), np.array([0.8]))
    assert H[0, 0] == pytest.approx(-1.0 - 1.0 / (10 * 1e4), abs=1e-5)


def test_hess_hier_logit_beta_block():
    m = HierLogitModel(np.full(4, 50))
    data = ObservationSet(np.full(4, 25.0), np.full(4, 50))
    theta = np.concatenate([np.zeros(4), [0.0, 2.0]])
    H = hess_fd(term_fn(m, data, 1), theta)
    # binomial information 50 * 1/4 plus the random-effects curvature / n
    expected = -50 * 0.25 - (1.0 / 2.0) / 4
    assert H[1, 1] == pytest.approx(expected, rel=1e-6)


def test_hess_symmetric_and_negative_definite_at_mode(hier_model, hier_data):
    from paic import find_posterior_mode

    mode = find_posterior_mode(hier_model, hier_data, seed=0)
    f = lambda th: sum(
        hier_model.loglik_i(hier_data, i, th) for i in range(hier_data.n)
    ) + hier_model.logprior(th)
    H = hess_fd(f, mode.theta_hat)
    np.testing.assert_array_equal(H, H.T)
    assert np.all(np.linalg.eigvalsh(H) < 0)


def test_check_gradient_passes_builtin_models(hier_model, hier_data):
    m = ConjugateNormalModel(1.0, mu0=0.5, tau02=2.0)
    data = ObservationSet(np.array([0.1, 1.4, -2.0]))
    assert check_gradient(m, data, np.array([0.3])).passed

    rng = np.random.default_rng(11)
    for _ in range(5):
        theta = np.concatenate([
            rng.standard_normal(15) * 0.8, [rng.normal() * 0.4],
            [np.exp(rng.normal(0, 0.4))],
        ])
        report = check_gradient(hier_model, hier_data, theta)
        assert report.passed, report


def test_check_gradient_flags_corrupted_gradient():
    base = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(np.array([0.2, -0.4, 1.0]))

    def bad_grad(theta, i, d):
        return base.term_grad(d, i, theta) + 0.01

    md = ModelDefinition(
        p=1,
        loglik_i_fn=lambda t, i, d: base.loglik_i(d, i, t),
        logprior_fn=lambda t: 0.0,
        prior_proper=False,
        analytic_grad=bad_grad,
        analytic_hess=lambda t, i, d: base.term_hess(d, i, t),
    )
    report = check_gradient(md, data, np.array([0.3]))
    assert not report.passed
    assert report.worst_coord == 0
    assert report.max_rel_err == pytest.approx(0.01, rel=1e-3)


def test_grad_nonfinite_names_coordinate():
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError,
                                                      match="coordinate 0"):
        grad_fd(lambda t: float(np.log(t[0])), np.array([1e-7]))
