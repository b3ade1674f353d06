import numpy as np
import pytest
from scipy.special import expit

from paic import (
    ConjugateNormalModel,
    HierLogitModel,
    ModelDefinition,
    NumericalError,
    ObservationSet,
    ValidationError,
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


def test_vector_f_rows_equal_scalar_differences():
    c = np.array([[1.0, -2.0, 0.5], [0.3, 0.0, 4.0]])
    f = lambda t: np.array([np.sin(c[0] @ t), np.exp(c[1] @ t) + t[0] * t[2]])
    theta = np.array([0.4, -0.3, 1.7])
    G, H = grad_fd(f, theta), hess_fd(f, theta)
    assert G.shape == (2, 3) and H.shape == (2, 3, 3)
    for i in range(2):
        np.testing.assert_array_equal(G[i], grad_fd(lambda t: float(f(t)[i]), theta))
        np.testing.assert_array_equal(H[i], hess_fd(lambda t: float(f(t)[i]), theta))


def _user_model(p, calls=None):
    """A derivative-free ModelDefinition with a proper prior; ``calls``
    counts the prior's evaluations."""
    rng = np.random.default_rng(40 + p)
    X = rng.standard_normal((9, p))
    data = ObservationSet(rng.standard_normal(9))

    def loglik_i(theta, i, d):
        r = d.y[i] - X[i] @ theta
        return -0.5 * r * r - 0.1 * np.sin(theta[0] * X[i, 0])

    def logprior(theta):
        if calls is not None:
            calls.append(1)
        return float(-0.5 * theta @ theta / 4.0 + 0.3 * theta[-1] ** 3)

    theta = rng.normal(0.0, 0.5, p)
    return ModelDefinition(p=p, loglik_i_fn=loglik_i, logprior_fn=logprior), data, theta


@pytest.mark.parametrize("p", [1, 3])
def test_user_model_derivatives_are_per_term_differences(p):
    md, data, theta = _user_model(p)
    S = md.score_matrix(data, theta)
    H = md.hess_term_sum(data, theta)
    expect_H = np.zeros((p, p))
    for i in range(data.n):
        np.testing.assert_array_equal(S[i], grad_fd(term_fn(md, data, i), theta))
        expect_H += hess_fd(term_fn(md, data, i), theta)
    np.testing.assert_array_equal(H, expect_H)
    np.testing.assert_array_equal(md.terms(data, theta),
                                  [term_fn(md, data, i)(theta) for i in range(data.n)])


@pytest.mark.parametrize("p", [1, 3])
def test_user_model_evaluates_each_perturbed_point_once(p):
    calls = []
    md, data, theta = _user_model(p, calls)
    md.score_matrix(data, theta)
    assert len(calls) == 2 * p
    calls.clear()
    md.hess_term_sum(data, theta)
    assert len(calls) == 4 * p * p


def test_user_model_nonfinite_term_names_coordinate_and_observation():
    md = ModelDefinition(
        p=2, loglik_i_fn=lambda t, i, d: np.log(t[1]) if i == 2 else -t[0] ** 2,
        logprior_fn=lambda t: 0.0)
    data = ObservationSet(np.zeros(4))
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericalError, match="at observation 2 while differencing coordinate 1"):
        md.score_matrix(data, np.array([0.5, 1e-7]))


def test_user_model_takes_int_and_0d_returns():
    md = ModelDefinition(p=1, loglik_i_fn=lambda t, i, d: np.array(-float(t[0] - d.y[i]) ** 2),
                         logprior_fn=lambda t: 3)
    data = ObservationSet(np.array([0.5, -1.0, 2.0]))
    theta = np.array([0.2])
    lik = md.loglik_matrix(data, theta[None, :])
    assert lik.dtype == float and lik.shape == (1, 3)
    assert md.logprior_draws(theta[None, :]).tolist() == [3.0]
    assert md.logprior(theta) == 3.0 and isinstance(md.logprior(theta), float)
    assert md.terms(data, theta).dtype == float
    np.testing.assert_allclose(md.score_matrix(data, theta)[:, 0],
                               2.0 * (data.y - 0.2), rtol=1e-8)
    np.testing.assert_allclose(md.hess_term_sum(data, theta), [[-6.0]], rtol=1e-6)


@pytest.mark.parametrize("draws,message", [
    (np.array([[0.1, 0.2, 0.3]]), r"draws must be an S x 2 matrix, got shape \(1, 3\)"),
    (np.array([0.1, 0.2]), r"draws must be an S x 2 matrix, got shape \(2,\)"),
    (np.array([[0.1, 0.2], [np.nan, 0.0]]), "draw 1 contains non-finite entries"),
    (np.array([[0.1, 0.2], [0.0, np.inf]]), "draw 1 contains non-finite entries"),
])
def test_user_model_refuses_bad_draws(draws, message):
    md = ModelDefinition(p=2, loglik_i_fn=lambda t, i, d: 0.0, logprior_fn=lambda t: 0.0)
    data = ObservationSet(np.zeros(3))
    with pytest.raises(ValidationError, match=message):
        md.loglik_matrix(data, draws)
    with pytest.raises(ValidationError, match=message):
        md.logprior_draws(draws)


def test_check_gradient_report_is_the_per_term_comparison(hier_model, hier_data):
    theta = np.concatenate([np.linspace(-1.0, 1.0, 15), [0.2], [1.3]])
    report = check_gradient(hier_model, hier_data, theta)
    scores = hier_model.score_matrix(hier_data, theta)
    errs = np.array([np.abs(scores[i] - grad_fd(term_fn(hier_model, hier_data, i), theta))
                     / max(1.0, float(np.max(np.abs(scores[i]))))
                     for i in range(hier_data.n)])
    i, j = np.unravel_index(np.argmax(errs), errs.shape)
    assert (report.max_rel_err, report.worst_obs, report.worst_coord) == (errs[i, j], i, j)
