import numpy as np
import pytest

from paic import (
    ConjugateNormalModel,
    HierLogitModel,
    ModeResult,
    ModelDefinition,
    NotPositiveDefiniteError,
    NumericalError,
    ObservationSet,
    SamplerBudget,
    ValidationError,
    conjugate_posterior,
    find_posterior_mode,
    laplace_approx,
    posterior_mode,
    sample_hier_logit,
)
from paic import optimize
from paic.rng import substream

from conftest import criterion_4_data


def test_mode_flat_prior_is_sample_mean():
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(np.array([1.0, 2.0, 3.0]))
    res = posterior_mode(m, data, [0.0])
    assert res.converged
    assert res.theta_hat[0] == pytest.approx(2.0, abs=1e-10)


def test_mode_matches_conjugate_posterior():
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=1e4)
    data = ObservationSet(np.array([0.5, 1.5]))
    res = posterior_mode(m, data, [-3.0])
    mu_hat, _ = conjugate_posterior(m, data)
    assert res.converged
    assert abs(res.theta_hat[0] - mu_hat) <= 1e-10


def test_mode_hier_logit_in_sampler_bulk(hier_model, hier_data):
    mode = find_posterior_mode(hier_model, hier_data, seed=0)
    assert mode.converged
    assert mode.grad_norm <= 1e-8 * max(1.0, abs(mode.logpost))
    lap = laplace_approx(hier_model, hier_data, mode)
    draws, diag = sample_hier_logit(
        hier_model, hier_data, SamplerBudget(3, 4000, 2000), seed=5, init=lap)
    assert diag.ok()
    post_mean = draws.draws.mean(axis=0)
    post_sd = draws.draws.std(axis=0, ddof=1)
    # the mode sits inside the bulk of the long-run posterior
    assert np.all(np.abs(mode.theta_hat - post_mean) <= 4.0 * post_sd)


def test_mode_init_invariance(hier_model, hier_data):
    base = find_posterior_mode(hier_model, hier_data, seed=0)
    gen = substream(99, "init-invariance")
    for _ in range(10):
        beta0 = gen.normal(0.0, 1.0, hier_model.N)
        init = np.concatenate([beta0, [gen.normal(0, 0.5)],
                               [np.exp(gen.normal(0, 0.5))]])
        res = posterior_mode(hier_model, hier_data, init)
        assert res.converged
        np.testing.assert_allclose(res.theta_hat, base.theta_hat, atol=1e-8)


def test_mode_max_iterations_returns_unconverged(hier_model, hier_data, monkeypatch):
    monkeypatch.setattr(optimize, "MAX_ITER", 1)
    res = posterior_mode(hier_model, hier_data, hier_model.default_init(hier_data))
    assert not res.converged
    assert res.iterations == 1
    assert np.isfinite(res.grad_norm)


def test_mode_init_outside_support_rejected(hier_model, hier_data):
    bad = np.concatenate([np.zeros(16), [-1.0]])
    with pytest.raises(ValidationError):
        posterior_mode(hier_model, hier_data, bad)


def test_flat_direction_never_converges():
    # objective constant in theta_2: curvature is singular there
    def loglik_i(theta, i, data):
        return -0.5 * (data.y[i] - theta[0]) ** 2

    md = ModelDefinition(p=2, loglik_i_fn=loglik_i, logprior_fn=lambda t: 0.0,
                         prior_proper=False)
    data = ObservationSet(np.array([0.5, 1.5]))
    res = posterior_mode(md, data, [0.0, 0.0])
    assert not res.converged  # negative Hessian not positive definite
    assert res.theta_hat[0] == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(NumericalError, match="posterior mode search did not converge"):
        laplace_approx(md, data, res)


def test_laplace_conjugate_exact():
    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=0.5)
    data = ObservationSet(np.array([0.1, -0.3, 0.8, 0.4]))
    mode = posterior_mode(m, data, [0.0])
    lap = laplace_approx(m, data, mode)
    _, s2 = conjugate_posterior(m, data)
    assert lap.covariance[0, 0] == pytest.approx(s2, rel=1e-10)
    assert lap.mean[0] == pytest.approx(mode.theta_hat[0])


def test_laplace_flat_prior_quarter():
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(np.array([0.0, 1.0, 2.0, 3.0]))
    mode = posterior_mode(m, data, [0.0])
    lap = laplace_approx(m, data, mode)
    assert lap.covariance[0, 0] == pytest.approx(0.25, rel=1e-12)


def test_laplace_mu_sd_close_to_mcmc():
    # larger groups make the Gaussian approximation tight
    gen = substream(2024, "laplace-check")
    N, n_i = 30, 100
    model = HierLogitModel(np.full(N, n_i))
    beta = gen.standard_normal(N)
    from scipy.special import expit
    y = gen.binomial(n_i, expit(beta))
    data = ObservationSet(y.astype(float), np.full(N, n_i))
    mode = find_posterior_mode(model, data, seed=0)
    lap = laplace_approx(model, data, mode)
    draws, diag = sample_hier_logit(model, data, SamplerBudget(3, 4000, 2000),
                                    seed=7, init=lap)
    assert diag.ok()
    mcmc_sd = draws.draws[:, N].std(ddof=1)
    assert abs(lap.marginal_sd()[N] - mcmc_sd) <= 0.2 * mcmc_sd


def test_solve_ascent_contract():
    from paic.optimize import _solve_ascent
    from paic import SingularHessianError

    # indefinite curvature after the ridge: caller falls back to gradient
    assert _solve_ascent(np.array([[1.0, 0.0], [0.0, -50.0]]), np.ones(2)) is None
    # a merely singular direction is recovered by the ridge
    d = _solve_ascent(np.array([[-2.0, 0.0], [0.0, 0.0]]), np.array([1.0, 0.0]))
    assert d is not None and np.isfinite(d).all()
    with pytest.raises(SingularHessianError):
        _solve_ascent(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))


def test_laplace_rejects_non_pd():
    mode = ModeResult(
        theta_hat=np.zeros(2), grad_norm=0.0, iterations=1, converged=True,
        neg_hessian=np.array([[1.0, 0.0], [0.0, -2.0]]), logpost=0.0)
    m = ConjugateNormalModel(1.0, tau02=None)
    data = ObservationSet(np.array([0.0, 1.0]))
    with pytest.raises(NotPositiveDefiniteError) as exc:
        laplace_approx(m, data, mode)
    assert exc.value.eigenvalues is not None


def _scripted_search(monkeypatch, outcomes):
    """Replace optimize.posterior_mode by one that plays ``outcomes`` in turn:
    an exception is raised, None passes the real search's result through, and
    a bool replaces that result's ``converged``.  Returns the inits seen."""
    import dataclasses
    import paic.optimize as opt

    real = opt.posterior_mode
    calls = []

    def scripted(model, data, init, *args, **kwargs):
        outcome = outcomes[len(calls)]
        calls.append(np.array(init, dtype=float))
        if isinstance(outcome, Exception):
            raise outcome
        res = real(model, data, init, *args, **kwargs)
        return res if outcome is None else dataclasses.replace(res, converged=outcome)

    monkeypatch.setattr(opt, "posterior_mode", scripted)
    return calls


def test_find_mode_stops_at_first_converged_search(monkeypatch, hier_model, hier_data):
    calls = _scripted_search(monkeypatch, [None] * 3)
    mode = find_posterior_mode(hier_model, hier_data, seed=0)
    assert mode.converged
    assert len(calls) == 1


@pytest.mark.parametrize("first", [NumericalError("boom"), ValidationError("bad")],
                         ids=["numerical-error", "validation-error"])
def test_find_mode_restarts_after_a_failed_search(monkeypatch, hier_model, hier_data,
                                                   first):
    calls = _scripted_search(monkeypatch, [first, True, True])
    mode = find_posterior_mode(hier_model, hier_data, seed=0)
    assert len(calls) == 2
    assert mode.converged
    # the restart starts from a perturbation of the data-driven init
    assert not np.array_equal(calls[1], hier_model.default_init(hier_data))
    expect = posterior_mode(hier_model, hier_data, calls[1])
    np.testing.assert_array_equal(mode.theta_hat, expect.theta_hat)


def test_find_mode_returns_an_unconverged_search(monkeypatch, hier_model, hier_data):
    calls = _scripted_search(monkeypatch, [False, True, True])
    mode = find_posterior_mode(hier_model, hier_data, seed=0)
    assert len(calls) == 1
    assert not mode.converged


def _drop_group(model, data, i):
    """(model, data) without group i; hyperpriors unchanged."""
    keep = np.arange(model.N) != i
    return (HierLogitModel(model.trial_sizes[keep], model.mu_mean, model.mu_var,
                           model.nu, model.s2),
            ObservationSet(data.y[keep], data.trial_sizes[keep]))


def _criterion_4_searches(reps):
    """(model, data) of the main fit and the 15 leave-one-group-out fits of
    each replication in ``reps`` of the criterion-4 logit study."""
    for rep in reps:
        model, data = criterion_4_data(rep)
        yield model, data
        for i in range(model.N):
            yield _drop_group(model, data, i)


def test_mode_converges_where_the_line_search_meets_rounding():
    # replication 0 of the criterion-4 setup without group 7: a gradient
    # stop at 1e-8 |logpost| left this search unconverged after 4 steps
    # (gradient 8.1e-7), as the Armijo test could no longer see a gain
    y = np.array([32, 14, 25, 35, 42, 12, 18, 15, 40, 22, 20, 20, 29, 23], dtype=float)
    model = HierLogitModel(np.full(y.size, 50))
    data = ObservationSet(y, np.full(y.size, 50))
    fold = list(_criterion_4_searches([0]))[1 + 7]
    np.testing.assert_array_equal(fold[1].y, y)
    res = posterior_mode(model, data, model.default_init(data))
    assert res.converged


def test_find_mode_searches_once_over_criterion_4_setup(monkeypatch):
    calls = _scripted_search(monkeypatch, [None] * 160)
    for k, (model, data) in enumerate(_criterion_4_searches(range(10))):
        mode = find_posterior_mode(model, data, seed=1234)
        assert mode.converged
        assert len(calls) == k + 1


def test_find_mode_all_searches_raise(monkeypatch, hier_model, hier_data):
    calls = _scripted_search(monkeypatch, [NumericalError("boom")] * 3)
    with pytest.raises(NumericalError):
        find_posterior_mode(hier_model, hier_data, seed=0)
    assert len(calls) == 3


class _RecordingModel:
    """Delegates to ``model`` and records the theta of each derivative call."""

    def __init__(self, model):
        self._model = model
        self.thetas = []

    def __getattr__(self, name):
        return getattr(self._model, name)

    def logpost_derivatives(self, data, theta):
        self.thetas.append(np.array(theta, dtype=float))
        return self._model.logpost_derivatives(data, theta)


@pytest.mark.parametrize("case", ["hier", "normal"])
def test_mode_derivatives_once_per_iterate(case, hier_model, hier_data):
    if case == "hier":
        model, data = hier_model, hier_data
    else:
        model = ConjugateNormalModel(2.25, mu0=0.5, tau02=4.0)
        data = ObservationSet(np.array([0.3, -1.2, 2.5, 0.7, 1.1]))
    rec = _RecordingModel(model)
    res = posterior_mode(rec, data, model.default_init(data))
    assert res.converged
    seen = [t.tobytes() for t in rec.thetas]
    assert len(seen) == len(set(seen))
    assert len(seen) == res.iterations + 1
    np.testing.assert_array_equal(rec.thetas[-1], res.theta_hat)


def test_transform_logs_exactly_the_positive_half_line_coordinates(hier_model):
    assert optimize._Transform(hier_model).mask.tolist() == [False] * 16 + [True]
    md = ModelDefinition(p=3, loglik_i_fn=lambda t, i, d: 0.0, logprior_fn=lambda t: 0.0,
                         support_bounds=[(-np.inf, np.inf), (0.0, np.inf), (0.0, 1.0)])
    assert optimize._Transform(md).mask.tolist() == [False, True, False]
    for model in (ConjugateNormalModel(1.0), ModelDefinition(p=2, loglik_i_fn=lambda t, i, d: 0.0,
                                                             logprior_fn=lambda t: 0.0)):
        assert not optimize._Transform(model).mask.any()
