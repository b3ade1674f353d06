import numpy as np
import pytest
from scipy.special import expit

from paic import (HierLogitModel, LogitExperimentConfig, ObservationSet, find_posterior_mode,
                  laplace_approx)
from paic.rng import substream


def laplace_fit(model, data, seed=0):
    """The Laplace approximation at the mode of ``seed``'s search: the fit that
    the sampler starts from and the exact-LOO grid is centred on."""
    return laplace_approx(model, data, find_posterior_mode(model, data, seed=seed))


def criterion_4_data(rep):
    """(model, data) of replication ``rep`` of the logit study at its default
    setup and the criterion-4 seed 1234, simulated as the study does; with
    ``rep="near-equal"``, 15 groups of 50 trials with counts within one of the
    middle, where tau2 piles up near 0 against its hyperprior."""
    from paic.models import _expit

    if rep == "near-equal":
        n_i = np.full(15, 50)
        y = np.array([24, 25, 26, 25, 24, 26, 25, 25, 24, 26, 25, 24, 26, 25, 25.0])
        return HierLogitModel(n_i), ObservationSet(y, n_i)
    cfg = LogitExperimentConfig(seed=1234)
    n_i = np.full(cfg.N, cfg.n_i)
    gen = substream(cfg.seed, "logit", rep, "truth")
    beta = cfg.mu_true + cfg.tau_true * gen.standard_normal(cfg.N)
    return HierLogitModel(n_i), ObservationSet(gen.binomial(n_i, _expit(beta)).astype(float), n_i)


@pytest.fixture(scope="session")
def hier_model():
    return HierLogitModel(np.full(15, 50))


@pytest.fixture(scope="session")
def hier_data(hier_model):
    """One fixed simulated dataset from the true process (mu=0, tau=1)."""
    gen = substream(314159, "fixture", "truth")
    beta = gen.standard_normal(15)
    y = gen.binomial(hier_model.trial_sizes, expit(beta))
    return ObservationSet(y.astype(float), hier_model.trial_sizes)


def count_searches(monkeypatch):
    """Count calls of optimize.posterior_mode, the search behind every mode
    fit; returns the list that grows by one per search."""
    from paic import optimize

    calls, search = [], optimize.posterior_mode

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(optimize, "posterior_mode", counted)
    return calls


def assert_decomposition(report, rel=1e-9):
    lhs = report.value
    rhs = -2.0 * report.fit_term + 2.0 * report.penalty
    assert abs(lhs - rhs) <= rel * max(1.0, abs(lhs)), report
