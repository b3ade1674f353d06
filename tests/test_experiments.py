import dataclasses

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import binom

from paic import (
    ExperimentError,
    HierLogitModel,
    LogitExperimentConfig,
    NormalExperimentConfig,
    ObservationSet,
    PosteriorDraws,
    SamplerBudget,
    ValidationError,
    estimate_true_eta_logit,
    run_logit_experiment,
    run_normal_bias_experiment,
    true_bias_normal,
    true_predictive_loglik_exact,
)
from paic.experiments import (
    LOGIT_ESTIMATORS,
    NORMAL_ESTIMATORS,
    aggregate_logit_cell,
    aggregate_normal_cell,
    resolve_tau02,
)
from paic.rng import substream

FAST_LOGIT = dict(
    budget=SamplerBudget(2, 1200, 600),
    fold_budget=SamplerBudget(2, 500, 300),
)


def test_true_bias_flat_is_one_over_n():
    cfg = NormalExperimentConfig()
    assert true_bias_normal(cfg, 25, None, 1.0) == pytest.approx(1 / 25)
    assert true_bias_normal(cfg, 400, None, 1.0) == pytest.approx(1 / 400)


def test_true_bias_misspecified_plug_in():
    cfg = NormalExperimentConfig()
    s2 = 1.0 / (1e-4 + 100 / 2.25)
    assert true_bias_normal(cfg, 100, 1e4, 2.25) == pytest.approx(s2 / 2.25 ** 2)


def test_true_bias_vanishes_with_dominant_prior():
    cfg = NormalExperimentConfig()
    assert true_bias_normal(cfg, 50, 1e-10, 1.0) < 1e-9


def test_resolve_tau02_rules():
    assert resolve_tau02("1e4", 7) == 1e4
    assert resolve_tau02("1e4_over_n", 100) == 100.0
    assert resolve_tau02("0.25", 3) == 0.25
    assert resolve_tau02("flat", 3) is None
    assert resolve_tau02("2.5", 3) == 2.5
    for rule in ("bogus", "0", "-1", "nan", "inf", "-inf"):
        with pytest.raises(ValidationError):
            resolve_tau02(rule, 3)


def test_normal_experiment_smoke_one_replication():
    cfg = NormalExperimentConfig(sigma_A2_grid=(1.0, 0.25),
                                 tau02_rules=("1e4", "flat"),
                                 n_grid=(10, 20), replications=1, seed=5)
    result = run_normal_bias_experiment(cfg)
    assert len(result.cells) == 8
    for cell in result.cells:
        for est in NORMAL_ESTIMATORS:
            assert np.isfinite(cell.records[f"b_{est}"]).all()


def test_normal_experiment_generic_matches_closed_form_every_replication():
    cfg = NormalExperimentConfig(sigma_A2_grid=(2.25,), tau02_rules=("0.25",),
                                 n_grid=(30,), replications=50, seed=6)
    result = run_normal_bias_experiment(cfg)
    cell = result.cells[0]
    np.testing.assert_allclose(cell.records["b_paic_generic"],
                               cell.records["b_paic"], rtol=1e-6)
    np.testing.assert_allclose(cell.records["b_bpic_generic"],
                               cell.records["b_bpic"], rtol=1e-6)


def test_normal_experiment_deterministic():
    cfg = NormalExperimentConfig(sigma_A2_grid=(1.0,), tau02_rules=("1e4",),
                                 n_grid=(15,), replications=20, seed=7)
    a = run_normal_bias_experiment(cfg)
    b = run_normal_bias_experiment(cfg)
    for ca, cb in zip(a.cells, b.cells):
        for key in ca.records:
            np.testing.assert_array_equal(ca.records[key], cb.records[key])
        assert ca.aggregates == cb.aggregates


def test_normal_aggregates_self_consistent():
    cfg = NormalExperimentConfig(sigma_A2_grid=(1.0,), tau02_rules=("flat",),
                                 n_grid=(25,), replications=40, seed=8)
    result = run_normal_bias_experiment(cfg)
    cell = result.cells[0]
    recomputed = aggregate_normal_cell(cell.records, cell.keys["true_bias"])
    assert recomputed == cell.aggregates


def test_waic2_scaling_resolved_by_simulation():
    """Per-observation reading (penalty / n) is the one that tracks the true
    optimism; the total-scale reading misses it by a factor of n."""
    cfg = NormalExperimentConfig(sigma_A2_grid=(1.0,), tau02_rules=("flat",),
                                 n_grid=(20,), replications=3000, seed=9)
    result = run_normal_bias_experiment(cfg)
    cell = result.cells[0]
    b_true = cell.keys["true_bias"]
    per_obs = cell.records["b_waic2"].mean()
    total = per_obs * 20
    assert abs(per_obs - b_true) <= 0.1 * b_true
    assert abs(total - b_true) > 10 * b_true


def test_eta_exact_with_point_mass_draws():
    # posterior collapsed to the truth: eta equals the expected log pmf
    gen = substream(10, "eta-exact")
    N = 6
    beta_true = gen.standard_normal(N)
    trials = np.full(N, 30)
    theta = np.concatenate([beta_true, [0.0, 1.0]])
    draws = PosteriorDraws(np.tile(theta, (500, 1)), np.zeros(500, dtype=int), 0, 0)
    eta = true_predictive_loglik_exact(draws, beta_true, trials)
    expected = 0.0
    for i in range(N):
        z = np.arange(31)
        pmf = binom.pmf(z, 30, expit(beta_true[i]))
        expected += float(pmf @ binom.logpmf(z, 30, expit(beta_true[i])))
    assert eta == pytest.approx(expected / N, rel=1e-10)


def test_eta_mc_matches_exact_within_se():
    gen = substream(11, "eta-mc")
    N = 15
    cfg = LogitExperimentConfig(N=N, n_i=50, eta_draws=20000, seed=1)
    beta_true = gen.standard_normal(N)
    theta = np.concatenate([gen.standard_normal(N) * 0.5, [0.0, 1.0]])
    mat = theta + 0.1 * gen.standard_normal((4000, N + 2))
    mat[:, -1] = np.abs(mat[:, -1]) + 0.5  # tau2 stays positive
    draws = PosteriorDraws(mat, np.zeros(4000, dtype=int), 0, 0)
    exact = true_predictive_loglik_exact(draws, beta_true, np.full(N, 50))
    est = estimate_true_eta_logit(draws, beta_true, cfg, substream(2, "mc"))
    assert abs(est.value - exact) <= 4 * est.mc_se


def test_eta_mc_variance_halves_when_doubling_draws():
    gen = substream(12, "eta-var")
    N = 10
    beta_true = gen.standard_normal(N)
    theta = np.concatenate([beta_true, [0.0, 1.0]])
    draws = PosteriorDraws(np.tile(theta, (300, 1)), np.zeros(300, dtype=int), 0, 0)
    cfg_small = LogitExperimentConfig(N=N, n_i=50, eta_draws=500, seed=1)
    cfg_big = LogitExperimentConfig(N=N, n_i=50, eta_draws=1000, seed=1)
    small = [estimate_true_eta_logit(draws, beta_true, cfg_small,
                                     substream(13, "rep", r)).value
             for r in range(200)]
    big = [estimate_true_eta_logit(draws, beta_true, cfg_big,
                                   substream(14, "rep", r)).value
           for r in range(200)]
    ratio = np.var(small, ddof=1) / np.var(big, ddof=1)
    assert 1.4 <= ratio <= 2.8


def test_logit_experiment_smoke_two_replications():
    cfg = LogitExperimentConfig(replications=2, seed=3, **FAST_LOGIT)
    result = run_logit_experiment(cfg)
    cell = result.cells[0]
    assert cell.records["replication"].size == 2
    for est in LOGIT_ESTIMATORS:
        assert np.isfinite(cell.records[f"b_{est}"]).all()
        assert np.isfinite(cell.records[f"err_{est}"]).all()
    assert cell.excluded == 0
    # the conjugate-model identity b_bpic = (n-1)/n * b_paic does not carry
    # over to this model: only error orderings are comparable across studies
    ratio = cell.records["b_bpic"] / cell.records["b_paic"]
    assert np.all(np.abs(ratio - (cfg.N - 1) / cfg.N) > 0.01)


def test_logit_experiment_deterministic_and_worker_invariant():
    cfg1 = LogitExperimentConfig(replications=2, seed=3, workers=1, **FAST_LOGIT)
    cfg2 = LogitExperimentConfig(replications=2, seed=3, workers=2, **FAST_LOGIT)
    a = run_logit_experiment(cfg1)
    b = run_logit_experiment(cfg1)
    c = run_logit_experiment(cfg2)
    for key in a.cells[0].records:
        np.testing.assert_array_equal(a.cells[0].records[key],
                                      b.cells[0].records[key])
        np.testing.assert_array_equal(a.cells[0].records[key],
                                      c.cells[0].records[key])


def test_logit_aggregates_self_consistent():
    cfg = LogitExperimentConfig(replications=3, seed=5, **FAST_LOGIT)
    result = run_logit_experiment(cfg)
    cell = result.cells[0]
    assert aggregate_logit_cell(cell.records) == cell.aggregates


def test_logit_sample_oracle_close_to_exact():
    base = dict(replications=2, seed=6, **FAST_LOGIT)
    exact = run_logit_experiment(LogitExperimentConfig(eta_oracle="exact", **base))
    sampled = run_logit_experiment(LogitExperimentConfig(eta_oracle="sample", **base))
    e = exact.cells[0].records["eta_true"]
    s = sampled.cells[0].records["eta_true"]
    se = sampled.cells[0].records["eta_mc_se"]
    assert np.all(np.abs(e - s) <= 5 * se)
    assert np.all(exact.cells[0].records["eta_mc_se"] == 0.0)


def test_logit_experiment_aborts_when_budget_hopeless():
    cfg = LogitExperimentConfig(replications=2, seed=7,
                                budget=SamplerBudget(2, 60, 30),
                                fold_budget=SamplerBudget(2, 60, 30))
    with pytest.raises(ExperimentError):
        run_logit_experiment(cfg)


def test_config_validation():
    with pytest.raises(ValidationError):
        LogitExperimentConfig(eta_oracle="bogus")
    with pytest.raises(ValidationError):
        LogitExperimentConfig(N=1)
    with pytest.raises(ValidationError):
        NormalExperimentConfig(replications=0)
    with pytest.raises(ValidationError):
        NormalExperimentConfig(tau02_rules=("nope",))
