import dataclasses
import hashlib
import weakref

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
    pointwise_loglik,
    run_logit_experiment,
    run_normal_bias_experiment,
    trace_correction,
    true_bias_normal,
    true_predictive_loglik_exact,
)
from paic import experiments, mcmc
from paic.experiments import (
    LOGIT_ESTIMATORS,
    NORMAL_ESTIMATORS,
    aggregate_logit_cell,
    aggregate_normal_cell,
    resolve_tau02,
)
from paic.fileio import provenance, write_experiment_outputs
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


def test_eta_exact_matches_brute_force_over_spread_draws():
    gen = substream(11, "eta-brute")
    N = 15
    beta_true = gen.standard_normal(N)
    trials = gen.integers(5, 60, N)
    S = 200
    mat = np.concatenate([gen.standard_normal((S, N)) * 1.5 + 0.3,
                          gen.standard_normal((S, 1)),
                          np.abs(gen.standard_normal((S, 1))) + 0.5], axis=1)
    draws = PosteriorDraws(mat, np.zeros(S, dtype=int), 0, 0)
    expected = 0.0
    for i in range(N):
        z = np.arange(trials[i] + 1)
        logpmf = binom.logpmf(z[None, :], trials[i], expit(mat[:, i])[:, None])
        expected += float(binom.pmf(z, trials[i], expit(beta_true[i]))
                          @ logpmf.mean(axis=0))
    eta = true_predictive_loglik_exact(draws, beta_true, trials)
    assert eta == pytest.approx(expected / N, rel=1e-12)


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


def _logit_output_digests(cfg, outdir):
    result = run_logit_experiment(cfg)
    write_experiment_outputs(str(outdir), result, provenance(result.config, cfg.seed))
    digests = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
               for name in ("replications.csv", "aggregates.json")}
    return digests, result.cells[0].records["attempts"]


def test_logit_outputs_do_not_depend_on_batch_size_or_workers(tmp_path, monkeypatch):
    # at this budget one of the four replications takes the doubled-budget retry
    cfg = LogitExperimentConfig(replications=4, seed=5, **FAST_LOGIT)
    b = cfg.budget
    one_replication = b.chains * b.draws_per_chain * (cfg.N + 2) * 8
    runs = {}
    for cap in (one_replication, mcmc.LOOP_DRAW_BYTES, 4 * one_replication):
        monkeypatch.setattr(mcmc, "LOOP_DRAW_BYTES", cap)
        for workers in (1, 2):
            run_cfg = dataclasses.replace(cfg, workers=workers)
            runs[cap, workers] = _logit_output_digests(run_cfg, tmp_path / f"{cap}-{workers}")
    (digests, attempts), *others = runs.values()
    assert 2.0 in attempts
    for other, _ in others:
        assert other == digests

    # one batch of all four replications under a one-replication cap: four
    # attempt-0 loops, each replication scored before the next loop starts,
    # and no loop's draws still held when the next one begins
    events, last_draws = [], []
    sample_loop, score = mcmc._sample_loop, experiments._logit_replication

    def traced_loop(problems, budget, seed):
        assert all(ref() is None for ref in last_draws)
        if problems[0][3][2] == "main":
            events.append(("loop", [p[3][1] for p in problems], problems[0][3][3]))
        for draws, diag in sample_loop(problems, budget, seed):
            last_draws[:] = [weakref.ref(draws.draws)]
            yield draws, diag

    def traced_score(cfg, rep, *args):
        events.append(("score", rep))
        return score(cfg, rep, *args)

    monkeypatch.setattr(mcmc, "LOOP_DRAW_BYTES", one_replication)
    monkeypatch.setattr(mcmc, "_sample_loop", traced_loop)
    monkeypatch.setattr(experiments, "_logit_replication", traced_score)
    assert _logit_output_digests(cfg, tmp_path / "traced")[0] == digests
    loops = [len(e[1]) for e in events if e[0] == "loop" and e[2] == 0]
    assert loops == [1, 1, 1, 1]
    retried = [rep for rep in range(4) if attempts[rep] == 2.0]
    expected = []
    for rep in range(4):
        expected += [("loop", [rep], 0)] + ([] if rep in retried else [("score", rep)])
    for rep in retried:
        expected += [("loop", [rep], 1), ("score", rep)]
    assert events == expected


@pytest.mark.parametrize("reps,workers,sizes", [
    (12, 2, [6, 6]),
    (100, 2, [50, 50]),
    (7, 1, [7]),
    (3, 4, [1, 1, 1]),
    (7, 3, [2, 2, 3]),
])
def test_logit_batches_fewest_under_the_cap(reps, workers, sizes):
    # one batch per worker, whatever the budget and the sampler's draw cap;
    # with fewer replications than workers each replication is its own batch
    batches = experiments._logit_batches(
        LogitExperimentConfig(replications=reps, workers=workers))
    assert [len(b) for b in batches] == sizes
    assert [rep for b in batches for rep in b] == list(range(reps))


def test_logit_aggregates_self_consistent():
    cfg = LogitExperimentConfig(replications=3, seed=5, **FAST_LOGIT)
    result = run_logit_experiment(cfg)
    cell = result.cells[0]
    assert aggregate_logit_cell(cell.records) == cell.aggregates


def test_logit_replication_scores_the_shipped_criteria(monkeypatch):
    captured = {}

    def recording(name):
        shipped = getattr(experiments, name)

        def call(*args, **kwargs):
            report = shipped(*args, **kwargs)
            captured[name] = (args, report)
            return report
        return call

    for name in ("paic", "bpic", "waic2", "loo_exact"):
        monkeypatch.setattr(experiments, name, recording(name))
    cfg = LogitExperimentConfig(replications=1, seed=3, **FAST_LOGIT)
    [rec] = experiments._logit_batch(cfg, range(1))

    eta_hat, N = rec["eta_hat"], cfg.N
    for est, name in (("paic", "paic"), ("bpic", "bpic"), ("waic2", "waic2"),
                      ("cv", "loo_exact")):
        r = captured[name][1]
        assert rec[f"b_{est}"] == (eta_hat - r.fit_term / N) + r.penalty / N
        assert rec[f"err_{est}"] == (eta_hat - rec["eta_true"]) - rec[f"b_{est}"]

    # the study's former hand-written bpic bias, from the captured arguments
    model, data, draws, mode, pair = captured["bpic"][0]
    loglik = pointwise_loglik(model, data, draws).values.sum(axis=1)
    logpost = loglik + model.logprior_draws(draws.draws)
    parent = (float(np.mean(logpost)) - mode.logpost
              + trace_correction(pair).value * (N - 1) / N + 0.5 * model.p) / N
    assert rec["b_bpic"] == pytest.approx(parent, rel=1e-12)


def test_logit_experiment_aborts_when_budget_hopeless():
    cfg = LogitExperimentConfig(replications=2, seed=7,
                                budget=SamplerBudget(2, 60, 30),
                                fold_budget=SamplerBudget(2, 60, 30))
    with pytest.raises(ExperimentError):
        run_logit_experiment(cfg)


def test_config_validation():
    with pytest.raises(ValidationError):
        LogitExperimentConfig(N=1)
    with pytest.raises(ValidationError, match="N must be >= 3, got 2"):
        LogitExperimentConfig(N=2)
    with pytest.raises(ValidationError):
        NormalExperimentConfig(replications=0)
    with pytest.raises(ValidationError):
        NormalExperimentConfig(tau02_rules=("nope",))
