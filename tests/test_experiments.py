import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import binom

from paic import (
    ExperimentError,
    LogitExperimentConfig,
    NormalExperimentConfig,
    ValidationError,
    loo_exact,
    run_logit_experiment,
    run_normal_bias_experiment,
    trace_correction,
    true_bias_normal,
    true_predictive_loglik_exact,
)
from paic import criteria, experiments
from paic.experiments import (
    LOGIT_ESTIMATORS,
    NORMAL_ESTIMATORS,
    aggregate_logit_cell,
    aggregate_normal_cell,
    resolve_tau02,
)
from paic.fileio import config_hash, provenance, write_experiment_outputs
from paic.models import _binom_loglik, softplus
from paic.rng import substream

from conftest import count_searches


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
    B = np.tile(beta_true, (500, 1))
    eta = true_predictive_loglik_exact(B.mean(axis=0), softplus(B).mean(axis=0),
                                       beta_true, trials)
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
    expected = 0.0
    for i in range(N):
        z = np.arange(trials[i] + 1)
        logpmf = binom.logpmf(z[None, :], trials[i], expit(mat[:, i])[:, None])
        expected += float(binom.pmf(z, trials[i], expit(beta_true[i]))
                          @ logpmf.mean(axis=0))
    B = mat[:, :N]
    eta = true_predictive_loglik_exact(B.mean(axis=0), softplus(B).mean(axis=0),
                                       beta_true, trials)
    assert eta == pytest.approx(expected / N, rel=1e-12)


def test_eta_exact_equals_its_per_group_loop():
    # log C(n_i, z) is taken once per distinct n_i; the value keeps the bits
    # of one log pmf per group summed in group order
    gen = substream(12, "eta-loop")
    for N, sizes in ((15, (50,)), (17, (1, 7, 50, 200)), (2, (3,))):
        beta_true = 2.0 * gen.standard_normal(N)
        beta_means = 2.0 * gen.standard_normal(N)
        softplus_means = softplus(beta_means) + 0.1 * gen.random(N)
        trials = gen.choice(sizes, N)
        total = 0.0
        for i in range(N):
            z = np.arange(trials[i] + 1, dtype=float)
            pmf = np.exp(_binom_loglik(float(trials[i]), z, beta_true[i], softplus(beta_true[i])))
            total += float(pmf @ _binom_loglik(float(trials[i]), z, beta_means[i],
                                               softplus_means[i]))
        assert true_predictive_loglik_exact(beta_means, softplus_means, beta_true,
                                            trials) == total / N


def test_logit_experiment_smoke_two_replications():
    cfg = LogitExperimentConfig(replications=2, seed=3)
    result = run_logit_experiment(cfg)
    cell = result.cells[0]
    assert cell.records["replication"].size == 2
    for est in LOGIT_ESTIMATORS:
        assert np.isfinite(cell.records[f"b_{est}"]).all()
        assert np.isfinite(cell.records[f"err_{est}"]).all()
    assert cell.excluded == 0
    # the diagnostics are the grid's: its kept point count, its span and its
    # border mass; the screen keeps part of the first 41 x 41 square
    assert set(cell.records) == set(experiments._LOGIT_RECORD_FIELDS)
    assert np.all(cell.records["grid_span"] == criteria.LOO_SPANS[0])
    assert np.all((0 < cell.records["grid_points"])
                  & (cell.records["grid_points"] < (2 * 20 + 1) ** 2))
    assert np.all(cell.records["border_mass"] <= criteria.LOO_BORDER_MASS)
    assert "budget" not in result.config
    # the conjugate-model identity b_bpic = (n-1)/n * b_paic does not carry
    # over to this model: only error orderings are comparable across studies
    ratio = cell.records["b_bpic"] / cell.records["b_paic"]
    assert np.all(np.abs(ratio - (cfg.N - 1) / cfg.N) > 0.01)


def test_logit_experiment_deterministic_and_worker_invariant():
    cfg1 = LogitExperimentConfig(replications=2, seed=3, workers=1)
    cfg2 = LogitExperimentConfig(replications=2, seed=3, workers=2)
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
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in ("replications.csv", "aggregates.json")}


def test_logit_outputs_do_not_depend_on_batch_size_or_workers(tmp_path):
    # four replications in process (1 worker), in chunks of 2 + 2 (2 workers,
    # and 3, which do not divide 4), and in chunks of 1 (5 workers, more
    # than replications)
    cfg = LogitExperimentConfig(replications=4, seed=5)
    digests = [_logit_output_digests(dataclasses.replace(cfg, workers=workers),
                                     tmp_path / str(workers)) for workers in (1, 2, 3, 5)]
    assert all(d == digests[0] for d in digests[1:])


def test_logit_batch_searches_once_per_replication(monkeypatch):
    # a replication's LOO, posterior summary and paic/bpic pair share one
    # mode search, and its LOO and summary one grid
    calls, grids, hyper_grid = count_searches(monkeypatch), [], criteria._hyper_grid

    def counted(*args, **kwargs):
        grids.append(1)
        return hyper_grid(*args, **kwargs)

    monkeypatch.setattr(criteria, "_hyper_grid", counted)
    cfg = LogitExperimentConfig(replications=6, seed=7)
    records = [experiments._logit_replication(cfg, rep) for rep in range(6)]
    assert None not in records
    assert len(calls) == 6
    assert len(grids) == 6


def test_logit_aggregates_self_consistent():
    cfg = LogitExperimentConfig(replications=3, seed=5)
    result = run_logit_experiment(cfg)
    cell = result.cells[0]
    assert aggregate_logit_cell(cell.records) == cell.aggregates


def test_logit_replication_scores_the_shipped_criteria(monkeypatch):
    captured = {}

    def recording(name, shipped):
        def call(*args, **kwargs):
            result = shipped(*args, **kwargs)
            captured[name] = (args, result)
            return result
        return call

    for module, name in ((criteria, "paic"), (criteria, "bpic"), (criteria, "waic2"),
                         (experiments, "grid_summary")):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    cfg = LogitExperimentConfig(replications=1, seed=3)
    [rec] = [experiments._logit_replication(cfg, rep) for rep in range(1)]

    (model, data, lap), summary = captured["grid_summary"]
    # the study's cv is the report that paic compute ships, to the bit
    assert summary.loo == loo_exact(model, data, lap)
    eta_hat, N = rec["eta_hat"], cfg.N
    for est, r in (("paic", captured["paic"][1]), ("bpic", captured["bpic"][1]),
                   ("waic2", captured["waic2"][1]), ("cv", summary.loo)):
        assert r.S == 0
        assert rec[f"b_{est}"] == (eta_hat - r.fit_term / N) + r.penalty / N
        assert rec[f"err_{est}"] == (eta_hat - rec["eta_true"]) - rec[f"b_{est}"]

    # bpic's prior term is the summary's exact E[log pi]
    model, data, mode, pair, bpic_summary = captured["bpic"][0]
    assert bpic_summary is summary
    assert rec["b_bpic"] == pytest.approx(
        (summary.e_logprior - mode.logpost + float(np.sum(summary.loglik_means))
         + trace_correction(pair).value * (N - 1) / N + 0.5 * model.p) / N, rel=1e-12)


def test_logit_experiment_aborts_when_the_grids_fail(monkeypatch):
    # a grid of +-2.4 Laplace sd holds far more than LOO_BORDER_MASS on its
    # border: every replication is excluded
    monkeypatch.setattr(criteria, "LOO_SPANS", (2.4,))
    cfg = LogitExperimentConfig(replications=2, seed=7)
    assert [experiments._logit_replication(cfg, rep) for rep in range(2)] == [None, None]
    with pytest.raises(ExperimentError, match="2/2 replications excluded"):
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


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: NormalExperimentConfig(replications=2.5),
                 "replications must be an integer", id="normal-replications-float"),
    pytest.param(lambda: LogitExperimentConfig(replications=2.5),
                 "replications must be an integer", id="logit-replications-float"),
    pytest.param(lambda: LogitExperimentConfig(replications=True),
                 "replications must be an integer", id="logit-replications-bool"),
    pytest.param(lambda: NormalExperimentConfig(n_grid=(5.5,)),
                 "n_grid values must be an integer", id="n-grid-float"),
    pytest.param(lambda: NormalExperimentConfig(n_grid=(25, np.float64(50))),
                 "n_grid values must be an integer", id="n-grid-float64"),
    pytest.param(lambda: NormalExperimentConfig(seed=2.5), "seed must be an integer",
                 id="normal-seed-float"),
    pytest.param(lambda: NormalExperimentConfig(seed=True), "seed must be an integer",
                 id="normal-seed-bool"),
    pytest.param(lambda: NormalExperimentConfig(seed=-1), "seed must be >= 0, got -1",
                 id="normal-seed-negative"),
    pytest.param(lambda: LogitExperimentConfig(seed=2.5), "seed must be an integer",
                 id="logit-seed-float"),
    pytest.param(lambda: LogitExperimentConfig(seed=False), "seed must be an integer",
                 id="logit-seed-bool"),
    pytest.param(lambda: LogitExperimentConfig(seed=-1), "seed must be >= 0, got -1",
                 id="logit-seed-negative"),
    pytest.param(lambda: LogitExperimentConfig(mu_true=np.nan), "mu_true must be finite",
                 id="mu-true-nan"),
    pytest.param(lambda: LogitExperimentConfig(mu_true=-np.inf), "mu_true must be finite",
                 id="mu-true-inf"),
    pytest.param(lambda: LogitExperimentConfig(tau_true=np.nan),
                 r"tau_true must be finite and >= 0", id="tau-true-nan"),
    pytest.param(lambda: LogitExperimentConfig(tau_true=np.inf),
                 r"tau_true must be finite and >= 0", id="tau-true-inf"),
    pytest.param(lambda: LogitExperimentConfig(tau_true=-0.5),
                 r"tau_true must be finite and >= 0", id="tau-true-negative"),
    pytest.param(lambda: LogitExperimentConfig(max_fail_frac=-1),
                 r"max_fail_frac must be in \[0, 1\]", id="max-fail-negative"),
    pytest.param(lambda: LogitExperimentConfig(max_fail_frac=1.5),
                 r"max_fail_frac must be in \[0, 1\]", id="max-fail-above-one"),
    pytest.param(lambda: LogitExperimentConfig(max_fail_frac=np.nan),
                 r"max_fail_frac must be in \[0, 1\]", id="max-fail-nan"),
])
def test_configs_refuse_what_they_cannot_run(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_valid_configs_keep_their_hash():
    # numpy integers and the edges of each range stay valid, and the defaults
    # hash as they did before these checks
    assert NormalExperimentConfig(n_grid=(np.int64(25),), replications=np.int32(3)).n_grid == (25,)
    LogitExperimentConfig(mu_true=-3.0, max_fail_frac=0.0)
    hashes = [config_hash(dataclasses.asdict(NormalExperimentConfig()))]
    for cfg in (LogitExperimentConfig(), LogitExperimentConfig(tau_true=0.0, max_fail_frac=1.0)):
        config = dataclasses.asdict(cfg)
        config.pop("workers")
        hashes.append(config_hash(config))
    assert hashes == ["ea0b318b95fc9ff4", "c869556d05f7fa40", "298fc60f990b4ccb"]
    assert LogitExperimentConfig(seed=np.int64(7)).seed == 7
