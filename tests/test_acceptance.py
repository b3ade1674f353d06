"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 compares the replication study against published reference
values; see the project notes for the analysis of the clauses that the
literal mode-evaluated penalty formulas cannot reproduce.
"""

import os
import time

import numpy as np
import pytest
from scipy.special import expit

import paic
from paic import (
    ConjugateNormalModel,
    HierLogitModel,
    LogitExperimentConfig,
    NormalExperimentConfig,
    ObservationSet,
    SamplerBudget,
    closed_form_bias_estimators,
    ess,
    info_matrix_pair,
    posterior_mode,
    run_logit_experiment,
    run_normal_bias_experiment,
    sample_conjugate_normal,
    sample_hier_logit,
    trace_correction,
    true_bias_normal,
)
from paic.calculus import grad_fd, hess_fd
from paic.cli import main
from paic.rng import substream

from conftest import laplace_fit

WORKERS = min(2, os.cpu_count() or 1)


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} — {detail}")
    return ok


# -- 1: closed-form equivalence ------------------------------------------


def test_criterion_1_closed_form_equivalence():
    t0 = time.perf_counter()
    gen = substream(101, "acc1")
    tau_rules = ("1e4", "1e4_over_n", "0.25", "flat")
    sigmas = (0.25, 1.0, 2.25)
    worst_paic = worst_bpic = worst_ratio = 0.0
    for k in range(100):
        n = int(gen.integers(5, 501))
        rule = tau_rules[k % 4]
        sigma_A2 = sigmas[k % 3]
        tau02 = {"1e4": 1e4, "1e4_over_n": 1e4 / n, "0.25": 0.25,
                 "flat": None}[rule]
        model = ConjugateNormalModel(sigma_A2, mu0=0.0, tau02=tau02)
        data = ObservationSet(gen.normal(0.0, 1.0, n))
        mode = posterior_mode(model, data, model.default_init(data))
        tr_paic = trace_correction(
            info_matrix_pair(model, data, mode.theta_hat, "paic")).value
        tr_bpic = trace_correction(
            info_matrix_pair(model, data, mode.theta_hat, "bpic")).value
        cf = closed_form_bias_estimators(model, data)
        worst_paic = max(worst_paic, abs(tr_paic / n - cf.paic) / cf.paic)
        worst_bpic = max(worst_bpic, abs(tr_bpic / n - cf.bpic) / cf.bpic)
        worst_ratio = max(worst_ratio,
                          abs(cf.bpic / cf.paic - (n - 1) / n))
    elapsed = time.perf_counter() - t0
    ok = worst_paic <= 1e-6 and worst_bpic <= 1e-6 and worst_ratio <= 1e-10 \
        and elapsed < 5.0
    assert _line(1, ok,
                 f"closed-form equivalence: max rel err paic {worst_paic:.2e}, "
                 f"bpic {worst_bpic:.2e}, ratio err {worst_ratio:.2e}, "
                 f"{elapsed:.1f}s")


# -- 2: well-specified bias trend ------------------------------------------


def test_criterion_2_well_specified_trend():
    t0 = time.perf_counter()
    cfg = NormalExperimentConfig(sigma_A2_grid=(1.0,), tau02_rules=("1e4",),
                                 n_grid=(25, 50, 100, 200),
                                 replications=2000, seed=201)
    result = run_normal_bias_experiment(cfg)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    details = []
    for cell in result.cells:
        b = cell.keys["true_bias"]
        n = cell.keys["n"]
        dev_paic = abs(cell.aggregates["paic"]["mean"] - b)
        dev_bpic = abs(cell.aggregates["bpic"]["mean"] - b)
        if n >= 50 and dev_paic > 0.15 * b:
            ok = False
        if dev_paic > dev_bpic:
            ok = False
        details.append(f"n={n}: paic dev {dev_paic / b:.3f}, "
                       f"bpic dev {dev_bpic / b:.3f}")
    assert _line(2, ok, "; ".join(details) + f"; {elapsed:.1f}s")


# -- 3: misspecification ---------------------------------------------------


def test_criterion_3_misspecification():
    t0 = time.perf_counter()
    cfg = NormalExperimentConfig(sigma_A2_grid=(2.25, 0.25),
                                 tau02_rules=("1e4",), n_grid=(200,),
                                 replications=2000, seed=301)
    result = run_normal_bias_experiment(cfg)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    details = []
    for cell in result.cells:
        b = cell.keys["true_bias"]
        dev_paic = abs(cell.aggregates["paic"]["mean"] - b) / b
        dev_popt = abs(cell.aggregates["popt"]["mean"] - b) / b
        if dev_paic > 0.15 or dev_popt < 0.25:
            ok = False
        details.append(f"sA2={cell.keys['sigma_A2']}: paic {dev_paic:.3f}, "
                       f"popt {dev_popt:.3f}")
    assert _line(3, ok, "; ".join(details) + f"; {elapsed:.1f}s")


# -- 4: hierarchical-logit study vs published values -----------------------


@pytest.fixture(scope="module")
def logit_study():
    t0 = time.perf_counter()
    cfg = LogitExperimentConfig(replications=100, seed=1234, workers=WORKERS)
    result = run_logit_experiment(cfg)
    return result, time.perf_counter() - t0


def test_criterion_4_logit_study_reference_values(logit_study):
    result, elapsed = logit_study
    rec = result.cells[0].records
    means = {est: float(np.mean(rec[f"err_{est}"]))
             for est in ("paic", "bpic", "waic2", "cv")}
    clauses = {
        "err(paic)<err(bpic)": means["paic"] < means["bpic"],
        "err(bpic)<err(waic2)": means["bpic"] < means["waic2"],
        "err(waic2)<err(cv)": means["waic2"] < means["cv"],
        "paic in 0.160+-0.15": abs(means["paic"] - 0.160) <= 0.15,
        "bpic in 0.259+-0.15": abs(means["bpic"] - 0.259) <= 0.15,
        "runtime<=30min": elapsed <= 1800.0,
    }
    detail = (
        f"mean errors paic {means['paic']:.3f}, bpic {means['bpic']:.3f}, "
        f"waic2 {means['waic2']:.3f}, cv {means['cv']:.3f}; "
        f"excluded {result.cells[0].excluded}; {elapsed:.0f}s; "
        + "; ".join(f"{name}: {'ok' if value else 'VIOLATED'}"
                    for name, value in clauses.items())
    )
    ok = all(clauses.values())
    assert _line(4, ok, detail)


# -- 5: asymptotic trace ----------------------------------------------------


def test_criterion_5_asymptotic_trace():
    gen = substream(501, "acc5")
    model = ConjugateNormalModel(1.0, tau02=None)
    traces = np.empty(200)
    for r in range(200):
        data = ObservationSet(gen.normal(0.0, 1.0, 10_000))
        mode = posterior_mode(model, data, model.default_init(data))
        traces[r] = trace_correction(
            info_matrix_pair(model, data, mode.theta_hat, "paic")).value
    mean_trace = float(traces.mean())
    ok = 0.9 <= mean_trace <= 1.1
    assert _line(5, ok, f"mean trace at n=1e4 over 200 reps: {mean_trace:.4f}")


# -- 6: derivative and sampler oracles --------------------------------------


def _derivative_errors(model, data, gen, point_fn, points=100):
    worst_g = worst_h = 0.0
    for _ in range(points):
        theta = point_fn()
        i = int(gen.integers(data.n))
        term = lambda th: model.loglik_i(data, i, th) + model.logprior(th) / data.n
        ga = model.term_grad(data, i, theta)
        gf = grad_fd(term, theta)
        worst_g = max(worst_g,
                      float(np.max(np.abs(ga - gf)) / max(1.0, np.max(np.abs(ga)))))
        Ha = model.term_hess(data, i, theta)
        Hf = hess_fd(term, theta)
        worst_h = max(worst_h,
                      float(np.linalg.norm(Ha - Hf) / np.linalg.norm(Ha)))
    return worst_g, worst_h


def test_criterion_6_derivative_and_sampler_oracles(hier_model, hier_data):
    gen = substream(601, "acc6")
    norm_model = ConjugateNormalModel(1.3, mu0=0.2, tau02=2.0)
    norm_data = ObservationSet(gen.normal(0.0, 1.0, 25))
    wg_n, wh_n = _derivative_errors(
        norm_model, norm_data, gen, lambda: gen.normal(0.0, 2.0, 1))
    wg_h, wh_h = _derivative_errors(
        hier_model, hier_data, gen,
        lambda: np.concatenate([gen.normal(0, 0.8, 15), gen.normal(0, 0.5, 1),
                                np.exp(gen.normal(0, 0.4, 1))]))
    deriv_ok = max(wg_n, wh_n, wg_h, wh_h) <= 1e-5

    m = ConjugateNormalModel(1.0, mu0=0.0, tau02=1e4)
    data = ObservationSet(gen.normal(0.0, 1.0, 40))
    from paic import conjugate_posterior

    mu_hat, s2 = conjugate_posterior(m, data)
    draws = sample_conjugate_normal(m, data, 20_000, seed=602)
    x = draws.draws[:, 0]
    e = ess(x)
    mean_ok = abs(x.mean() - mu_hat) <= 3 * np.sqrt(s2 / x.size)
    var_ok = abs(x.var(ddof=1) - s2) <= 3 * np.sqrt(2 * s2 ** 2 / (x.size - 1))
    mcmc_ok = mean_ok and var_ok and e >= 1000

    _, diag = sample_hier_logit(hier_model, hier_data, SamplerBudget(3, 5000, 2000), seed=603,
                                init=laplace_fit(hier_model, hier_data, seed=603))
    gate_ok = diag.max_rhat <= 1.05

    ok = deriv_ok and mcmc_ok and gate_ok
    assert _line(
        6, ok,
        f"max deriv rel err {max(wg_n, wh_n, wg_h, wh_h):.2e}; conjugate MCMC "
        f"ess {e:.0f}, mean/var within 3 SE: {mean_ok}/{var_ok}; "
        f"hier-logit max rhat {diag.max_rhat:.4f}")


# -- 7: contract suite -------------------------------------------------------


def test_criterion_7_contracts(tmp_path):
    gen = substream(701, "acc7")
    y = gen.normal(0.0, 1.0, 30)
    data_path = tmp_path / "y.csv"
    data_path.write_text("y\n" + "\n".join(repr(float(v)) for v in y) + "\n")

    # degenerate prior: paic computes, bpic refuses (partial success)
    out = tmp_path / "flat.json"
    code = main(["compute", "--model", "normal-flat", "--data", str(data_path),
                 "--criteria", "paic,bpic,waic2,loo,dic", "--seed", "7",
                 "--out", str(out)])
    import json

    payload = json.loads(out.read_text())
    entries = {r["criterion"]: r for r in payload["reports"]}
    flat_ok = (code == 0 and "error" in entries["bpic"]
               and "error" not in entries["paic"]
               and np.isfinite(entries["paic"]["value"]))

    # decomposition identity for every successful report
    decomp_ok = all(
        abs(r["value"] - (-2 * r["fit"] + 2 * r["penalty"]))
        <= 1e-9 * max(1.0, abs(r["value"]))
        for r in payload["reports"] if "error" not in r)

    # determinism: identical config + seed => identical bytes
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (out_a, out_b):
        assert main(["compute", "--model", "normal", "--data", str(data_path),
                     "--criteria", "paic,bpic,waic2,loo,dic", "--seed", "11",
                     "--out", str(path)]) == 0
    exp_a, exp_b = tmp_path / "ea", tmp_path / "eb"
    for path in (exp_a, exp_b):
        assert main(["experiment", "normal", "--reps", "50", "--n", "25,50",
                     "--seed", "11", "--out", str(path)]) == 0
    det_ok = out_a.read_bytes() == out_b.read_bytes() and all(
        (exp_a / f.name).read_bytes() == (exp_b / f.name).read_bytes()
        for f in exp_a.iterdir())

    ok = flat_ok and decomp_ok and det_ok
    assert _line(7, ok, f"degenerate-prior contract {flat_ok}; "
                        f"decomposition {decomp_ok}; determinism {det_ok}")
