import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paic
from paic import (ConjugateNormalModel, ObservationSet, closed_form_bias_estimators,
                  closed_form_insample_loglik, sample_conjugate_normal)
from paic.cli import build_parser, main
from paic.fileio import read_reports_json, write_draws_csv

from conftest import count_searches, criterion_4_data, laplace_fit


def write_normal_data(path, n=30, seed=0):
    y = np.random.default_rng(seed).normal(0, 1, n)
    with open(path, "w") as f:
        f.write("y\n" + "\n".join(repr(float(v)) for v in y) + "\n")
    return y


def write_logit_data(path, seed=5):
    y = np.random.default_rng(seed).binomial(40, 0.5, size=8)
    path.write_text("y,n_trials\n" + "\n".join(f"{v},40" for v in y) + "\n")


def test_compute_normal_with_supplied_draws(tmp_path):
    data_path = tmp_path / "y.csv"
    write_normal_data(data_path)
    m = ConjugateNormalModel(1.0, 0.0, 1e4)
    data = ObservationSet(np.loadtxt(data_path, skiprows=1))
    draws = sample_conjugate_normal(m, data, 5000, seed=1)
    draws_path = tmp_path / "draws.csv"
    write_draws_csv(str(draws_path), draws)
    out = tmp_path / "report.json"
    code = main([
        "compute", "--model", "normal", "--data", str(data_path),
        "--draws", str(draws_path),
        "--criteria", "paic,bpic,waic2,loo,dic",
        "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["reports"]) == 5
    names = {r["criterion"] for r in payload["reports"]}
    assert names == {"paic", "bpic", "waic2", "loo", "dic"}
    for r in payload["reports"]:
        assert r["seed"] == 7
        assert r["value"] == pytest.approx(-2 * r["fit"] + 2 * r["penalty"])
    assert payload["provenance"]["seed"] == 7
    assert "config_hash" in payload["provenance"]
    assert "tool_version" in payload["provenance"]


def test_compute_flat_prior_bpic_partial_success(tmp_path):
    data_path = tmp_path / "y.csv"
    write_normal_data(data_path)
    out = tmp_path / "report.json"
    code = main([
        "compute", "--model", "normal-flat", "--data", str(data_path),
        "--criteria", "paic,bpic", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    entries = {r["criterion"]: r for r in payload["reports"]}
    assert "error" in entries["bpic"]
    assert "degenerate prior" in entries["bpic"]["error"]
    assert "error" not in entries["paic"]


def test_compute_info_pair_failure_partial_success(tmp_path, monkeypatch):
    import paic.cli

    def broken(*args, **kwargs):
        raise paic.NumericalError("no information matrices")

    monkeypatch.setattr(paic.cli, "info_matrix_pair", broken)
    data_path = tmp_path / "y.csv"
    write_normal_data(data_path)
    out = tmp_path / "report.json"
    code = main([
        "compute", "--model", "normal", "--data", str(data_path),
        "--criteria", "paic,bpic,waic2", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    entries = {r["criterion"]: r for r in json.loads(out.read_text())["reports"]}
    for name in ("paic", "bpic"):
        assert "no information matrices" in entries[name]["error"]
    assert "error" not in entries["waic2"]
    assert entries["waic2"]["value"] == pytest.approx(
        -2 * entries["waic2"]["fit"] + 2 * entries["waic2"]["penalty"])


def test_compute_malformed_csv_exit_2(tmp_path, capsys):
    data_path = tmp_path / "y.csv"
    data_path.write_text("y\n1.0\nbroken\n")
    code = main([
        "compute", "--model", "normal", "--data", str(data_path),
        "--seed", "1", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2
    assert ":3" in capsys.readouterr().err


def test_compute_draw_dimension_mismatch_exit_2(tmp_path):
    data_path = tmp_path / "y.csv"
    write_normal_data(data_path)
    draws_path = tmp_path / "draws.csv"
    draws_path.write_text("theta_1,theta_2,chain\n0.1,0.2,0\n0.3,0.4,0\n")
    code = main([
        "compute", "--model", "normal", "--data", str(data_path),
        "--draws", str(draws_path), "--seed", "1",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2


def test_compute_draw_outside_support_exit_2(tmp_path, capsys):
    # one draw of tau2 = -0.5 (theta_10 of 8 groups), after a blank line:
    # refused with its line in the file, before any criterion is computed
    data_path = tmp_path / "counts.csv"
    write_logit_data(data_path)
    row = ",".join(["0.1"] * 9)
    draws_path = tmp_path / "draws.csv"
    draws_path.write_text(f"{','.join(f'theta_{k}' for k in range(1, 11))},chain\n"
                          f"{row},0.4,0\n\n{row},-0.5,0\n{row},0.4,0\n")
    out = tmp_path / "r.json"
    code = main(["compute", "--model", "hier-logit", "--data", str(data_path),
                 "--draws", str(draws_path), "--criteria", "paic,bpic,waic2,dic",
                 "--seed", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {draws_path}:4: theta_10 = -0.5 lies outside" in err
    assert not out.exists()


def test_compute_unknown_criterion_exit_2(tmp_path):
    data_path = tmp_path / "y.csv"
    write_normal_data(data_path)
    code = main([
        "compute", "--model", "normal", "--data", str(data_path),
        "--criteria", "paic,nonsense", "--seed", "1",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2


def test_unknown_flag_rejected(tmp_path):
    code = main(["compute", "--model", "normal", "--data", "x.csv",
                 "--seed", "1", "--out", "r.json", "--bogus"])
    assert code == 2


def test_compute_csv_format(tmp_path):
    data_path = tmp_path / "y.csv"
    write_normal_data(data_path)
    out = tmp_path / "report.csv"
    code = main([
        "compute", "--model", "normal", "--data", str(data_path),
        "--criteria", "paic,waic2", "--seed", "3",
        "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[0] == "criterion"
    assert len(lines) == 4  # provenance + header + 2 criteria


def test_compute_hier_logit_binomial_data(tmp_path):
    data_path = tmp_path / "counts.csv"
    write_logit_data(data_path)
    out = tmp_path / "r.json"
    code = main([
        "compute", "--model", "hier-logit", "--data", str(data_path),
        "--criteria", "paic,waic2,dic", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert {r["criterion"] for r in payload["reports"]} == {"paic", "waic2", "dic"}


@pytest.mark.parametrize("missing", ["--data", "--draws"])
def test_compute_missing_input_file_exit_2(tmp_path, capsys, missing):
    data_path = tmp_path / "y.csv"
    write_normal_data(data_path)
    paths = {"--data": str(data_path), "--draws": str(tmp_path / "draws.csv")}
    paths[missing] = str(tmp_path / "absent.csv")
    code = main([
        "compute", "--model", "normal", "--data", paths["--data"],
        "--draws", paths["--draws"], "--seed", "1",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "absent.csv" in err
    assert "Traceback" not in err


COUNTS_CSV = "y,n_trials\n3,10\n7,10\n5,10\n"


@pytest.mark.parametrize("data,flags", [
    pytest.param(None, ["--model", "normal", "--sigma-a2", "nan"], id="sigma-a2-nan"),
    pytest.param(None, ["--model", "normal", "--sigma-a2", "inf"], id="sigma-a2-inf"),
    pytest.param(None, ["--model", "normal", "--tau02", "nan"], id="tau02-nan"),
    pytest.param(None, ["--model", "normal", "--tau02", "inf"], id="tau02-inf"),
    pytest.param(None, ["--model", "normal", "--mu0", "nan"], id="mu0-nan"),
    pytest.param(COUNTS_CSV, ["--model", "hier-logit", "--mu-mean", "nan"],
                 id="mu-mean-nan"),
    pytest.param(COUNTS_CSV, ["--model", "hier-logit", "--mu-var", "inf"],
                 id="mu-var-inf"),
    pytest.param(COUNTS_CSV, ["--model", "hier-logit", "--nu", "nan"], id="nu-nan"),
    pytest.param(COUNTS_CSV, ["--model", "hier-logit", "--s2", "inf"], id="s2-inf"),
    pytest.param(None, ["--model", "normal", "--criteria", ","], id="no-criteria"),
    pytest.param(None, ["--model", "normal", "--criteria", "paic,paic,loo"],
                 id="repeated-criterion"),
    pytest.param("y,n_trials\n3,10\n7,1e300\n", ["--model", "hier-logit"],
                 id="n-trials-overflow"),
    pytest.param(COUNTS_CSV, ["--model", "hier-logit", "--samples", "5"], id="samples-5"),
    pytest.param(None, ["--model", "normal", "--chains", "0"], id="chains-0"),
])
def test_compute_invalid_input_exit_2(tmp_path, capsys, monkeypatch, data, flags):
    import paic.cli

    def no_search(*args, **kwargs):
        raise AssertionError("the mode search ran before the input was checked")

    # every input here is refused before any work, the mode search included
    monkeypatch.setattr(paic.cli, "find_posterior_mode", no_search)
    data_path = tmp_path / "y.csv"
    if data is None:
        write_normal_data(data_path)
    else:
        data_path.write_text(data)
    code = main(["compute", "--data", str(data_path), "--seed", "1",
                 "--out", str(tmp_path / "r.json")] + flags)
    assert code == 2
    err = capsys.readouterr().err
    if flags[-2] in ("--samples", "--chains"):  # no such flags: compute does not sample
        assert f"error: unrecognized arguments: {' '.join(flags[-2:])}\n" in err
    else:
        assert err.startswith("error: ")
    assert not (tmp_path / "r.json").exists()
    if "1e300" in (data or ""):
        assert f"{data_path}:3:" in err


def test_compute_hier_logit_one_mode_search(tmp_path, monkeypatch):
    import paic.cli

    calls, pairs = [], []
    search, pair = paic.cli.find_posterior_mode, paic.cli.info_matrix_pair

    def counted(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    def counted_pair(*args, **kwargs):
        pairs.append(1)
        return pair(*args, **kwargs)

    monkeypatch.setattr(paic.cli, "find_posterior_mode", counted)
    monkeypatch.setattr(paic.cli, "info_matrix_pair", counted_pair)
    data_path = tmp_path / "counts.csv"
    write_logit_data(data_path)
    out = tmp_path / "r.json"
    code = main([
        "compute", "--model", "hier-logit", "--data", str(data_path),
        "--criteria", "paic,bpic,waic2", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    assert len(calls) == 1
    assert len(pairs) == 1
    payload = json.loads(out.read_text())
    assert all("error" not in r for r in payload["reports"])


def test_compute_hier_logit_default_criteria_search_once(tmp_path, monkeypatch):
    # the grid summary (with its LOO) and the paic/bpic pair share one fit
    calls = count_searches(monkeypatch)
    data_path = tmp_path / "counts.csv"
    write_logit_data(data_path)
    out = tmp_path / "r.json"
    code = main(["compute", "--model", "hier-logit", "--data", str(data_path),
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    assert len(calls) == 1
    reports = json.loads(out.read_text())["reports"]
    assert [r["criterion"] for r in reports if "error" not in r] == [
        "paic", "bpic", "waic2", "loo", "dic"]


@pytest.mark.parametrize("supplied", [True, False])
def test_compute_hier_logit_unconverged_mode(tmp_path, monkeypatch, supplied):
    # the criteria that need the fit report the failure one by one: with
    # supplied draws waic2 and dic still report, without them every criterion
    # reads the grid summary on the fit
    import paic.cli

    data_path = tmp_path / "counts.csv"
    write_logit_data(data_path)
    model = paic.HierLogitModel(np.full(8, 40))
    data = paic.fileio.read_observations_csv(str(data_path))
    draws, _ = paic.sample_hier_logit(model, data, paic.SamplerBudget(2, 600, 300), seed=4,
                                      init=laplace_fit(model, data, seed=4), check=False)
    draws_path = tmp_path / "draws.csv"
    write_draws_csv(str(draws_path), draws)
    search = paic.cli.find_posterior_mode
    monkeypatch.setattr(paic.cli, "find_posterior_mode", lambda *args, **kwargs: (
        dataclasses.replace(search(*args, **kwargs), converged=False)))
    out = tmp_path / "r.json"
    args = ["compute", "--model", "hier-logit", "--data", str(data_path),
            "--seed", "2", "--out", str(out)]
    if not supplied:  # popt named: its own error entry, as the default leaves it out
        assert main(args + ["--criteria", "paic,bpic,waic2,loo,dic,popt"]) == 0
        entries = {r["criterion"]: r for r in json.loads(out.read_text())["reports"]}
        for name in ("paic", "bpic", "waic2", "loo", "dic"):
            assert entries[name]["error"] == "posterior mode search did not converge"
        assert entries["popt"]["error_type"] == "UnsupportedModelError"
        return
    assert main(args + ["--draws", str(draws_path)]) == 0
    entries = {r["criterion"]: r for r in json.loads(out.read_text())["reports"]}
    for name in ("paic", "bpic", "loo"):
        assert entries[name]["error"] == "posterior mode search did not converge"
    for name in ("waic2", "dic"):
        assert "error" not in entries[name]


def test_compute_builds_one_pointwise_matrix(tmp_path, monkeypatch):
    import paic.criteria

    # paic, waic2 and dic all score the draws' S x n matrix: it is built once
    calls, pointwise = [], paic.criteria.pointwise_loglik

    def counted(*args, **kwargs):
        calls.append(1)
        return pointwise(*args, **kwargs)

    monkeypatch.setattr(paic.criteria, "pointwise_loglik", counted)
    data_path = tmp_path / "y.csv"
    write_normal_data(data_path)
    m = ConjugateNormalModel(1.0, 0.0, 1e4)
    data = ObservationSet(np.loadtxt(data_path, skiprows=1))
    draws_path = tmp_path / "draws.csv"
    write_draws_csv(str(draws_path), sample_conjugate_normal(m, data, 2000, seed=1))
    out = tmp_path / "report.json"
    code = main([
        "compute", "--model", "normal", "--data", str(data_path),
        "--draws", str(draws_path), "--criteria", "paic,waic2,dic",
        "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    assert len(calls) == 1
    payload = json.loads(out.read_text())
    assert [r["criterion"] for r in payload["reports"]] == ["paic", "waic2", "dic"]


@pytest.mark.parametrize("criteria", ["loo", "popt", "loo,popt"])
def test_compute_without_draw_criteria_does_not_sample(tmp_path, monkeypatch, criteria):
    import paic.cli

    # 15 groups of 0 out of 50: the LOO grid refuses them, with the draws or without
    data_path = tmp_path / "counts.csv"
    data_path.write_text("y,n_trials\n" + "0,50\n" * 15)
    draws = paic.PosteriorDraws(np.tile(np.r_[np.full(16, -4.0), 1.0], (20, 1)),
                                np.zeros(20, dtype=int), 0, 0)
    draws_path = tmp_path / "draws.csv"
    write_draws_csv(str(draws_path), draws)
    base = ["compute", "--model", "hier-logit", "--data", str(data_path),
            "--criteria", criteria, "--seed", "3"]
    supplied_out = tmp_path / "supplied.json"
    supplied_code = main(base + ["--draws", str(draws_path), "--out", str(supplied_out)])

    def no_sampling(*args, **kwargs):
        raise AssertionError("the sampler ran for criteria that need no draws")

    monkeypatch.setattr(paic.mcmc, "sample_hier_logit", no_sampling)
    out = tmp_path / "sampled.json"
    assert main(base + ["--out", str(out)]) == supplied_code == 0
    assert (json.loads(out.read_text())["reports"]
            == json.loads(supplied_out.read_text())["reports"])


def test_compute_scores_a_study_replication_as_the_study_does(tmp_path, monkeypatch):
    # criterion 4's replication 5 as a counts CSV: compute's paic, bpic, waic2
    # and loo reports are those the study makes of it, to the bit
    from paic import experiments

    made, report = {}, experiments.criterion_report

    def recording(name, *args):
        made[name] = report(name, *args)
        return made[name]

    monkeypatch.setattr(experiments, "criterion_report", recording)
    assert experiments._logit_replication(paic.LogitExperimentConfig(seed=1234), 5) is not None
    _, data = criterion_4_data(5)
    data_path = tmp_path / "counts.csv"
    data_path.write_text("y,n_trials\n" + "".join(
        f"{int(y)},{n}\n" for y, n in zip(data.y, data.trial_sizes)))
    out = tmp_path / "r.json"
    assert main(["compute", "--model", "hier-logit", "--data", str(data_path),
                 "--criteria", "paic,bpic,waic2,loo", "--seed", "1234", "--out", str(out)]) == 0
    _, reports, errors = read_reports_json(str(out))
    assert errors == [] and [r.name for r in reports] == ["paic", "bpic", "waic2", "loo"]
    assert reports == [dataclasses.replace(made[r.name], seed=1234) for r in reports]


def test_no_compute_request_samples(tmp_path, monkeypatch):
    # compute scores exact posterior expectations: no sampler runs, and every
    # report of a summary criterion holds S = 0
    def no_sampling(*args, **kwargs):
        raise AssertionError("paic compute ran a sampler")

    for module in (paic, paic.mcmc):
        monkeypatch.setattr(module, "sample_hier_logit", no_sampling)
        monkeypatch.setattr(module, "sample_conjugate_normal", no_sampling)
    write_normal_data(tmp_path / "y.csv")
    write_logit_data(tmp_path / "counts.csv")
    # the hierarchical logit's default criteria leave out popt, the normal
    # model's closed form
    for model, data_name, failing, count in (("normal", "y.csv", set(), 6),
                                             ("normal-flat", "y.csv", {"bpic"}, 5),
                                             ("hier-logit", "counts.csv", set(), 5)):
        out = tmp_path / f"{model}.json"
        assert main(["compute", "--model", model, "--data", str(tmp_path / data_name),
                     "--seed", "4", "--out", str(out)]) == 0
        _, reports, errors = read_reports_json(str(out))
        assert {e["criterion"] for e in errors} == failing
        assert len(reports) == count
        assert all(r.S == 0 for r in reports)


def test_compute_error_entries_name_their_exception(tmp_path):
    # 15 groups of 0 out of 50: the LOO grid holds too much mass on its border
    data_path = tmp_path / "counts.csv"
    data_path.write_text("y,n_trials\n" + "0,50\n" * 15)
    out = tmp_path / "r.json"
    assert main(["compute", "--model", "hier-logit", "--data", str(data_path),
                 "--criteria", "loo", "--seed", "3", "--out", str(out)]) == 0
    _, _, [entry] = read_reports_json(str(out))
    assert entry["error_type"] == "GridBorderError"
    assert entry["border_mass"] > paic.criteria.LOO_BORDER_MASS
    assert entry["error"] == f"posterior mass {entry['border_mass']:.2g} on the LOO grid border"
    write_normal_data(tmp_path / "y.csv")
    assert main(["compute", "--model", "normal-flat", "--data", str(tmp_path / "y.csv"),
                 "--criteria", "bpic", "--seed", "3", "--out", str(out)]) == 0
    assert read_reports_json(str(out))[2] == [{
        "criterion": "bpic", "error": "BPIC undefined under degenerate prior",
        "error_type": "ImproperPriorError"}]


def test_compute_hier_logit_two_groups_names_the_grid(tmp_path):
    # every default criterion reads the grid, so each refusal names it
    data_path = tmp_path / "counts.csv"
    data_path.write_text("y,n_trials\n3,10\n7,10\n")
    out = tmp_path / "r.json"
    assert main(["compute", "--model", "hier-logit", "--data", str(data_path),
                 "--out", str(out)]) == 0
    _, reports, errors = read_reports_json(str(out))
    assert reports == []
    assert errors == [{"criterion": name,
                       "error": "the hierarchical-logit grid needs at least 3 groups, got 2",
                       "error_type": "ValidationError"}
                      for name in ("paic", "bpic", "waic2", "loo", "dic")]


def test_compute_normal_loo_beyond_the_grid_guard(tmp_path):
    # LOO_MAX_N guards the hierarchical logit's grid; the normal model's
    # analytic folds take any n
    y = write_normal_data(tmp_path / "y.csv", n=1001)
    out = tmp_path / "r.json"
    assert main(["compute", "--model", "normal", "--data", str(tmp_path / "y.csv"),
                 "--criteria", "loo", "--seed", "1", "--out", str(out)]) == 0
    _, [report], _ = read_reports_json(str(out))
    model, data = ConjugateNormalModel(1.0, 0.0, 1e4), ObservationSet(y)
    cv = closed_form_bias_estimators(model, data).cv
    assert report.fit_term == pytest.approx(
        data.n * (closed_form_insample_loglik(model, data) - cv), rel=1e-12)


def test_readme_cli_examples_parse():
    # every `paic ...` command of README's CLI block, its continuations
    # joined, is one that the parser takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("paic ")]
    assert len(commands) >= 4
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {command}")


def test_experiment_normal_three_cells(tmp_path):
    out = tmp_path / "exp"
    code = main([
        "experiment", "normal", "--reps", "5", "--n", "25,50,100",
        "--sigma-a2", "1.0", "--tau02-rule", "1e4", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    agg = json.loads((out / "aggregates.json").read_text())
    assert len(agg["cells"]) == 3
    rep_lines = (out / "replications.csv").read_text().splitlines()
    assert len(rep_lines) == 1 + 3 * 5 * 7  # header + cells*reps*estimators
    plots = sorted(p.name for p in out.glob("plot_normal__*.csv"))
    assert len(plots) == 8  # seven estimators + the true-bias curve
    truth = (out / "plot_normal__tau02_1e4__sigmaA2_1__true.csv").read_text()
    assert truth.splitlines()[0] == "n,mean_bias"


@pytest.mark.parametrize("flags,field", [
    pytest.param(["--mu-t", "nan"], "mu_T", id="mu-t-nan"),
    pytest.param(["--mu-t", "inf"], "mu_T", id="mu-t-inf"),
    pytest.param(["--sigma-t2", "nan"], "sigma_T2", id="sigma-t2-nan"),
    pytest.param(["--sigma-t2", "inf"], "sigma_T2", id="sigma-t2-inf"),
    pytest.param(["--sigma-t2", "0"], "sigma_T2", id="sigma-t2-zero"),
    pytest.param(["--n", "-5"], "n_grid", id="n-negative"),
    pytest.param(["--n", "1"], "n_grid", id="n-one"),
    pytest.param(["--n", "25,1"], "n_grid", id="n-one-in-grid"),
    pytest.param(["--n", ","], "n_grid", id="n-empty"),
    pytest.param(["--sigma-a2", ","], "sigma_A2_grid", id="sigma-a2-empty"),
    pytest.param(["--sigma-a2", "nan"], "sigma_A2_grid", id="sigma-a2-nan"),
    pytest.param(["--tau02-rule", ","], "tau02_rules", id="tau02-rule-empty"),
])
def test_experiment_normal_invalid_config_exit_2(tmp_path, capsys, flags, field):
    out = tmp_path / "exp"
    code = main(["experiment", "normal", "--reps", "2", "--seed", "1",
                 "--out", str(out)] + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert field in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--trials", "--groups"])
def test_experiment_logit_count_beyond_int64_exit_2(tmp_path, capsys, flag):
    out = tmp_path / "exp"
    code = main(["experiment", "logit", "--reps", "2", flag, "100000000000000000000",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "100000000000000000000" in err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    # the study samples nothing: the budget flags are compute's alone
    pytest.param(["--samples", "5"], "unrecognized arguments: --samples 5", id="samples-5"),
    pytest.param(["--chains", "0"], "unrecognized arguments: --chains 0", id="chains-0"),
    pytest.param(["--warmup", "-1"], "unrecognized arguments: --warmup -1",
                 id="warmup-negative"),
    pytest.param(["--groups", "2"], "N must be >= 3, got 2", id="groups-2"),
    pytest.param(["--threads", "0"], "workers must be >= 1, got 0", id="threads-0"),
])
def test_experiment_logit_invalid_config_exit_2(tmp_path, capsys, flags, message):
    out = tmp_path / "exp"
    code = main(["experiment", "logit", "--reps", "2", "--seed", "1",
                 "--out", str(out)] + flags)
    assert code == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_logit_deterministic_bytes(tmp_path):
    args = ["experiment", "logit", "--reps", "2", "--seed", "11"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
    assert main(args + ["--out", str(out2), "--threads", "2"]) == 0
    for name in ("replications.csv", "aggregates.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_experiment_logit_aggregates_schema(tmp_path):
    out = tmp_path / "exp"
    code = main(["experiment", "logit", "--reps", "2", "--seed", "3", "--out", str(out)])
    assert code == 0
    agg = json.loads((out / "aggregates.json").read_text())
    cell = agg["cells"][0]
    for est in ("paic", "bpic", "waic2", "cv"):
        stats = cell["aggregates"][est]
        assert set(stats) == {"actual_err_mean", "actual_err_sd",
                              "abs_err_mean", "abs_err_sd",
                              "sq_err_mean", "sq_err_sd"}


def test_experiment_logit_grid_failure_exit_3(tmp_path, capsys, monkeypatch):
    # every replication's grid holds too much mass on its border
    monkeypatch.setattr(paic.criteria, "LOO_SPANS", (2.4,))
    code = main([
        "experiment", "logit", "--reps", "2", "--seed", "7", "--threads", "1",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 3
    assert "numerical failure: 2/2 replications excluded" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_threads_env_fallback(monkeypatch):
    from paic.cli import default_threads

    monkeypatch.setenv("PAIC_THREADS", "3")
    assert default_threads() == 3
    monkeypatch.delenv("PAIC_THREADS")
    assert default_threads() >= 1


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_threads_env_invalid_exit_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("PAIC_THREADS", value)
    out = tmp_path / "exp"
    code = main(["experiment", "logit", "--reps", "2", "--seed", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: PAIC_THREADS") and repr(value) in err
    assert not out.exists()


def test_version_flag(capsys):
    code = main(["--version"])
    assert code == 0
    from paic import __version__

    assert __version__ in capsys.readouterr().out


def _env_with_src():
    src = str(Path(paic.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_module_entry_point():
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "paic.cli", *argv],
                              capture_output=True, text=True, env=_env_with_src(),
                              timeout=60)

    ok = run("--help")
    assert ok.returncode == 0
    assert "usage:" in ok.stdout
    assert run("compute", "--bogus").returncode == 2


def test_cli_import_loads_no_scipy():
    code = ("import sys, paic.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_env_with_src(), timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # only the logit study's worker pool needs it, and `paic compute` never runs one
    code = "import sys, paic.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_env_with_src(), timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    pytest.param(["compute", "--model", "normal", "--data", "y.csv", "--seed", "-1",
                  "--out", "out"], id="compute-negative-seed"),
    pytest.param(["compute", "--model", "normal", "--data", "y.csv",
                  "--criteria", "loo,popt", "--seed", "-1", "--out", "out"],
                 id="compute-negative-seed-no-stream"),
    pytest.param(["experiment", "normal", "--reps", "2", "--seed", "-1", "--out", "out"],
                 id="experiment-normal-negative-seed"),
    pytest.param(["experiment", "logit", "--reps", "2", "--seed", "-1", "--threads", "1",
                  "--out", "out"], id="experiment-logit-negative-seed"),
    pytest.param(["compute", "--model", "normal", "--data", "latin1.csv", "--out", "out"],
                 id="data-not-utf8"),
    pytest.param(["compute", "--model", "normal", "--data", "y.csv",
                  "--draws", "latin1_draws.csv", "--criteria", "waic2", "--out", "out"],
                 id="draws-not-utf8"),
])
def test_refusals_exit_2_without_traceback(tmp_path, argv):
    # run as a process: an uncaught exception exits 1 with a traceback, which
    # an in-process main() call does not show
    write_normal_data(tmp_path / "y.csv")
    (tmp_path / "latin1.csv").write_bytes(b"y\n0.5\n1.5\xa0\n2.5\n")
    (tmp_path / "latin1_draws.csv").write_bytes(
        b"theta_1,chain\n" + b"0.5,1\n" * 40 + b"1.5\xa0,1\n")
    out = subprocess.run([sys.executable, "-m", "paic.cli", *argv], cwd=tmp_path,
                         capture_output=True, text=True, env=_env_with_src(), timeout=60)
    assert out.returncode == 2, out.stderr
    assert "error:" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "out").exists()


def test_compute_holds_sampled_draws_to_min_draws(tmp_path):
    # a supplied draw file of any size is taken as it is
    data_path = tmp_path / "y.csv"
    data_path.write_text("y\n0.3\n-1.2\n0.8\n")
    out = tmp_path / "r.json"
    args = ["compute", "--model", "normal", "--data", str(data_path),
            "--criteria", "paic,dic", "--seed", "1", "--out", str(out)]
    draws = sample_conjugate_normal(ConjugateNormalModel(1.0), ObservationSet([0.3, -1.2, 0.8]),
                                    20, seed=1)
    draws_path = tmp_path / "draws.csv"
    write_draws_csv(str(draws_path), draws)
    assert main(args + ["--draws", str(draws_path)]) == 0
    entries = {r["criterion"]: r for r in json.loads(out.read_text())["reports"]}
    for name in ("paic", "dic"):
        assert "error" not in entries[name] and entries[name]["S"] == 20


def test_compute_accepts_files_with_a_byte_order_mark(tmp_path):
    # spreadsheet programs write "CSV UTF-8" with a leading byte-order mark
    data_path = tmp_path / "y.csv"
    write_normal_data(data_path, n=10)
    m = ConjugateNormalModel(1.0)
    draws = sample_conjugate_normal(m, ObservationSet(np.loadtxt(data_path, skiprows=1)),
                                    1000, seed=3)
    draws_path = tmp_path / "draws.csv"
    write_draws_csv(str(draws_path), draws)
    reports = []
    for bom in (b"", b"\xef\xbb\xbf"):
        paths = []
        for path in (data_path, draws_path):
            marked = tmp_path / f"{len(bom)}-{path.name}"
            marked.write_bytes(bom + path.read_bytes())
            paths.append(str(marked))
        out = tmp_path / f"{len(bom)}-r.json"
        assert main(["compute", "--model", "normal", "--data", paths[0], "--draws", paths[1],
                     "--criteria", "paic,bpic,waic2,loo,dic", "--seed", "3",
                     "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert b'"error"' not in reports[0]
