import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paic
from paic import ConjugateNormalModel, ObservationSet, sample_conjugate_normal
from paic.cli import main
from paic.fileio import write_draws_csv

FAST_LOGIT_FLAGS = [
    "--chains", "2", "--samples", "1200", "--warmup", "600",
    "--fold-samples", "500", "--fold-warmup", "300",
]


def write_normal_data(path, n=30, seed=0):
    y = np.random.default_rng(seed).normal(0, 1, n)
    with open(path, "w") as f:
        f.write("y\n" + "\n".join(repr(float(v)) for v in y) + "\n")
    return y


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


def test_compute_sampler_gate_failure_exit_3(tmp_path, capsys):
    gen = np.random.default_rng(6)
    y = gen.binomial(40, 0.5, size=8)
    data_path = tmp_path / "counts.csv"
    data_path.write_text("y,n_trials\n" + "\n".join(f"{v},40" for v in y) + "\n")
    code = main([
        "compute", "--model", "hier-logit", "--data", str(data_path),
        "--criteria", "waic2", "--seed", "2",
        "--chains", "2", "--samples", "60", "--warmup", "30",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


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
    gen = np.random.default_rng(5)
    y = gen.binomial(40, 0.5, size=8)
    data_path = tmp_path / "counts.csv"
    data_path.write_text("y,n_trials\n" + "\n".join(f"{v},40" for v in y) + "\n")
    out = tmp_path / "r.json"
    code = main([
        "compute", "--model", "hier-logit", "--data", str(data_path),
        "--criteria", "paic,waic2,dic", "--seed", "2", "--out", str(out),
        "--chains", "2", "--samples", "1500", "--warmup", "700",
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
    pytest.param("y,n_trials\n3,10\n7,1e300\n", ["--model", "hier-logit"],
                 id="n-trials-overflow"),
    pytest.param(COUNTS_CSV, ["--model", "hier-logit", "--samples", "5"], id="samples-5"),
    pytest.param(COUNTS_CSV, ["--model", "hier-logit", "--criteria", "loo",
                              "--fold-samples", "5"], id="fold-samples-5"),
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
    gen = np.random.default_rng(5)
    y = gen.binomial(40, 0.5, size=8)
    data_path = tmp_path / "counts.csv"
    data_path.write_text("y,n_trials\n" + "\n".join(f"{v},40" for v in y) + "\n")
    out = tmp_path / "r.json"
    code = main([
        "compute", "--model", "hier-logit", "--data", str(data_path),
        "--criteria", "paic,bpic,waic2", "--seed", "2", "--out", str(out),
        "--chains", "2", "--samples", "1500", "--warmup", "700",
    ])
    assert code == 0
    assert len(calls) == 1
    assert len(pairs) == 1
    payload = json.loads(out.read_text())
    assert all("error" not in r for r in payload["reports"])


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


@pytest.mark.parametrize("flags,field", [
    pytest.param(["--samples", "5"], "draws_per_chain", id="samples-5"),
    pytest.param(["--fold-samples", "5"], "draws_per_chain", id="fold-samples-5"),
    pytest.param(["--chains", "0"], "chains", id="chains-0"),
    pytest.param(["--warmup", "-1"], "warmup", id="warmup-negative"),
    pytest.param(["--groups", "2"], "N", id="groups-2"),
    pytest.param(["--threads", "0"], "workers", id="threads-0"),
])
def test_experiment_logit_invalid_config_exit_2(tmp_path, capsys, flags, field):
    out = tmp_path / "exp"
    code = main(["experiment", "logit", "--reps", "2", "--seed", "1",
                 "--out", str(out)] + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{field} must be" in err and f"got {flags[1]}" in err
    assert not out.exists()


def test_experiment_logit_deterministic_bytes(tmp_path):
    args = ["experiment", "logit", "--reps", "2", "--seed", "11",
            *FAST_LOGIT_FLAGS]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
    assert main(args + ["--out", str(out2), "--threads", "2"]) == 0
    for name in ("replications.csv", "aggregates.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_experiment_logit_aggregates_schema(tmp_path):
    out = tmp_path / "exp"
    code = main(["experiment", "logit", "--reps", "2", "--seed", "3",
                 *FAST_LOGIT_FLAGS, "--out", str(out)])
    assert code == 0
    agg = json.loads((out / "aggregates.json").read_text())
    cell = agg["cells"][0]
    for est in ("paic", "bpic", "waic2", "cv"):
        stats = cell["aggregates"][est]
        assert set(stats) == {"actual_err_mean", "actual_err_sd",
                              "abs_err_mean", "abs_err_sd",
                              "sq_err_mean", "sq_err_sd"}


def test_experiment_logit_hopeless_budget_exit_3(tmp_path, capsys):
    code = main([
        "experiment", "logit", "--reps", "2", "--seed", "7",
        "--chains", "2", "--samples", "60", "--warmup", "30",
        "--fold-samples", "60", "--fold-warmup", "30",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_threads_env_fallback(monkeypatch):
    from paic.cli import default_threads

    monkeypatch.setenv("PAIC_THREADS", "3")
    assert default_threads() == 3
    monkeypatch.delenv("PAIC_THREADS")
    assert default_threads() >= 1


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
