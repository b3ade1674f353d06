"""The benchmark's four workloads.

A workload makes its inputs from the benchmark seed (``make_inputs``, run in a
fresh interpreter and timed as set-up). It then runs *batches* through the
public API or the CLI. A batch is one timed call: a study call, one CLI
request or one user-model dataset. ``check`` verifies a batch's outputs
outside the timing and returns how many items it held, how many of them
failed and the sha256 of its outputs.

Program functions are looked up as module attributes at call time
(``paic.fileio.write_experiment_outputs``), so the traced run's wrappers
see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import paic
import paic.cli
import paic.fileio

REL_TOL = 1e-6
WARMUP_BATCH = 99_999  # batch index of untimed warm-up calls
CLI_ENTRY = "from paic.cli import entry; entry()"


def batch_seed(seed: int, k: int) -> int:
    """Seed of batch k; distinct batches get distinct (config, seed) pairs."""
    return seed * 100_000 + k


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def dir_digests(outdir: str) -> dict:
    return {name: sha256_file(os.path.join(outdir, name))
            for name in sorted(os.listdir(outdir))}


def rel_err(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)) / np.abs(np.asarray(b))


@dataclass
class Checked:
    items: int
    failed: int
    digests: dict
    problems: list = field(default_factory=list)


class Workload:
    name = ""
    item = ""   # what items_per_s counts
    batch = ""  # what one timed call is
    batches_traced = 1   # batches the traced run replays, from batch 0
    splits_modes = False  # the end-to-end mode differs from the single-process one
    in_process = True     # the program runs in the measuring process end to end

    def __init__(self, seed: int, workdir: str, workers: int, traced: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.workers = workers
        self.traced = traced
        self.inputs = os.path.join(workdir, "inputs")

    def outdir(self, k: int) -> str:
        return os.path.join(self.workdir, "out", str(k))

    def make_inputs(self) -> None:
        os.makedirs(self.inputs, exist_ok=True)

    def load(self) -> None:
        pass

    def warmup(self, single_process: bool = False) -> None:
        """Untimed call that lets lazy set-up finish before timing."""

    def children(self) -> int:
        """Child processes alive at once while an end-to-end batch runs."""
        return 0

    def call(self, k: int, single_process: bool = False):
        raise NotImplementedError

    def check(self, k: int, out) -> Checked:
        raise NotImplementedError


# -- normal study -------------------------------------------------------------


class NormalStudy(Workload):
    """The normal study on its default grid, 25 replications per study call."""

    name = "normal-study"
    item = "replication-cell"
    batch = "study call"
    batches_traced = 8
    REPS = 25

    def _run(self, reps: int, seed: int, outdir: str):
        cfg = paic.NormalExperimentConfig(replications=reps, seed=seed)
        result = paic.run_normal_bias_experiment(cfg)
        prov = paic.fileio.provenance(result.config, seed)
        paic.fileio.write_experiment_outputs(outdir, result, prov)
        return result, outdir

    def warmup(self, single_process=False):
        _, outdir = self._run(1, batch_seed(self.seed, WARMUP_BATCH),
                              self.outdir(WARMUP_BATCH))
        shutil.rmtree(outdir)

    def call(self, k, single_process=False):
        return self._run(self.REPS, batch_seed(self.seed, k), self.outdir(k))

    def check(self, k, out):
        result, outdir = out
        items = failed = 0
        for cell in result.cells:
            r = cell.records
            bad = ((rel_err(r["b_paic_generic"], r["b_paic"]) > REL_TOL)
                   | (rel_err(r["b_bpic_generic"], r["b_bpic"]) > REL_TOL)
                   | ~np.isfinite(r["b_paic_generic"])
                   | ~np.isfinite(r["b_bpic_generic"]))
            items += bad.size
            failed += int(bad.sum())
        digests = dir_digests(outdir)
        shutil.rmtree(outdir)
        problems = [f"{failed} replication-cells: generic trace != closed form"] \
            if failed else []
        return Checked(items, failed, digests, problems)


# -- logit study --------------------------------------------------------------


class LogitStudy(Workload):
    """The logit study with default budgets and the exact eta oracle.

    R is a multiple of the worker count: six replications per worker in a
    timed run, one per worker in the traced run, which replays the call in
    a single process.
    """

    name = "logit-study"
    item = "replication"
    batch = "study call"
    splits_modes = True

    @property
    def reps(self):
        return self.workers * (1 if self.traced else 6)

    def children(self):
        return self.workers

    def call(self, k, single_process=False):
        seed = batch_seed(self.seed, k)
        cfg = paic.LogitExperimentConfig(
            replications=self.reps, seed=seed,
            workers=1 if single_process else self.workers)
        try:
            result = paic.run_logit_experiment(cfg)
        except paic.PaicError as exc:
            return exc, None
        outdir = self.outdir(k)
        paic.fileio.write_experiment_outputs(
            outdir, result, paic.fileio.provenance(result.config, seed))
        return result, outdir

    def check(self, k, out):
        result, outdir = out
        R = self.reps
        if isinstance(result, Exception):
            return Checked(R, R, {}, [f"{type(result).__name__}: {result}"])
        problems = []
        cell = result.cells[0]
        finite = np.all([np.isfinite(v) for v in cell.records.values()], axis=0)
        failed = cell.excluded + int(np.sum(~finite))
        if cell.excluded:
            problems.append(f"{cell.excluded} replication(s) excluded")
        if cell.excluded > paic.LogitExperimentConfig().max_fail_frac * R:
            problems.append("exclusions above max_fail_frac")
            failed = R
        if not finite.all():
            problems.append("non-finite replication record")
        digests = dir_digests(outdir)
        shutil.rmtree(outdir)
        return Checked(R, failed, digests, problems)


# -- paic compute through the CLI ---------------------------------------------


class ComputeCli(Workload):
    """One client, closed loop: each request is a fresh ``paic compute``."""

    name = "compute-cli"
    item = batch = "request"
    batches_traced = 5
    splits_modes = True
    in_process = False
    GROUPS = 15
    TRIALS = 50
    BUDGET = (3, 5000, 2000)  # 15000 retained draws of 17 parameters
    CRITERIA = ("paic", "bpic", "waic2", "dic")

    @property
    def data_csv(self):
        return os.path.join(self.inputs, "counts.csv")

    @property
    def draws_csv(self):
        return os.path.join(self.inputs, "draws.csv")

    def make_inputs(self):
        super().make_inputs()
        trials = np.full(self.GROUPS, self.TRIALS)
        model = paic.HierLogitModel(trials)
        for attempt in range(20):
            gen = np.random.default_rng([self.seed, attempt])
            beta = gen.standard_normal(self.GROUPS)
            y = gen.binomial(trials, 1.0 / (1.0 + np.exp(-beta)))
            data = paic.ObservationSet(y.astype(float), trials)
            mode = paic.find_posterior_mode(model, data, seed=self.seed)
            if mode.converged:
                break
        else:
            raise RuntimeError("no dataset with a converged posterior mode")
        draws, _ = paic.sample_hier_logit(
            model, data, budget=paic.SamplerBudget(*self.BUDGET), seed=self.seed,
            init=paic.laplace_approx(model, data, mode), check=False)
        with open(self.data_csv, "w") as f:
            f.write("y,n_trials\n")
            f.writelines(f"{int(v)},{int(t)}\n" for v, t in zip(y, trials))
        paic.fileio.write_draws_csv(self.draws_csv, draws)

    def children(self):
        return 1

    def warmup(self, single_process=False):
        # a subprocess request has nothing to warm beyond the page cache
        if single_process:
            _, path, _ = self.call(WARMUP_BATCH, single_process=True)
            shutil.rmtree(os.path.dirname(path))

    def argv(self, k):
        os.makedirs(self.outdir(k), exist_ok=True)
        return ["compute", "--model", "hier-logit", "--data", self.data_csv,
                "--draws", self.draws_csv, "--criteria", ",".join(self.CRITERIA),
                "--seed", str(batch_seed(self.seed, k)),
                "--out", os.path.join(self.outdir(k), "report.json")]

    def call(self, k, single_process=False):
        argv = self.argv(k)
        if single_process:
            return paic.cli.main(argv), argv[-1], ""
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv],
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, argv[-1], proc.stderr

    def check(self, k, out):
        code, path, stderr = out
        if code != 0:
            return Checked(1, 1, {}, [f"exit code {code}: {stderr.strip()[-200:]}"])
        with open(path) as f:
            entries = json.load(f)["reports"]
        problems = [f"{e['criterion']}: {e['error']}" for e in entries if "error" in e]
        if sorted(e["criterion"] for e in entries) != sorted(self.CRITERIA):
            problems.append("report set differs from the requested criteria")
        for e in entries:
            if "error" in e:
                continue
            expect = -2.0 * e["fit"] + 2.0 * e["penalty"]
            if not math.isclose(e["value"], expect, rel_tol=1e-12, abs_tol=1e-12):
                problems.append(f"{e['criterion']}: value != -2*fit + 2*penalty")
        digests = {"report.json": sha256_file(path)}
        shutil.rmtree(os.path.dirname(path))
        return Checked(1, 1 if problems else 0, digests, problems)


# -- a user model without analytic derivatives ---------------------------------


def normal_user_model(sigma_A2: float, mu0: float, tau02: float):
    """Conjugate-normal log density as plain callables: every derivative
    falls back to finite differences and every matrix to per-observation loops."""
    c_lik = -0.5 * (math.log(2.0 * math.pi) + math.log(sigma_A2))
    c_pri = -0.5 * (math.log(2.0 * math.pi) + math.log(tau02))

    def loglik_i(theta, i, data):
        r = data.y[i] - theta[0]
        return c_lik - 0.5 * r * r / sigma_A2

    def logprior(theta):
        d = theta[0] - mu0
        return c_pri - 0.5 * d * d / tau02

    return paic.ModelDefinition(p=1, loglik_i_fn=loglik_i, logprior_fn=logprior)


class GenericModel(Workload):
    """Closed loop over datasets scored with a user ``ModelDefinition``."""

    name = "generic-model"
    item = batch = "dataset"
    batches_traced = 8
    N = 50
    S = 1000
    DATASETS = 256
    SIGMA_A2 = (1.0, 2.25, 0.25)
    MU0 = 0.0
    TAU02 = 1e4

    @property
    def npz(self):
        return os.path.join(self.inputs, "datasets.npz")

    def make_inputs(self):
        super().make_inputs()
        gen = np.random.default_rng(self.seed)
        sigma_A2 = np.resize(np.asarray(self.SIGMA_A2), self.DATASETS)
        y = gen.standard_normal((self.DATASETS, self.N))
        # exact conjugate posterior draws for each dataset
        post_var = 1.0 / (1.0 / self.TAU02 + self.N / sigma_A2)
        post_mean = (self.MU0 / self.TAU02 + y.sum(axis=1) / sigma_A2) * post_var
        draws = post_mean[:, None] + np.sqrt(post_var)[:, None] \
            * gen.standard_normal((self.DATASETS, self.S))
        np.savez(self.npz, y=y, sigma_A2=sigma_A2, draws=draws)

    def load(self):
        with np.load(self.npz) as f:
            self.y, self.sigma_A2, self.draws = f["y"], f["sigma_A2"], f["draws"]

    def warmup(self, single_process=False):
        self.call(self.DATASETS - 1)

    def call(self, k, single_process=False):
        d = k % self.DATASETS
        sigma_A2 = float(self.sigma_A2[d])
        model = normal_user_model(sigma_A2, self.MU0, self.TAU02)
        data = paic.ObservationSet(self.y[d])
        mode = paic.find_posterior_mode(model, data, seed=batch_seed(self.seed, k))
        pair_paic = paic.info_matrix_pair(model, data, mode.theta_hat, "paic")
        pair_bpic = paic.info_matrix_pair(model, data, mode.theta_hat, "bpic")
        tr_paic = paic.trace_correction(pair_paic).value
        tr_bpic = paic.trace_correction(pair_bpic).value
        draws = paic.PosteriorDraws(self.draws[d].reshape(-1, 1),
                                    np.zeros(self.S, dtype=int), 0, self.seed)
        pw = paic.pointwise_loglik(model, data, draws)
        return {
            "dataset": d, "sigma_A2": sigma_A2, "data": data,
            "theta_hat": mode.theta_hat, "tr_paic": tr_paic, "tr_bpic": tr_bpic,
            "paic": paic.paic(pw, pair_paic), "waic2": paic.waic2(pw),
        }

    def check(self, k, out):
        n = self.N
        cf = paic.closed_form_bias_estimators(
            paic.ConjugateNormalModel(out["sigma_A2"], self.MU0, self.TAU02),
            out["data"])
        problems = []
        if rel_err(out["tr_paic"] / n, cf.paic) > REL_TOL:
            problems.append("tr_paic/n != closed-form paic")
        if rel_err(out["tr_bpic"] / n, cf.bpic) > REL_TOL:
            problems.append("tr_bpic/n != closed-form bpic")
        for rep in (out["paic"], out["waic2"]):
            if not math.isclose(rep.value, -2.0 * rep.fit_term + 2.0 * rep.penalty,
                                rel_tol=1e-12, abs_tol=1e-12):
                problems.append(f"{rep.name}: value != -2*fit + 2*penalty")
        summary = {
            "dataset": out["dataset"],
            "theta_hat": [repr(float(v)) for v in out["theta_hat"]],
            "tr_paic": repr(out["tr_paic"]), "tr_bpic": repr(out["tr_bpic"]),
            **{rep.name: [repr(rep.value), repr(rep.fit_term), repr(rep.penalty)]
               for rep in (out["paic"], out["waic2"])},
        }
        digest = hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()
        return Checked(1, 1 if problems else 0, {"result": digest}, problems)


WORKLOADS = {w.name: w for w in (NormalStudy, LogitStudy, ComputeCli, GenericModel)}
