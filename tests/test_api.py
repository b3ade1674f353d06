"""The signatures the benchmark harness (perfbench/) calls into.

Each call below has the argument positions and names of a call in
``perfbench/workloads.py``, or of a call whose arguments the harness's tracer
reads by name (``perfbench/tracing.py``), so a signature change that would
break the benchmark fails here first.  Binding checks the signature only;
the arguments are placeholders.
"""

import inspect

import pytest

import paic
import paic.cli
import paic.fileio
from paic.experiments import _logit_replication

X = object()  # a placeholder argument

WORKLOAD_CALLS = [
    pytest.param(paic.sample_hier_logit, (X, X),
                 dict(budget=X, seed=X, init=X, check=False), id="sample_hier_logit"),
    pytest.param(paic.find_posterior_mode, (X, X), dict(seed=X), id="find_posterior_mode"),
    pytest.param(paic.laplace_approx, (X, X, X), {}, id="laplace_approx"),
    pytest.param(paic.info_matrix_pair, (X, X, X, "bpic"), {}, id="info_matrix_pair"),
    pytest.param(paic.trace_correction, (X,), {}, id="trace_correction"),
    pytest.param(paic.PosteriorDraws, (X, X, 0, X), {}, id="PosteriorDraws"),
    pytest.param(paic.ModelDefinition, (), dict(p=1, loglik_i_fn=X, logprior_fn=X),
                 id="ModelDefinition"),
    pytest.param(paic.HierLogitModel, (X,), {}, id="HierLogitModel"),
    pytest.param(paic.ConjugateNormalModel, (X, X, X), {}, id="ConjugateNormalModel"),
    pytest.param(paic.ObservationSet, (X, X), {}, id="ObservationSet"),
    pytest.param(paic.SamplerBudget, (X, X, X), {}, id="SamplerBudget"),
    pytest.param(paic.NormalExperimentConfig, (), dict(replications=X, seed=X),
                 id="NormalExperimentConfig"),
    pytest.param(paic.LogitExperimentConfig, (), dict(replications=X, seed=X, workers=X),
                 id="LogitExperimentConfig"),
    pytest.param(paic.run_normal_bias_experiment, (X,), {}, id="run_normal_bias_experiment"),
    pytest.param(paic.run_logit_experiment, (X,), {}, id="run_logit_experiment"),
    pytest.param(paic.pointwise_loglik, (X, X, X), {}, id="pointwise_loglik"),
    pytest.param(paic.paic, (X, X), {}, id="paic"),
    pytest.param(paic.waic2, (X,), {}, id="waic2"),
    pytest.param(paic.closed_form_bias_estimators, (X, X), {},
                 id="closed_form_bias_estimators"),
    pytest.param(paic.fileio.provenance, (X, X), {}, id="provenance"),
    pytest.param(paic.fileio.write_experiment_outputs, (X, X, X), {},
                 id="write_experiment_outputs"),
    pytest.param(paic.fileio.write_draws_csv, (X, X), {}, id="write_draws_csv"),
    pytest.param(paic.cli.main, (X,), {}, id="cli.main"),
]


@pytest.mark.parametrize("fn, args, kwargs", WORKLOAD_CALLS)
def test_workload_calls_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


# (function, the program's call as (args, kwargs), the argument the tracer reads)
TRACED_READS = [
    pytest.param(paic.sample_hier_logit, (X, X), dict(budget=X, seed=X, init=X), "budget",
                 id="sample_hier_logit.budget"),
    pytest.param(paic.fileio.read_draws_csv, (X,), {}, "path", id="read_draws_csv.path"),
    pytest.param(paic.fileio.read_observations_csv, (X,), {}, "path",
                 id="read_observations_csv.path"),
    pytest.param(paic.fileio.write_reports_json, (X, X, X), dict(errors=X), "path",
                 id="write_reports_json.path"),
    pytest.param(paic.fileio.write_experiment_outputs, (X, X, X), {}, "outdir",
                 id="write_experiment_outputs.outdir"),
]


@pytest.mark.parametrize("fn, args, kwargs, name", TRACED_READS)
def test_traced_arguments_bind_by_name(fn, args, kwargs, name):
    assert inspect.signature(fn).bind(*args, **kwargs).arguments[name] is X


def test_logit_replication_takes_the_replication_second():
    # the tracer reads a replication span's item id from positional argument 1
    bound = inspect.signature(_logit_replication).bind(X, 7)
    assert list(bound.arguments.values())[1] == 7
