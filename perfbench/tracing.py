"""Spans around the public functions of each ``paic`` layer, from outside.

``install`` wraps every public function defined in a layer module and puts
the wrapper in place of the function at every ``paic`` module that holds it
(``paic.experiments.loo_exact``, ``paic.optimize.grad_fd``, ...). A span
records its function, start, end, parent span and item id in flat arrays; a
few functions also record attributes (sampler budget, mode iterations, bytes
read or written). ``per_layer_metrics`` derives the per-layer metrics that
BENCHMARK.json names from the spans, with self time = span time minus child
span time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("rng", "calculus", "models", "optimize", "infomat", "mcmc",
          "criteria", "experiments", "fileio", "cli")

# elementwise helpers called inside inner loops: a span per call would cost
# more than the work it measures
UNTRACED = {"models.softplus", "models.scaled_inv_chi2_logpdf", "fileio.fmt"}


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _mode_attrs(fn, args, kwargs, result, exc):
    if exc is not None:
        return {"converged": False}
    return {"iters": result.iterations, "converged": bool(result.converged)}


def _sampler_attrs(fn, args, kwargs, result, exc):
    budget = _bound(fn, args, kwargs)["budget"]
    diag = getattr(exc, "diagnostics", None) if exc is not None else result[1]
    attrs = {"iters": budget.chains * (budget.warmup + budget.draws_per_chain)}
    if diag is not None:
        attrs["accept"] = float(np.mean(diag.accept_rate))
        attrs["ok"] = bool(diag.ok())
    return attrs


def _pointwise_attrs(fn, args, kwargs, result, exc):
    return {} if exc is not None else {"cells": int(result.values.size)}


def _file_attrs(fn, args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _write_dir_attrs(fn, args, kwargs, result, exc):
    if exc is not None:
        return {}
    outdir = _bound(fn, args, kwargs)["outdir"]
    return {"bytes": sum(os.path.getsize(os.path.join(outdir, name))
                         for name in os.listdir(outdir))}


ATTRS = {
    "optimize.posterior_mode": _mode_attrs,
    "mcmc.sample_hier_logit": _sampler_attrs,
    "criteria.pointwise_loglik": _pointwise_attrs,
    "fileio.read_draws_csv": _file_attrs,
    "fileio.read_observations_csv": _file_attrs,
    "fileio.write_reports_json": _file_attrs,
    "fileio.write_experiment_outputs": _write_dir_attrs,
}


class Tracer:
    """In-memory span store; spans are written out when the run ends."""

    def __init__(self):
        self.names = []
        self.fn = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors = {}   # span -> exception class name
        self.attrs = {}    # span -> attribute dict
        self.stack = []
        self.item_id = -1
        self._swaps = []   # (module, attribute, function, wrapper)

    @contextlib.contextmanager
    def recording(self):
        """Put the wrappers in place for the duration of the block."""
        for mod, attr, _, new in self._swaps:
            setattr(mod, attr, new)
        try:
            yield self
        finally:
            for mod, attr, old, _ in reversed(self._swaps):
                setattr(mod, attr, old)

    def wrap(self, name, fn, item_arg=None):
        fid = len(self.names)
        self.names.append(name)
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.fn.append(fid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            outer_item = self.item_id
            if item_arg is not None:
                self.item_id = int(args[item_arg])
            self.item.append(self.item_id)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = perf_counter()
                self.errors[idx] = type(exc).__name__
                if attrs_of is not None:
                    self.attrs[idx] = attrs_of(fn, args, kwargs, None, exc)
                raise
            else:
                self.end[idx] = perf_counter()
                if attrs_of is not None:
                    self.attrs[idx] = attrs_of(fn, args, kwargs, result, None)
                return result
            finally:
                self.stack.pop()
                self.item_id = outer_item

        return traced

    def _swap(self, old, new):
        for mod in list(sys.modules.values()):
            if mod is None or not (mod.__name__ == "paic"
                                   or mod.__name__.startswith("paic.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self._swaps.append((mod, attr, old, new))

    def install(self):
        """Wrap every public function of every layer module; ``recording``
        puts the wrappers where the functions are."""
        for layer in LAYERS:
            mod = importlib.import_module(f"paic.{layer}")
            for attr, obj in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._swap(obj, self.wrap(name, obj))
        # a replication is the logit study's item; its span carries the item id
        exp = importlib.import_module("paic.experiments")
        rep = exp._logit_replication
        self._swap(rep, self.wrap("experiments._logit_replication", rep, item_arg=1))

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return fn, parent, dur, dur - child

    def save(self, path):
        errors = sorted(self.errors.items())
        np.savez_compressed(
            path, names=np.array(self.names), fn=np.asarray(self.fn),
            parent=np.asarray(self.parent), item=np.asarray(self.item),
            start=np.asarray(self.start), end=np.asarray(self.end),
            error_span=np.array([i for i, _ in errors], dtype=np.int64),
            error_name=np.array([e for _, e in errors], dtype=str))

    def function_table(self):
        fn, _, dur, self_t = self.arrays()
        table = {}
        for fid, name in enumerate(self.names):
            sel = fn == fid
            calls = int(sel.sum())
            if calls:
                table[name] = {"calls": calls, "total_s": float(dur[sel].sum()),
                               "self_s": float(self_t[sel].sum()),
                               "errors": sum(1 for i in np.flatnonzero(sel)
                                             if i in self.errors)}
        return table

    def layer_self_s(self):
        out = {layer: 0.0 for layer in LAYERS}
        for name, row in self.function_table().items():
            out[name.split(".")[0]] += row["self_s"]
        return out

    def spans_of(self, name):
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(np.frombuffer(self.fn, dtype=np.int32)
                              == self.names.index(name))

    def loo_folds(self):
        """(folds, flagged) over every exact-LOO call.

        A fold is one sampler call under ``loo_exact``; it is flagged when
        the Diagnostics it returned fail the gate, or when the fold's mode
        search or Laplace step raised just before it.
        """
        parent = np.frombuffer(self.parent, dtype=np.int32)
        fn = np.frombuffer(self.fn, dtype=np.int32)
        sampler = self.names.index("mcmc.sample_hier_logit") \
            if "mcmc.sample_hier_logit" in self.names else -2
        folds = flagged = 0
        for loo in self.spans_of("criteria.loo_exact"):
            mode_failed = False
            for child in np.flatnonzero(parent == loo):
                if fn[child] != sampler:
                    mode_failed |= child in self.errors
                    continue
                folds += 1
                flagged += int(mode_failed or not self.attrs.get(child, {}).get("ok", False))
                mode_failed = False
        return folds, flagged


def _attr_values(tracer, name, key):
    return [tracer.attrs[i][key] for i in tracer.spans_of(name)
            if key in tracer.attrs.get(i, {})]


def per_layer_metrics(tracer, measured, spec):
    """The per-layer metrics that ``spec`` (BENCHMARK.json's ``per_layer``
    list) names, with its units; ``measured`` holds the ones taken outside
    the spans (pool efficiency, import time, tracing overhead)."""
    table = tracer.function_table()
    values = dict(measured)

    modes = tracer.spans_of("optimize.posterior_mode")
    iters = _attr_values(tracer, "optimize.posterior_mode", "iters")
    values["optimize.newton_iters_mean"] = float(np.mean(iters)) if iters else 0.0
    values["optimize.converged_frac"] = (
        sum(_attr_values(tracer, "optimize.posterior_mode", "converged")) / modes.size
        if modes.size else 0.0)

    sampler = table.get("mcmc.sample_hier_logit", {})
    iters = sum(_attr_values(tracer, "mcmc.sample_hier_logit", "iters"))
    values["mcmc.iters_per_s"] = iters / sampler["self_s"] if sampler else 0.0
    values["mcmc.gate_fail.calls"] = sum(
        1 for i in tracer.spans_of("mcmc.sample_hier_logit")
        if tracer.errors.get(i) == "NonConvergenceError")
    accept = _attr_values(tracer, "mcmc.sample_hier_logit", "accept")
    values["mcmc.accept_rate_mean"] = float(np.mean(accept)) if accept else 0.0

    folds, flagged = tracer.loo_folds()
    values["criteria.loo_exact.folds_flagged_frac"] = flagged / folds if folds else 0.0
    pointwise = table.get("criteria.pointwise_loglik")
    values["criteria.pointwise_loglik.cells_per_s"] = (
        sum(_attr_values(tracer, "criteria.pointwise_loglik", "cells"))
        / pointwise["total_s"] if pointwise else 0.0)
    for name in ("fileio.write_experiment_outputs", "fileio.read_draws_csv"):
        values[f"{name}.bytes"] = sum(_attr_values(tracer, name, "bytes"))

    out = {}
    for metric in spec:
        name = metric["name"]
        if name not in values:
            # <layer>.<function>.<stat> of a wrapped function, 0 when not called
            head, _, stat = name.rpartition(".")
            if head not in tracer.names or stat not in ("calls", "total_s", "self_s"):
                raise KeyError(f"no rule gives the per-layer metric {name}")
            values[name] = table.get(head, {}).get(stat, 0)
        out[name] = {"value": values[name], "unit": metric["unit"]}
    return out
