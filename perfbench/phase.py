"""Measured phase of one benchmark run, in a process of its own.

    python3 perfbench/phase.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --workers W [--spans FILE]

With ``--trace 0`` it runs batches of the workload end to end (study calls
with the worker pool, CLI requests as subprocesses) in a closed loop until
``--seconds`` would be exceeded, and reports throughput, latency, peak memory
and failures. With ``--trace 1`` it replays a fixed set of batches three
ways: end to end, in one process untraced, and in one process traced. The
first two give the worker-count determinism check, the pool efficiency and
the tracing overhead; the traced pass gives the per-layer metrics.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer, per_layer_metrics

IMPORT_REPEATS = 5
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def cpu_s(who):
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_batches(wl, ks, single_process, deadline=None):
    """Timed calls, untimed checks. With a deadline, batches continue while
    the next one is expected to finish before it."""
    start = time.perf_counter()
    latencies, digests, problems = [], {}, []
    items = failed = 0
    children_cpu = 0.0
    for k in ks:
        c0 = cpu_s(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        out = wl.call(k, single_process=single_process)
        latencies.append(time.perf_counter() - t0)
        children_cpu += cpu_s(resource.RUSAGE_CHILDREN) - c0
        checked = wl.check(k, out)
        items += checked.items
        failed += checked.failed
        digests[str(k)] = checked.digests
        problems += [f"batch {k}: {p}" for p in checked.problems]
        if deadline is not None and (time.perf_counter() - start
                                     + statistics.median(latencies)) > deadline:
            break
    return {"latencies": latencies, "items": items, "failed": failed,
            "digests": digests, "problems": problems, "children_cpu_s": children_cpu}


def tail(latencies):
    """Batch latency at the 90th percentile or above, with its percentile.

    With at least 100 samples it is the highest percentile that has ten
    samples beyond it. With fewer, that percentile would fall below the 90th
    (or below the median), so the interpolated 90th percentile is reported,
    with fewer than ten samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 100:
        return xs[n - 11], 100.0 * (n - 10) / n
    if n == 1:
        return xs[0], 100.0
    return statistics.quantiles(xs, n=10, method="inclusive")[-1], 90.0


def peak_rss_mb(wl):
    """Peak RSS of the processes that run the program end to end: this one
    when the program runs in it, plus one peak child per concurrent child
    (ru_maxrss is in KiB on Linux). An upper bound for a pool: forked
    workers share pages with the parent."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if wl.in_process else 0
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + wl.children() * child_kb) / 1024.0


def end_to_end(wl, seconds):
    wl.warmup()
    run = run_batches(wl, range(10 ** 9), single_process=False, deadline=seconds)
    lat = run["latencies"]
    tail_s, tail_pct = tail(lat)
    busy = sum(lat)
    metrics = {
        "items_per_s": {"value": run["items"] / busy, "unit": "items/s"},
        "latency_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "latency_tail_s": {"value": tail_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(wl), "unit": "MB"},
        "success_frac": {"value": 1.0 - run["failed"] / run["items"], "unit": "ratio"},
    }
    details = {
        "item": wl.item,
        "batch": wl.batch,
        "items": run["items"],
        "busy_s": busy,
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(lat),
        "latency_samples_beyond_tail": sum(1 for x in lat if x > tail_s),
        "digests": run["digests"],
        "problems": run["problems"],
    }
    if wl.name == "logit-study":
        details["pool_efficiency"] = run["children_cpu_s"] / (busy * wl.workers)
    return run["items"], run["failed"], metrics, details


def import_seconds():
    """Median cold ``import paic.cli`` minus median bare interpreter start,
    each in fresh processes, alternating."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        for code, out in (("pass", bare), ("import paic.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            out.append(time.perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)


def merge(runs):
    return {"latencies": [x for r in runs for x in r["latencies"]],
            "items": sum(r["items"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "digests": {k: v for r in runs for k, v in r["digests"].items()},
            "problems": [p for r in runs for p in r["problems"]],
            "children_cpu_s": sum(r["children_cpu_s"] for r in runs)}


def traced(wl, trace_path):
    """Each batch runs end to end, then in one process untraced, then traced,
    so the untraced and traced passes see the same warm state."""
    ks = range(wl.batches_traced)
    tracer = Tracer()
    tracer.install()
    wl.warmup()
    if wl.splits_modes:
        wl.warmup(single_process=True)
    e2e, single, traced_runs = [], [], []
    for k in ks:
        e2e.append(run_batches(wl, [k], single_process=False))
        single.append(run_batches(wl, [k], single_process=True)
                      if wl.splits_modes else e2e[-1])
        with tracer.recording():
            traced_runs.append(run_batches(wl, [k], single_process=True))
    tracer.save(trace_path)
    e2e, single, traced_run = merge(e2e), merge(single), merge(traced_runs)

    def ips(run):
        return run["items"] / sum(run["latencies"])

    problems = e2e["problems"] + single["problems"] + traced_run["problems"]
    failed = max(e2e["failed"], single["failed"], traced_run["failed"])
    if not (e2e["digests"] == single["digests"] == traced_run["digests"]):
        problems.append("outputs differ between the end-to-end, single-process "
                        "and traced passes")
        failed = traced_run["items"]
    busy = sum(e2e["latencies"])
    pool_eff = (e2e["children_cpu_s"] / (busy * wl.workers)
                if wl.name == "logit-study" else 0.0)
    measured = {
        "experiments.pool_efficiency": pool_eff,
        "cli.import_s": import_seconds(),
        "trace.overhead_frac": 1.0 - ips(traced_run) / ips(single),
    }
    metrics = per_layer_metrics(tracer, measured,
                                json.loads(SPEC.read_text())["per_layer"])
    wall = sum(traced_run["latencies"])
    table = tracer.function_table()
    details = {
        "item": wl.item,
        "batch": wl.batch,
        "batches": len(ks),
        "items": traced_run["items"],
        "items_per_s_end_to_end": ips(e2e),
        "items_per_s_single_process": ips(single),
        "items_per_s_traced": ips(traced_run),
        "traced_wall_s": wall,
        "spans": len(tracer.start),
        "layer_self_share": {k: v / wall for k, v in tracer.layer_self_s().items()},
        "functions": table,
        "digests": traced_run["digests"],
        "problems": problems,
    }
    rep = table.get("experiments._logit_replication")
    if rep:
        def within_rep(name, direct=False):
            spans = tracer.spans_of(name)
            if direct:
                rep_ix = tracer.names.index("experiments._logit_replication")
                parents = [tracer.parent[i] for i in spans]
                spans = [i for i, p in zip(spans, parents)
                         if p >= 0 and tracer.fn[p] == rep_ix]
            return sum(tracer.end[i] - tracer.start[i] for i in spans) / rep["total_s"]

        details["replication_share"] = {
            "loo_exact": within_rep("criteria.loo_exact"),
            "main_sampler": within_rep("mcmc.sample_hier_logit", direct=True),
            "diagnostics_all": within_rep("mcmc.compute_diagnostics"),
            "mode_main": within_rep("optimize.find_posterior_mode", direct=True),
            "info_matrices_main": within_rep("infomat.info_matrix_pair", direct=True),
            "eta_oracle": within_rep("experiments.true_predictive_loglik_exact"),
        }
    return traced_run["items"], failed, metrics, details


def versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--spans", help="file for the traced run's spans (.npz)")
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.workers,
                                            traced=bool(args.trace))
    wl.load()
    if args.trace:
        items, failed, metrics, details = traced(wl, args.spans)
    else:
        items, failed, metrics, details = end_to_end(wl, args.seconds)
    print(json.dumps({"attempted": items, "failed": failed, "metrics": metrics,
                      "versions": versions(), "details": details}))


if __name__ == "__main__":
    main()
