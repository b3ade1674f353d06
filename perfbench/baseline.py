"""Write BASELINE.json from the records of traced runs.

    python3 perfbench/run.py --workload NAME --seed 1 --seconds 25 --trace 1   # each workload
    python3 perfbench/baseline.py

Reads ``.bench_work/results/<workload>-seed1-trace1.json`` and records,
per workload, its reason for existing (from BENCHMARK.json), each layer's
self-time share of the traced wall time, the inclusive share of the
functions named in the ROADMAP baselines, and whether those baselines
reproduce.
"""

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_work" / "results"
SEED = 1

# inclusive shares of the traced wall time worth tracking, per workload
KEY_FUNCTIONS = {
    "normal-study": ("optimize.posterior_mode", "infomat.info_matrix_pair",
                     "infomat.trace_correction", "rng.substream",
                     "criteria.closed_form_bias_estimators",
                     "fileio.write_experiment_outputs"),
    "logit-study": ("criteria.loo_exact", "mcmc.sample_hier_logit",
                    "mcmc.compute_diagnostics", "optimize.find_posterior_mode"),
    "compute-cli": ("fileio.read_draws_csv", "criteria.pointwise_loglik",
                    "optimize.find_posterior_mode", "infomat.info_matrix_pair"),
    "generic-model": ("criteria.pointwise_loglik", "optimize.find_posterior_mode",
                      "infomat.info_matrix_pair", "calculus.hess_fd"),
}


def verdicts(name, rec, inclusive):
    """The ROADMAP item 1 baselines, judged on the measured shares."""
    if name == "logit-study":
        loo = rec["replication_share"]["loo_exact"]
        return {"LOO ~86% of a logit replication":
                f"measured {loo:.1%}: {'reproduces' if abs(loo - 0.86) <= 0.05 else 'differs'}"}
    if name == "normal-study":
        cross = sum(inclusive[f] for f in KEY_FUNCTIONS[name][:3])
        closed = inclusive["criteria.closed_form_bias_estimators"]
        holds = cross > 0.5 and cross > 5 * closed
        return {"generic cross-check dominates the normal study":
                f"mode + info matrices + traces {cross:.1%} vs closed forms "
                f"{closed:.1%}: {'reproduces' if holds else 'differs'}"}
    return {}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        rec = json.loads((RESULTS / f"{name}-seed{SEED}-trace1.json").read_text())
        wall = rec["traced_wall_s"]
        inclusive = {f: rec["functions"].get(f, {}).get("total_s", 0.0) / wall
                     for f in KEY_FUNCTIONS[name]}
        out[name] = {
            "why": workload["why"],
            "item": rec["item"],
            "seed": SEED,
            "machine": {k: rec["machine"][k] for k in
                        ("nproc", "cpu_model", "python", "numpy", "scipy", "blas_version")},
            "traced_items": rec["items"],
            "traced_wall_s": round(wall, 4),
            "layer_self_share": {k: round(v, 4) for k, v in rec["layer_self_share"].items()},
            "inclusive_share": {k: round(v, 4) for k, v in inclusive.items()},
            **({"replication_share": {k: round(v, 4) for k, v in
                                      rec["replication_share"].items()}}
               if "replication_share" in rec else {}),
            "roadmap_baselines": verdicts(name, rec, inclusive),
            "trace_overhead": {k: rec[k] for k in ("items_per_s_single_process",
                                                   "items_per_s_traced")},
        }
    (HERE / "BASELINE.json").write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
