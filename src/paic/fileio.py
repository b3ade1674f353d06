"""File formats: observation CSV, draw CSV, report JSON/CSV, experiment outputs.

All numeric CSV fields are written with 17 significant digits and no locale
formatting, so outputs are byte-stable across runs and round-trip exactly.
Every output file embeds provenance: tool version, a hash of the canonical
config JSON, and the seed.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import warnings
from contextlib import closing

import numpy as np

from ._version import __version__
from .criteria import CriterionReport
from .exceptions import ValidationError
from .experiments import ExperimentResult, LOGIT_ESTIMATORS, NORMAL_ESTIMATORS
from .mcmc import PosteriorDraws
from .models import ObservationSet


def fmt(x: float) -> str:
    return "{:.17g}".format(float(x))


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def provenance(config: dict, seed: int) -> dict:
    return {
        "tool_version": __version__,
        "config_hash": config_hash(config),
        "seed": int(seed),
    }


def _parse_float(text: str, path: str, lineno: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: column {column!r} is not numeric: {text!r}")
    if math.isnan(value) or math.isinf(value):
        raise ValidationError(f"{path}:{lineno}: column {column!r} is not finite: {text!r}")
    return value


def _csv_rows(path: str):
    """Yield the stripped header of a UTF-8 CSV file (a leading byte-order mark
    is dropped), then (line number, fields) for each non-blank row below it,
    checked to have as many fields as the header."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        reader = csv.reader(f)
        try:
            header = [h.strip() for h in next(reader)]
            yield header
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise ValidationError(f"{path}:{lineno}: expected {len(header)} fields")
                yield lineno, row
        except StopIteration:  # from next(reader): no header line
            raise ValidationError(f"{path}: empty file")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})")


def data_row_line(path: str, index: int) -> int:
    """Line number of the CSV file's row ``index`` (from 0) below its header,
    blank rows skipped as the readers skip them."""
    with closing(_csv_rows(path)) as lines:
        next(lines)
        return next(itertools.islice(lines, index, None))[0]


def read_observations_csv(path: str) -> ObservationSet:
    """Strict reader for the data schema: header 'y' or 'y,n_trials'."""
    lines = _csv_rows(path)
    header = next(lines)
    if header == ["y"]:
        with_trials = False
    elif header == ["y", "n_trials"]:
        with_trials = True
    else:
        raise ValidationError(
            f"{path}:1: expected header 'y' or 'y,n_trials', got {','.join(header)!r}"
        )
    ys = []
    trials = []
    for lineno, row in lines:
        ys.append(_parse_float(row[0], path, lineno, "y"))
        if with_trials:
            t = _parse_float(row[1], path, lineno, "n_trials")
            if t != int(t) or not 1 <= t < 2 ** 63:
                raise ValidationError(
                    f"{path}:{lineno}: n_trials must be a positive integer below 2**63"
                )
            trials.append(int(t))
    y = np.asarray(ys, dtype=float)
    return ObservationSet(y, np.asarray(trials, dtype=int) if with_trials else None)


def write_draws_csv(path: str, draws: PosteriorDraws) -> None:
    """Header theta_1..theta_p,chain; one row per retained draw."""
    header = ",".join([f"theta_{k + 1}" for k in range(draws.p)] + ["chain"])
    with open(path, "w", newline="") as f:
        np.savetxt(f, np.column_stack([draws.draws, draws.chain_ids]),
                   fmt=["%.17g"] * draws.p + ["%d"], delimiter=",", newline="\r\n",
                   header=header, comments="")


def read_draws_csv(path: str) -> PosteriorDraws:
    """Header theta_1..theta_p,chain; p float columns and an integer chain id.

    The body is parsed by one ``np.loadtxt`` call.  What it does not parse
    cleanly (a non-numeric field, quotes, all-empty rows, a wrong field
    count, a warning such as the one for an empty body) or a non-finite value
    goes to the row parser, which accepts or rejects the file with the
    message and line number of the bad field."""
    with closing(_csv_rows(path)) as lines:
        header = next(lines)
        p = len(header) - 1
        if p < 1 or header != [f"theta_{k + 1}" for k in range(p)] + ["chain"]:
            raise ValidationError(f"{path}:1: expected header theta_1..theta_p,chain")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                body = np.loadtxt(path, dtype=[("theta", float, (p,)), ("chain", int)],
                                  delimiter=",", comments=None, skiprows=1, ndmin=1,
                                  encoding="utf-8")
        except (ValueError, Warning):
            body = None
        if body is None or not np.all(np.isfinite(body["theta"])):
            theta, ids = _parse_draw_rows(path, header, lines)
        else:
            theta, ids = body["theta"].copy(), body["chain"].copy()
    return PosteriorDraws(draws=theta, chain_ids=ids, warmup_discarded=0, seed=0)


def _parse_draw_rows(path: str, header: list, lines):
    """Draw matrix and chain ids from the (line number, fields) rows."""
    p = len(header) - 1
    rows = []
    ids = []
    for lineno, row in lines:
        rows.append([_parse_float(c, path, lineno, header[j])
                     for j, c in enumerate(row[:p])])
        try:
            ids.append(int(row[p]))
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: chain id must be an integer")
    if not rows:
        raise ValidationError(f"{path}: no draws")
    return np.asarray(rows, dtype=float), np.asarray(ids, dtype=int)


# -- criterion reports -----------------------------------------------------

REPORT_CSV_HEADER = ["criterion", "value", "fit", "penalty", "n", "S",
                     "seed", "warnings", "notes"]


def report_to_dict(report: CriterionReport) -> dict:
    return {
        "criterion": report.name,
        "value": report.value,
        "fit": report.fit_term,
        "penalty": report.penalty,
        "n": report.n,
        "S": report.S,
        "seed": report.seed,
        "warnings": list(report.warnings),
        "notes": report.notes,
    }


def report_from_dict(d: dict) -> CriterionReport:
    return CriterionReport(
        name=d["criterion"],
        value=float(d["value"]),
        fit_term=float(d["fit"]),
        penalty=float(d["penalty"]),
        n=int(d["n"]),
        S=int(d["S"]),
        notes=d.get("notes", ""),
        warnings=tuple(d.get("warnings", ())),
        seed=d.get("seed"),
    )


def error_to_dict(name: str, exc: Exception) -> dict:
    """Its message, class name and the numbers the exception carries."""
    entry = {"criterion": name, "error": str(exc), "error_type": type(exc).__name__}
    for field in ("border_mass", "cond", "eigenvalues"):
        if getattr(exc, field, None) is not None:
            entry[field] = np.asarray(getattr(exc, field), dtype=float).tolist()
    return entry


def write_reports_json(path: str, reports, prov: dict, errors=()) -> None:
    """Reports plus (criterion, exception) error entries (partial success)."""
    entries = [report_to_dict(r) for r in reports]
    entries += [error_to_dict(name, exc) for name, exc in errors]
    payload = {"provenance": prov, "reports": entries}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def read_reports_json(path: str):
    """Returns (provenance, reports, errors); errors as their entries' dicts."""
    with open(path) as f:
        payload = json.load(f)
    reports = [report_from_dict(d) for d in payload["reports"] if "error" not in d]
    errors = [d for d in payload["reports"] if "error" in d]
    return payload["provenance"], reports, errors


def write_reports_csv(path: str, reports, prov: dict, errors=()) -> None:
    with open(path, "w", newline="") as f:
        f.write(
            f"# tool_version={prov['tool_version']} "
            f"config_hash={prov['config_hash']} seed={prov['seed']}\n"
        )
        writer = csv.writer(f)
        writer.writerow(REPORT_CSV_HEADER)
        for r in reports:
            writer.writerow([
                r.name, fmt(r.value), fmt(r.fit_term), fmt(r.penalty),
                str(r.n), str(r.S),
                "" if r.seed is None else str(r.seed),
                ";".join(r.warnings), r.notes,
            ])
        for name, exc in errors:
            writer.writerow([name, "", "", "", "", "",
                             "" if prov.get("seed") is None else str(prov["seed"]),
                             "", f"error: {exc}"])


# -- experiment outputs ------------------------------------------------------


def _write_normal_replications(path: str, result: ExperimentResult) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["experiment", "n", "tau02_rule", "sigma_A2",
                         "replication", "estimator", "estimate", "true_bias"])
        for cell in result.cells:
            k = cell.keys
            reps = cell.records["replication"].astype(int)
            for est in NORMAL_ESTIMATORS:
                col = cell.records[f"b_{est}"]
                for r, v in zip(reps, col):
                    writer.writerow([
                        "normal", str(k["n"]), k["tau02_rule"], fmt(k["sigma_A2"]),
                        str(r), est, fmt(v), fmt(k["true_bias"]),
                    ])


def _write_logit_replications(path: str, result: ExperimentResult) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["experiment", "N", "n_i", "replication", "estimator",
                         "estimate", "eta_hat", "eta_true", "actual_error"])
        for cell in result.cells:
            k = cell.keys
            recs = cell.records
            reps = recs["replication"].astype(int)
            for est in LOGIT_ESTIMATORS:
                for idx, r in enumerate(reps):
                    writer.writerow([
                        "logit", str(k["N"]), str(k["n_i"]), str(r), est,
                        fmt(recs[f"b_{est}"][idx]),
                        fmt(recs["eta_hat"][idx]),
                        fmt(recs["eta_true"][idx]),
                        fmt(recs[f"err_{est}"][idx]),
                    ])


def _write_normal_plot_data(outdir: str, result: ExperimentResult) -> None:
    """Two-column (n, mean bias) files per estimator and panel, plus the
    true-bias curve, matching the bias-versus-sample-size plot layout."""
    panels = {}
    for cell in result.cells:
        key = (cell.keys["tau02_rule"], cell.keys["sigma_A2"])
        panels.setdefault(key, []).append(cell)
    for (rule, sigma_A2), cells in panels.items():
        cells = sorted(cells, key=lambda c: c.keys["n"])
        tag = f"tau02_{rule}__sigmaA2_{sigma_A2:g}"
        for est in NORMAL_ESTIMATORS + ("true",):
            path = os.path.join(outdir, f"plot_normal__{tag}__{est}.csv")
            with open(path, "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(["n", "mean_bias"])
                for cell in cells:
                    if est == "true":
                        v = cell.keys["true_bias"]
                    else:
                        v = cell.aggregates[est]["mean"]
                    writer.writerow([str(cell.keys["n"]), fmt(v)])


def write_experiment_outputs(outdir: str, result: ExperimentResult, prov: dict) -> None:
    """replications.csv + aggregates.json (+ plot data for the normal study)."""
    os.makedirs(outdir, exist_ok=True)
    rep_path = os.path.join(outdir, "replications.csv")
    if result.experiment == "normal":
        _write_normal_replications(rep_path, result)
        _write_normal_plot_data(outdir, result)
    elif result.experiment == "logit":
        _write_logit_replications(rep_path, result)
    else:
        raise ValidationError(f"unknown experiment kind {result.experiment!r}")
    payload = {
        "provenance": prov,
        "experiment": result.experiment,
        "config": result.config,
        "cells": [
            {
                "keys": cell.keys,
                "excluded": cell.excluded,
                "aggregates": cell.aggregates,
            }
            for cell in result.cells
        ],
    }
    with open(os.path.join(outdir, "aggregates.json"), "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
