"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it uses ``src/`` there and needs
no installation. A run

1. starts a fresh interpreter that imports ``paic`` and generates the
   workload's inputs from the seed, five times, and reports the median
   wall time as ``setup_s``;
2. runs the measured phase (``phase.py``) in a process of its own, with
   OpenBLAS and OpenMP pinned to one thread;
3. writes the full record (machine, versions, digests of every output,
   latency percentiles, per-function span table) to
   ``.bench_work/results/`` and prints it as one JSON line;
4. prints the result as the last line: ``correct``, ``attempted``,
   ``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
   per-layer metrics with ``--trace 1``).

Exit code 0 when a result was printed, 2 on bad arguments or a checkout
without ``BENCHMARK.json`` or ``src/paic``, 1 when a stage failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5
# time for the set-ups, the traced run's fixed replay and the record, on top
# of --seconds
MARGIN_S = 145.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class StageError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ, **PINNED)
    env.pop("PAIC_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_stage(cmd, env, deadline):
    """Run one stage in its own process group; kill the group on timeout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise StageError(f"no time left for {cmd[1:3]}")
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise StageError(f"timed out: {' '.join(cmd[1:3])}")
    if proc.returncode != 0:
        raise StageError(f"{' '.join(cmd[1:3])} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def read_first(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_record(env, seed, versions):
    cpu_model = None
    for line in (read_first("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read_first(index / "level"), read_first(index / "type")
        caches[f"L{level}-{kind}"] = read_first(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "env": {k: env[k] for k in PINNED},
    }


def main():
    if not SPEC.is_file():
        print(f"error: no {SPEC.name} in {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "paic" / "__init__.py").is_file():
        print(f"error: no paic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + args.seconds + MARGIN_S
    env = child_env()
    workers = len(os.sched_getaffinity(0))
    results = ROOT / ".bench_work" / "results"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    py = sys.executable
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir), "--workers", str(workers)]
    try:
        # the first set-up also compiles bytecode, which users do not pay per
        # run; the median of five leaves it out. A traced run reports no
        # set-up time and needs the inputs once.
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            run_stage([py, str(HERE / "inputs.py"), *common], env, deadline)
            setups.append(time.perf_counter() - t0)
        out = run_stage([py, str(HERE / "phase.py"), *common,
                         "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--spans", str(results / f"{tag}-spans.npz")],
                        env, deadline)
        phase = json.loads(out.strip().splitlines()[-1])
        record = {"workload": args.workload, "seconds": args.seconds,
                  "trace": args.trace, "workers": workers,
                  "machine": machine_record(env, args.seed, phase["versions"]),
                  "setup_s_samples": setups, **phase["details"]}
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = phase["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        print(f"error: metrics {sorted(set(got.items()) ^ set(expected.items()))} "
              f"disagree with {SPEC.name}", file=sys.stderr)
        return 1
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    correct = phase["failed"] == 0 and not record["problems"]
    print(json.dumps({"correct": correct, "attempted": phase["attempted"],
                      "failed": phase["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
