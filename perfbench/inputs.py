"""Set-up stage: import ``paic`` and generate one workload's inputs.

    python3 perfbench/inputs.py --workload NAME --seed N --workdir DIR --workers W

``run.py`` times this script from interpreter start to exit as ``setup_s``.
"""

import argparse

import paic  # noqa: F401  (the import is part of what set-up measures)
import workloads


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workers", type=int, required=True)
    args = ap.parse_args()
    workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.workers).make_inputs()


if __name__ == "__main__":
    main()
