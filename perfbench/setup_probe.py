"""One set-up probe: import ``repro`` and the workload's drivers in a
fresh interpreter, generate the workload's inputs, and exit before the
first simulated event.  ``run.py`` times this whole process.

    python3 perfbench/setup_probe.py --workload soak-50 --seed 0
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (needs src on the path)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workloads.prepare(args.workload, args.seed)


if __name__ == "__main__":
    main()
