"""Print every end-to-end and per-layer metric of every workload.

    python3 perfbench/report.py [--seed 0] [--seconds 35]

Runs the outcome checker's self-test, then ``run.py`` once with
tracing off and once with tracing on for each workload, and prints one
table: metric, unit, and a column per workload.  Exits non-zero if the
self-test fails or any run reports ``"correct": false``.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=os.path.dirname(HERE), capture_output=True, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: no output\n{proc.stderr}")
    for line in lines[:-1]:
        if line.startswith(("env:", "timed:", "traced:", "outcomes:",
                            "problem:")):
            print(f"[{workload} trace={trace}] {line}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    ok = subprocess.run([sys.executable,
                         os.path.join(HERE, "outcomes.py")]).returncode == 0
    table: dict = {}
    for workload in names:
        for trace in (0, 1):
            result = run(workload, args.seed, args.seconds, trace)
            ok &= result["correct"]
            table.setdefault(("failed_frac", "frac"), {})[
                (workload, trace)] = result["failed"] / result["attempted"]
            for name, metric in result["metrics"].items():
                table.setdefault((name, metric["unit"]), {})[
                    (workload, trace)] = metric["value"]
    print(f"\n{'metric':<26}{'unit':<7}"
          + "".join(f"{w:>16}" for w in names))
    for (name, unit), values in table.items():
        cells = []
        for workload in names:
            value = values.get((workload, 0), values.get((workload, 1)))
            cells.append(f"{value:>16.6g}")
        print(f"{name:<26}{unit:<7}" + "".join(cells))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
