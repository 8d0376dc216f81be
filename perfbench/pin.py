"""Re-pin the per-operation outcomes the benchmark checks against.

    python3 perfbench/pin.py [workload ...]

Runs each workload once at the default seed and writes
``perfbench/pins/<workload>.json``.  Re-pin only when a change is meant
to alter simulated outcomes, and say so in that change.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import outcomes  # noqa: E402
import workloads  # noqa: E402


def pin(name: str, seed: int = outcomes.DEFAULT_SEED) -> None:
    run = workloads.step_runner(name, seed)
    pinned = {}
    for step in workloads.prepare(name, seed):
        for op_id, outcome, invariant_failures in run(step):
            if invariant_failures:
                raise SystemExit(f"{name} {op_id}: {invariant_failures}")
            pinned[op_id] = outcome
    header = json.dumps({"workload": name, "seed": seed,
                         "seed_independent": name == workloads.FIG3,
                         "input": workloads.WORKLOADS[name]},
                        sort_keys=True)
    # one operation per line, so a re-pin diffs per operation
    body = ",\n".join(f"{json.dumps(op_id)}: "
                      f"{json.dumps(outcome, sort_keys=True)}"
                      for op_id, outcome in pinned.items())
    os.makedirs(outcomes.PIN_DIR, exist_ok=True)
    with open(outcomes.pin_path(name), "w") as fh:
        fh.write(f'{header[:-1]}, "outcomes": {{\n{body}\n}}}}\n')
    print(f"{name}: pinned {len(pinned)} operations")


if __name__ == "__main__":
    for workload in sys.argv[1:] or sorted(workloads.WORKLOADS):
        pin(workload)
