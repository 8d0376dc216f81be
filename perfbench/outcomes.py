"""Outcome check behind ``failed``/``attempted``.

Per-operation outcomes for the default seed are pinned in
``pins/<workload>.json``.  An operation fails if it raised, broke an
invariant of its workload, or (for a pinned seed) differs from its
pinned outcome.  Floats match within a relative tolerance of 1e-9, so
ULP-level drift from an equivalent rewrite passes; every other field
must match exactly.

Run this file to execute the checker's self-test: a perturbed pinned
outcome must be counted as a failure and the pinned outcome itself
must pass.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
from typing import Dict, List, Optional

PIN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins")
REL_TOL = 1e-9
DEFAULT_SEED = 0


def pin_path(workload: str) -> str:
    return os.path.join(PIN_DIR, f"{workload}.json")


def read_pins(workload: str) -> dict:
    with open(pin_path(workload)) as fh:
        return json.load(fh)


def pins_for(pinned: dict, seed: int) -> Optional[Dict[str, dict]]:
    """Pinned outcomes by operation id, or None if ``seed`` is not
    pinned (the fig3 sweep is scripted, so its pins hold for any
    seed)."""
    if pinned["seed_independent"] or pinned["seed"] == seed:
        return pinned["outcomes"]
    return None


def same(pinned, got) -> bool:
    """Structural equality; floats within :data:`REL_TOL`."""
    if isinstance(pinned, bool) or isinstance(got, bool):
        return pinned is got
    if isinstance(pinned, float) or isinstance(got, float):
        if not isinstance(pinned, (int, float)) or not isinstance(
                got, (int, float)):
            return False
        return math.isclose(pinned, got, rel_tol=REL_TOL, abs_tol=1e-12)
    if isinstance(pinned, dict):
        return (isinstance(got, dict) and pinned.keys() == got.keys()
                and all(same(pinned[k], got[k]) for k in pinned))
    if isinstance(pinned, (list, tuple)):
        return (isinstance(got, (list, tuple)) and len(pinned) == len(got)
                and all(same(a, b) for a, b in zip(pinned, got)))
    return pinned == got


def check(op_id: str, outcome: dict, invariant_failures: List[str],
          pins: Optional[Dict[str, dict]]) -> Optional[str]:
    """Why operation ``op_id`` failed, or None if it passed."""
    if invariant_failures:
        return invariant_failures[0]
    if pins is None:
        return None
    if op_id not in pins:
        return "no pinned outcome"
    if not same(pins[op_id], outcome):
        return "differs from the pinned outcome"
    return None


def _perturb(value):
    """A copy of a pinned outcome with its first scalar changed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):
        return value * (1 + 1e-6) if value else 1e-6
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if value is None:
        return 0.0
    if isinstance(value, dict):
        for key in sorted(value):
            out = dict(value)
            out[key] = _perturb(value[key])
            return out
        return {"extra": 1}
    if isinstance(value, list):
        if not value:
            return [0]
        return [_perturb(value[0])] + value[1:]
    raise TypeError(type(value))


def self_test(pins: Dict[str, dict]) -> List[str]:
    """Problems found: pinned outcomes that fail to match themselves,
    or perturbed ones that still pass.  Empty means the check works."""
    problems = []
    for op_id in sorted(pins)[:20]:
        outcome = copy.deepcopy(pins[op_id])
        if check(op_id, outcome, [], pins) is not None:
            problems.append(f"{op_id}: pinned outcome does not pass")
        for key in sorted(outcome):
            bad = dict(outcome)
            bad[key] = _perturb(outcome[key])
            if check(op_id, bad, [], pins) is None:
                problems.append(f"{op_id}: perturbed {key} still passes")
    if check("no-such-op", {}, [], pins) is None:
        problems.append("an unpinned operation passes")
    if check(sorted(pins)[0], {}, ["invariant"], None) is None:
        problems.append("an invariant failure passes")
    return problems


def main() -> int:
    failed = 0
    for name in sorted(os.listdir(PIN_DIR)):
        workload = name[:-len(".json")]
        pins = read_pins(workload)["outcomes"]
        problems = self_test(pins)
        failed += bool(problems)
        print(f"{workload}: {len(pins)} pinned operations, "
              f"self-test {'FAILED' if problems else 'ok'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
