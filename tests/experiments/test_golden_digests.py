"""Golden digests of the same-seed experiment reports.

Each case runs one ``repro`` subcommand in a fresh interpreter and pins
the sha256 of its standard output, so any change that moves a
scheduling decision, a forecast bit or a report field shows up here.
The reports are the behaviour contract performance and refactoring
work must keep.  The captured outputs live in ``golden/`` so a mismatch
can name the first line that differs (JSON reports are compared
pretty-printed).  Forecasts on non-constant windows come from LAPACK's
least squares, so another numpy/LAPACK build can legitimately move the
last bits; the failure message names the numpy version for that reason.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden"

#: (golden file, CLI arguments, sha256 of the output)
CASES = [
    ("fig4.json", ["fig4", "--json"],
     "33e1f240fc03ebae22fd87be3a82e16081c7b2bd95ccc32ad3758292d1dc70e4"),
    ("fig3.txt", ["fig3"],
     "25245d0b8b601450a5ead7dbeb84ddabfd013266537f6a607dc7b82343b973cc"),
    ("eman.txt", ["eman"],
     "eca28a4e8479b3e1be1555df7672ec2113ea1d7057556d0cb417737f7ee24a0b"),
    ("metasched.json", ["metasched", "run", "--json"],
     "c090f0183eb91d605407051d1e17d4a29efd9479a0efa569d57920ee6fca554f"),
    ("soak.json", ["soak", "run", "--scenarios", "12", "--seed", "7",
                   "--json"],
     "de2526b227087e26698734086e317178ca7d2061d1f72985a07063b67e5009e7"),
]


def run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-m", "repro", *args], cwd=ROOT,
                          env=env, capture_output=True, timeout=600)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    return done.stdout


def comparable_lines(data: bytes):
    text = data.decode()
    try:
        return json.dumps(json.loads(text), indent=1,
                          sort_keys=True).splitlines()
    except ValueError:
        return text.splitlines()


def first_difference(expected: bytes, actual: bytes) -> str:
    want, got = comparable_lines(expected), comparable_lines(actual)
    for i, (a, b) in enumerate(zip(want, got), start=1):
        if a != b:
            return f"line {i}:\n  golden: {a}\n  actual: {b}"
    return (f"line {min(len(want), len(got)) + 1}: golden has {len(want)} "
            f"lines, actual has {len(got)}")


@pytest.mark.parametrize("golden, args, digest", CASES,
                         ids=[case[0] for case in CASES])
def test_golden_file_matches_pinned_digest(golden, args, digest):
    assert hashlib.sha256((GOLDEN / golden).read_bytes()).hexdigest() \
        == digest


@pytest.mark.parametrize("golden, args, digest", CASES,
                         ids=[case[0] for case in CASES])
def test_report_digest(golden, args, digest):
    out = run_cli(args)
    actual = hashlib.sha256(out).hexdigest()
    if actual != digest:
        pytest.fail(
            f"`repro {' '.join(args)}` output moved (sha256 {actual[:16]}, "
            f"pinned {digest[:16]}) under numpy {np.__version__}; first "
            f"difference at "
            f"{first_difference((GOLDEN / golden).read_bytes(), out)}")
