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
     "0e9c9ff4230582ac67b07bc8b691b8a2a71ed556a2dc5208b09417723fa41915"),
    ("fig3.txt", ["fig3"],
     "25245d0b8b601450a5ead7dbeb84ddabfd013266537f6a607dc7b82343b973cc"),
    ("eman.txt", ["eman"],
     "eca28a4e8479b3e1be1555df7672ec2113ea1d7057556d0cb417737f7ee24a0b"),
    ("metasched.json", ["metasched", "run", "--json"],
     "f3820e1d1d3b52dad2b8c117591fe6b8828a1da24a7196c742dbb0ebe3dc0f82"),
    ("soak.json", ["soak", "run", "--scenarios", "12", "--seed", "7",
                   "--json"],
     "4a91c2854686592a20957e9b364b7403d8bd3cbcd4d38bf4aac6888366d352fd"),
    ("opportunistic.txt", ["opportunistic"],
     "dc0b572fdf7f011c796a99170cf243581135bcc07787a483d3fa5c9d179d05e5"),
    ("opportunistic-disable.txt", ["opportunistic", "--disable"],
     "cb130c351e301059116db71ffd8173589e44353ad188ac83549c11b17ec413c3"),
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
