"""numpy is the package's only runtime dependency.

scipy and networkx back the reference oracles in ``tests/oracles/``
only; importing the package and its CLI must not load them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", ["networkx", "scipy"])
def test_import_repro_does_not_load(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == "
         f"{module!r}))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
