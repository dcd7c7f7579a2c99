"""Every script in ``examples/`` runs to completion.

The examples drive the public API end to end, and nothing else runs them, so
an API change that breaks one would otherwise go unnoticed.  Each runs in its
own interpreter with ``src`` on ``PYTHONPATH`` and must exit with status 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Each example takes 0.4–1.7 s on a 2-vCPU host.
TIMEOUT_S = 120


def test_examples_are_collected():
    assert EXAMPLES, "no examples/*.py found"


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.name for path in EXAMPLES])
def test_example_exits_cleanly(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    result = subprocess.run(
        [sys.executable, str(path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert result.returncode == 0, result.stderr[-4000:]
