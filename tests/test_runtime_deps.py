"""The fuzzing runtime needs nothing beyond the standard library.

``pyproject.toml`` declares no dependencies, so a campaign must never
import numpy, even on a host where it is installed.  The check runs in
a fresh interpreter: the test process itself may have imported numpy
through a test plugin.
"""

from __future__ import annotations

import os
import subprocess
import sys

_SCRIPT = """
import sys
from repro.core.pmfuzz import run_campaign

for isolation in ("none", "fork"):
    stats = run_campaign("btree", "pmfuzz", 0.3, seed=3, isolation=isolation)
    assert stats.executions > 0, isolation
loaded = sorted(name for name in sys.modules
                if name == "numpy" or name.startswith("numpy."))
assert not loaded, loaded
print("ok")
"""


def test_campaign_never_imports_numpy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
