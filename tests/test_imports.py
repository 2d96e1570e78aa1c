"""Every module of the package imports on its own.

Each module is imported first thing in a fresh interpreter, so an
import cycle that only bites when a particular module loads first
(``repro.isolation.backend`` before ``repro.fuzz``, say) fails here
instead of at a user's first ``import``.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

MODULES = sorted(info.name for info in
                 pkgutil.walk_packages(repro.__path__, "repro."))


def test_walk_finds_the_package_layers():
    assert {"repro.fuzz.engine", "repro.isolation.backend",
            "repro.isolation.worker"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", f"import {module}"],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
