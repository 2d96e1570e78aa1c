"""Import the program from the checkout's ``src/`` under relative file names.

Branch coverage hashes every instrumented location as
``stable_hash16(f"{co_filename}:{lineno}")``, so the coverage map — and
with it the whole campaign trajectory and its ``comparable()`` digest —
depends on the path the sources were imported from.  A normal import
records absolute paths, which would make every digest specific to one
checkout directory.  The finder below imports ``repro`` with
``co_filename`` relative to the checkout root (``src/repro/...``), so a
pinned digest holds in any checkout.  It changes nothing but the names.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import os
import sys
from typing import Optional

PACKAGE = "repro"


class CheckoutFinder(importlib.abc.MetaPathFinder):
    """Finds ``repro`` and its submodules under a relative source dir."""

    def __init__(self, src_dir: str) -> None:
        self.src_dir = src_dir

    def find_spec(self, fullname, path=None, target=None):
        if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
            return None
        base = os.path.join(self.src_dir, *fullname.split("."))
        init = os.path.join(base, "__init__.py")
        if os.path.isfile(init):
            return _spec(fullname, init, package_dir=base)
        if os.path.isfile(base + ".py"):
            return _spec(fullname, base + ".py")
        return None


def _spec(fullname: str, filename: str,
          package_dir: Optional[str] = None) -> importlib.machinery.ModuleSpec:
    # ModuleSpec, not spec_from_file_location: the latter makes the
    # location absolute, which is exactly what this finder avoids.
    loader = importlib.machinery.SourceFileLoader(fullname, filename)
    spec = importlib.machinery.ModuleSpec(
        fullname, loader, origin=filename,
        is_package=package_dir is not None)
    if package_dir is not None:
        spec.submodule_search_locations = [package_dir]
    spec.has_location = True
    return spec


def load_program(root: str) -> None:
    """Make ``root`` the working directory and import ``repro`` from it.

    Raises :class:`ImportError` when the checkout holds no program
    sources (the benchmark cannot run without them).
    """
    os.chdir(root)
    if PACKAGE in sys.modules:
        raise ImportError(f"{PACKAGE} was imported before the checkout "
                          "finder was installed")
    sys.meta_path.insert(0, CheckoutFinder("src"))
    importlib.import_module(PACKAGE)
