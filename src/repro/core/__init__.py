"""PMFuzz — the paper's primary contribution.

This package implements the test-case generator itself, on top of the
AFL++-style substrate in :mod:`repro.fuzz`:

* :mod:`repro.core.config` — the five comparison points of Table 2;
* :mod:`repro.core.dedup` — SHA-256 image deduplication (Section 4.5);
* :mod:`repro.core.storage` — compressed test-case storage (Section 4.7);
* :mod:`repro.core.crashgen` — crash-image generation at ordering points
  plus probabilistic extra failure points (Section 3.2);
* :mod:`repro.core.priority` — the PM-path prioritization of Algorithm 2;
* :mod:`repro.core.testcase` — the test-case dependency tree (Figure 12);
* :mod:`repro.core.pmfuzz` — the campaign factory (one
  :class:`~repro.fuzz.engine.FuzzEngine` per Table-2 configuration);
* :mod:`repro.core.pipeline` — fuzz → detect, Figure 9 end to end.

The fuzzing loop itself, :class:`~repro.fuzz.engine.FuzzEngine`, runs
these pieces when the configuration switches them on.  Submodules are
imported lazily so the layering (``repro.fuzz`` uses
``repro.core.dedup``, ``priority`` and ``crashgen``) stays cycle-free.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS = {
    "FuzzConfig": "repro.core.config",
    "CONFIGS": "repro.core.config",
    "config_by_name": "repro.core.config",
    "ImageStore": "repro.core.dedup",
    "TestCaseStorage": "repro.core.storage",
    "CrashImageGenerator": "repro.core.crashgen",
    "pm_path_priority": "repro.core.priority",
    "TestCaseTree": "repro.core.testcase",
    "build_engine": "repro.core.pmfuzz",
    "run_campaign": "repro.core.pmfuzz",
    "FuzzAndDetectPipeline": "repro.core.pipeline",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    module = importlib.import_module(module_name)
    return getattr(module, name)
