"""Execution-core name, kept only for the benchmark's host fingerprint.

The campaign runs one execution core.  ``perfbench/pmbench/report.py``
still records ``active_core()`` in every result's fingerprint, so the
name stays until the benchmark stops reading it.
"""


def active_core() -> str:
    """The execution core every campaign runs on."""
    return "scalar"
