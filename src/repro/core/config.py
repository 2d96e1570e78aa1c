"""The comparison points of Table 2.

Five configurations, each a combination of four features:

=====================  =========  ===============  ===========  =======
Configuration          Input Fuzz Img Fuzz         PM Path Opt  Sys Opt
=====================  =========  ===============  ===========  =======
PMFuzz (All Feat.)     yes        yes (indirect)   yes          yes
PMFuzz w/o SysOpt      yes        yes (indirect)   yes          no
AFL++                  yes        no               no           no
AFL++ w/ SysOpt        yes        no               no           yes
AFL++ w/ ImgFuzz       no         yes (direct)     no           no
=====================  =========  ===============  ===========  =======

All configurations use the derandomization techniques and the same seed
(a list of basic commands plus an empty PM image), matching Section 5.1.

:class:`RunConfig` holds everything else about how one campaign runs:
where test cases execute, when the campaign checkpoints, what it traces.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.errors import FuzzerError


class ImgFuzzMode(enum.Enum):
    """How (and whether) PM images are fuzzed."""

    NONE = "none"  #: the seed image is the only image ever used
    INDIRECT = "indirect"  #: reuse program-generated images (PMFuzz)
    DIRECT = "direct"  #: mutate raw image bytes (AFL++ w/ ImgFuzz)


@dataclass(frozen=True)
class FuzzConfig:
    """One Table-2 comparison point."""

    name: str
    input_fuzz: bool
    img_fuzz: ImgFuzzMode
    pm_path_opt: bool
    sys_opt: bool

    def feature_row(self) -> str:
        """Render the Table 2 row for this configuration."""
        img = {"none": "No", "indirect": "Yes (Indirect)",
               "direct": "Yes (Direct)"}[self.img_fuzz.value]
        return (f"{self.name:20s} {'Yes' if self.input_fuzz else 'No':>10s} "
                f"{img:>15s} {'Yes' if self.pm_path_opt else 'No':>12s} "
                f"{'Yes' if self.sys_opt else 'No':>8s}")


PMFUZZ = FuzzConfig("PMFuzz (All Feat.)", True, ImgFuzzMode.INDIRECT, True, True)
PMFUZZ_NO_SYSOPT = FuzzConfig("PMFuzz w/o SysOpt", True, ImgFuzzMode.INDIRECT,
                              True, False)
AFLPP = FuzzConfig("AFL++", True, ImgFuzzMode.NONE, False, False)
AFLPP_SYSOPT = FuzzConfig("AFL++ w/ SysOpt", True, ImgFuzzMode.NONE, False, True)
AFLPP_IMGFUZZ = FuzzConfig("AFL++ w/ ImgFuzz", False, ImgFuzzMode.DIRECT,
                           False, False)

#: All five comparison points, in Table 2 order.
CONFIGS: List[FuzzConfig] = [
    PMFUZZ, PMFUZZ_NO_SYSOPT, AFLPP, AFLPP_SYSOPT, AFLPP_IMGFUZZ,
]

_BY_NAME: Dict[str, FuzzConfig] = {c.name: c for c in CONFIGS}
_BY_NAME.update({
    "pmfuzz": PMFUZZ,
    "pmfuzz_no_sysopt": PMFUZZ_NO_SYSOPT,
    "aflpp": AFLPP,
    "aflpp_sysopt": AFLPP_SYSOPT,
    "aflpp_imgfuzz": AFLPP_IMGFUZZ,
})


def config_by_name(name: str) -> FuzzConfig:
    """Look up a configuration by display or short name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown config {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


def render_table2() -> str:
    """Render the full Table 2."""
    header = (f"{'Configuration':20s} {'Input Fuzz':>10s} {'Img Fuzz':>15s} "
              f"{'PM Path Opt':>12s} {'Sys Opt':>8s}")
    rows = [header, "-" * len(header)]
    rows.extend(config.feature_row() for config in CONFIGS)
    return "\n".join(rows)


#: Execution backends accepted by ``--isolation`` / ``RunConfig.isolation``.
ISOLATION_MODES = ("fork", "none")

#: Bytes per MiB, the unit of the CLI's size flags.
MIB = 1024 * 1024


def _option(default, flag: Optional[str] = None, unit: int = 1):
    """One :class:`RunConfig` field.  ``flag`` is the CLI flag that sets
    it, named in its validation errors; ``unit`` converts the flag's
    value into the field's (MiB to bytes)."""
    return field(default=default, metadata={"flag": flag, "unit": unit})


@dataclass(frozen=True)
class RunConfig:
    """How one campaign runs, validated once, when it is built.

    The defaults are the library's; the ``fuzz`` flags map one to one
    onto the fields that carry a ``flag``.  A campaign's checkpoint
    records :meth:`options`, so a resume rebuilds an equal RunConfig.
    """

    #: Per-test-case virtual-time budget before a timeout is charged.
    exec_vtime_budget: float = _option(0.25)
    #: Re-executions after transient harness faults.
    max_retries: int = _option(3)
    checkpoint_every: Optional[float] = _option(None, "--checkpoint-every")
    checkpoint_path: Optional[str] = _option(None, "--checkpoint-path")
    isolation: str = _option("none", "--isolation")
    isolation_workers: int = _option(1, "--workers")
    #: Executions shipped per fork-worker dispatch (1 = no batching).
    batch_execs: int = _option(8, "--batch-execs")
    exec_wall_timeout: float = _option(10.0, "--exec-wall-timeout")
    #: Per-worker address-space ceiling in bytes (None = none).
    worker_rss_limit: Optional[int] = _option(None, "--worker-rss-limit",
                                              MIB)
    #: Executions before a fork worker is recycled.
    worker_max_execs: int = _option(256)
    triage_dir: Optional[str] = _option(None, "--triage-dir")
    trace_dir: Optional[str] = _option(None, "--trace-dir")
    trace_sample: int = _option(1, "--trace-sample")
    trace_rotate_bytes: Optional[int] = _option(None, "--trace-rotate-mib",
                                                MIB)
    profile: bool = _option(False, "--profile")
    status_every: float = _option(0.5, "--status-every")

    def __post_init__(self) -> None:
        if self.isolation not in ISOLATION_MODES:
            raise FuzzerError(f"unknown isolation backend "
                              f"{self.isolation!r}; known: "
                              f"{', '.join(ISOLATION_MODES)}")
        for name in ("exec_vtime_budget", "checkpoint_every",
                     "exec_wall_timeout", "status_every"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                _reject(name, "must be > 0 and finite", value)
        for name in ("isolation_workers", "batch_execs", "worker_max_execs",
                     "trace_sample"):
            if getattr(self, name) < 1:
                _reject(name, "must be >= 1", getattr(self, name))
        if self.max_retries < 0:
            _reject("max_retries", "must be >= 0", self.max_retries)
        for name in ("worker_rss_limit", "trace_rotate_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                _reject(name, "must be > 0", value)
        if self.checkpoint_every is not None and not self.checkpoint_path:
            raise FuzzerError("--checkpoint-every requires --checkpoint-path")

    def options(self) -> Dict[str, object]:
        """The fields that differ from their defaults."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) != f.default}


#: Every RunConfig field name: the keyword options ``build_engine`` takes.
RUN_OPTIONS = frozenset(f.name for f in fields(RunConfig))


def _reject(name: str, rule: str, value) -> None:
    """Raise the one-line error for a bad field, naming its flag."""
    meta = next(f.metadata for f in fields(RunConfig) if f.name == name)
    if meta["unit"] != 1:
        value = f"{value / meta['unit']:g}"
    raise FuzzerError(f"{meta['flag'] or name} {rule}, got {value}")
