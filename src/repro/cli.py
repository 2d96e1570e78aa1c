"""Command-line interface: ``python -m repro <command>``.

The reproduction's equivalent of the artifact's driver scripts
(``run-workloads.sh``, ``test-real-bugs.sh``, ``pmfuzz-fuzz.py``):

``fuzz``
    Run one fuzzing campaign (workload × Table-2 configuration) and
    print the coverage summary, e.g.::

        python -m repro fuzz --workload btree --config pmfuzz --budget 3

``compare``
    Run all five comparison points on one workload and render the
    Figure-13 panel.

``real-bugs``
    Reproduce the paper's real-world bugs (``test-real-bugs.sh [1..12]``):
    fuzz the buggy variant and report detection, optionally for a single
    bug number.

``triage``
    List the crash-triage bundles a fork-isolation campaign wrote, or
    replay one (``--replay <bundle-dir>``) to reproduce the execution
    that killed or hung a worker.

``workloads``
    List the available PM programs and their bug flags.

Exit codes follow one convention across every subcommand (the table in
README.md is the contract): 0 success, 1 domain failure (a missed bug,
an ordering bug, a reproduced crash, no data yet), 2 usage or
configuration error — always with a one-line ``error:`` on stderr,
never a traceback — and 130 on interrupt.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import __version__
from repro.analysis.figures import render_coverage_figure
from repro.core.config import CONFIGS, config_by_name
from repro.errors import FuzzerError, ReproError
from repro.core.pipeline import FuzzAndDetectPipeline
from repro.core.pmfuzz import run_campaign
from repro.workloads import workload_names
from repro.workloads.realbugs import ALL_REAL_BUGS, bug_by_number, \
    buggy_flags_for


def _slug(name: str) -> str:
    """Filesystem-safe short form of a configuration display name."""
    return "".join(c if c.isalnum() else "-" for c in name.lower()).strip("-")


def _checkpoint_kwargs(args: argparse.Namespace, config_name: str) -> dict:
    """Checkpoint engine kwargs from the CLI flags (empty if disabled)."""
    if args.checkpoint_every is None:
        return {}
    path = getattr(args, "checkpoint_path", None) or \
        f"{args.workload}-{_slug(config_name)}.ckpt"
    return {"checkpoint_every": args.checkpoint_every,
            "checkpoint_path": path}


def _check_wall_timeout(seconds: float) -> float:
    """Reject a wall timeout at which the watchdog would kill every
    execution (zero or negative) or could not be armed (inf, nan)."""
    if not 0 < seconds < float("inf"):
        raise FuzzerError(
            f"--exec-wall-timeout must be a positive number of seconds, "
            f"got {seconds}")
    return seconds


def _isolation_kwargs(args: argparse.Namespace) -> dict:
    """Execution-backend engine kwargs from the CLI flags."""
    if getattr(args, "isolation", "none") == "none":
        return {}
    if args.workers < 1:
        raise FuzzerError(f"--workers must be >= 1, got {args.workers}")
    rss = getattr(args, "worker_rss_limit", None)
    return {
        "isolation": args.isolation,
        "isolation_workers": args.workers,
        "exec_wall_timeout": _check_wall_timeout(args.exec_wall_timeout),
        "worker_rss_limit": rss * 1024 * 1024 if rss else None,
        "triage_dir": args.triage_dir,
    }


def _batch_kwargs(args: argparse.Namespace) -> dict:
    """Fork-dispatch batching engine kwargs (empty at the default, so
    checkpoint metadata stays identical to pre-flag campaigns)."""
    batch = getattr(args, "batch_execs", None)
    if batch is None:
        return {}
    if batch < 1:
        raise FuzzerError(f"--batch-execs must be >= 1, got {batch}")
    return {"batch_execs": batch} if batch != 8 else {}


def _fastpath_kwargs(args: argparse.Namespace) -> dict:
    """Per-exec fast-path engine kwargs (empty at the defaults, so
    checkpoint metadata stays identical to pre-flag campaigns)."""
    kwargs: dict = {}
    if getattr(args, "cov_backend", None):
        kwargs["cov_backend"] = args.cov_backend
    if getattr(args, "warm_open", "on") == "off":
        kwargs["warm_open"] = False
    return kwargs


def _crashgen_kwargs(args: argparse.Namespace) -> dict:
    """Crash-generation engine kwargs (empty at the default setting, so
    checkpoint metadata stays identical to pre-flag campaigns)."""
    if getattr(args, "crashgen", "singlepass") == "singlepass":
        return {}
    return {"crashgen": args.crashgen}


def _observe_kwargs(args: argparse.Namespace) -> dict:
    """Observability engine kwargs from the CLI flags (empty when off)."""
    kwargs: dict = {}
    if getattr(args, "trace_dir", None):
        if args.trace_sample < 1:
            raise FuzzerError(
                f"--trace-sample must be >= 1, got {args.trace_sample}")
        if args.status_every <= 0:
            raise FuzzerError(
                f"--status-every must be > 0, got {args.status_every}")
        kwargs["trace_dir"] = args.trace_dir
        kwargs["trace_sample"] = args.trace_sample
        kwargs["status_every"] = args.status_every
        if getattr(args, "trace_rotate_mib", None):
            if args.trace_rotate_mib < 0:
                raise FuzzerError(
                    "--trace-rotate-mib must be >= 0, got "
                    f"{args.trace_rotate_mib}")
            kwargs["trace_rotate_bytes"] = \
                args.trace_rotate_mib * 1024 * 1024
    if getattr(args, "profile", False):
        kwargs["profile"] = True
    return kwargs


def _print_profile(stats) -> None:
    """The ``--profile`` flame-style breakdown, from the final stats."""
    from repro.observe.profiler import render_profile

    print(render_profile(stats.metrics, stats.metrics_host,
                         title="per-stage breakdown (--profile)"))


def _summary_line(stats) -> str:
    """The one-line end-of-campaign summary: why it stopped, and every
    fault/timeout/quarantine counter an operator would otherwise have to
    dig out of the checkpoint."""
    parts = [f"stopped={stats.stop_reason or 'running'}",
             f"execs={stats.executions}",
             f"faults={stats.harness_faults}",
             f"retries={stats.retries}",
             f"timeouts={stats.timeouts}",
             f"quarantined={stats.quarantined}"]
    if stats.isolation_backend == "fork":
        parts += ["backend=fork",
                  f"watchdog-kills={stats.watchdog_kills}",
                  f"worker-crashes={stats.worker_crashes}",
                  f"triage-bundles={stats.triage_bundles}"]
    elif stats.isolation_fallback:
        parts.append("backend=none(fallback)")
    if stats.disk_full_faults:
        parts.append(f"disk-full={stats.disk_full_faults}")
    return " ".join(parts)


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if not args.resume and not args.workload:
        print("error: fuzz: --workload is required (unless resuming with "
              "--resume)", file=sys.stderr)
        return 2
    # First SIGINT/SIGTERM stops cleanly (final checkpoint + summary
    # with stop_reason=signal), the second hard-exits.  The handlers are removed once the campaign returns,
    # so an embedding process (and anything it forks later) does not
    # keep routing its signals to a finished engine.
    from repro.fuzz.signals import install_graceful_stop
    stops = []
    hook = lambda engine: stops.append(  # noqa: E731
        install_graceful_stop(engine))
    try:
        if args.resume:
            stats = run_campaign(args.workload, args.config, args.budget,
                                 resume_from=args.resume, engine_hook=hook)
        else:
            stats = run_campaign(args.workload, args.config, args.budget,
                                 seed=args.seed, fault_plan=args.fault_plan,
                                 engine_hook=hook,
                                 **_checkpoint_kwargs(args, args.config),
                                 **_isolation_kwargs(args),
                                 **_observe_kwargs(args),
                                 **_crashgen_kwargs(args),
                                 **_batch_kwargs(args),
                                 **_fastpath_kwargs(args))
    finally:
        for stop in stops:
            stop.uninstall()
    if stats.isolation_fallback:
        print(f"warning: fork isolation unavailable "
              f"({stats.isolation_fallback}); ran in-process",
              file=sys.stderr)
    print(f"configuration     : {stats.config_name}")
    print(f"workload          : {stats.workload_name}")
    print(f"executions        : {stats.executions}")
    print(f"stopped           : {stats.stop_reason}")
    print(f"PM paths covered  : {stats.final_pm_paths}")
    print(f"branch edges      : {stats.final_branch_edges}")
    print(f"normal images     : {stats.normal_images_generated}")
    print(f"crash images      : {stats.crash_images_generated}")
    print(f"deduplicated      : {stats.images_deduplicated}")
    if stats.harness_faults or stats.retries or stats.quarantined:
        print(f"harness faults    : {stats.harness_faults} "
              f"({stats.retries} retries, {stats.timeouts} timeouts, "
              f"{stats.quarantined} quarantined)")
    print(f"summary           : {_summary_line(stats)}")
    if getattr(args, "profile", False):
        _print_profile(stats)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    curves = {}
    for config in CONFIGS:
        print(f"running {config.name} …", file=sys.stderr)
        curves[config.name] = run_campaign(
            args.workload, config.name, args.budget, seed=args.seed,
            fault_plan=args.fault_plan,
            **_checkpoint_kwargs(args, config.name))
    print(render_coverage_figure(
        curves, args.budget,
        title=f"PM path coverage — {args.workload}"))
    faulted = {name: s for name, s in curves.items() if s.harness_faults}
    for name, s in faulted.items():
        print(f"{name}: {s.harness_faults} harness faults absorbed "
              f"({s.retries} retries, {s.quarantined} quarantined)")
    return 0


def _cmd_real_bugs(args: argparse.Namespace) -> int:
    if args.bug is not None:
        targets = [bug_by_number(args.bug)]
    else:
        targets = list(ALL_REAL_BUGS)
    failures = 0
    for workload in sorted({b.workload for b in targets}):
        wanted = {b.number for b in targets if b.workload == workload}
        pipe = FuzzAndDetectPipeline(workload, "pmfuzz",
                                     bugs=buggy_flags_for(workload),
                                     max_checked=48, seed=args.seed)
        result = pipe.run(budget_vseconds=args.budget)
        for r in result.real_bugs:
            if r.bug.number in wanted:
                status = "detected" if r.detected else "MISSED"
                vtime = (f" at vt={r.first_detection_vtime:.4f}s"
                         if r.detected else "")
                print(f"bug {r.bug.number:>2d} ({r.bug.kind}, "
                      f"{workload}): {status}{vtime}")
                failures += not r.detected
    return 1 if failures else 0


def _cmd_triage(args: argparse.Namespace) -> int:
    from repro.core.storage import TriageStore

    store = TriageStore(args.dir)
    if not args.replay:
        bundles = store.list_bundles()
        if not bundles:
            print(f"no triage bundles under {args.dir!r}")
            return 0
        for path in bundles:
            meta = TriageStore.load_bundle(path).meta
            print(f"{path}: {meta.get('reason', '?')} "
                  f"[{meta.get('workload') or 'unknown workload'}] "
                  f"{meta.get('exit_detail', '')}".rstrip())
        return 0

    from repro.errors import ExecTimeoutError, HarnessFaultError
    from repro.fuzz.executor import Executor
    from repro.isolation.backend import create_backend
    from repro.workloads.registry import get_workload

    wall_timeout = _check_wall_timeout(args.exec_wall_timeout)
    try:
        bundle = TriageStore.load_bundle(args.replay)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load bundle {args.replay!r}: {exc}",
              file=sys.stderr)
        return 2
    workload = bundle.meta.get("workload")
    if not workload:
        print("error: bundle carries no workload name (hand-built "
              "campaign?); cannot rebuild the target", file=sys.stderr)
        return 2
    bugs = frozenset(bundle.meta.get("bugs") or ())
    executor = Executor(lambda: get_workload(workload, bugs=bugs))
    backend, fallback = create_backend(
        args.isolation, executor, wall_timeout=wall_timeout)
    if fallback:
        print(f"warning: replaying in-process ({fallback}); a true hang "
              "will wedge this command", file=sys.stderr)
    print(f"replaying {bundle.path} "
          f"(reason: {bundle.meta.get('reason', '?')}, "
          f"workload: {workload})")
    try:
        result = backend.run_raw_image(bundle.image_bytes, bundle.data)
    except ExecTimeoutError as exc:
        print(f"reproduced: hang ({exc})")
        return 1
    except HarnessFaultError as exc:
        print(f"reproduced: worker death ({exc})")
        return 1
    finally:
        backend.close()
    print(f"outcome           : {result.outcome.value}")
    print(f"commands run      : {result.commands_run}")
    print(f"sites hit         : {len(result.sites_hit)}")
    if result.error:
        print(f"error             : {result.error.strip().splitlines()[-1]}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.observe.monitor import monitor_loop

    return monitor_loop(args.dir, interval=args.interval, once=args.once,
                        wait=args.wait)


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.observe.monitor import wait_for_campaign
    from repro.observe.report import render_html_report, render_report

    if not wait_for_campaign(args.dir, args.wait, what="trace data") \
            and args.wait > 0:
        return 1
    print(render_report(args.dir))
    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html_report(args.dir))
        print(f"HTML report written to {args.html}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit import DurabilityAuditor
    from repro.audit.protocols import COMPONENTS

    components = list(COMPONENTS) if args.component == "all" \
        else [args.component]
    bus = None
    if args.trace_dir:
        from repro.observe.bus import TraceBus
        from repro.observe.sink import JsonlTraceSink, shard_name
        bus = TraceBus(sink=JsonlTraceSink(
            os.path.join(args.trace_dir, shard_name(-1))), flush_every=1)
    auditor = DurabilityAuditor(args.out, budget=args.budget, bus=bus)
    report = auditor.audit(components)
    if bus is not None:
        bus.close()
    print(report.render())
    return 0 if report.ok else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.resilience.faults import (FAULT_SITE_DESCRIPTIONS,
                                         FAULT_SITES, HOST_FAULT_SITES,
                                         SITE_GROUPS)

    # `faults list`: the injectable surface, host/campaign stream
    # membership, and the spec-string group aliases.
    print("fault sites (site:rate[:burst] in --fault-plan):")
    for site in FAULT_SITES:
        stream = "host" if site in HOST_FAULT_SITES else "campaign"
        print(f"  {site:<18} [{stream:<8}] "
              f"{FAULT_SITE_DESCRIPTIONS.get(site, '')}")
    print("group aliases:")
    for alias, members in SITE_GROUPS.items():
        print(f"  {alias:<18} -> {', '.join(members)}")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    for name in workload_names():
        flags = sorted(b.flag for b in ALL_REAL_BUGS if b.workload == name)
        shown = ", ".join(flags) if flags else "-"
        print(f"{name:16s} real-bug flags: {shown}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PMFuzz reproduction driver",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fuzz = sub.add_parser("fuzz", help="run one fuzzing campaign")
    fuzz.add_argument("--workload", choices=workload_names(),
                      help="required unless --resume is given")
    fuzz.add_argument("--config", default="pmfuzz")
    fuzz.add_argument("--budget", type=float, default=2.0,
                      help="virtual seconds (campaign length)")
    fuzz.add_argument("--seed", type=int, default=0x504D465A)
    fuzz.add_argument("--fault-plan", default=None, metavar="SPEC",
                      help="environment-fault plan, e.g. 'all:0.01' or "
                           "'storage-load:0.05:3,exec-fault:0.01'")
    fuzz.add_argument("--checkpoint-every", type=float, default=None,
                      metavar="VSECONDS",
                      help="snapshot campaign state every N virtual seconds")
    fuzz.add_argument("--checkpoint-path", default=None,
                      help="checkpoint file (default: "
                           "<workload>-<config>.ckpt)")
    fuzz.add_argument("--resume", default=None, metavar="CHECKPOINT",
                      help="resume a killed campaign from its checkpoint "
                           "and fuzz to --budget")
    fuzz.add_argument("--isolation", choices=["fork", "none"],
                      default="none",
                      help="execution backend: 'fork' sandboxes every "
                           "test case in a worker subprocess with a "
                           "wall-clock watchdog and RSS ceiling "
                           "(degrades to 'none' where fork is "
                           "unavailable)")
    fuzz.add_argument("--cov-backend", choices=["settrace", "monitoring"],
                      default=None,
                      help="branch-coverage backend: 'monitoring' uses "
                           "the low-overhead sys.monitoring line events "
                           "(PEP 669, python >= 3.12), 'settrace' the "
                           "portable reference tracer (default: "
                           "monitoring where available; both produce "
                           "identical edge maps)")
    fuzz.add_argument("--warm-open", choices=["on", "off"], default="on",
                      help="content-addressed warm-open pool cache: "
                           "memoizes the post-open recovery/creation "
                           "prefix per input image (default: on; "
                           "observably identical either way)")
    fuzz.add_argument("--batch-execs", type=int, default=8, metavar="N",
                      help="executions shipped per fork-worker dispatch "
                           "(fork only; 1 disables batching)")
    fuzz.add_argument("--workers", type=int, default=1,
                      help="fork-server worker pool size")
    fuzz.add_argument("--exec-wall-timeout", type=float, default=10.0,
                      metavar="SECONDS",
                      help="real-time deadline per execution before the "
                           "watchdog SIGKILLs the worker (fork only)")
    fuzz.add_argument("--worker-rss-limit", type=int, default=None,
                      metavar="MIB",
                      help="address-space ceiling per worker in MiB "
                           "(fork only)")
    fuzz.add_argument("--triage-dir", default="triage",
                      help="directory for on-death crash-triage bundles "
                           "(fork only; default: ./triage)")
    fuzz.add_argument("--trace-dir", default=None, metavar="DIR",
                      help="write structured trace shards (JSONL) and "
                           "live status.json files here; read them back "
                           "with 'monitor' and 'report'")
    fuzz.add_argument("--trace-sample", type=int, default=1, metavar="N",
                      help="keep 1-in-N high-rate exec events "
                           "(other event kinds are never sampled)")
    fuzz.add_argument("--trace-rotate-mib", type=int, default=None,
                      metavar="MIB",
                      help="rotate a trace shard once it exceeds this "
                           "size (default: never)")
    fuzz.add_argument("--status-every", type=float, default=0.5,
                      metavar="VSECONDS",
                      help="status.json publish cadence in virtual "
                           "seconds (needs --trace-dir)")
    fuzz.add_argument("--profile", action="store_true",
                      help="collect wall-clock per-stage timers and "
                           "print the flame-style breakdown at the end "
                           "(virtual-time attribution is always on)")
    fuzz.add_argument("--crashgen", choices=["singlepass", "reexec"],
                      default="singlepass",
                      help="crash-image generation strategy: harvest "
                           "all crash images from one snapshot-planned "
                           "execution (default) or re-execute once per "
                           "failure point as the paper does; both are "
                           "byte- and stats-identical")
    fuzz.set_defaults(func=_cmd_fuzz)

    compare = sub.add_parser("compare",
                             help="all five configs on one workload")
    compare.add_argument("--workload", required=True,
                         choices=workload_names())
    compare.add_argument("--budget", type=float, default=2.0)
    compare.add_argument("--seed", type=int, default=0x504D465A)
    compare.add_argument("--fault-plan", default=None, metavar="SPEC",
                         help="environment-fault plan applied to every "
                              "configuration")
    compare.add_argument("--checkpoint-every", type=float, default=None,
                         metavar="VSECONDS",
                         help="checkpoint each campaign to "
                              "<workload>-<config>.ckpt")
    compare.set_defaults(func=_cmd_compare)

    bugs = sub.add_parser("real-bugs",
                          help="reproduce the paper's 12 bugs")
    bugs.add_argument("--bug", type=int, choices=range(1, 13),
                      help="a single bug number (default: all)")
    bugs.add_argument("--budget", type=float, default=3.0)
    bugs.add_argument("--seed", type=int, default=0x504D465A)
    bugs.set_defaults(func=_cmd_real_bugs)

    tri = sub.add_parser("triage",
                         help="list or replay crash-triage bundles")
    tri.add_argument("dir", nargs="?", default="triage",
                     help="triage directory (default: ./triage)")
    tri.add_argument("--replay", default=None, metavar="BUNDLE",
                     help="replay one bundle directory; exit 0 if it "
                          "runs to completion, 1 if the kill reproduces")
    tri.add_argument("--isolation", choices=["fork", "none"],
                     default="fork",
                     help="replay backend (default fork, so a "
                          "reproduced hang is reaped, not wedged)")
    tri.add_argument("--exec-wall-timeout", type=float, default=10.0,
                     metavar="SECONDS")
    tri.set_defaults(func=_cmd_triage)

    mon = sub.add_parser("monitor",
                         help="tail the live status of a traced campaign")
    mon.add_argument("dir", help="the campaign's --trace-dir")
    mon.add_argument("--interval", type=float, default=1.0,
                     metavar="SECONDS", help="refresh cadence")
    mon.add_argument("--once", action="store_true",
                     help="render a single frame and exit (exit status "
                          "1 when no status files exist yet)")
    mon.add_argument("--wait", type=float, default=0.0, metavar="SECONDS",
                     help="tolerate a campaign that has not started: "
                          "retry with backoff for up to this many "
                          "seconds before the first frame")
    mon.set_defaults(func=_cmd_monitor)

    rep = sub.add_parser("report",
                         help="render a campaign report from trace shards")
    rep.add_argument("dir", help="the campaign's --trace-dir")
    rep.add_argument("--html", default=None, metavar="FILE",
                     help="also write a self-contained HTML report")
    rep.add_argument("--wait", type=float, default=0.0, metavar="SECONDS",
                     help="retry with backoff for up to this many "
                          "seconds until trace data exists (exit 1 on "
                          "timeout)")
    rep.set_defaults(func=_cmd_report)

    audit = sub.add_parser(
        "audit",
        help="crash-test every durable store by systematic enumeration")
    audit.add_argument("--component", default="all",
                       choices=["all", "checkpoint", "sink"],
                       help="which durable protocol to audit "
                            "(default: all)")
    audit.add_argument("--budget", type=int, default=0, metavar="N",
                       help="max crash states checked per component, "
                            "sampled deterministically and evenly "
                            "(0 = exhaustive, the default)")
    audit.add_argument("--out", default="audit-out", metavar="DIR",
                       help="output directory; violating crash states "
                            "are preserved there as replayable bundles "
                            "(default: ./audit-out)")
    audit.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="also emit per-component audit events to a "
                            "JSONL trace shard under DIR")
    audit.set_defaults(func=_cmd_audit)

    faults = sub.add_parser(
        "faults", help="inspect the fault-injection surface")
    faults.add_argument("action", choices=["list"],
                        help="list: every fault site, its stream "
                             "(host vs campaign), and group aliases")
    faults.set_defaults(func=_cmd_faults)

    wl = sub.add_parser("workloads", help="list PM programs")
    wl.set_defaults(func=_cmd_workloads)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "config", None) is not None:
        try:
            config_by_name(args.config)  # fail fast on unknown names
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except ReproError as exc:
        # Bad fault plans, damaged/missing or retired checkpoints: user
        # input or environment errors get one clean line
        # and the documented status, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
