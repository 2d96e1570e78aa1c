"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pmfuzz-btree --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a traced run.  ``--workload all`` (or a
comma-separated list) runs each workload in its own process, one after
the other.  The human-readable report goes to
standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run's full
result document (fingerprint, samples, checks) is also written under
``--out`` for ``perfbench/compare.py``; traced runs write their spans
there too.  The exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".perfbench-out",
                        help="result directory, relative to the checkout")
    args = parser.parse_args(argv)

    from pmbench.loader import load_program
    from pmbench.workloads import DEFAULT_SEED, WORKLOADS

    names = (list(WORKLOADS) if args.workload == "all"
             else args.workload.split(","))
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                     f"known: {', '.join(WORKLOADS)}, all")
    if len(names) > 1:
        # One process per workload: peak RSS and process-global state
        # must not carry over from one workload to the next.
        common = ["--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--out", args.out]
        if args.seed is not None:
            common += ["--seed", str(args.seed)]
        failed = 0
        for name in names:
            failed += subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", name] + common, check=False).returncode != 0
        return 1 if failed else 0
    try:
        load_program(ROOT)
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2

    from pmbench import runner
    from pmbench.report import fingerprint, write_result

    spec = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed

    def log(line: str) -> None:
        print(line, flush=True)

    if args.trace:
        spans_path = os.path.join(
            args.out, "spans", f"{spec.name}-s{seed}-{os.getpid()}.jsonl")
        result = runner.trace(spec, seed, args.seconds, log, spans_path)
    else:
        result = runner.measure(spec, seed, args.seconds, log)
    host = fingerprint()
    log("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    write_result(os.path.join(args.out, "results"), {
        "workload": spec.name, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": host, **result})
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
