"""Compare two result sets of the benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories (searched recursively) or single
files of result documents written by ``perfbench/run.py``.  For every
workload and end-to-end metric the command prints each side's median,
quartiles and run count, the relative change, and a verdict against the
metric's bound from ``BENCHMARK.json``: ``within bound``, ``worse`` or
``unresolved`` (spread wider than the bound).  Result sets from
different host fingerprints print ``incomparable`` instead.
"""

from __future__ import annotations

import argparse
import sys

from pmbench.report import bounds_from, compare, load_benchmark, load_results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    base, new = load_results(args.base), load_results(args.new)
    if not base or not new:
        print("error: no result documents found on "
              f"{'both sides' if not base and not new else 'one side'}",
              file=sys.stderr)
        return 2
    lines = compare(base, new, bounds_from(load_benchmark()))
    print("\n".join(lines))
    return 1 if any(line.endswith("worse") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
