"""Verdicts of the compare command."""

from pmbench.report import compare, verdict

FP = {"python": "3.11.7", "numpy": "2.4.6", "exec_core": "vector",
      "cov_backend": "settrace", "nproc": 2, "platform": "linux-x86_64"}


def _docs(values, fingerprint=FP):
    return [{"workload": "w", "trace": 0, "fingerprint": fingerprint,
             "metrics": {"execs_per_s": {"value": v, "unit": "execs/s"}}}
            for v in values]


def test_within_bound_worse_and_unresolved():
    base = [100, 101, 99, 100, 102]
    assert verdict(base, [98, 99, 97, 98, 99], "higher", 0.1) == \
        "within bound"
    assert verdict(base, [80, 81, 79, 80, 82], "higher", 0.1) == "worse"
    assert verdict(base, [60, 100, 140, 70, 130], "higher", 0.1) == \
        "unresolved"
    # Lower-is-better flips the direction.
    assert verdict(base, [120, 121, 119, 120, 122], "lower", 0.1) == "worse"


def test_wide_spread_resolves_when_every_new_run_is_better():
    base = [50, 100, 150, 60, 140]
    assert verdict(base, [200, 210, 220], "higher", 0.1) == "within bound"


def test_different_fingerprints_are_incomparable():
    bounds = {"execs_per_s": ("higher", 0.1)}
    other = dict(FP, exec_core="scalar")
    lines = compare(_docs([100, 101]), _docs([50, 51], other), bounds)
    assert lines[-1].endswith("incomparable")
    lines = compare(_docs([100, 101]), _docs([50, 51]), bounds)
    assert lines[-1].endswith("worse")
