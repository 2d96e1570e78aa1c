"""The ``python -m repro bench`` suite: runner, artifacts, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import BENCHMARKS, load_baseline, run_benchmark, run_suite
from repro.cli import main
from repro.instrument.covcore import set_backend


@pytest.fixture(autouse=True)
def restore_backend():
    """run_suite(cov_backend=...) flips process-global state; restore it."""
    yield
    set_backend(None)


class TestRunner:
    def test_registry_covers_the_promised_suite(self):
        assert {"pmem_ops", "ranges", "executor", "coverage", "crashgen",
                "corpusdb", "campaign"} <= set(BENCHMARKS)

    def test_run_benchmark_reports_median_of_repeats(self):
        doc = run_benchmark("ranges", quick=True, repeats=3)
        assert doc["repeats"] == 3
        assert len(doc["samples"]) == 3
        for key, value in doc["metrics"].items():
            samples = sorted(s[key] for s in doc["samples"])
            assert value == samples[1]  # the median of 3

    def test_pmem_ops_reports_throughput(self):
        doc = run_benchmark("pmem_ops", quick=True, repeats=1)
        assert doc["metrics"]["ops_per_s"] > 0

    def test_suite_writes_json_and_prints_deltas(self, tmp_path):
        out = tmp_path / "out"
        lines = []
        run_suite(names=["ranges"], quick=True, repeats=1,
                  out_dir=str(out), baseline_dir=None,
                  print_fn=lines.append)
        path = out / "BENCH_ranges.json"
        doc = json.loads(path.read_text())
        assert doc["name"] == "ranges"
        assert doc["quick"] is True
        assert "speedup" in doc["metrics"]
        assert any("calls_per_s" in line for line in lines)
        # A second run against the first as baseline prints deltas.
        lines2 = []
        run_suite(names=["ranges"], quick=True, repeats=1,
                  out_dir=str(tmp_path / "out2"), baseline_dir=str(out),
                  print_fn=lines2.append)
        assert any("vs baseline" in line for line in lines2)

    def test_every_artifact_has_deltas_and_positive_medians(self, tmp_path):
        """The regression gate: a full quick run must produce, for every
        benchmark, an artifact with the baseline-delta schema and
        strictly positive metric medians."""
        out = tmp_path / "out"
        run_suite(quick=True, repeats=1, out_dir=str(out),
                  baseline_dir=None, print_fn=lambda line: None)
        for name in BENCHMARKS:
            doc = json.loads((out / f"BENCH_{name}.json").read_text())
            assert doc["name"] == name
            assert doc["cov_backend"] in ("settrace", "monitoring")
            assert doc["python"].count(".") == 2
            # Delta schema is identical with and without a baseline:
            # one entry per metric (None when nothing to compare to).
            assert set(doc["baseline_delta"]) == set(doc["metrics"])
            assert all(delta is None
                       for delta in doc["baseline_delta"].values())
            for key, median in doc["metrics"].items():
                assert median > 0, (name, key, median)
        # Re-running against those artifacts as baseline fills the deltas.
        run_suite(names=["ranges"], quick=True, repeats=1,
                  out_dir=str(tmp_path / "out2"), baseline_dir=str(out),
                  print_fn=lambda line: None)
        doc = json.loads((tmp_path / "out2" / "BENCH_ranges.json")
                         .read_text())
        assert set(doc["baseline_delta"]) == set(doc["metrics"])
        assert all(isinstance(delta, float)
                   for delta in doc["baseline_delta"].values())

    def test_unknown_benchmark_rejected(self, tmp_path):
        try:
            run_suite(names=["nope"], out_dir=str(tmp_path))
        except KeyError as exc:
            assert "nope" in exc.args[0]
        else:
            raise AssertionError("expected KeyError")

    def test_load_baseline_missing_is_none(self, tmp_path):
        assert load_baseline(str(tmp_path), "ranges") is None


class TestCli:
    def test_bench_command_smoke(self, tmp_path, capsys):
        code = main(["bench", "--only", "ranges", "--quick",
                     "--repeats", "1", "--out-dir", str(tmp_path),
                     "--baseline-dir", ""])
        assert code == 0
        assert (tmp_path / "BENCH_ranges.json").exists()
        assert "ranges" in capsys.readouterr().out

    def test_bench_cov_backend_flag(self, tmp_path, capsys):
        code = main(["bench", "--only", "ranges", "--quick",
                     "--repeats", "1", "--out-dir", str(tmp_path),
                     "--baseline-dir", "", "--cov-backend", "settrace"])
        assert code == 0
        doc = json.loads((tmp_path / "BENCH_ranges.json").read_text())
        assert doc["cov_backend"] == "settrace"

    def test_bench_unknown_name_is_clean_error(self, tmp_path, capsys):
        code = main(["bench", "--only", "warp-drive",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err
