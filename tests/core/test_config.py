"""Tests for the Table-2 configuration matrix."""

from dataclasses import FrozenInstanceError

import pytest

from repro.core.config import (
    AFLPP, AFLPP_IMGFUZZ, AFLPP_SYSOPT, CONFIGS, MIB, ImgFuzzMode, PMFUZZ,
    PMFUZZ_NO_SYSOPT, RunConfig, config_by_name, render_table2,
)
from repro.errors import FuzzerError


def test_five_comparison_points():
    assert len(CONFIGS) == 5
    assert len({c.name for c in CONFIGS}) == 5


def test_table2_feature_matrix():
    """The exact feature matrix of the paper's Table 2."""
    assert (PMFUZZ.input_fuzz, PMFUZZ.img_fuzz, PMFUZZ.pm_path_opt,
            PMFUZZ.sys_opt) == (True, ImgFuzzMode.INDIRECT, True, True)
    assert PMFUZZ_NO_SYSOPT.sys_opt is False
    assert PMFUZZ_NO_SYSOPT.pm_path_opt is True
    assert (AFLPP.img_fuzz, AFLPP.pm_path_opt, AFLPP.sys_opt) == \
        (ImgFuzzMode.NONE, False, False)
    assert AFLPP_SYSOPT.sys_opt is True
    assert (AFLPP_IMGFUZZ.input_fuzz, AFLPP_IMGFUZZ.img_fuzz) == \
        (False, ImgFuzzMode.DIRECT)


def test_lookup_by_short_and_display_name():
    assert config_by_name("pmfuzz") is PMFUZZ
    assert config_by_name("PMFuzz (All Feat.)") is PMFUZZ
    assert config_by_name("aflpp_imgfuzz") is AFLPP_IMGFUZZ


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        config_by_name("nope")


def test_render_table2_has_all_rows():
    table = render_table2()
    for config in CONFIGS:
        assert config.name in table


class TestRunConfig:
    """The one validated record of how a campaign runs."""

    def test_defaults_have_no_options(self):
        assert RunConfig().options() == {}

    def test_options_are_the_non_default_fields(self):
        run = RunConfig(isolation="fork", batch_execs=4, trace_sample=1)
        assert run.options() == {"isolation": "fork", "batch_execs": 4}
        assert RunConfig(**run.options()) == run

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            RunConfig().batch_execs = 2

    @pytest.mark.parametrize("options, message", [
        ({"isolation": "docker"},
         "unknown isolation backend 'docker'; known: fork, none"),
        ({"isolation_workers": 0}, "--workers must be >= 1, got 0"),
        ({"batch_execs": 0}, "--batch-execs must be >= 1, got 0"),
        ({"trace_sample": 0}, "--trace-sample must be >= 1, got 0"),
        ({"worker_max_execs": 0}, "worker_max_execs must be >= 1, got 0"),
        ({"max_retries": -1}, "max_retries must be >= 0, got -1"),
        ({"exec_vtime_budget": 0.0},
         "exec_vtime_budget must be > 0 and finite, got 0.0"),
        ({"exec_wall_timeout": float("inf")},
         "--exec-wall-timeout must be > 0 and finite, got inf"),
        ({"status_every": float("nan")},
         "--status-every must be > 0 and finite, got nan"),
        ({"checkpoint_every": -1.0, "checkpoint_path": "c.ckpt"},
         "--checkpoint-every must be > 0 and finite, got -1.0"),
        ({"checkpoint_every": 0.5}, "--checkpoint-every requires "
                                    "--checkpoint-path"),
        ({"worker_rss_limit": -5 * MIB}, "--worker-rss-limit must be > 0, "
                                         "got -5"),
        ({"trace_rotate_bytes": 0}, "--trace-rotate-mib must be > 0, got 0"),
    ])
    def test_bad_option_is_one_error_naming_its_flag(self, options,
                                                    message):
        with pytest.raises(FuzzerError) as info:
            RunConfig(**options)
        assert str(info.value) == message

    def test_build_engine_rejects_unknown_option(self):
        from repro.core.pmfuzz import build_engine

        with pytest.raises(FuzzerError,
                           match="unknown engine options: havoc_batch"):
            build_engine("hashmap_tx", PMFUZZ, havoc_batch=12)

    def test_build_engine_records_options_over_run_config(self):
        from repro.core.pmfuzz import build_engine

        engine = build_engine("hashmap_tx", PMFUZZ,
                              run_config=RunConfig(batch_execs=4),
                              trace_sample=3)
        assert engine.run_config == RunConfig(batch_execs=4, trace_sample=3)
        assert engine.campaign_meta["engine_kwargs"] == \
            {"batch_execs": 4, "trace_sample": 3}
