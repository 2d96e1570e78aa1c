"""Seeds drive the inputs; the declared metrics match BENCHMARK.json."""

import dataclasses

from pmbench.layers import PER_LAYER
from pmbench.report import END_TO_END, load_benchmark
from pmbench.runner import load_pins
from pmbench.workloads import (DEFAULT_SEED, WORKLOADS, run_iteration,
                               seed_inputs, subseed)


def _short(name):
    return dataclasses.replace(WORKLOADS[name], budget=0.25)


def test_a_different_seed_changes_the_digest():
    spec = _short("pmfuzz-btree")
    first = run_iteration(spec, 1)
    again = run_iteration(spec, 1)
    other = run_iteration(spec, 2)
    assert first.digest == again.digest
    assert first.digest != other.digest


def test_fork_isolation_keeps_the_in_process_digest():
    spec = _short("aflpp-fork-btree")
    in_process = dataclasses.replace(spec, engine_kwargs={})
    assert run_iteration(spec, 3).digest == \
        run_iteration(in_process, 3).digest


def test_fork_pin_is_the_in_process_digest():
    in_process = dataclasses.replace(WORKLOADS["aflpp-fork-btree"],
                                     engine_kwargs={})
    assert run_iteration(in_process, DEFAULT_SEED).digest == \
        load_pins()["aflpp-fork-btree"]["digest"]


def test_seed_derivation_is_deterministic():
    assert seed_inputs(7) == seed_inputs(7) != seed_inputs(8)
    assert subseed(7, 0) == 7
    assert subseed(7, 1) == subseed(7, 1) != subseed(8, 1)


def test_benchmark_json_declares_what_the_code_reports():
    bench = load_benchmark()
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER
