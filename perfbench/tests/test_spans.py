"""Self-time and residual arithmetic on hand-built spans."""

import pytest

from pmbench.layers import (ITERATION_TOTALS, PER_LAYER, attributed_seconds,
                            layer_metrics)
from pmbench.spans import (SpanRecorder, root_wall, self_time_by_name,
                           self_times)

# root [0, 10] with two overlapping children and one grandchild.
SPANS = [
    ("engine", 0.0, 10.0, -1, 1),
    ("fuzz.executor", 1.0, 4.0, 0, 1),
    ("core.dedup.put", 3.0, 6.0, 0, 1),
    ("workloads.commands", 2.0, 3.0, 1, 1),
]


def test_self_time_subtracts_the_union_of_children():
    assert self_times(SPANS) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_children_are_clipped_to_the_parent_interval():
    spans = [("engine", 0.0, 2.0, -1, 1), ("fuzz.queue", 1.0, 3.0, 0, 1)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_self_times_by_name_sum_to_the_root_wall_when_spans_nest():
    spans = [
        ("engine", 0.0, 10.0, -1, 1),
        ("fuzz.executor", 1.0, 4.0, 0, 1),
        ("workloads.commands", 2.0, 3.0, 1, 1),
        ("core.dedup.put", 5.0, 6.0, 0, 1),
        ("engine", 20.0, 22.0, -1, 2),
        ("fuzz.executor", 20.5, 21.0, 4, 2),
    ]
    by_name = self_time_by_name(spans)
    assert by_name == pytest.approx({"engine": 7.5, "fuzz.executor": 2.5,
                                     "workloads.commands": 1.0,
                                     "core.dedup.put": 1.0})
    assert sum(by_name.values()) == pytest.approx(root_wall(spans)) == 12.0


def test_layer_metrics_residual_identity():
    spans = [
        ("engine", 0.0, 10.0, -1, 1),
        ("fuzz.executor", 1.0, 4.0, 0, 1),
        ("workloads.commands", 2.0, 3.0, 1, 1),
        ("pmdk.pool.close", 2.5, 2.75, 2, 1),
        ("isolation", 5.0, 7.0, 0, 1),
        ("isolation.wait", 5.5, 6.5, 4, 1),
        ("detect", 8.0, 9.5, 0, 1),
        ("detect.xfd", 8.5, 9.0, 6, 1),
    ]
    totals = dict.fromkeys(ITERATION_TOTALS, 0.0)
    metrics = layer_metrics(spans, {}, totals, iterations=2,
                            trace_overhead=1.0)
    assert set(metrics) == {name for name, _ in PER_LAYER}
    # Per-iteration means: the one root is shared by two iterations.
    assert metrics["engine.traced_wall_s"] == pytest.approx(5.0)
    assert metrics["engine.unattributed_s"] == pytest.approx(
        (10.0 - 3.0 - 2.0 - 1.5) / 2)
    assert metrics["workloads.commands_s"] == pytest.approx(0.75 / 2)
    assert metrics["isolation.wait_s"] == pytest.approx(0.5)
    assert metrics["detect.self_s"] == pytest.approx(0.5)
    assert attributed_seconds(metrics) == pytest.approx(
        metrics["engine.traced_wall_s"])


def test_recorder_nests_spans_and_rejects_out_of_order_close():
    rec = SpanRecorder()
    root = rec.open("engine")
    child = rec.open("fuzz.queue")
    assert rec.parent_name() == "fuzz.queue"
    rec.close(child)
    rec.close(root)
    (_, _, _, root_parent, _), (_, _, _, child_parent, _) = rec.finished()
    assert (root_parent, child_parent) == (-1, 0)
    outer = rec.open("engine")
    rec.open("fuzz.queue")
    with pytest.raises(RuntimeError):
        rec.close(outer)
