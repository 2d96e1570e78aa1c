#!/usr/bin/env python3
"""Bring your own PM program: write a workload and fuzz it.

Shows the downstream-user story: implement a persistent FIFO queue
against the simulated PMDK, plug it into the Workload interface, and
run PMFuzz + the detection battery on it — including catching a
deliberately introduced missing-TX_ADD bug.

Run:  python examples/custom_workload.py
"""

from typing import List, Optional

from repro.core.config import config_by_name
from repro.detect import TestingTool
from repro.errors import CommandError
from repro.fuzz.engine import FuzzEngine
from repro.pmdk.layout import OID, PStruct, U64, store_field
from repro.pmdk.pool import OID_NULL, PmemObjPool
from repro.workloads.base import Command, Workload
from repro.workloads.mapcli import parse_commands


class QueueRoot(PStruct):
    _fields_ = [("head", OID), ("tail", OID), ("length", U64)]


class QueueNode(PStruct):
    _fields_ = [("value", U64), ("next", OID)]


class PersistentQueue(Workload):
    """A FIFO queue: push at the tail, pop at the head, all in PM.

    Pass ``bugs={"forget_tail_log"}`` to plant a crash-consistency bug:
    the tail-pointer update is not snapshotted, so a failure during push
    can orphan the queue's tail.
    """

    name = "pqueue"
    layout = "pqueue"

    def create_structure(self, pool: PmemObjPool) -> None:
        pool.root(QueueRoot, site="pqueue:create:root")

    def is_created(self, pool: PmemObjPool) -> bool:
        return pool.root_oid != OID_NULL

    def exec_command(self, pool: PmemObjPool, cmd: Command) -> Optional[str]:
        if cmd.op == "i":  # push
            return self._push(pool, cmd.value or 0)
        if cmd.op == "r":  # pop
            return self._pop(pool)
        if cmd.op == "n":
            return str(pool.typed(pool.root_oid, QueueRoot).length)
        if cmd.op in ("g", "x", "m", "q", "b"):
            return self._peek(pool)
        raise CommandError(cmd.op)

    def _push(self, pool: PmemObjPool, value: int) -> str:
        root = pool.typed(pool.root_oid, QueueRoot)
        with pool.transaction() as tx:
            node = tx.znew(QueueNode, site="pqueue:push:alloc")
            store_field(node, "value", value, site="pqueue:push:value")
            if root.tail == OID_NULL:
                tx.add_struct(root, site="pqueue:push:add_root")
                root.head = node.offset
                root.tail = node.offset
            else:
                old_tail = pool.typed(root.tail, QueueNode)
                tx.add_field(old_tail, "next", site="pqueue:push:add_next")
                old_tail.next = node.offset
                if "forget_tail_log" not in self.bugs:
                    tx.add_field(root, "tail", site="pqueue:push:add_tail")
                root.tail = node.offset  # ← unlogged in the buggy variant
            tx.add_field(root, "length", site="pqueue:push:add_len")
            root.length = root.length + 1
        return "pushed"

    def _pop(self, pool: PmemObjPool) -> str:
        root = pool.typed(pool.root_oid, QueueRoot)
        if root.head == OID_NULL:
            return "empty"
        with pool.transaction() as tx:
            node = pool.typed(root.head, QueueNode)
            value = node.value
            tx.add_struct(root, site="pqueue:pop:add_root")
            root.head = node.next
            if root.head == OID_NULL:
                root.tail = OID_NULL
            root.length = root.length - 1
            tx.free(node.offset, site="pqueue:pop:free")
        return str(value)

    def _peek(self, pool: PmemObjPool) -> str:
        root = pool.typed(pool.root_oid, QueueRoot)
        if root.head == OID_NULL:
            return "empty"
        return str(pool.typed(root.head, QueueNode).value)

    def check_consistency(self, pool: PmemObjPool) -> List[str]:
        root = pool.typed(pool.root_oid, QueueRoot)
        violations = []
        seen = 0
        cur = root.head
        last = OID_NULL
        while cur != OID_NULL and seen <= 10000:
            seen += 1
            last = cur
            cur = pool.typed(cur, QueueNode).next
        if seen != root.length:
            violations.append(f"length {root.length} != actual {seen}")
        if last != root.tail:
            violations.append("tail pointer does not match list end")
        return violations


def main() -> None:
    print("== fuzzing a custom PM workload ==")
    # The "pmfuzz" configuration switches on PM-path priority and
    # normal- and crash-image generation.
    engine = FuzzEngine(lambda: PersistentQueue(), config_by_name("pmfuzz"))
    stats = engine.run(0.8)
    print(f"{stats.executions} executions, {stats.final_pm_paths} PM "
          f"paths, {stats.crash_images_generated} crash images\n")

    print("== hunting the planted missing-TX_ADD bug ==")
    bugs = frozenset({"forget_tail_log"})
    tool = TestingTool(lambda: PersistentQueue(bugs=bugs),
                       max_crash_images=32)
    workload = PersistentQueue(bugs=bugs)
    report = tool.test(workload.create_image(),
                       parse_commands(b"i 0 1\ni 0 2\ni 0 3\n"))
    print("crash-consistency findings:")
    for finding in report.crash_consistency_findings:
        print("  -", finding)
    assert report.crash_consistency_findings, "bug not detected!"
    print("\nthe unlogged tail update is caught both by the trace checker")
    print("(store to unlogged range) and by replaying crash images.")


if __name__ == "__main__":
    main()
