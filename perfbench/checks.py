"""Output checks shared by the workloads.

Every check counts as one attempt in the run's ``attempted`` total and
as one failure when it does not hold; a run with any failure prints
``"correct": false`` and exits non-zero.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

from perfbench.common import Episode

__all__ = [
    "ReplicaState",
    "replica_state",
    "state_mismatches",
    "truth_mismatches",
    "time_recovery",
]

#: ``(dbvv, ((item, value, ivv, in_conflict), ...))`` of one replica.
ReplicaState = tuple[tuple[int, ...], tuple[tuple[str, bytes, tuple[int, ...], bool], ...]]


def replica_state(node: Any) -> ReplicaState:
    """The DBVV and the regular store of an ``EpidemicNode``."""
    return (
        node.dbvv.as_tuple(),
        tuple(
            (entry.name, entry.value, entry.ivv.as_tuple(), entry.in_conflict)
            for entry in node.store
        ),
    )


def state_mismatches(expected: ReplicaState, actual: ReplicaState) -> list[str]:
    """Human-readable differences between two replica states."""
    problems: list[str] = []
    if expected[0] != actual[0]:
        problems.append(f"dbvv {actual[0]} != {expected[0]}")
    want = {entry[0]: entry[1:] for entry in expected[1]}
    have = {entry[0]: entry[1:] for entry in actual[1]}
    if want.keys() != have.keys():
        problems.append("item sets differ")
    for name in sorted(want.keys() & have.keys()):
        if want[name] != have[name]:
            problems.append(f"item {name}: {have[name]!r} != {want[name]!r}")
            if len(problems) >= 5:
                break
    return problems


def truth_mismatches(
    values: Sequence[dict[str, bytes]], truth: dict[str, bytes]
) -> list[str]:
    """Replicas whose ``{item: value}`` differs from the ground truth."""
    problems: list[str] = []
    for index, replica in enumerate(values):
        wrong = [item for item, value in truth.items() if replica.get(item) != value]
        if wrong or replica.keys() != truth.keys():
            problems.append(
                f"replica {index}: {len(wrong)} item(s) differ from the "
                f"ground truth, first {wrong[:3]}"
            )
    return problems


def time_recovery(
    ep: Episode,
    copy_dir: Path,
    node_id: int,
    n_nodes: int,
    items: Sequence[str],
    expected: ReplicaState,
) -> int:
    """Time ``NodeJournal.recover`` on ``copy_dir`` (a private copy of a
    replica's data directory, deleted afterwards), check the recovered
    replica against ``expected``, and return the WAL records replayed."""
    from repro.core.node import EpidemicNode
    from repro.durable import NodeJournal

    start = perf_counter()
    journal = NodeJournal(copy_dir, fsync=False)
    node = journal.recover(EpidemicNode, node_id, n_nodes, list(items))
    ep.recover_s.append(perf_counter() - start)
    journal.close()
    problems = state_mismatches(expected, replica_state(node))
    ep.check(
        not problems,
        f"node {node_id} recovered from a copy of its data directory "
        f"differs from the live replica: {problems}",
    )
    shutil.rmtree(copy_dir)
    return journal.records_replayed
