"""The two simulator workloads: ``sim-write-heavy`` and ``sim-idle-trickle``.

Both drive one in-process :class:`~repro.cluster.simulation.
ClusterSimulation` of the DBVV protocol with the random peer selector,
and both run the same per-round loop: apply this round's updates from
a :class:`~repro.workload.generators.SingleWriterWorkload` (each
followed by one read of a random item at a random replica), then
``run_round()``, ``converged()`` and ``ground_truth.observe()``.  After
the fixed rounds the same loop runs without updates until the cluster
has converged (the drain).  Every item has a single writer, so the
histories are conflict-free and every update must become visible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from perfbench.checks import (
    replica_state,
    time_recovery,
    truth_mismatches,
)
from perfbench.common import Episode, LoopClock, settle_visible
from perfbench.layers import layer_metrics, tracing
from perfbench.spans import Tracer, untraced

__all__ = ["SimConfig", "WRITE_HEAVY", "IDLE_TRICKLE", "sim_episode"]


@dataclass(frozen=True)
class SimConfig:
    n_nodes: int
    n_items: int
    #: Encoded network: byte counts are exact frame lengths and every
    #: message round-trips through the codec.
    wire: bool
    #: ``updates`` user updates every ``every`` rounds.
    updates: int
    every: int
    rounds: int
    #: Between every ``recover_every`` rounds one replica (round-robin)
    #: is written as a checkpoint and its recovery timed.
    recover_every: int


VALUE_SIZE = 64
MAX_DRAIN_ROUNDS = 300


WRITE_HEAVY = SimConfig(
    n_nodes=32, n_items=2048, wire=True, updates=16, every=1, rounds=100,
    recover_every=10,
)
IDLE_TRICKLE = SimConfig(
    n_nodes=128, n_items=1000, wire=False, updates=1, every=8, rounds=400,
    recover_every=40,
)


def sim_episode(
    config: SimConfig, seed: int, tracer: Tracer | None, work_dir: Path
) -> Episode:
    """One episode: build, run ``config.rounds`` rounds, drain, check."""
    from repro.cluster.scheduler import RandomSelector
    from repro.cluster.simulation import ClusterSimulation
    from repro.experiments.common import make_factory, make_items
    from repro.workload.generators import SingleWriterWorkload

    ep = Episode()
    n, items = config.n_nodes, make_items(config.n_items)
    start = perf_counter()
    sim = ClusterSimulation(
        make_factory("dbvv", n, items),
        n,
        items,
        selector=RandomSelector(),
        wire=config.wire,
        sanitize=False,
        durable=False,
        seed=seed,
    )
    workload = SingleWriterWorkload(
        items, n, seed=seed, value_size=VALUE_SIZE
    )
    ep.setup_s = perf_counter() - start

    readers = random.Random(seed)
    nodes = sim.nodes
    written: dict[str, set[bytes]] = {}
    reads: list[tuple[str, bytes]] = []
    #: (origin, seqno, loop-clock time the update was issued)
    pending: list[tuple[int, int, float]] = []
    clock = LoopClock()
    round_no = 0
    converged = False
    sessions = identical = 0
    with tracing(tracer):
        while True:
            draining = round_no >= config.rounds
            if draining and converged and not pending:
                break
            if round_no >= config.rounds + MAX_DRAIN_ROUNDS:
                ep.fail(f"no convergence {MAX_DRAIN_ROUNDS} rounds into the drain")
                break
            clock.start_round()
            if not draining and round_no % config.every == 0:
                for event in workload.generate(config.updates):
                    issued = perf_counter()
                    sim.apply_update(event.node, event.item, event.op)
                    ep.put_ack_s.append(perf_counter() - issued)
                    seqno = nodes[event.node].node.dbvv[event.node]
                    pending.append((event.node, seqno, clock.at(issued)))
                    written.setdefault(event.item, set()).add(event.op.value)
                    reader = nodes[readers.randrange(n)]
                    item = items[readers.randrange(len(items))]
                    before = perf_counter()
                    value = reader.read(item)
                    ep.get_s.append(perf_counter() - before)
                    reads.append((item, value))
            stats = sim.run_round()
            converged = sim.converged()
            sim.ground_truth.observe(float(sim.round_no), nodes)
            ep.round_s.append(clock.end_round())
            round_no += 1
            sessions += stats.sessions
            identical += stats.identical_sessions
            ep.items_adopted += stats.items_transferred
            ep.attempted += stats.sessions
            if stats.failed_sessions:
                ep.fail(
                    f"{stats.failed_sessions} failed session(s) in round {round_no}",
                    stats.failed_sessions,
                )
            if pending:
                pending = settle_visible(pending, nodes, clock.total, ep.visible_s)
            if round_no % config.recover_every == 0:
                with untraced(tracer):
                    _sample_recovery(
                        ep, sim, round_no // config.recover_every, work_dir
                    )
    layer_stats = tracer.aggregate() if tracer is not None else None

    ep.sessions = sessions
    counters = sim.total_counters
    ep.bytes_sent = counters.bytes_sent
    ep.attempted += len(ep.put_ack_s)
    for origin, seqno, _issued in pending:
        ep.fail(f"update {origin}:{seqno} never visible on every replica")

    _check_outputs(ep, sim, items, written, reads)
    ep.counters = {
        "bytes_sent": counters.bytes_sent,
        "sessions": sessions,
        "fastpath_skips": counters.fastpath_skips,
        "items_adopted": ep.items_adopted,
        "log_records_examined": counters.log_records_examined,
    }
    if layer_stats is not None:
        ep.layer = layer_metrics(
            layer_stats,
            tracer.counts,
            len(ep.round_s),
            {
                "node.log_records_examined": counters.log_records_examined,
                "node.vv_comparisons": counters.vv_comparisons,
                "session.count": sessions,
                "session.identical_share": identical / sessions,
                "simulation.fastpath_skips": counters.fastpath_skips,
                "convergence.staleness_reexaminations":
                    counters.staleness_reexaminations,
                **_ABSENT_ON_SIM,
            },
        )
    return ep


#: Layers the simulator never calls: no sockets, no journal.
_ABSENT_ON_SIM = {
    "net.reconnects": 0,
    "net.sync_retries": 0,
    "durable.checkpoints": 0,
    "durable.fsyncs_per_update": 0,
    "durable.wal_bytes_per_update": 0,
    "durable.recover.records_replayed": 0,
}


def _check_outputs(
    ep: Episode,
    sim: object,
    items: list[str],
    written: dict[str, set[bytes]],
    reads: list[tuple[str, bytes]],
) -> None:
    truth = {item: sim.ground_truth.value(item) for item in items}
    values = [{item: node.read(item) for item in items} for node in sim.nodes]
    ep.attempted += len(values)
    for problem in truth_mismatches(values, truth):
        ep.fail(problem)
    ep.check(sim.converged(), "cluster not converged after the drain")
    ep.check(sim.total_conflicts() == 0, f"{sim.total_conflicts()} conflicts")
    ep.attempted += len(reads)
    for item, value in reads:
        if value and value not in written.get(item, ()):
            ep.fail(f"read of {item} returned a value never written")


def _sample_recovery(ep: Episode, sim: object, sample: int, work_dir: Path) -> None:
    """Write one replica (round-robin) as a checkpoint and time its
    recovery: the restart cost of a replica holding this state."""
    from repro.durable import NodeJournal

    node_id = sample % sim.n_nodes
    node = sim.nodes[node_id].node
    copy_dir = work_dir / f"replica{node_id}"
    journal = NodeJournal(copy_dir, fsync=False)
    journal.checkpoint(node)
    journal.close()
    time_recovery(
        ep, copy_dir, node_id, sim.n_nodes, sim.items, replica_state(node)
    )
