"""The ``net-durable-mix`` workload: a durable localhost cluster.

Eight :class:`~repro.net.node.NetNode` replicas run in this process's
asyncio loop (as ``tests/net/test_node.py`` does), talking over
loopback TCP with no injected delay and no background anti-entropy
(``anti_entropy_period=0``).  Each node journals to its own data
directory with fsync on and the default checkpoint cadence.

Load is a closed loop on two client connections, to nodes 0 and 4,
speaking the client JSON protocol through :mod:`repro.net.framing`.
Per round each connection issues four puts of 1 KiB to items its node
owns, each followed by a get of an item the other connection writes,
while every node runs one ``sync_with`` to a seeded-random peer; the
round ends when all of it has finished.  The fixed rounds are followed
by a drain of sync-only rounds until every replica holds every put.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from perfbench.checks import replica_state, time_recovery
from perfbench.common import Episode, LoopClock, settle_visible
from perfbench.layers import layer_metrics, tracing
from perfbench.spans import Tracer, untraced

__all__ = ["NetConfig", "NET_MIX", "net_episode", "TeardownLog"]


N_NODES = 8
#: Nodes the two client connections talk to.
CLIENT_NODES = (0, 4)
PUTS_PER_ROUND = 4
VALUE_SIZE = 1024
MAX_DRAIN_ROUNDS = 100


@dataclass(frozen=True)
class NetConfig:
    n_items: int = 1024
    rounds: int = 300
    #: Between every ``recover_every`` rounds one node's data directory
    #: (round-robin) is copied and its recovery timed.
    recover_every: int = 25


NET_MIX = NetConfig()


class TeardownLog(logging.StreamHandler):
    """Counts the errors asyncio logs while a cluster shuts down, and
    still prints each one to standard error.

    Handlers of :meth:`NetNode._serve_peer` still running after
    ``stop()`` are cancelled when the loop closes and asyncio logs their
    ``CancelledError`` tracebacks.  That is a defect of the node, not of
    the run: the records are counted and reported, never silenced, and
    never counted as a failure.
    """

    def __init__(self) -> None:
        super().__init__(sys.stderr)
        self.setLevel(logging.ERROR)
        self.records = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.records += 1
        super().emit(record)


class _Client:
    """One client connection speaking length-prefixed JSON."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    async def call(self, request: dict[str, Any]) -> dict[str, Any]:
        from repro.net.framing import read_blob, write_blob

        await write_blob(self.writer, json.dumps(request).encode("utf-8"))
        return json.loads(await read_blob(self.reader))

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


def net_episode(
    config: NetConfig, seed: int, tracer: Tracer | None, work_dir: Path
) -> Episode:
    """One episode in a fresh event loop; see the module docstring."""
    teardown = TeardownLog()
    asyncio_log = logging.getLogger("asyncio")
    asyncio_log.addHandler(teardown)
    try:
        ep = asyncio.run(_episode(config, seed, tracer, work_dir))
    finally:
        asyncio_log.removeHandler(teardown)
    ep.teardown_errors = teardown.records
    return ep


async def _episode(
    config: NetConfig, seed: int, tracer: Tracer | None, work_dir: Path
) -> Episode:
    from repro.errors import NetworkSessionError, ReplicationError
    from repro.experiments.common import make_items
    from repro.metrics.counters import OverheadCounters
    from repro.net.config import NodeConfig, PeerAddress
    from repro.net.harness import _free_ports
    from repro.net.node import NetNode

    ep = Episode()
    n = N_NODES
    items = tuple(make_items(config.n_items))
    owned = {k: [item for i, item in enumerate(items) if i % n == k] for k in range(n)}
    episode_dir = work_dir / "episode"
    if episode_dir.exists():
        shutil.rmtree(episode_dir)

    start = perf_counter()
    # Every listener gets a port chosen up front: a client listener left
    # to bind port 0 could take a peer port picked for a later node.
    ports = _free_ports(2 * n)
    nodes = [
        NetNode(
            NodeConfig(
                node_id=k,
                items=items,
                peer_port=ports[k],
                client_port=ports[n + k],
                peers=tuple(
                    PeerAddress(j, "127.0.0.1", ports[j]) for j in range(n) if j != k
                ),
                seed=seed,
                data_dir=str(episode_dir / f"node{k}"),
            )
        )
        for k in range(n)
    ]
    # Whatever started is stopped again, also when a check raises.
    async with contextlib.AsyncExitStack() as stack:
        for node in nodes:
            await node.start()
            stack.push_async_callback(node.stop)
        clients = []
        for k in CLIENT_NODES:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", nodes[k].client_port
            )
            clients.append(_Client(reader, writer))
            stack.push_async_callback(clients[-1].close)
        ep.setup_s = perf_counter() - start

        if tracer is not None:
            # Work counters the program keeps only when handed a bundle;
            # the untraced run leaves the nodes exactly as they start.
            for node in nodes:
                node.node.counters = OverheadCounters()

        peers = random.Random(seed)
        pickers = [random.Random(seed * 2 + k + 1) for k in range(2)]
        issued_values: dict[str, set[bytes]] = {}
        last_acked: dict[str, bytes] = {}
        reads: list[tuple[str, bytes]] = []
        pending: list[tuple[int, int, float]] = []
        put_count = 0
        sessions = identical = replayed = 0
        clock = LoopClock()

        async def client_ops(index: int) -> None:
            nonlocal put_count
            origin = CLIENT_NODES[index]
            other = CLIENT_NODES[1 - index]
            client = clients[index]
            rng = pickers[index]
            for _ in range(PUTS_PER_ROUND):
                item = rng.choice(owned[origin])
                put_count += 1
                value = f"{item}#{put_count}".encode().ljust(VALUE_SIZE, b".")
                issued_values.setdefault(item, set()).add(value)
                issued = clock.now()
                reply = await client.call({"op": "put", "item": item, "value": value.hex()})
                ep.put_ack_s.append(clock.now() - issued)
                ep.attempted += 1
                if reply.get("ok"):
                    last_acked[item] = value
                    pending.append((origin, nodes[origin].node.dbvv[origin], issued))
                else:
                    ep.fail(f"put {item} at node {origin} refused: {reply}")
                wanted = rng.choice(owned[other])
                before = clock.now()
                reply = await client.call({"op": "get", "item": wanted})
                ep.get_s.append(clock.now() - before)
                ep.attempted += 1
                if reply.get("ok"):
                    reads.append((wanted, bytes.fromhex(reply["value"])))
                else:
                    ep.fail(f"get {wanted} at node {origin} refused: {reply}")

        async def sync(k: int) -> None:
            nonlocal sessions, identical
            peer = peers.randrange(n - 1)
            peer += peer >= k
            ep.attempted += 1
            try:
                outcome = await nodes[k].sync_with(peer)
            except (NetworkSessionError, ReplicationError) as exc:
                ep.fail(f"session {k}<-{peer} failed: {exc}")
                return
            sessions += 1
            identical += outcome.identical
            ep.items_adopted += len(outcome.adopted)

        def settled() -> bool:
            first = nodes[0].node.dbvv.as_tuple()
            return all(node.node.dbvv.as_tuple() == first for node in nodes[1:])

        round_no = 0
        with tracing(tracer):
            while True:
                draining = round_no >= config.rounds
                if draining and not pending and settled():
                    break
                if round_no >= config.rounds + MAX_DRAIN_ROUNDS:
                    ep.fail(f"no convergence {MAX_DRAIN_ROUNDS} rounds into the drain")
                    break
                clock.start_round()
                work = [sync(k) for k in range(n)]
                if not draining:
                    work += [client_ops(0), client_ops(1)]
                await asyncio.gather(*work)
                ep.round_s.append(clock.end_round())
                round_no += 1
                if pending:
                    pending = settle_visible(pending, nodes, clock.total, ep.visible_s)
                if round_no % config.recover_every == 0:
                    k = (round_no // config.recover_every) % n
                    with untraced(tracer):
                        replayed += _sample_recovery(ep, nodes[k], episode_dir, items)
        layer_stats = tracer.aggregate() if tracer is not None else None

        wal_bytes = sum(node.journal.wal.bytes_appended for node in nodes)
        fsyncs = sum(node.journal.wal.fsyncs for node in nodes)
        checkpoints = sum(node.journal.checkpoints for node in nodes)
        work_counters = [node.node.counters for node in nodes]

        _check_outputs(ep, nodes, items, issued_values, last_acked, reads, pending)
        ep.sessions = sessions
        ep.bytes_sent = sum(node.bytes_sent for node in nodes)
        reconnects = sum(node.reconnects for node in nodes)
        retries = sum(node.sync_retries for node in nodes)

    shutil.rmtree(episode_dir)

    if layer_stats is not None:
        ep.layer = layer_metrics(
            layer_stats,
            tracer.counts,
            len(ep.round_s),
            {
                "node.log_records_examined": sum(
                    c.log_records_examined for c in work_counters
                ),
                "node.vv_comparisons": sum(c.vv_comparisons for c in work_counters),
                "session.count": sessions,
                "session.identical_share": identical / sessions,
                "net.reconnects": reconnects,
                "net.sync_retries": retries,
                "durable.checkpoints": checkpoints,
                "durable.fsyncs_per_update": fsyncs / len(ep.put_ack_s),
                "durable.wal_bytes_per_update": wal_bytes / len(ep.put_ack_s),
                "durable.recover.records_replayed": replayed,
                **_ABSENT_ON_NET,
            },
        )
    return ep


#: Layers this workload never calls: there is no simulator.
_ABSENT_ON_NET = {
    "simulation.fastpath_skips": 0,
    "convergence.staleness_reexaminations": 0,
}


def _sample_recovery(ep: Episode, node: Any, episode_dir: Path, items: tuple[str, ...]) -> int:
    """Copy a live, idle node's data directory — the state a ``kill -9``
    would leave — and time its recovery; returns WAL records replayed."""
    copy_dir = episode_dir / f"copy{node.node_id}"
    shutil.copytree(node.config.data_dir, copy_dir)
    return time_recovery(
        ep, copy_dir, node.node_id, node.n_nodes, items, replica_state(node.node)
    )


def _check_outputs(
    ep: Episode,
    nodes: list,
    items: tuple[str, ...],
    issued_values: dict[str, set[bytes]],
    last_acked: dict[str, bytes],
    reads: list[tuple[str, bytes]],
    pending: list[tuple[int, int, float]],
) -> None:
    for origin, seqno, _issued in pending:
        ep.fail(f"put {origin}:{seqno} never visible on every replica")
    ep.attempted += len(ep.put_ack_s)
    for node in nodes:
        wrong = [
            item for item, value in last_acked.items()
            if node.node.read(item) != value
        ]
        ep.check(
            not wrong,
            f"node {node.node_id}: {len(wrong)} acked put(s) not read back, "
            f"first {wrong[:3]}",
        )
        ep.check(
            node.node.conflicts.count == 0,
            f"node {node.node_id}: {node.node.conflicts.count} conflicts",
        )
    ep.attempted += len(reads)
    for item, value in reads:
        if value and value not in issued_values.get(item, ()):
            ep.fail(f"get of {item} returned a value never put")
