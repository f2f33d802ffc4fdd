"""The networked epidemic node: one asyncio process per replica.

This is the deployment the simulator models.  The pure
:class:`~repro.core.node.EpidemicNode` state machine is driven through
the *same* sans-I/O session driver (:mod:`repro.core.session`) the
simulator's protocol adapter uses — this module adds only the I/O
edges:

* a **peer listener** accepting anti-entropy connections from other
  replicas (``SendPropagation`` service: one
  :class:`~repro.core.messages.PropagationRequest` in, one answer out,
  over :mod:`repro.wire` frames);
* **outbound peer connections** over which this node runs its own pull
  sessions, one at a time per peer;
* a **client listener** serving a small length-prefixed JSON API
  (put/get/sync/status/ping/shutdown) for applications and the parity
  harness;
* an optional **anti-entropy scheduler** pulling from a randomly
  selected peer every ``anti_entropy_period`` seconds, reusing the
  simulator's :class:`~repro.cluster.scheduler.PeerSelector` policies.

**Connection-scoped delta-VV caches.**  Every TCP connection gets its
own :class:`~repro.wire.WireCodec`: both endpoints create the codec at
connect/accept time and retire it with the connection, so the sender
and receiver delta caches are born empty together, advance in lockstep
on the ordered byte stream, and vanish together on disconnect.  This
is the networked analogue of the simulator's
``invalidate_link``/``invalidate_node`` calls on drops and crashes —
any tear in the stream (process crash, reset, clean close) destroys
exactly the caches that could have desynchronised, and the next
connection restarts from full vectors.  No cross-connection cache can
desync because no cache outlives its connection.
"""

from __future__ import annotations

import asyncio
import json
import logging
import random
from typing import Any

from repro.cluster.scheduler import PeerSelector, RandomSelector
from repro.core.node import EpidemicNode
from repro.core.messages import PropagationReply, PropagationRequest
from repro.core.session import PullOutcome, PullSession, respond
from repro.core.validate import (
    validate_item_name,
    validate_node_id,
    validate_propagation_request,
    validate_session_answer,
    validate_value,
)
from repro.durable import NodeJournal
from repro.errors import (
    NetworkSessionError,
    ReplicationError,
    ValidationError,
    WireFormatError,
)
from repro.net.config import NodeConfig
from repro.net.framing import (
    ConnectionClosed,
    read_blob,
    read_frame,
    receive_preamble,
    send_preamble,
    write_blob,
    write_frame,
)
from repro.net.tasks import TaskTracker, cancel_and_wait
from repro.substrate.operations import Put
from repro.wire import WireCodec

__all__ = ["NetNode"]

logger = logging.getLogger("repro.net")


class _PeerLink:
    """One live outbound connection, with its connection-scoped codec."""

    __slots__ = ("reader", "writer", "codec")

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        codec: WireCodec,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.codec = codec


class NetNode:
    """One replica of the epidemic database, serving real sockets."""

    def __init__(self, config: NodeConfig) -> None:
        self.config = config
        self.node_id = config.node_id
        self.n_nodes = config.n_nodes
        self.journal: NodeJournal | None = None
        if config.data_dir is not None:
            # Durable mode: recover from whatever the directory holds
            # (a fresh replica when it is empty), then journal every
            # accepted input from here on.  A real fsync per group
            # commit — a killed process must find its state again.
            self.journal = NodeJournal(config.data_dir, fsync=True)
            self.node = self.journal.recover(
                EpidemicNode,
                config.node_id,
                config.n_nodes,
                list(config.items),
            )
        else:
            self.node = EpidemicNode(
                config.node_id, config.n_nodes, list(config.items)
            )
        # Frame-type census of frames *sent* by this process; summing
        # the census over all processes of a cluster reproduces the
        # simulator network's delivered-frame census (nothing drops
        # frames between send and receive on a healthy TCP stream).
        self.census: dict[str, int] = {}
        self.frames_sent = 0
        self.bytes_sent = 0
        self.reconnects = 0
        self.sync_retries = 0
        self.sessions_served = 0
        self._links: dict[int, _PeerLink] = {}
        self._link_locks: dict[int, asyncio.Lock] = {}
        # Scheduler randomness is seeded per node so a cluster of
        # processes is as replayable as the simulator (R3).
        self.rng = random.Random((config.seed << 8) ^ config.node_id)
        self.selector: PeerSelector = RandomSelector()
        self.round_no = 0
        self._peer_server: asyncio.base_events.Server | None = None
        self._client_server: asyncio.base_events.Server | None = None
        self._anti_entropy_task: asyncio.Task[object] | None = None
        self._tasks = TaskTracker(name=f"node{config.node_id}")
        self._stopped = asyncio.Event()
        self.peer_port = config.peer_port
        self.client_port = config.client_port

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bind both listeners (resolving port 0 to real ports) and, if
        configured, start the anti-entropy scheduler."""
        self._peer_server = await asyncio.start_server(
            self._accept_peer, self.config.host, self.config.peer_port
        )
        self.peer_port = self._peer_server.sockets[0].getsockname()[1]
        self._client_server = await asyncio.start_server(
            self._accept_client, self.config.host, self.config.client_port
        )
        self.client_port = self._client_server.sockets[0].getsockname()[1]
        if self.config.anti_entropy_period > 0:
            self._anti_entropy_task = self._tasks.spawn(
                self._anti_entropy_loop(), name="anti-entropy"
            )
        logger.info(
            "node %d ready: peer port %d, client port %d",
            self.node_id,
            self.peer_port,
            self.client_port,
        )

    async def run_until_shutdown(self) -> None:
        """Serve until a client sends ``shutdown`` (or :meth:`stop`)."""
        # The process's whole purpose is to serve until told otherwise;
        # an unbounded wait on the stop event is the intent, not a hang.
        await self._stopped.wait()  # pragma: blocking lifetime wait for the shutdown signal

    async def stop(self) -> None:
        """Tear down listeners, outbound links, connection handlers, and
        the scheduler."""
        if self._anti_entropy_task is not None:
            await cancel_and_wait(self._anti_entropy_task)
            self._anti_entropy_task = None
        servers = [
            server
            for server in (self._peer_server, self._client_server)
            if server is not None
        ]
        for server in servers:
            server.close()
        for peer_id in sorted(self._links):
            self._drop_link(peer_id)
        # The connection handlers are tracked tasks: cancel and await
        # them before waiting on the listeners, which from Python 3.12
        # on also wait for every accepted connection to drop.
        await self._tasks.aclose()
        for server in servers:
            await server.wait_closed()
        if self.journal is not None:
            # A clean shutdown folds the WAL into a checkpoint so the
            # next start replays nothing; recovery does not depend on
            # this (a kill skips it and replays the WAL instead).
            self.journal.checkpoint(self.node)
            self.journal.close()
        self._stopped.set()

    # -- peer service (the SendPropagation side) ------------------------------

    def _accept_peer(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Listener callback: serve the connection in a tracked task.

        Handing ``asyncio.start_server`` the coroutine function instead
        would leave the handler task to asyncio, which neither cancels
        it on ``stop()`` nor awaits it in ``Server.wait_closed()`` on
        Python 3.11; the task then outlives the node and is cancelled,
        with a logged traceback, when the loop closes.
        """
        self._tasks.spawn(self._serve_peer(reader, writer), name="serve-peer")

    async def _serve_peer(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one inbound peer connection until it closes.

        The codec lives exactly as long as the connection (see the
        module docstring); a framing error or an illegal message tears
        the connection down, which is also what invalidates the caches
        on both ends.
        """
        peer_id = -1
        try:
            peer_id = await receive_preamble(reader)
            if not 0 <= peer_id < self.n_nodes or peer_id == self.node_id:
                raise WireFormatError(
                    f"peer handshake announced illegal node id {peer_id}"
                )
            await send_preamble(writer, self.node_id)
            codec = WireCodec(delta_vv=self.config.delta_vv)
            while True:
                frame = await read_frame(reader)
                message = codec.decode(peer_id, self.node_id, frame)
                if not isinstance(message, PropagationRequest):
                    raise WireFormatError(
                        "peer connection carried a "
                        f"{type(message).__name__}; only "
                        "PropagationRequest is served"
                    )
                checked = validate_propagation_request(message, self.node)
                answer = respond(self.node, checked)
                out = codec.encode(self.node_id, peer_id, answer)
                self._count_frame(answer, out)
                # The served-session transition is complete *before* the
                # answer write awaits (R10): a status snapshot taken by a
                # concurrent client coroutine never sees the counted
                # frame without the counted session.
                self.sessions_served += 1
                await write_frame(writer, out)
        except ConnectionClosed:
            logger.info("peer %d disconnected", peer_id)
        except (WireFormatError, ValidationError) as exc:
            logger.warning("peer %d connection dropped: %s", peer_id, exc)
        finally:
            writer.close()

    # -- outbound sessions (the pull side) ------------------------------------

    async def sync_with(self, peer_id: int) -> PullOutcome:
        """Run one anti-entropy pull against ``peer_id``.

        At most one session per peer is in flight (per-peer lock), so
        requests and answers strictly alternate on the connection and
        the delta caches see a total order.  A connection that dies
        mid-session is dropped (caches with it) and the session retried
        on a fresh connection, up to ``reconnect_attempts`` extra
        dials; the retry re-reads the node state, so an answer the peer
        computed for the lost session is never half-applied here.
        """
        if not 0 <= peer_id < self.n_nodes or peer_id == self.node_id:
            raise NetworkSessionError(f"illegal sync peer {peer_id}")
        lock = self._link_locks.setdefault(peer_id, asyncio.Lock())
        async with lock:
            attempts = self.config.reconnect_attempts + 1
            for attempt in range(attempts):
                if attempt > 0:
                    self.sync_retries += 1
                link = await self._ensure_link(peer_id)
                pull = PullSession(self.node)
                frame = link.codec.encode(
                    self.node_id, peer_id, pull.request()
                )
                try:
                    self._count_frame_raw("PropagationRequest", frame)
                    await write_frame(link.writer, frame)
                    answer_frame = await read_frame(link.reader)
                except ConnectionClosed:
                    self._drop_link(peer_id)
                    self.reconnects += 1
                    logger.warning(
                        "session with peer %d lost its connection "
                        "(attempt %d/%d)",
                        peer_id,
                        attempt + 1,
                        attempts,
                    )
                    continue
                answer = link.codec.decode(
                    peer_id, self.node_id, answer_frame
                )
                # The frame came off a socket: nothing it claims is
                # trusted until validated (R13) — the session driver
                # deep-checks the reply body again, but the source-id
                # match against the dialed peer only this layer knows.
                answer = validate_session_answer(answer, peer_id, self.node)
                outcome = pull.conclude(answer)
                if self.journal is not None and isinstance(
                    answer, PropagationReply
                ):
                    # conclude + record + commit run without an await in
                    # between (R12): the journal can never hold an
                    # adoption a concurrent coroutine hasn't seen yet.
                    # A YouAreCurrent changed nothing, nothing to log.
                    self.journal.record_accept(answer)
                    self.journal.commit(self.node)
                return outcome
            raise NetworkSessionError(
                f"session with peer {peer_id} failed after "
                f"{attempts} attempt(s)"
            )

    async def _ensure_link(self, peer_id: int) -> _PeerLink:
        """The live outbound link to ``peer_id``, dialing if needed."""
        link = self._links.get(peer_id)
        if link is not None:
            return link
        address = self.config.address_of(peer_id)
        try:
            reader, writer = await asyncio.open_connection(
                address.host, address.port
            )
        except OSError as exc:
            raise NetworkSessionError(
                f"cannot reach peer {peer_id} at "
                f"{address.host}:{address.port}: {exc}"
            ) from None
        try:
            await send_preamble(writer, self.node_id)
            served_by = await receive_preamble(reader)
        except (ConnectionClosed, WireFormatError) as exc:
            writer.close()
            raise NetworkSessionError(
                f"handshake with peer {peer_id} failed: {exc}"
            ) from None
        if served_by != peer_id:
            writer.close()
            raise NetworkSessionError(
                f"dialed peer {peer_id} but node {served_by} answered — "
                "the seed list and the deployment disagree"
            )
        link = _PeerLink(
            reader, writer, WireCodec(delta_vv=self.config.delta_vv)
        )
        self._links[peer_id] = link
        return link

    def _drop_link(self, peer_id: int) -> None:
        """Close the outbound link; its codec (and caches) die with it."""
        link = self._links.pop(peer_id, None)
        if link is not None:
            link.writer.close()

    # -- accounting -----------------------------------------------------------

    def _count_frame(self, message: object, frame: bytes) -> None:
        self._count_frame_raw(type(message).__name__, frame)

    def _count_frame_raw(self, kind: str, frame: bytes) -> None:
        self.census[kind] = self.census.get(kind, 0) + 1
        self.frames_sent += 1
        self.bytes_sent += len(frame)

    # -- anti-entropy scheduler -----------------------------------------------

    async def _anti_entropy_loop(self) -> None:
        """Pull from a selector-chosen peer every period; best-effort
        (an unreachable peer is this round's dead dial-up number)."""
        period = self.config.anti_entropy_period
        while True:
            await asyncio.sleep(period)
            self.round_no += 1
            peer = self.selector.peer_for(
                self.node_id, self.n_nodes, self.round_no, self.rng
            )
            try:
                outcome = await self.sync_with(peer)
            except (NetworkSessionError, ReplicationError) as exc:
                logger.warning(
                    "scheduled session with peer %d failed: %s", peer, exc
                )
                continue
            logger.info(
                "round %d: pulled from %d (%s)",
                self.round_no,
                peer,
                "identical"
                if outcome.identical
                else f"{len(outcome.adopted)} item(s)",
            )

    # -- client API -----------------------------------------------------------

    def _accept_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Listener callback: a tracked task, as in :meth:`_accept_peer`."""
        self._tasks.spawn(
            self._serve_client(reader, writer), name="serve-client"
        )

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection: length-prefixed JSON requests."""
        try:
            while True:
                blob = await read_blob(reader)
                try:
                    request = json.loads(blob)
                    response = await self._handle_client_op(request)
                except ReplicationError as exc:
                    response = {"ok": False, "error": str(exc)}
                except (ValueError, KeyError, TypeError) as exc:
                    response = {"ok": False, "error": f"bad request: {exc}"}
                await write_blob(
                    writer, json.dumps(response).encode("utf-8")
                )
                if response.get("bye"):
                    break
        except (ConnectionClosed, WireFormatError) as exc:
            # Clients may hang up whenever they like, but a malformed
            # blob is still worth a trace (R15): a probing client must
            # be visible in the logs, not indistinguishable from silence.
            logger.debug("client connection ended: %s", exc)
        finally:
            writer.close()

    async def _handle_client_op(
        self, request: dict[str, Any]
    ) -> dict[str, Any]:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "node": self.node_id}
        if op == "put":
            # Client JSON is as untrusted as a wire frame (R13): the
            # item name and value pass validators before the state
            # machine or the journal sees them.
            item = validate_item_name(request["item"])
            value = validate_value(bytes.fromhex(request["value"]))
            self.node.update(item, Put(value))
            if self.journal is not None:
                # Journaled after the node accepted it; the "ok" reply
                # is written only after the group commit returns, so an
                # acknowledged put survives a kill -9.
                self.journal.record_update(item, Put(value))
                self.journal.commit(self.node)
            return {"ok": True}
        if op == "get":
            return {"ok": True, "value": self.node.read(request["item"]).hex()}
        if op == "sync":
            peer = validate_node_id(int(request["peer"]), self.n_nodes)
            outcome = await self.sync_with(peer)
            return {
                "ok": True,
                "identical": outcome.identical,
                "adopted": list(outcome.adopted),
                "conflicts": outcome.conflicts,
            }
        if op == "status":
            return self._status()
        if op == "shutdown":
            # Reply first, then unwind: the caller's socket sees the
            # acknowledgement before the listener goes away.  The stop
            # task is tracked (R11) so a failing teardown is logged
            # instead of vanishing with the weakly-referenced task.
            asyncio.get_running_loop().call_soon(
                lambda: self._tasks.spawn(self.stop(), name="stop")
            )
            return {"ok": True, "bye": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _status(self) -> dict[str, Any]:
        """Converged-state snapshot for the parity harness: regular
        store contents, per-item IVVs, the DBVV, and traffic totals."""
        store: dict[str, str] = {}
        ivvs: dict[str, list[int]] = {}
        for entry in self.node.store:
            store[entry.name] = entry.value.hex()
            ivvs[entry.name] = list(entry.ivv.as_tuple())
        status: dict[str, Any] = {
            "ok": True,
            "node": self.node_id,
            "store": store,
            "ivvs": ivvs,
            "dbvv": list(self.node.dbvv.as_tuple()),
            "census": dict(self.census),
            "frames_sent": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "reconnects": self.reconnects,
            "sync_retries": self.sync_retries,
            "sessions_served": self.sessions_served,
            "conflicts": self.node.conflicts.count,
        }
        if self.journal is not None:
            status["durable"] = {
                "checkpoints": self.journal.checkpoints,
                "records_replayed": self.journal.records_replayed,
                "records_skipped": self.journal.records_skipped,
                "wal_records": self.journal.wal.records_appended,
                "wal_bytes": self.journal.wal.bytes_appended,
                "fsyncs": self.journal.wal.fsyncs,
            }
        return status
