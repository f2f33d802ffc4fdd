"""The cluster simulation: protocols under identical conditions.

:class:`ClusterSimulation` wires together ``n`` protocol nodes (any
:class:`~repro.interfaces.ProtocolNode` implementation), a
:class:`~repro.cluster.network.SimulatedNetwork`, a peer-selection
policy, an optional failure plan, a retry policy, and ground-truth
staleness tracking.  Time advances in *rounds*: at the start of each
round the failure plan fires and due retries of previously aborted
sessions run, then every live node performs one synchronization with
the peer its selector chose (crashed peers make the session fail, like
a dead dial-up number).  User updates are applied between rounds by the
caller or a workload driver.

Sessions are *not* atomic: a fault can interrupt one between messages
(see :class:`~repro.interfaces.SessionPhase`), and the simulation
accounts for how far each aborted session got and how many bytes it
wasted.  The :class:`RetryPolicy` layer re-attempts aborted sessions in
later rounds with capped exponential backoff, optionally falling back
to an alternate peer when the original one is unreachable.

Everything is driven by one seeded :class:`random.Random`, so a
simulation is a pure function of (factory, selector, plan, policy,
workload, seed) — the experiments rely on that to be re-runnable.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

if TYPE_CHECKING:
    from repro.durable import NodeJournal
    from repro.metrics.reporting import Table

from repro.cluster.convergence import GroundTruth, fingerprints_equal
from repro.cluster.coverage import SessionRecord, TransitiveCoverageTracker
from repro.cluster.failures import FailurePlan, Recover
from repro.cluster.network import LinkStats, SimulatedNetwork
from repro.cluster.sanitizer import sanitize_enabled, sanitize_endpoints
from repro.cluster.scheduler import PeerSelector, RandomSelector
from repro.errors import (
    ConvergenceError,
    InvariantViolation,
    MessageLostError,
    NodeDownError,
)
from repro.interfaces import ProtocolNode, SyncStats
from repro.metrics.counters import OverheadCounters
from repro.substrate.operations import UpdateOperation

__all__ = ["RetryPolicy", "RoundStats", "ClusterSimulation"]


@dataclass(frozen=True)
class RetryPolicy:
    """How aborted synchronization sessions are re-attempted.

    ``max_attempts``
        Total attempts per scheduled session, first try included — the
        default of 1 disables retries (the pre-retry behavior).
    ``backoff_rounds`` / ``max_backoff_rounds``
        A failed attempt ``a`` (1-based) schedules the next one
        ``min(backoff_rounds * 2**(a-1), max_backoff_rounds)`` rounds
        later — bounded exponential backoff at round granularity.
    ``alternate_peer``
        When the original peer is unreachable at retry time, fall back
        to a uniformly chosen reachable peer instead of burning the
        attempt on a dead dial-up number.  (A reachable original peer is
        always retried directly — it may simply have suffered a lost
        message.)
    """

    max_attempts: int = 1
    backoff_rounds: int = 1
    max_backoff_rounds: int = 4
    alternate_peer: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_rounds < 1:
            raise ValueError(
                f"backoff_rounds must be >= 1, got {self.backoff_rounds}"
            )
        if self.max_backoff_rounds < self.backoff_rounds:
            raise ValueError(
                "max_backoff_rounds must be >= backoff_rounds "
                f"({self.max_backoff_rounds} < {self.backoff_rounds})"
            )

    def backoff_for(self, attempt: int) -> int:
        """Rounds to wait after failed attempt number ``attempt``."""
        return min(self.backoff_rounds * 2 ** (attempt - 1), self.max_backoff_rounds)

    def retries_enabled(self) -> bool:
        return self.max_attempts > 1


@dataclass(frozen=True)
class _PendingRetry:
    """One aborted session waiting for its backoff to elapse."""

    node_id: int
    peer: int
    attempt: int        # the attempt number this retry will be
    due_round: int


class _IdenticalExchange(NamedTuple):
    """One ordered pair's identical exchange, sized once and replayed
    by every skipped session of the pair.

    Sizes depend only on the two node ids and the replica-set width
    (the encoded request is the two-byte unchanged delta whatever the
    DBVV holds), so the entry lives until the replica set grows.  The
    accounting targets are resolved here, so a replay is pure attribute
    arithmetic: the two directed :class:`LinkStats`, the responder's
    counter bundle and width (what its one DBVV comparison charges),
    and one :class:`SyncStats` shared by the pair's replays.
    """

    request_bytes: int
    reply_bytes: int
    #: ``wire_size()`` of both messages in encoded mode, else 0 (only
    #: the codec path accumulates ``modelled_bytes_sent``).
    modelled_bytes: int
    request_kind: str
    reply_kind: str
    forward_link: LinkStats
    backward_link: LinkStats
    responder_counters: OverheadCounters
    width: int
    session: SyncStats


@dataclass
class RoundStats:
    """What happened during one simulation round."""

    round_no: int
    sessions: int = 0
    identical_sessions: int = 0
    failed_sessions: int = 0
    retried_sessions: int = 0
    items_transferred: int = 0
    conflicts: int = 0
    messages: int = 0
    bytes_sent: int = 0
    bytes_wasted: int = 0
    aborted_by_phase: dict[str, int] = field(default_factory=dict)
    stale_pairs: int | None = None


@dataclass
class ClusterSimulation:
    """``n`` replicas of one database under one protocol.

    Parameters
    ----------
    factory:
        ``factory(node_id, counters) -> ProtocolNode``; called once per
        node.  Each node gets its own counters object so per-node work
        is attributable; :attr:`total_counters` merges them on demand.
    n_nodes:
        Replica set size.
    items:
        The database schema (shared by the ground-truth tracker).
    selector:
        Peer-selection policy (default: uniform random pull).
    failure_plan:
        Declarative crash/recover/partition script (default: none).
    retry_policy:
        How aborted sessions are re-attempted (default: no retries).
    check_invariants_on_fault:
        After every faulted session, run ``check_invariants()`` on both
        endpoints that expose it (the DBVV adapters do) — an interrupted
        session must never leave either side in an inconsistent state.
    sanitize:
        The run-time invariant sanitizer: run the full invariant suite
        on both endpoints after *every* session, not just faulted ones
        (see :mod:`repro.cluster.sanitizer`), and cross-check every
        incremental convergence/staleness answer against the
        from-scratch recomputation.  ``None`` (the default) defers to
        the ``REPRO_SANITIZE`` environment variable.
    wire:
        Run the network in encoded mode: every delivery round-trips
        through the binary codec in :mod:`repro.wire` and byte counters
        become byte-exact frame lengths (with the sanitizer on, each
        delivery also verifies ``decode(encode(m)) == m``).  ``None``
        defers to the ``REPRO_WIRE`` environment variable.
    durable:
        Run the cluster on the durable substrate (:mod:`repro.durable`):
        every node exposing ``attach_journal`` (the DBVV protocol
        adapters do; the baselines predate durability and run unchanged)
        journals its state-changing inputs to an on-disk WAL, and every
        :class:`~repro.cluster.failures.Recover` event rebuilds the node
        from checkpoint + WAL instead of trusting the in-memory object —
        the fail-stop repair path done the way a real deployment must.
        ``None`` (the default) defers to the ``REPRO_DURABLE``
        environment variable.  Journals run with ``fsync`` off: a
        simulated crash never drops the page cache, and the fsync-
        boundary semantics are exercised directly by the durable test
        suite's truncation properties.
    data_dir:
        Where durable mode keeps its per-node directories
        (``<data_dir>/node<k>/``).  ``None`` uses a private temporary
        directory that lives as long as the simulation object.
    incremental_tracking:
        Maintain convergence and staleness incrementally (state-version
        comparison + ground-truth dirty frontier) so per-round query
        cost is proportional to what changed, not ``n·N``.  ``False``
        restores the from-scratch recomputation every round — the
        legacy behavior, kept as the scale benchmark's baseline.
    quiescent_fastpath:
        Use the paper's O(1) identical-DBVV detection in the round loop
        itself: a session whose responder would answer
        ``YouAreCurrent`` (``ProtocolNode.answers_current`` — the very
        test ``send_propagation`` opens with, read on the live vectors)
        is not dispatched; its two messages are charged instead.  Only
        while the fabric is transparent (no loss, no armed faults, both
        endpoints up and in one partition group) and, in encoded mode,
        only when the request would be the codec's unchanged-vector
        delta.  Round statistics, counters, link stats, codec caches,
        and node state are identical to the unskipped loop — only
        ``fastpath_skips`` records that the dispatch was elided.  With
        the sanitizer on, every session runs for real and the
        prediction is cross-checked against it instead.  ``False``
        disables both — the equivalence baseline.
    session_observer:
        Optional ``observer(initiator, peer, stats)`` invoked after
        every attempted session (including faulted ones).  The parity
        harness (:mod:`repro.net.harness`) uses it to record the exact
        session schedule a simulation executed, so the same schedule
        can be replayed against a networked cluster.
    seed:
        Seed for the simulation's single RNG.
    """

    factory: Callable[[int, OverheadCounters], ProtocolNode]
    n_nodes: int
    items: Sequence[str]
    selector: PeerSelector = field(default_factory=RandomSelector)
    failure_plan: FailurePlan = field(default_factory=FailurePlan)
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    check_invariants_on_fault: bool = True
    sanitize: bool | None = None
    wire: bool | None = None
    durable: bool | None = None
    data_dir: str | None = None
    incremental_tracking: bool = True
    quiescent_fastpath: bool = True
    session_observer: Callable[[int, int, SyncStats], None] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        # Imported here, not at module level: repro.durable sits on top
        # of repro.core, and this module loads while repro.core is still
        # initializing (via the repro.metrics <-> repro.cluster seam).
        from repro.durable import durable_enabled

        self.sanitize = sanitize_enabled(self.sanitize)
        self.durable = durable_enabled(self.durable)
        self.rng = random.Random(self.seed)
        self.network_counters = OverheadCounters()
        self.network = SimulatedNetwork(
            self.n_nodes,
            counters=self.network_counters,
            wire=self.wire,
            sanitize=self.sanitize,
        )
        self.wire = self.network.wire
        self.node_counters = [OverheadCounters() for _ in range(self.n_nodes)]
        self.nodes: list[ProtocolNode] = [
            self.factory(node_id, self.node_counters[node_id])
            for node_id in range(self.n_nodes)
        ]
        self.ground_truth = GroundTruth(tuple(self.items))
        if self.incremental_tracking:
            self.ground_truth.track(self.nodes, self.network_counters)
        self.coverage = TransitiveCoverageTracker(self.n_nodes)
        self.round_no = 0
        self.history: list[RoundStats] = []
        self._pending_retries: list[_PendingRetry] = []
        # Identical exchanges sized so far, keyed by ordered
        # (initiator, peer); see ``_size_exchange``.
        self._exchanges: dict[tuple[int, int], _IdenticalExchange] = {}
        self._durable_tmp: tempfile.TemporaryDirectory | None = None
        self.journals: dict[int, NodeJournal] = {}
        if self.durable:
            for node in self.nodes:
                self._attach_journal(node)

    # -- durable substrate -------------------------------------------------------

    def _durable_root(self) -> Path:
        if self.data_dir is not None:
            return Path(self.data_dir)
        if self._durable_tmp is None:
            self._durable_tmp = tempfile.TemporaryDirectory(
                prefix="repro-durable-"
            )
        return Path(self._durable_tmp.name)

    def _attach_journal(self, node: ProtocolNode) -> None:
        """Give ``node`` an on-disk journal, if it supports one.

        Nodes without ``attach_journal`` (the baselines) run unchanged —
        durable mode is a per-protocol capability, not a cluster-wide
        requirement, so env-driven durable CI sweeps the whole suite.
        """
        from repro.durable import NodeJournal

        attach = getattr(node, "attach_journal", None)
        if attach is None:
            return
        journal = NodeJournal(
            self._durable_root() / f"node{node.node_id}",
            # A simulated crash never drops the OS page cache, so sim
            # journals skip the fsync cost; the durable suite's
            # truncation properties cover fsync-boundary semantics.
            fsync=False,
        )
        attach(journal)
        self.journals[node.node_id] = journal

    def _recover_durable_nodes(self, fired: list[object]) -> None:
        """Rebuild every node a :class:`Recover` event just repaired
        from its on-disk state — never from the in-memory object."""
        for event in fired:
            if not isinstance(event, Recover):
                continue
            node = self.nodes[event.node]
            recover = getattr(node, "recover_from_journal", None)
            if recover is None or event.node not in self.journals:
                continue
            recover()
            # The rebuilt replica must be re-examined wholesale by the
            # incremental staleness tracker (object identity changed).
            self.ground_truth.note_node_refresh(event.node)

    # -- workload entry points ---------------------------------------------------

    def apply_update(self, node_id: int, item: str, op: UpdateOperation) -> None:
        """Apply one user update at ``node_id`` and record it in the
        ground truth.  Updating a crashed node raises — users of a down
        server get an error, they don't silently update elsewhere.
        """
        if not self.network.is_up(node_id):
            raise NodeDownError(node_id)
        self.nodes[node_id].user_update(item, op)
        self.ground_truth.apply(item, op)

    def up_nodes(self) -> list[int]:
        """Ids of currently live nodes."""
        return [k for k in range(self.n_nodes) if self.network.is_up(k)]

    def add_node(
        self,
        build: Callable[[int, OverheadCounters, int], ProtocolNode],
    ) -> int:
        """Grow the cluster by one replica (dynamic-membership extension).

        ``build(node_id, counters, n_nodes)`` constructs the newcomer
        for the *new* replica-set size.  Every existing node's view is
        expanded first (nodes must expose ``expand_replica_set`` — the
        DBVV protocol adapters do; the baselines predate the extension),
        then the fresh all-zero replica joins and catches up through
        ordinary propagation.  Returns the new node's id.
        """
        new_n = self.n_nodes + 1
        for node in self.nodes:
            expand = getattr(node, "expand_replica_set", None)
            if expand is None:
                raise TypeError(
                    f"{type(node).__name__} does not support dynamic "
                    "membership"
                )
            expand(new_n)
        new_id = self.network.add_node()
        counters = OverheadCounters()
        self.node_counters.append(counters)
        newcomer = build(new_id, counters, new_n)
        if newcomer.node_id != new_id or newcomer.n_nodes != new_n:
            raise ValueError(
                f"build() returned a node for id {newcomer.node_id}/"
                f"{newcomer.n_nodes}, expected {new_id}/{new_n}"
            )
        self.nodes.append(newcomer)
        self.n_nodes = new_n
        # Every vector just grew, and with it every modelled request
        # size and every DBVV comparison's width.
        self._exchanges.clear()
        if self.durable:
            self._attach_journal(newcomer)
        # The tracked list object just grew in place; the newcomer's
        # whole schema starts dirty (an all-zero replica lags every
        # non-empty truth value).
        self.ground_truth.note_node_added()
        # Theorem 5 coverage restarts: the premise must be re-satisfied
        # over the enlarged replica set.
        self.coverage = TransitiveCoverageTracker(new_n)
        return new_id

    # -- round execution ---------------------------------------------------------

    def run_round(self) -> RoundStats:
        """One round: failure events, due retries, then one session per
        live node.

        Sessions run in a random order each round (not ascending node
        id): real anti-entropy sessions are concurrent, and a fixed
        order would let one round cascade an update across the whole
        cluster, flattering every schedule's convergence numbers.
        """
        self.round_no += 1
        fired = self.failure_plan.apply_round(self.round_no, self.network)
        if self.durable:
            self._recover_durable_nodes(fired)
        stats = RoundStats(self.round_no)
        msgs_before = self.network_counters.messages_sent
        bytes_before = self.network_counters.bytes_sent
        self._run_due_retries(stats)
        order = list(range(self.n_nodes))
        self.rng.shuffle(order)
        for node_id in order:
            if not self.network.is_up(node_id):
                continue
            peer = self.selector.peer_for(node_id, self.n_nodes, self.round_no, self.rng)
            self._run_session(node_id, peer, stats)
        stats.messages = self.network_counters.messages_sent - msgs_before
        stats.bytes_sent = self.network_counters.bytes_sent - bytes_before
        stats.stale_pairs = self._sample_stale_pairs()
        self.history.append(stats)
        return stats

    def _sample_stale_pairs(self) -> int:
        """End-of-round staleness, cross-checked in sanitizer mode: the
        incremental dirty-frontier count must equal the from-scratch
        recomputation pair for pair."""
        fast = self.ground_truth.stale_pairs(self.nodes)
        if self.sanitize and self.ground_truth.tracking(self.nodes):
            self.network_counters.tracking_crosschecks += 1
            full = self.ground_truth.recompute_stale_pairs(self.nodes)
            if fast != full:
                raise InvariantViolation(
                    "incremental staleness tracking diverged from the "
                    f"from-scratch recomputation at round {self.round_no}: "
                    f"incremental={fast}, recomputed={full}"
                )
        return fast

    def _run_due_retries(self, stats: RoundStats) -> None:
        """Re-attempt aborted sessions whose backoff has elapsed."""
        due = [r for r in self._pending_retries if r.due_round <= self.round_no]
        if not due:
            return
        self._pending_retries = [
            r for r in self._pending_retries if r.due_round > self.round_no
        ]
        for retry in due:
            if not self.network.is_up(retry.node_id):
                # The retrying node itself crashed while backing off;
                # its catch-up is the recovery path's job, not ours.
                continue
            peer = retry.peer
            if (
                self.retry_policy.alternate_peer
                and not self.network.can_reach(retry.node_id, peer)
            ):
                peer = self._alternate_peer_for(retry.node_id, peer)
            stats.retried_sessions += 1
            self.network_counters.sessions_retried += 1
            self._run_session(retry.node_id, peer, stats, attempt=retry.attempt)

    def _alternate_peer_for(self, node_id: int, failed_peer: int) -> int:
        """A uniformly chosen reachable peer other than the failed one;
        the failed peer when nobody else is reachable."""
        candidates = [
            k
            for k in range(self.n_nodes)
            if k not in (node_id, failed_peer) and self.network.can_reach(node_id, k)
        ]
        if not candidates:
            return failed_peer
        return self.rng.choice(candidates)

    def run_full_mesh_round(self) -> RoundStats:
        """One round where every ordered pair synchronizes once.

        Used by experiments that must guarantee transitive coverage in a
        single round (e.g. measuring per-session costs without peer-
        selection noise).
        """
        self.round_no += 1
        fired = self.failure_plan.apply_round(self.round_no, self.network)
        if self.durable:
            self._recover_durable_nodes(fired)
        stats = RoundStats(self.round_no)
        msgs_before = self.network_counters.messages_sent
        bytes_before = self.network_counters.bytes_sent
        # Full-mesh rounds owe aborted sessions the same backoff-and-
        # retry service as random rounds; skipping it would leak every
        # pending retry scheduled from a faulted full-mesh session.
        self._run_due_retries(stats)
        for node_id in range(self.n_nodes):
            if not self.network.is_up(node_id):
                continue
            for peer in range(self.n_nodes):
                if peer == node_id:
                    continue
                self._run_session(node_id, peer, stats)
        stats.messages = self.network_counters.messages_sent - msgs_before
        stats.bytes_sent = self.network_counters.bytes_sent - bytes_before
        stats.stale_pairs = self._sample_stale_pairs()
        self.history.append(stats)
        return stats

    def _run_session(
        self, node_id: int, peer: int, stats: RoundStats, attempt: int = 1
    ) -> SyncStats:
        stats.sessions += 1
        network = self.network
        # The fast path's fabric guard: no loss that would draw from the
        # RNG or drop a frame, no armed scripted fault, and both
        # endpoints up and in one partition group (``armed_fault_count``
        # and ``can_reach`` without the calls: this runs per session).
        transparent = (
            self.quiescent_fastpath
            and network.loss_rate == 0.0
            and not network._armed_crashes
            and not network._armed_drops
            and network._up[node_id]
            and network._up[peer]
            and network._group_of[node_id] == network._group_of[peer]
        )
        # Sanitizer mode runs every session for real; it records what
        # the skip would have claimed for ``_crosscheck_prediction``.
        # Protocols that keep the default hook predict nothing.
        predicted: bool | None = None
        exchange: _IdenticalExchange | None = None
        traffic_before = (0, 0, 0)
        if transparent:
            initiator = self.nodes[node_id]
            responder = self.nodes[peer]
            if (
                self.sanitize
                and type(responder).answers_current
                is not ProtocolNode.answers_current
            ):
                predicted = responder.answers_current(initiator)
            if predicted is not False and responder.answers_current(
                initiator, network._codec
            ):
                exchange = self._exchanges.get(
                    (node_id, peer)
                ) or self._size_exchange(node_id, peer)
                if not self.sanitize:
                    return self._skip_identical(node_id, peer, exchange, stats)
                traffic_before = (
                    exchange.forward_link.bytes,
                    exchange.backward_link.bytes,
                    self.network_counters.modelled_bytes_sent,
                )
        if not network.can_reach(node_id, peer):
            stats.failed_sessions += 1
            self._schedule_retry(node_id, peer, attempt)
            session = SyncStats(failed=True)
            if self.session_observer is not None:
                self.session_observer(node_id, peer, session)
            return session
        try:
            session = self.nodes[node_id].sync_with(self.nodes[peer], network)
        except (NodeDownError, MessageLostError):
            # Protocols report faults through SyncStats; this safety net
            # covers ad-hoc ProtocolNode implementations that let the
            # transport's exceptions escape (phase unknown).
            session = SyncStats(failed=True)
        if predicted is not None:
            self._crosscheck_prediction(
                node_id, peer, predicted, exchange, traffic_before, session
            )
        if self.sanitize:
            sanitize_endpoints(
                self.nodes, (node_id, peer), self.network_counters
            )
        if self.session_observer is not None:
            self.session_observer(node_id, peer, session)
        if session.failed:
            stats.failed_sessions += 1
            self._note_abort(node_id, peer, session, stats)
            self._schedule_retry(node_id, peer, attempt)
            return session
        # Successful sessions (including you-are-current answers) build
        # Theorem 5's transitive coverage: data and knowledge flowed.
        self.coverage.record_session(node_id, peer, time=float(self.round_no))
        if session.identical:
            stats.identical_sessions += 1
        stats.items_transferred += session.items_transferred
        stats.conflicts += session.conflicts
        if session.adopted_items:
            self.ground_truth.note_adoptions(session.adopted_items)
        elif session.items_transferred > 0:
            # An ad-hoc protocol moved data without naming the items:
            # conservatively re-examine both endpoints wholesale.
            self.ground_truth.note_node_refresh(node_id)
            self.ground_truth.note_node_refresh(peer)
        return session

    # -- quiescent fast path -------------------------------------------------------

    def _skip_identical(
        self,
        node_id: int,
        peer: int,
        exchange: _IdenticalExchange,
        stats: RoundStats,
    ) -> SyncStats:
        """Charge one identical session without dispatching it: exactly
        the effects the two deliveries, the responder's DBVV comparison
        and a successful identical session have in ``_run_session``."""
        (
            request_bytes,
            reply_bytes,
            modelled_bytes,
            request_kind,
            reply_kind,
            forward_link,
            backward_link,
            responder,
            width,
            session,
        ) = exchange
        network = self.network
        counters = self.network_counters
        counters.messages_sent += 2
        counters.bytes_sent += request_bytes + reply_bytes
        counters.modelled_bytes_sent += modelled_bytes
        counters.fastpath_skips += 1
        census = network.frame_census
        census[request_kind] = census.get(request_kind, 0) + 1
        census[reply_kind] = census.get(reply_kind, 0) + 1
        forward_link.messages += 1
        forward_link.bytes += request_bytes
        backward_link.messages += 1
        backward_link.bytes += reply_bytes
        # Two separate additions, as two deliveries make them.
        latency = network.link_latency
        network.latency_total = network.latency_total + latency + latency
        responder.vv_comparisons += 1
        responder.vv_components_touched += width
        if self.session_observer is not None:
            self.session_observer(node_id, peer, session)
        # coverage.record_session, without the call or the id
        # re-validation (both ids are simulator-owned and initiator !=
        # peer by the selector contract); must mirror that method.
        coverage = self.coverage
        when = float(self.round_no)
        coverage.history.append(SessionRecord(when, node_id, peer))
        knows = coverage._knows[node_id]
        if len(knows) < coverage.n_nodes:
            knows |= coverage._knows[peer]
            knows.add(peer)
            if coverage._covered_at is None and coverage.is_fully_covered():
                coverage._covered_at = when
        stats.identical_sessions += 1
        return session

    def _size_exchange(self, node_id: int, peer: int) -> _IdenticalExchange:
        """Size the ordered pair's identical exchange from the protocol's
        own messages: ``wire_size()`` in modelled mode, the codec's
        steady-state frame lengths in encoded mode."""
        network = self.network
        responder = self.nodes[peer]
        request, reply = responder.identical_exchange(self.nodes[node_id])
        codec = network._codec
        if codec is None:
            request_bytes = request.wire_size()
            reply_bytes = reply.wire_size()
            modelled_bytes = 0
        else:
            request_bytes = codec.steady_frame_length(node_id, peer, request)
            reply_bytes = codec.steady_frame_length(peer, node_id, reply)
            modelled_bytes = request.wire_size() + reply.wire_size()
        links = network._links
        exchange = _IdenticalExchange(
            request_bytes=request_bytes,
            reply_bytes=reply_bytes,
            modelled_bytes=modelled_bytes,
            request_kind=type(request).__name__,
            reply_kind=type(reply).__name__,
            # The order deliver() would create them in.
            forward_link=links.setdefault((node_id, peer), LinkStats()),
            backward_link=links.setdefault((peer, node_id), LinkStats()),
            responder_counters=responder.counters,
            width=responder.n_nodes,
            session=SyncStats(
                identical=True,
                messages=2,
                bytes_sent=request_bytes + reply_bytes,
            ),
        )
        self._exchanges[(node_id, peer)] = exchange
        return exchange

    def _crosscheck_prediction(
        self,
        node_id: int,
        peer: int,
        predicted: bool,
        exchange: _IdenticalExchange | None,
        traffic_before: tuple[int, int, int],
        session: SyncStats,
    ) -> None:
        """Sanitizer mode: a session on a transparent fabric just ran for
        real.  It must be identical exactly when ``answers_current``
        predicted so, and where the skip would have fired (``exchange``)
        each direction must have moved exactly the charged bytes."""
        self.network_counters.fastpath_crosschecks += 1
        observed = session.identical and not session.failed
        problem = None
        if observed != predicted:
            problem = (
                f"predicted identical={predicted}, observed "
                f"identical={session.identical} failed={session.failed}"
            )
        elif exchange is not None:
            moved = (
                session.messages,
                exchange.forward_link.bytes - traffic_before[0],
                exchange.backward_link.bytes - traffic_before[1],
                self.network_counters.modelled_bytes_sent - traffic_before[2],
            )
            charged = (
                2,
                exchange.request_bytes,
                exchange.reply_bytes,
                exchange.modelled_bytes,
            )
            if moved != charged:
                problem = (
                    "(messages, request, reply, modelled bytes) charged "
                    f"{charged}, observed {moved}"
                )
        if problem is not None:
            raise InvariantViolation(
                f"quiescent fast path mispredicted session {node_id}->{peer} "
                f"at round {self.round_no}: {problem}"
            )

    def _schedule_retry(self, node_id: int, peer: int, attempt: int) -> None:
        if attempt >= self.retry_policy.max_attempts:
            return
        self._pending_retries.append(
            _PendingRetry(
                node_id,
                peer,
                attempt + 1,
                self.round_no + self.retry_policy.backoff_for(attempt),
            )
        )

    def _note_abort(
        self, node_id: int, peer: int, session: SyncStats, stats: RoundStats
    ) -> None:
        """Account an aborted session and verify neither endpoint was
        left inconsistent by the interruption."""
        phase = session.aborted_phase
        if phase is not None and session.messages > 0:
            # The session moved at least one message before dying —
            # that traffic bought no state change.  (A dead peer caught
            # at connect time is a failed session, not an aborted one:
            # no message left, nothing was wasted.)
            self.network_counters.sessions_aborted += 1
            self.network_counters.bytes_wasted_in_aborted_sessions += (
                session.bytes_sent
            )
            stats.bytes_wasted += session.bytes_sent
            key = phase.counter_name()
            self.network_counters.bump(key)
            stats.aborted_by_phase[phase.value] = (
                stats.aborted_by_phase.get(phase.value, 0) + 1
            )
        # The sanitizer (when on) already swept both endpoints right
        # after the session; don't run the fault-path sweep twice.
        if self.check_invariants_on_fault and not self.sanitize:
            for endpoint in (node_id, peer):
                check = getattr(self.nodes[endpoint], "check_invariants", None)
                if check is not None:
                    check()

    # -- convergence ---------------------------------------------------------------

    def converged(self) -> bool:
        """True when all live replicas hold identical durable state.

        Crashed nodes are excluded — they will catch up after recovery
        (criterion C3 speaks of eventual catch-up).
        """
        live = [self.nodes[k] for k in self.up_nodes()]
        return fingerprints_equal(
            live,
            use_versions=self.incremental_tracking,
            crosscheck=bool(self.sanitize),
            counters=self.network_counters,
        )

    def _plan_pending(self) -> bool:
        """True while the failure plan still has unfired events — a
        scheduled recovery can reintroduce divergence, so convergence
        must not be declared before the plan has fully played out."""
        return self.failure_plan.pending_after(self.round_no)

    def run_until_converged(self, max_rounds: int = 1000, quiesce: bool = True) -> int:
        """Run rounds until live replicas converge; returns the count.

        ``quiesce`` asserts the workload has stopped (criterion C3 is
        about convergence after update activity stops); a non-converged
        state after ``max_rounds`` raises, because silent non-convergence
        is exactly the failure mode the experiments must catch.
        """
        for _ in range(max_rounds):
            if not self._plan_pending() and self.converged():
                return self.round_no
            self.run_round()
        if self.converged():
            return self.round_no
        raise ConvergenceError(
            f"replicas failed to converge within {max_rounds} rounds "
            f"(protocol={self.nodes[0].protocol_name}, "
            f"selector={self.selector.describe()})"
        )

    # -- accounting ------------------------------------------------------------------

    def history_table(self, title: str = "Simulation rounds") -> Table:
        """The per-round stats as a printable/CSV-able report table."""
        from repro.metrics.reporting import Table

        table = Table(
            title,
            ["round", "sessions", "identical", "failed", "retried",
             "items moved", "conflicts", "msgs", "bytes", "wasted bytes",
             "stale pairs"],
        )
        for stats in self.history:
            table.add_row([
                stats.round_no,
                stats.sessions,
                stats.identical_sessions,
                stats.failed_sessions,
                stats.retried_sessions,
                stats.items_transferred,
                stats.conflicts,
                stats.messages,
                stats.bytes_sent,
                stats.bytes_wasted,
                stats.stale_pairs if stats.stale_pairs is not None else "-",
            ])
        return table

    @property
    def total_counters(self) -> OverheadCounters:
        """All per-node counters plus the network's, merged in full.

        The network's counters carry more than traffic volume —
        aborted-session accounting, retry counts, sanitizer sweeps,
        staleness re-examinations — so they merge field-for-field like
        every per-node object rather than being hand-copied."""
        merged = OverheadCounters()
        for counters in self.node_counters:
            merged = merged.merged_with(counters)
        return merged.merged_with(self.network_counters)

    def total_conflicts(self) -> int:
        return sum(node.conflict_count() for node in self.nodes)
