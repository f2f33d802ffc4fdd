"""The quiescent fast path is observationally invisible.

``quiescent_fastpath=True`` skips every session whose responder would
answer ``YouAreCurrent`` — the protocol's own O(1) DBVV check, read on
the live vectors before dispatch — and charges the exchange instead of
running it.  Every observable the simulation exposes must come out
exactly as if each session had run: round history, per-node stores and
vectors, counters, per-link stats, latency, frame census and, in
encoded mode, both sides of the codec's delta-VV caches.  These tests
drive the same seeded workloads through both arms and require
bit-for-bit agreement on everything except the fast path's own skip
counters.  The workloads cover crashes, partitions, a lossy window and
a mid-session crash (all of which must suppress the skip while they
are in force), replicas frozen by conflicts, cluster growth in the
middle of a run, the operation-shipping variant, and durable mode.

The sanitizer is pinned off: with it on, every session runs for real
and the prediction is cross-checked instead (see ``TestSanitizerTwin``).
"""

from dataclasses import asdict

import pytest

from repro.cluster.failures import (
    Crash,
    CrashMidSession,
    FailurePlan,
    HealEvent,
    LossyWindow,
    PartitionEvent,
    Recover,
)
from repro.cluster.simulation import ClusterSimulation
from repro.core.protocol import DBVVProtocolNode
from repro.errors import InvariantViolation
from repro.experiments.common import make_factory, make_items, protocol_class
from repro.substrate.operations import Put

N_NODES = 12
ITEMS = make_items(30)

#: Every fabric condition the skip must respect: node churn, a
#: partition and its heal, a lossy window and an armed mid-session
#: crash (both must suppress the skip while in force), and recoveries
#: that wipe the crashed node's codec caches.  ``_drive(drop=True)``
#: adds an armed in-flight drop.
FAULT_PLAN = [
    Crash(node=1, at_round=6),
    Recover(node=1, at_round=10),
    PartitionEvent(groups=(tuple(range(6)), tuple(range(6, N_NODES))), at_round=14),
    HealEvent(at_round=18),
    LossyWindow(rate=0.3, at_round=22, until_round=26, seed=99),
    CrashMidSession(node=2, at_round=28, after_messages=1),
    Recover(node=2, at_round=31),
]


def _build(
    *,
    fastpath: bool,
    wire: bool,
    seed: int,
    faults: bool = False,
    protocol: str = "dbvv",
    durable: bool = False,
    sanitize: bool = False,
) -> ClusterSimulation:
    return ClusterSimulation(
        make_factory(protocol, N_NODES, ITEMS),
        N_NODES,
        ITEMS,
        failure_plan=FailurePlan(list(FAULT_PLAN)) if faults else FailurePlan(),
        seed=seed,
        wire=wire,
        sanitize=sanitize,
        durable=durable,
        quiescent_fastpath=fastpath,
    )


def _grow(sim: ClusterSimulation) -> None:
    cls = protocol_class(sim.nodes[0].protocol_name)
    sim.add_node(lambda node_id, counters, n: cls(node_id, n, ITEMS, counters=counters))


def _drive(
    sim: ClusterSimulation,
    *,
    second_writer: bool = False,
    grow: bool = False,
    drop: bool = False,
) -> ClusterSimulation:
    for k in range(16):
        item = ITEMS[k % len(ITEMS)]
        sim.apply_update(k % sim.n_nodes, item, Put(b"v%d" % k))
        if second_writer and k % 8 == 0:
            # A concurrent write elsewhere: the item conflicts and every
            # replica that sees both lineages freezes its accounting.
            sim.apply_update((k + 5) % sim.n_nodes, item, Put(b"x%d" % k))
    for _ in range(20):
        sim.run_round()
    if grow:
        _grow(sim)
    # Second burst mid-run: replicas that were current are not any more.
    for k in range(8):
        sim.apply_update(k % sim.n_nodes, ITEMS[(k * 3) % len(ITEMS)], Put(b"w%d" % k))
    for _ in range(20):
        sim.run_round()
    if drop:
        # A scripted in-flight drop of the next session's reply: the
        # skip must stand down until it has fired.
        sim.network.arm_message_drop(2)
    for _ in range(20):
        sim.run_round()
    return sim


def _codec_caches(sim: ClusterSimulation) -> tuple[dict, dict]:
    codec = sim.network._codec
    # An empty per-link map is the same cache as a missing one: a skip
    # does not lease an encoder, so it never creates one.
    return tuple(
        {link: streams for link, streams in cache.items() if streams}
        for cache in (codec._sent, codec._seen)
    )


def _assert_equivalent(fast: ClusterSimulation, slow: ClusterSimulation) -> None:
    assert [asdict(s) for s in fast.history] == [asdict(s) for s in slow.history]
    for node_fast, node_slow in zip(fast.nodes, slow.nodes, strict=True):
        assert node_fast.state_fingerprint() == node_slow.state_fingerprint()
        # DBVV and every regular IVV, component for component.
        assert node_fast.exploration_vectors() == node_slow.exploration_vectors()
        assert node_fast.conflict_count() == node_slow.conflict_count()
    counters_fast = fast.total_counters.snapshot()
    counters_slow = slow.total_counters.snapshot()
    for own in ("fastpath_skips", "fastpath_crosschecks"):
        counters_fast.pop(own)
        counters_slow.pop(own)
    assert counters_fast == counters_slow
    assert fast.network._links == slow.network._links
    assert fast.network.frame_census == slow.network.frame_census
    assert fast.network.latency_total == slow.network.latency_total
    assert fast.network.messages_dropped == slow.network.messages_dropped
    assert fast.coverage.history == slow.coverage.history
    if fast.wire:
        assert _codec_caches(fast) == _codec_caches(slow)


def _pair(**arm) -> tuple[ClusterSimulation, ClusterSimulation]:
    drive = {k: arm.pop(k) for k in ("second_writer", "grow", "drop") if k in arm}
    fast = _drive(_build(fastpath=True, **arm), **drive)
    slow = _drive(_build(fastpath=False, **arm), **drive)
    _assert_equivalent(fast, slow)
    # The fast path must actually have fired, or the arm pins nothing.
    assert fast.total_counters.fastpath_skips > 0
    assert slow.total_counters.fastpath_skips == 0
    return fast, slow


@pytest.mark.parametrize("wire", [False, True], ids=["modelled", "wire"])
@pytest.mark.parametrize("seed", [7, 11])
class TestFastpathEquivalence:
    def test_quiescent_workload(self, wire, seed):
        _pair(wire=wire, seed=seed)

    def test_fault_workload(self, wire, seed):
        fast, _slow = _pair(wire=wire, seed=seed, faults=True, drop=True)
        assert fast.network.messages_dropped > 0

    def test_conflicted_replicas_skip(self, wire, seed):
        fast, slow = _pair(wire=wire, seed=seed, second_writer=True)
        # Frozen replicas keep running sessions; the identical ones skip.
        skipped = []
        replay = fast._skip_identical

        def record(node_id, peer, exchange, stats):
            skipped.append((node_id, peer))
            return replay(node_id, peer, exchange, stats)

        fast._skip_identical = record
        for sim in (fast, slow):
            for _ in range(10):
                sim.run_round()
        _assert_equivalent(fast, slow)
        assert any(
            fast.nodes[node_id].conflict_count() and fast.nodes[peer].conflict_count()
            for node_id, peer in skipped
        )

    def test_growth_mid_run(self, wire, seed):
        fast, _slow = _pair(wire=wire, seed=seed, grow=True)
        assert fast.n_nodes == N_NODES + 1

    def test_operation_shipping(self, wire, seed):
        _pair(wire=wire, seed=seed, faults=True, protocol="dbvv-delta")

    def test_durable(self, wire, seed):
        _pair(wire=wire, seed=seed, faults=True, durable=True)


class TestSanitizerTwin:
    """With the sanitizer on, every session runs for real and the
    prediction is checked against it."""

    @pytest.mark.parametrize("wire", [False, True], ids=["modelled", "wire"])
    def test_every_transparent_session_is_crosschecked(self, wire):
        sim = _drive(_build(fastpath=True, wire=wire, seed=7, sanitize=True))
        counters = sim.total_counters
        assert counters.fastpath_skips == 0
        # No faults: every session ran on a transparent fabric.
        assert counters.fastpath_crosschecks == sum(s.sessions for s in sim.history)
        slow = _drive(_build(fastpath=False, wire=wire, seed=7, sanitize=True))
        _assert_equivalent(sim, slow)

    def test_wrong_prediction_raises(self, monkeypatch):
        monkeypatch.setattr(
            DBVVProtocolNode, "answers_current", lambda self, initiator, codec=None: True
        )
        sim = _build(fastpath=True, wire=False, seed=7, sanitize=True)
        sim.apply_update(0, ITEMS[0], Put(b"v"))
        with pytest.raises(InvariantViolation, match="mispredicted"):
            for _ in range(10):
                sim.run_round()
