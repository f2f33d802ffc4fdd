"""Which calls the traced run wraps, and the per-layer metrics it reports.

Spans are recorded around the public functions of each layer, from the
benchmark's side of the call (see :mod:`perfbench.spans`).  A function
imported by name into another module (``respond``, the ``validate_*``
functions, ``read_frame``/``write_frame``) is replaced in every
``repro`` module holding it, so no call path escapes its span.

Per-layer time metrics are milliseconds per round (the total time in
that span over the traced rounds, divided by the rounds); ``self_ms``
subtracts the time covered by child spans.  Counts are totals per
episode, which is fixed work, so on the simulator they repeat exactly.
A layer a workload does not use reports 0 (the simulator has no
sockets and no journal; the network workload has no simulator).
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from typing import Any, Iterator

from perfbench.spans import SpanStats, Tracer
from perfbench.stats import percentile

__all__ = ["PER_LAYER", "install", "layer_metrics", "tracing"]

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("wire.encode.ms", "ms"),
    ("wire.decode.ms", "ms"),
    ("wire.frames", "count"),
    ("wire.bytes", "B"),
    ("node.send_propagation.ms", "ms"),
    ("node.accept_propagation.self_ms", "ms"),
    ("node.intra_node_propagation.ms", "ms"),
    ("node.update.ms", "ms"),
    ("node.items_shipped", "count"),
    ("node.items_adopted", "count"),
    ("node.adopt_ratio", "share"),
    ("node.log_records_examined", "count"),
    ("node.vv_comparisons", "count"),
    ("validate.ms", "ms"),
    ("validate.calls", "count"),
    ("validate.calls_per_session", "count"),
    ("session.count", "count"),
    ("session.identical_share", "share"),
    ("session.respond.self_ms", "ms"),
    ("session.conclude.self_ms", "ms"),
    ("simulation.run_round.self_ms", "ms"),
    ("simulation.fastpath_skips", "count"),
    ("network.deliver.self_ms", "ms"),
    ("convergence.observe.ms", "ms"),
    ("convergence.converged.ms", "ms"),
    ("convergence.stale_pairs.ms", "ms"),
    ("convergence.staleness_reexaminations", "count"),
    ("net.sync_with.ms_p50", "ms"),
    ("net.sync_with.ms_p99", "ms"),
    ("net.read_frame.wait_ms", "ms"),
    ("net.write_frame.ms", "ms"),
    ("net.reconnects", "count"),
    ("net.sync_retries", "count"),
    ("durable.commit.ms_p50", "ms"),
    ("durable.commit.ms_p99", "ms"),
    ("durable.checkpoint.ms", "ms"),
    ("durable.checkpoints", "count"),
    ("durable.fsyncs_per_update", "count"),
    ("durable.wal_bytes_per_update", "B"),
    ("durable.recover.records_replayed", "count"),
    ("trace.overhead_share", "share"),
    ("trace.spans_per_round", "count"),
)


def _count_frames(tracer: Tracer, frame: bytes) -> None:
    tracer.count("wire.frames")
    tracer.count("wire.bytes", len(frame))


def _count_frame_batch(tracer: Tracer, frames: list[bytes]) -> None:
    for frame in frames:
        _count_frames(tracer, frame)


def _count_shipped(tracer: Tracer, answer: Any) -> None:
    tracer.count("node.items_shipped", len(getattr(answer, "items", ())))


def _count_adopted(tracer: Tracer, outcome: Any) -> None:
    accepted, _intra = outcome
    tracer.count("node.items_adopted", len(accepted.adopted))


def _register_inflight(tracer: Tracer, index: int, netnode: Any, peer_id: int) -> None:
    tracer.inflight[(netnode.node_id, peer_id)] = index


def _served_request(tracer: Tracer, *args: Any) -> int | None:
    """The root span of the session that sent a served request, found
    from the (recipient, responder) pair of ``respond(node, request)``
    or ``validate_propagation_request(request, node)``."""
    if hasattr(args[0], "recipient"):
        request, node = args[0], args[1]
    else:
        node, request = args[0], args[1]
    return tracer.inflight.get((request.recipient, node.node_id))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; undo with ``tracer.uninstall()``."""
    from repro.cluster.convergence import GroundTruth
    from repro.cluster.network import SimulatedNetwork
    from repro.cluster.simulation import ClusterSimulation
    from repro.core import session as core_session
    from repro.core import validate as core_validate
    from repro.core.node import EpidemicNode
    from repro.core.protocol import DBVVProtocolNode
    from repro.durable.journal import NodeJournal
    from repro.net import framing
    from repro.net.node import NetNode
    from repro.wire.codec import WireCodec

    tracer.patch_method(WireCodec, "encode", "wire.encode", on_result=_count_frames)
    tracer.patch_method(
        WireCodec, "encode_batch", "wire.encode", on_result=_count_frame_batch
    )
    tracer.patch_method(WireCodec, "decode", "wire.decode")
    tracer.patch_method(
        EpidemicNode, "send_propagation", "node.send_propagation",
        on_result=_count_shipped,
    )
    tracer.patch_method(
        EpidemicNode, "accept_propagation", "node.accept_propagation",
        on_result=_count_adopted,
    )
    tracer.patch_method(
        EpidemicNode, "intra_node_propagation", "node.intra_node_propagation"
    )
    tracer.patch_method(EpidemicNode, "update", "node.update")
    for name, fn in list(vars(core_validate).items()):
        if name.startswith("validate_") and inspect.isfunction(fn):
            tracer.patch_function(
                fn, "validate",
                link=_served_request
                if name == "validate_propagation_request" else None,
            )
    tracer.patch_function(core_session.respond, "session.respond", link=_served_request)
    tracer.patch_method(core_session.PullSession, "conclude", "session.conclude")
    tracer.patch_method(
        DBVVProtocolNode, "sync_with", "session.sync_with", session_root=True
    )
    tracer.patch_method(ClusterSimulation, "run_round", "simulation.run_round")
    tracer.patch_method(ClusterSimulation, "converged", "convergence.converged")
    tracer.patch_method(SimulatedNetwork, "deliver", "network.deliver")
    tracer.patch_method(GroundTruth, "observe", "convergence.observe")
    tracer.patch_method(GroundTruth, "stale_pairs", "convergence.stale_pairs")
    tracer.patch_method(
        NetNode, "sync_with", "net.sync_with", session_root=True,
        on_enter=_register_inflight,
    )
    tracer.patch_function(framing.read_frame, "net.read_frame", only_nested=True)
    tracer.patch_function(framing.write_frame, "net.write_frame")
    tracer.patch_method(NodeJournal, "commit", "durable.commit")
    tracer.patch_method(NodeJournal, "checkpoint", "durable.checkpoint")


@contextmanager
def tracing(tracer: Tracer | None) -> Iterator[None]:
    """Install the wrappers for the block (nothing when ``tracer`` is
    ``None``); every patched slot is restored on the way out."""
    if tracer is None:
        yield
        return
    tracer.reset_counts()
    install(tracer)
    try:
        yield
    finally:
        tracer.uninstall()


def _ms(stats: dict[str, SpanStats], name: str, field: str, rounds: int) -> float:
    entry = stats.get(name)
    if entry is None:
        return 0.0
    return getattr(entry, field) * 1e3 / rounds


def _pct_ms(stats: dict[str, SpanStats], name: str, q: float) -> float:
    entry = stats.get(name)
    if entry is None or not entry.durations_s:
        return 0.0
    return percentile(entry.durations_s, q) * 1e3


def layer_metrics(
    stats: dict[str, SpanStats],
    counts: dict[str, int],
    rounds: int,
    extra: dict[str, float],
) -> dict[str, float]:
    """Per-layer metric values of one traced episode.

    ``stats``/``counts`` come from the tracer, ``rounds`` is the number
    of traced rounds, and ``extra`` carries the values only the workload
    knows (counters kept by the program, sessions, updates).
    """
    shipped = counts.get("node.items_shipped", 0)
    adopted = counts.get("node.items_adopted", 0)
    sessions = extra["session.count"]
    validate = stats.get("validate", SpanStats())
    values: dict[str, float] = {
        "wire.encode.ms": _ms(stats, "wire.encode", "total_s", rounds),
        "wire.decode.ms": _ms(stats, "wire.decode", "total_s", rounds),
        "wire.frames": counts.get("wire.frames", 0),
        "wire.bytes": counts.get("wire.bytes", 0),
        "node.send_propagation.ms": _ms(stats, "node.send_propagation", "total_s", rounds),
        "node.accept_propagation.self_ms": _ms(
            stats, "node.accept_propagation", "self_s", rounds
        ),
        "node.intra_node_propagation.ms": _ms(
            stats, "node.intra_node_propagation", "total_s", rounds
        ),
        "node.update.ms": _ms(stats, "node.update", "total_s", rounds),
        "node.items_shipped": shipped,
        "node.items_adopted": adopted,
        "node.adopt_ratio": adopted / shipped if shipped else 0.0,
        "validate.ms": validate.outer_s * 1e3 / rounds,
        "validate.calls": validate.outer_count,
        "validate.calls_per_session": validate.outer_count / sessions
        if sessions else 0.0,
        "session.respond.self_ms": _ms(stats, "session.respond", "self_s", rounds),
        "session.conclude.self_ms": _ms(stats, "session.conclude", "self_s", rounds),
        "simulation.run_round.self_ms": _ms(
            stats, "simulation.run_round", "self_s", rounds
        ),
        "network.deliver.self_ms": _ms(stats, "network.deliver", "self_s", rounds),
        "convergence.observe.ms": _ms(stats, "convergence.observe", "total_s", rounds),
        "convergence.converged.ms": _ms(
            stats, "convergence.converged", "total_s", rounds
        ),
        "convergence.stale_pairs.ms": _ms(
            stats, "convergence.stale_pairs", "total_s", rounds
        ),
        "net.sync_with.ms_p50": _pct_ms(stats, "net.sync_with", 50),
        "net.sync_with.ms_p99": _pct_ms(stats, "net.sync_with", 99),
        "net.read_frame.wait_ms": _ms(stats, "net.read_frame", "total_s", rounds),
        "net.write_frame.ms": _ms(stats, "net.write_frame", "total_s", rounds),
        "durable.commit.ms_p50": _pct_ms(stats, "durable.commit", 50),
        "durable.commit.ms_p99": _pct_ms(stats, "durable.commit", 99),
        "durable.checkpoint.ms": _ms(stats, "durable.checkpoint", "total_s", rounds),
        "trace.spans_per_round": sum(s.count for s in stats.values()) / rounds,
    }
    values.update(extra)
    return {name: float(values[name]) for name, _unit in PER_LAYER if name in values}
