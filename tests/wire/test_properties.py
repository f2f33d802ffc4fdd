"""Property-based tests for the wire codec.

Three families:

* **round-trip identity** — for *every* registered message class, a
  strategy-built instance must decode back equal to itself (the
  strategy table below is asserted complete against the registry, so
  registering a new message without extending it fails here);
* **delta streams** — arbitrary vector sequences with interleaved
  crash/drop invalidations must always decode exactly, because every
  desync trigger either invalidates the caches or falls back to full
  form;
* **hostile frames** — truncation and byte corruption must surface as
  :class:`WireFormatError` (or a clean decode), never as
  ``struct.error`` / ``IndexError`` / ``UnicodeDecodeError`` from the
  decoder's guts;
* **vector byte identity** — every version-vector frame equals, byte
  for byte, the one a plain per-component LEB128 encoder of the
  documented grammar produces, so the codec's bulk paths cannot change
  the wire format.
"""

from hypothesis import example, given, settings, strategies as st

from repro.baselines.agrawal_malpani import (
    AMRecord,
    _LogPush,
    _RepairRequest,
    _VectorExchange,
)
from repro.baselines.lotus import (
    _ChangeList,
    _DocFetch,
    _DocShipment,
    _PropagationProbe,
)
from repro.baselines.oracle import UpdateRecord, _PushBatch
from repro.baselines.per_item import (
    _ItemFetch,
    _ItemShipment,
    _IVVListReply,
    _IVVListRequest,
)
from repro.baselines.wuu_bernstein import (
    GossipRecord,
    _GossipMessage,
    _GossipRequest,
)
from repro.core.delta import DeltaPayload, OpChainEntry
from repro.core.messages import (
    ItemPayload,
    OutOfBoundReply,
    OutOfBoundRequest,
    PropagationReply,
    PropagationRequest,
    YouAreCurrent,
)
from repro.core.version_vector import VersionVector
from repro.errors import WireFormatError
from repro.substrate.operations import (
    Append,
    BytePatch,
    CounterAdd,
    Put,
    Truncate,
)
from repro.wire import WireCodec, codec_for_class, registered_codecs

node_ids = st.integers(0, 40)
seqnos = st.integers(0, 2**48)
names = st.text(min_size=0, max_size=12)
values = st.binary(max_size=48)
vectors = st.lists(st.integers(0, 2**48), min_size=1, max_size=8).map(
    VersionVector.from_counts
)
operations = st.one_of(
    st.builds(Put, values),
    st.builds(Append, values),
    st.builds(BytePatch, st.integers(0, 2**32), values),
    st.builds(Truncate, st.integers(0, 2**32)),
    st.builds(CounterAdd, st.integers(-(2**48), 2**48)),
)
op_entries = st.builds(OpChainEntry, node_ids, seqnos, operations)
item_payloads = st.builds(ItemPayload, names, values, vectors)
delta_payloads = st.builds(
    DeltaPayload,
    names,
    vectors,
    st.lists(op_entries, max_size=4).map(tuple),
)
tails = st.lists(
    st.lists(st.tuples(names, seqnos), max_size=3).map(tuple), max_size=3
).map(tuple)
lww_fields = (names, values, seqnos, node_ids)
writer_ids = st.integers(-1, 40)


def _square_tables(draw_n=st.integers(0, 4)):
    return draw_n.flatmap(
        lambda n: st.lists(
            st.lists(seqnos, min_size=n, max_size=n).map(tuple),
            min_size=n,
            max_size=n,
        ).map(tuple)
    )


#: class -> instance strategy; asserted complete against the registry.
MESSAGE_STRATEGIES = {
    ItemPayload: item_payloads,
    PropagationRequest: st.builds(PropagationRequest, node_ids, vectors),
    YouAreCurrent: st.builds(YouAreCurrent, node_ids),
    PropagationReply: st.builds(
        PropagationReply,
        node_ids,
        tails,
        st.lists(st.one_of(item_payloads, delta_payloads), max_size=4).map(tuple),
    ),
    OutOfBoundRequest: st.builds(OutOfBoundRequest, node_ids, names),
    OutOfBoundReply: st.builds(OutOfBoundReply, node_ids, names, values, vectors),
    OpChainEntry: op_entries,
    DeltaPayload: delta_payloads,
    UpdateRecord: st.builds(UpdateRecord, *lww_fields),
    _PushBatch: st.builds(
        _PushBatch,
        node_ids,
        st.lists(st.builds(UpdateRecord, *lww_fields), max_size=4).map(tuple),
    ),
    AMRecord: st.builds(AMRecord, *lww_fields),
    _LogPush: st.builds(
        _LogPush,
        node_ids,
        st.lists(st.builds(AMRecord, *lww_fields), max_size=4).map(tuple),
    ),
    _VectorExchange: st.builds(
        _VectorExchange, node_ids, st.lists(seqnos, max_size=8).map(tuple)
    ),
    _RepairRequest: st.builds(
        _RepairRequest,
        node_ids,
        st.lists(st.tuples(node_ids, seqnos), max_size=4).map(tuple),
    ),
    _IVVListRequest: st.builds(_IVVListRequest, node_ids),
    _IVVListReply: st.builds(
        _IVVListReply,
        node_ids,
        st.lists(st.tuples(names, vectors), max_size=4).map(tuple),
    ),
    _ItemFetch: st.builds(
        _ItemFetch, node_ids, st.lists(names, max_size=4).map(tuple)
    ),
    _ItemShipment: st.builds(
        _ItemShipment, node_ids, st.lists(item_payloads, max_size=4).map(tuple)
    ),
    _PropagationProbe: st.builds(_PropagationProbe, node_ids),
    _ChangeList: st.builds(
        _ChangeList,
        node_ids,
        st.lists(st.tuples(names, seqnos, writer_ids), max_size=4).map(tuple),
    ),
    _DocFetch: st.builds(
        _DocFetch, node_ids, st.lists(names, max_size=4).map(tuple)
    ),
    _DocShipment: st.builds(
        _DocShipment,
        node_ids,
        st.lists(st.tuples(names, values, seqnos, writer_ids), max_size=4).map(
            tuple
        ),
    ),
    GossipRecord: st.builds(GossipRecord, *lww_fields),
    _GossipMessage: st.builds(
        _GossipMessage,
        node_ids,
        _square_tables(),
        st.lists(st.builds(GossipRecord, *lww_fields), max_size=4).map(tuple),
    ),
    _GossipRequest: st.builds(_GossipRequest, node_ids),
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())


def test_strategy_table_covers_every_registered_class():
    registered = {codec.cls for codec in registered_codecs()}
    missing = registered - set(MESSAGE_STRATEGIES)
    assert not missing, (
        f"registered wire messages without a round-trip strategy: "
        f"{sorted(cls.__qualname__ for cls in missing)}"
    )


@settings(max_examples=40)
@given(st.data())
def test_every_registered_class_roundtrips(data):
    codec = WireCodec()
    for cls, strategy in MESSAGE_STRATEGIES.items():
        message = data.draw(strategy, label=cls.__qualname__)
        frame = codec.encode(0, 1, message)
        assert codec.decode(0, 1, frame) == message


@given(st.lists(any_message, min_size=1, max_size=8))
def test_streamed_messages_roundtrip_through_shared_caches(messages):
    codec = WireCodec()
    for message in messages:
        assert codec.decode(2, 3, codec.encode(2, 3, message)) == message


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 2**32), min_size=4, max_size=4),
            st.sampled_from(["send", "crash", "drop"]),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_delta_streams_survive_crashes_and_drops(events):
    """Any interleaving of sends, node crashes, and in-flight drops
    decodes exactly, provided the two invalidation hooks the network
    calls are honoured."""
    codec = WireCodec()
    for counts, event in events:
        message = PropagationRequest(1, VersionVector.from_counts(counts))
        if event == "crash":
            codec.invalidate_node(1)
        elif event == "drop":
            # The frame left the sender (advancing _sent) but never
            # reached the receiver: network calls invalidate_link.
            codec.encode(0, 1, message)
            codec.invalidate_link(0, 1)
        decoded = codec.decode(0, 1, codec.encode(0, 1, message))
        assert decoded.dbvv.as_tuple() == tuple(counts)


@settings(max_examples=60)
@given(any_message, st.integers(0, 200))
def test_truncated_frames_raise_typed_error(message, cut):
    codec = WireCodec()
    frame = codec.encode(0, 1, message)
    cut = min(cut, len(frame) - 1)
    try:
        codec.decode(4, 5, frame[:cut])
    except WireFormatError:
        pass
    else:
        raise AssertionError("truncated frame decoded without error")


@settings(max_examples=60)
@given(any_message, st.integers(0, 200), st.integers(1, 255))
def test_corrupt_frames_never_raise_untyped_errors(message, index, flip):
    codec = WireCodec()
    frame = bytearray(codec.encode(0, 1, message))
    frame[index % len(frame)] ^= flip
    try:
        codec.decode(4, 5, bytes(frame))
    except WireFormatError:
        pass  # the typed rejection path
    except (OverflowError, MemoryError):
        raise  # would indicate a missing bound check — fail loudly
    # A corrupt frame may also decode to *some* message; what it must
    # never do is leak struct.error / IndexError / UnicodeDecodeError.


# -- vector byte identity ----------------------------------------------------


def _ref_uvarint(value):
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _ref_svarint(value):
    return _ref_uvarint((value << 1) ^ (value >> 63))


def _ref_vv(counts, base):
    """The grammar of the repro.wire.codec docstring, one component at a
    time: sparse delta against ``base`` when it has the same length and
    every change fits a 64-bit zigzag varint, the full form otherwise."""
    if base is not None and len(base) == len(counts):
        changed = [k for k in range(len(counts)) if counts[k] != base[k]]
        if all(-(2**63) <= counts[k] - base[k] < 2**63 for k in changed):
            out = b"\x01" + _ref_uvarint(len(changed))
            previous = -1
            for k in changed:
                out += _ref_uvarint(k - previous - 1)
                out += _ref_svarint(counts[k] - base[k])
                previous = k
            return out
    return b"\x00" + _ref_uvarint(len(counts)) + b"".join(map(_ref_uvarint, counts))


def _ref_item_frame(name, value, vv_bytes):
    raw_name = name.encode("utf-8")
    payload = (
        _ref_uvarint(codec_for_class(ItemPayload).type_id)
        + _ref_uvarint(len(raw_name))
        + raw_name
        + _ref_uvarint(len(value))
        + value
        + vv_bytes
    )
    return _ref_uvarint(len(payload)) + payload


#: Components at the varint width edges: one byte, two, three, and the
#: 64-bit ceiling.
edge_components = st.one_of(
    st.integers(0, 3),
    st.integers(125, 130),
    st.integers(16381, 16386),
    st.integers(2**64 - 3, 2**64 - 1),
    st.integers(0, 2**64 - 1),
)


def _vectors_of_length(n):
    one_byte = st.lists(st.integers(0, 0x7F), min_size=n, max_size=n)
    # All one-byte components but one that crosses 0x80.
    one_crossing = st.tuples(
        one_byte, st.integers(0, max(n - 1, 0)), st.integers(0x80, 2**64 - 1)
    ).map(lambda t: [t[2] if k == t[1] else c for k, c in enumerate(t[0])])
    return st.one_of(
        one_byte,
        one_crossing,
        st.lists(edge_components, min_size=n, max_size=n),
    )


def _vector_streams():
    """A stream of same-length vectors, each either fresh or the
    previous one with a single component moved (a sparse delta), plus
    the occasional vector of another length (the full-form fallback)."""
    return st.integers(0, 64).flatmap(
        lambda n: st.lists(
            st.one_of(
                _vectors_of_length(n),
                st.tuples(st.integers(0, 63), st.integers(-3, 3)),
                st.integers(0, 64).flatmap(_vectors_of_length),
            ),
            min_size=1,
            max_size=6,
        )
    )


@settings(max_examples=150)
@given(
    _vector_streams(),
    st.booleans(),
    st.sampled_from(["a", "n" * 127, "n" * 128]),
    st.binary(max_size=200),
)
@example([[], [5], [5]], True, "a", b"")
@example([[1] * 32, [1] * 31 + [128], [2**64 - 1] + [0] * 31], True, "a", b"")
def test_vector_frames_match_a_per_component_reference(
    steps, delta_vv, name, value
):
    codec = WireCodec(delta_vv=delta_vv)
    previous = None
    for step in steps:
        if isinstance(step, tuple):
            if not previous:
                continue
            index, move = step
            counts = list(previous)
            index %= len(counts)
            counts[index] = min(max(counts[index] + move, 0), 2**64 - 1)
        else:
            counts = step
        message = ItemPayload(name, value, VersionVector.from_counts(counts))
        frame = codec.encode(0, 1, message)
        base = previous if delta_vv else None
        assert frame == _ref_item_frame(name, value, _ref_vv(counts, base))
        assert codec.decode(0, 1, frame) == message
        previous = tuple(counts)
