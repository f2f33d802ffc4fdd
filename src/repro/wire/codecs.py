"""Per-message codecs and the stable type-id table.

Importing this module registers an encode/decode pair for **every**
class in ``src/repro`` that defines ``wire_size`` — the DBVV protocol's
session and out-of-bound messages, the operation-shipping payloads, and
all four baselines' messages.  Lint rule R8 audits exactly that
property: a new message class without a registration here (or a
registration whose class lost its ``wire_size``) fails
``python -m repro.lint``.

Type ids are stable protocol constants grouped by module (core protocol
``1–8``, oracle ``16+``, agrawal-malpani ``24+``, per-item-vv ``32+``,
lotus ``40+``, wuu-bernstein ``48+``); never renumber an existing id.

Field-domain notes the encoders rely on:

* node ids, sequence numbers, counts, and offsets are non-negative →
  unsigned varints;
* Lotus ``last_writer`` ids may be ``-1`` ("never written") and
  ``CounterAdd.delta`` may be negative → zigzag varints;
* :class:`~repro.substrate.operations.UpdateOperation` subclasses are
  not wire messages themselves (no ``wire_size``); they travel inside
  :class:`~repro.core.delta.OpChainEntry` under the private op-tag
  table below.

Version-vector *stream keys* (the delta-cache granularity, see
:mod:`repro.wire.codec`): the database vector is stream ``"dbvv"``;
an item's IVV is ``"ivv:<name>"`` whether it ships whole or as an op
chain; out-of-bound replies use ``"oob:<name>"`` (auxiliary copies may
run ahead of the regular IVV); the per-item baseline's advertised IVVs
use ``"pivv:<name>"``.
"""

from __future__ import annotations

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
from repro.errors import WireFormatError
from repro.substrate.operations import (
    Append,
    BytePatch,
    CounterAdd,
    Put,
    Truncate,
    UpdateOperation,
)
from repro.wire.codec import DBVV_STREAM, Decoder, Encoder
from repro.wire.registry import register

__all__ = ["OP_TAGS", "decode_wire_op", "encode_wire_op"]

# -- update operations (nested inside OpChainEntry, not framed) --------------

#: Op-tag table for UpdateOperation subclasses; stable like type ids.
OP_TAGS: dict[type, int] = {
    Put: 0,
    Append: 1,
    BytePatch: 2,
    Truncate: 3,
    CounterAdd: 4,
}


def _encode_op(enc: Encoder, op: UpdateOperation) -> None:
    try:
        tag = OP_TAGS[type(op)]
    except KeyError:
        raise WireFormatError(
            f"no op tag for operation class {type(op).__qualname__}"
        ) from None
    enc.uvarint(tag)
    if isinstance(op, Put):
        enc.bytes_(op.value)
    elif isinstance(op, Append):
        enc.bytes_(op.data)
    elif isinstance(op, BytePatch):
        enc.uvarint(op.offset)
        enc.bytes_(op.data)
    elif isinstance(op, Truncate):
        enc.uvarint(op.length)
    else:
        enc.svarint(op.delta)


def _decode_op(dec: Decoder) -> UpdateOperation:
    tag = dec.uvarint()
    if tag == 0:
        return Put(dec.bytes_())
    if tag == 1:
        return Append(dec.bytes_())
    if tag == 2:
        return BytePatch(dec.uvarint(), dec.bytes_())
    if tag == 3:
        return Truncate(dec.uvarint())
    if tag == 4:
        return CounterAdd(dec.svarint())
    raise WireFormatError(f"unknown update-operation tag {tag}")


# Public aliases: the durable write-ahead log (repro.durable) journals
# user updates as wire-encoded records and needs exactly this op
# encoding; re-exporting beats a parallel op-tag table drifting apart.
encode_wire_op = _encode_op
decode_wire_op = _decode_op


# -- core protocol (ids 1-8) --------------------------------------------------


# Per-item stream keys ("ivv:<name>") are rebuilt for every payload on
# both sides of the link; memoizing them turns an f-string allocation
# plus a fresh-string hash into one dict hit.  The cache is bounded by
# the item namespace, the same order of growth as the codec's own
# per-stream delta caches.
_IVV_KEYS: dict[str, str] = {}


def _ivv_key(name: str) -> str:
    key = _IVV_KEYS.get(name)
    if key is None:
        key = _IVV_KEYS[name] = "ivv:" + name
    return key


def _encode_item_payload(enc: Encoder, msg: ItemPayload) -> None:
    name = msg.name
    enc.string(name)
    enc.bytes_(msg.value)
    enc.vv(_ivv_key(name), msg.ivv)


def _decode_item_payload(dec: Decoder) -> ItemPayload:
    name = dec.string()
    value = dec.bytes_()
    return ItemPayload(name, value, dec.vv(_ivv_key(name)))


def _encode_propagation_request(enc: Encoder, msg: PropagationRequest) -> None:
    enc.uvarint(msg.recipient)
    enc.vv(DBVV_STREAM, msg.dbvv)


def _decode_propagation_request(dec: Decoder) -> PropagationRequest:
    return PropagationRequest(dec.uvarint(), dec.vv(DBVV_STREAM))


def _encode_you_are_current(enc: Encoder, msg: YouAreCurrent) -> None:
    enc.uvarint(msg.source)


def _decode_you_are_current(dec: Decoder) -> YouAreCurrent:
    return YouAreCurrent(dec.uvarint())


def _encode_propagation_reply(enc: Encoder, msg: PropagationReply) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.tails))
    for tail in msg.tails:
        enc.uvarint(len(tail))
        for item, seqno in tail:
            enc.string(item)
            enc.uvarint(seqno)
    enc.uvarint(len(msg.items))
    for payload in msg.items:
        enc.message(payload)  # ItemPayload or DeltaPayload — self-typed


def _decode_propagation_reply(dec: Decoder) -> PropagationReply:
    source = dec.uvarint()
    # List comprehensions over bound methods, not nested generators:
    # the tails carry one (item, seqno) pair per shipped item.
    string = dec.string
    uvarint = dec.uvarint
    tails = tuple(
        [
            tuple([(string(), uvarint()) for _ in range(dec.count())])
            for _ in range(dec.count())
        ]
    )
    message = dec.message
    items = tuple([message() for _ in range(dec.count())])
    return PropagationReply(source, tails, items)


def _encode_oob_request(enc: Encoder, msg: OutOfBoundRequest) -> None:
    enc.uvarint(msg.requester)
    enc.string(msg.item)


def _decode_oob_request(dec: Decoder) -> OutOfBoundRequest:
    return OutOfBoundRequest(dec.uvarint(), dec.string())


def _encode_oob_reply(enc: Encoder, msg: OutOfBoundReply) -> None:
    enc.uvarint(msg.source)
    enc.string(msg.item)
    enc.bytes_(msg.value)
    enc.vv(f"oob:{msg.item}", msg.ivv)


def _decode_oob_reply(dec: Decoder) -> OutOfBoundReply:
    source = dec.uvarint()
    item = dec.string()
    value = dec.bytes_()
    return OutOfBoundReply(source, item, value, dec.vv(f"oob:{item}"))


def _encode_op_chain_entry(enc: Encoder, msg: OpChainEntry) -> None:
    enc.uvarint(msg.origin)
    enc.uvarint(msg.m)
    _encode_op(enc, msg.op)


def _decode_op_chain_entry(dec: Decoder) -> OpChainEntry:
    return OpChainEntry(dec.uvarint(), dec.uvarint(), _decode_op(dec))


def _encode_delta_payload(enc: Encoder, msg: DeltaPayload) -> None:
    enc.string(msg.name)
    enc.vv(_ivv_key(msg.name), msg.ivv)
    enc.uvarint(len(msg.ops))
    for entry in msg.ops:
        _encode_op_chain_entry(enc, entry)


def _decode_delta_payload(dec: Decoder) -> DeltaPayload:
    name = dec.string()
    ivv = dec.vv(_ivv_key(name))
    ops = tuple(_decode_op_chain_entry(dec) for _ in range(dec.count()))
    return DeltaPayload(name, ivv, ops)


# -- oracle deferred push (ids 16+) ------------------------------------------


def _encode_update_record(enc: Encoder, msg: UpdateRecord) -> None:
    enc.string(msg.item)
    enc.bytes_(msg.value)
    enc.uvarint(msg.seqno)
    enc.uvarint(msg.origin)


def _decode_update_record(dec: Decoder) -> UpdateRecord:
    return UpdateRecord(dec.string(), dec.bytes_(), dec.uvarint(), dec.uvarint())


def _encode_push_batch(enc: Encoder, msg: _PushBatch) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.records))
    for record in msg.records:
        _encode_update_record(enc, record)


def _decode_push_batch(dec: Decoder) -> _PushBatch:
    source = dec.uvarint()
    records = tuple(_decode_update_record(dec) for _ in range(dec.count()))
    return _PushBatch(source, records)


# -- agrawal-malpani decoupled dissemination (ids 24+) ------------------------


def _encode_am_record(enc: Encoder, msg: AMRecord) -> None:
    enc.string(msg.item)
    enc.bytes_(msg.value)
    enc.uvarint(msg.seqno)
    enc.uvarint(msg.origin)


def _decode_am_record(dec: Decoder) -> AMRecord:
    return AMRecord(dec.string(), dec.bytes_(), dec.uvarint(), dec.uvarint())


def _encode_log_push(enc: Encoder, msg: _LogPush) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.records))
    for record in msg.records:
        _encode_am_record(enc, record)


def _decode_log_push(dec: Decoder) -> _LogPush:
    source = dec.uvarint()
    records = tuple(_decode_am_record(dec) for _ in range(dec.count()))
    return _LogPush(source, records)


def _encode_vector_exchange(enc: Encoder, msg: _VectorExchange) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.received))
    for count in msg.received:
        enc.uvarint(count)


def _decode_vector_exchange(dec: Decoder) -> _VectorExchange:
    source = dec.uvarint()
    received = tuple(dec.uvarint() for _ in range(dec.count()))
    return _VectorExchange(source, received)


def _encode_repair_request(enc: Encoder, msg: _RepairRequest) -> None:
    enc.uvarint(msg.requester)
    enc.uvarint(len(msg.gaps))
    for origin, have_through in msg.gaps:
        enc.uvarint(origin)
        enc.uvarint(have_through)


def _decode_repair_request(dec: Decoder) -> _RepairRequest:
    requester = dec.uvarint()
    gaps = tuple(
        (dec.uvarint(), dec.uvarint()) for _ in range(dec.count())
    )
    return _RepairRequest(requester, gaps)


# -- per-item version-vector anti-entropy (ids 32+) ---------------------------


def _encode_ivv_list_request(enc: Encoder, msg: _IVVListRequest) -> None:
    enc.uvarint(msg.requester)


def _decode_ivv_list_request(dec: Decoder) -> _IVVListRequest:
    return _IVVListRequest(dec.uvarint())


def _encode_ivv_list_reply(enc: Encoder, msg: _IVVListReply) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.ivvs))
    for name, ivv in msg.ivvs:
        enc.string(name)
        enc.vv(f"pivv:{name}", ivv)


def _decode_ivv_list_reply(dec: Decoder) -> _IVVListReply:
    source = dec.uvarint()
    ivvs = []
    for _ in range(dec.count()):
        name = dec.string()
        ivvs.append((name, dec.vv(f"pivv:{name}")))
    return _IVVListReply(source, tuple(ivvs))


def _encode_item_fetch(enc: Encoder, msg: _ItemFetch) -> None:
    enc.uvarint(msg.requester)
    enc.uvarint(len(msg.names))
    for name in msg.names:
        enc.string(name)


def _decode_item_fetch(dec: Decoder) -> _ItemFetch:
    requester = dec.uvarint()
    names = tuple(dec.string() for _ in range(dec.count()))
    return _ItemFetch(requester, names)


def _encode_item_shipment(enc: Encoder, msg: _ItemShipment) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.payloads))
    for payload in msg.payloads:
        _encode_item_payload(enc, payload)


def _decode_item_shipment(dec: Decoder) -> _ItemShipment:
    source = dec.uvarint()
    payloads = tuple(_decode_item_payload(dec) for _ in range(dec.count()))
    return _ItemShipment(source, payloads)


# -- lotus notes replication (ids 40+) ----------------------------------------


def _encode_propagation_probe(enc: Encoder, msg: _PropagationProbe) -> None:
    enc.uvarint(msg.requester)


def _decode_propagation_probe(dec: Decoder) -> _PropagationProbe:
    return _PropagationProbe(dec.uvarint())


def _encode_change_list(enc: Encoder, msg: _ChangeList) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.entries))
    for name, seqno, writer in msg.entries:
        enc.string(name)
        enc.uvarint(seqno)
        enc.svarint(writer)  # -1 means "never written"


def _decode_change_list(dec: Decoder) -> _ChangeList:
    source = dec.uvarint()
    entries = tuple(
        (dec.string(), dec.uvarint(), dec.svarint())
        for _ in range(dec.count())
    )
    return _ChangeList(source, entries)


def _encode_doc_fetch(enc: Encoder, msg: _DocFetch) -> None:
    enc.uvarint(msg.requester)
    enc.uvarint(len(msg.names))
    for name in msg.names:
        enc.string(name)


def _decode_doc_fetch(dec: Decoder) -> _DocFetch:
    requester = dec.uvarint()
    names = tuple(dec.string() for _ in range(dec.count()))
    return _DocFetch(requester, names)


def _encode_doc_shipment(enc: Encoder, msg: _DocShipment) -> None:
    enc.uvarint(msg.source)
    enc.uvarint(len(msg.docs))
    for name, value, seqno, writer in msg.docs:
        enc.string(name)
        enc.bytes_(value)
        enc.uvarint(seqno)
        enc.svarint(writer)


def _decode_doc_shipment(dec: Decoder) -> _DocShipment:
    source = dec.uvarint()
    docs = tuple(
        (dec.string(), dec.bytes_(), dec.uvarint(), dec.svarint())
        for _ in range(dec.count())
    )
    return _DocShipment(source, docs)


# -- wuu-bernstein time-table gossip (ids 48+) --------------------------------


def _encode_gossip_record(enc: Encoder, msg: GossipRecord) -> None:
    enc.string(msg.item)
    enc.bytes_(msg.value)
    enc.uvarint(msg.seqno)
    enc.uvarint(msg.origin)


def _decode_gossip_record(dec: Decoder) -> GossipRecord:
    return GossipRecord(dec.string(), dec.bytes_(), dec.uvarint(), dec.uvarint())


def _encode_gossip_message(enc: Encoder, msg: _GossipMessage) -> None:
    enc.uvarint(msg.source)
    # The full n×n table, row-major: carrying it wholesale is this
    # baseline's defining metadata cost, so no delta trickery here.
    enc.uvarint(len(msg.time_table))
    for row in msg.time_table:
        if len(row) != len(msg.time_table):
            raise WireFormatError(
                f"time-table is not square: row of {len(row)} in an "
                f"n={len(msg.time_table)} table"
            )
        for cell in row:
            enc.uvarint(cell)
    enc.uvarint(len(msg.records))
    for record in msg.records:
        _encode_gossip_record(enc, record)


def _decode_gossip_message(dec: Decoder) -> _GossipMessage:
    source = dec.uvarint()
    n = dec.count()
    table = tuple(
        tuple(dec.uvarint() for _ in range(n)) for _ in range(n)
    )
    records = tuple(_decode_gossip_record(dec) for _ in range(dec.count()))
    return _GossipMessage(source, table, records)


def _encode_gossip_request(enc: Encoder, msg: _GossipRequest) -> None:
    enc.uvarint(msg.requester)


def _decode_gossip_request(dec: Decoder) -> _GossipRequest:
    return _GossipRequest(dec.uvarint())


# -- the type-id table --------------------------------------------------------

register(1, ItemPayload, _encode_item_payload, _decode_item_payload)
register(2, PropagationRequest, _encode_propagation_request, _decode_propagation_request)
register(3, YouAreCurrent, _encode_you_are_current, _decode_you_are_current)
register(4, PropagationReply, _encode_propagation_reply, _decode_propagation_reply)
register(5, OutOfBoundRequest, _encode_oob_request, _decode_oob_request)
register(6, OutOfBoundReply, _encode_oob_reply, _decode_oob_reply)
register(7, OpChainEntry, _encode_op_chain_entry, _decode_op_chain_entry)
register(8, DeltaPayload, _encode_delta_payload, _decode_delta_payload)

register(16, UpdateRecord, _encode_update_record, _decode_update_record)
register(17, _PushBatch, _encode_push_batch, _decode_push_batch)

register(24, AMRecord, _encode_am_record, _decode_am_record)
register(25, _LogPush, _encode_log_push, _decode_log_push)
register(26, _VectorExchange, _encode_vector_exchange, _decode_vector_exchange)
register(27, _RepairRequest, _encode_repair_request, _decode_repair_request)

register(32, _IVVListRequest, _encode_ivv_list_request, _decode_ivv_list_request)
register(33, _IVVListReply, _encode_ivv_list_reply, _decode_ivv_list_reply)
register(34, _ItemFetch, _encode_item_fetch, _decode_item_fetch)
register(35, _ItemShipment, _encode_item_shipment, _decode_item_shipment)

register(40, _PropagationProbe, _encode_propagation_probe, _decode_propagation_probe)
register(41, _ChangeList, _encode_change_list, _decode_change_list)
register(42, _DocFetch, _encode_doc_fetch, _decode_doc_fetch)
register(43, _DocShipment, _encode_doc_shipment, _decode_doc_shipment)

register(48, GossipRecord, _encode_gossip_record, _decode_gossip_record)
register(49, _GossipMessage, _encode_gossip_message, _decode_gossip_message)
register(50, _GossipRequest, _encode_gossip_request, _decode_gossip_request)
