"""Regenerate the malformed-frame corpus.

Run from the repo root after a deliberate wire-format change::

    PYTHONPATH=src python tests/wire/corpus/_regen.py

Each case starts from a frame the real codec produced (or a hand-built
payload using the same varint primitives) and applies one documented
corruption.  The corpus is *checked in*: the test replays the hex files
byte-for-byte, so a format change that silently starts accepting one of
these frames fails loudly instead of rotting unnoticed.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.messages import (
    ItemPayload,
    PropagationRequest,
    YouAreCurrent,
)
from repro.core.version_vector import VersionVector
from repro.wire.codec import MAX_SEQUENCE_ITEMS, WireCodec
from repro.wire.varint import write_uvarint

CORPUS = Path(__file__).parent


def _uvarint(value: int) -> bytes:
    buf = bytearray()
    write_uvarint(buf, value)
    return bytes(buf)


def _frame(payload: bytes) -> bytes:
    return _uvarint(len(payload)) + payload


def _write(name: str, frame: bytes) -> None:
    text = frame.hex()
    lines = [text[i : i + 64] for i in range(0, len(text), 64)] or [""]
    (CORPUS / f"{name}.hex").write_text("\n".join(lines) + "\n")
    print(f"{name}.hex: {len(frame)} byte(s)")


def main() -> None:
    vv = VersionVector.from_counts((3, 0, 7))
    request = PropagationRequest(1, vv)

    # 1. Valid frame with its last byte removed.
    valid = WireCodec(delta_vv=False).encode(0, 1, request)
    _write("truncated_frame", valid[:-1])

    # 2. Length prefix one larger than the actual payload.
    _write(
        "length_prefix_overrun", _uvarint(len(valid[1:]) + 1) + valid[1:]
    )

    # 3. Length prefix far past MAX_FRAME_LEN; payload is tiny.  Decoding
    #    must reject the prefix before sizing anything from it.
    _write("over_cap_length_prefix", _uvarint(1 << 60) + b"\x02\x00")

    # 4. Unregistered message type id.
    _write("unknown_type_id", _frame(_uvarint(4095)))

    # 5. Payload ends inside a varint (continuation bit set, no
    #    terminator byte).
    _write("unterminated_varint", _frame(b"\x80"))

    # 6. ItemPayload whose name field is not valid UTF-8 (0xff can start
    #    no UTF-8 sequence).
    item = WireCodec(delta_vv=False).encode(
        0, 1, ItemPayload("a", b"xy", vv)
    )
    assert item.count(b"\x61") == 1
    _write("bad_utf8_string", item.replace(b"\x61", b"\xff"))

    # 7. Delta-form version vector with no cached base at the receiver:
    #    encode the same request twice on one delta-caching codec and
    #    keep the second (delta) frame — a fresh codec must refuse it.
    delta_codec = WireCodec(delta_vv=True)
    delta_codec.encode(0, 1, request)
    _write("delta_without_base", delta_codec.encode(0, 1, request))

    # 8. bytes_ field whose length prefix overruns the payload:
    #    ItemPayload(name="a") with a value field claiming 0x7f bytes.
    _write(
        "bytes_field_overrun",
        _frame(_uvarint(1) + b"\x01\x61" + b"\x7f" + b"\x78\x79"),
    )

    # 9. Full-form version vector declaring one component more than
    #    MAX_SEQUENCE_ITEMS; Decoder.count() must refuse before the
    #    component loop runs.
    _write(
        "over_cap_count",
        _frame(
            _uvarint(2)  # PropagationRequest
            + _uvarint(1)  # recipient
            + b"\x00"  # full-form vv tag
            + _uvarint(MAX_SEQUENCE_ITEMS + 1)
        ),
    )

    # 10. Valid body followed by garbage the length prefix *does* cover:
    #     decode succeeds, then the unconsumed-bytes check fires.
    you = WireCodec(delta_vv=False).encode(0, 1, YouAreCurrent(2))
    _write("trailing_bytes", _frame(you[1:] + b"\xde\xad"))

    # 11. Unknown version-vector tag byte (neither full 0x00 nor delta
    #     0x01).
    _write(
        "unknown_vv_tag",
        _frame(_uvarint(2) + _uvarint(1) + b"\x07"),
    )

    # 12. Zero-length payload: the message type id itself is missing.
    _write("empty_payload", _uvarint(0))

    # 13. Full-form version vector declaring five components with only
    #     three bytes left, every one below 0x80: the one-slice bulk
    #     read must notice the short slice, not return three components.
    _write(
        "full_vv_count_overrun",
        _frame(
            _uvarint(2)  # PropagationRequest
            + _uvarint(1)  # recipient
            + b"\x00"  # full-form vv tag
            + _uvarint(5)
            + b"\x03\x00\x07"
        ),
    )

    # 14. Full-form version vector whose last component is a dangling
    #     continuation byte (0x87, frame ends): the slice has the
    #     declared length but is not a run of one-byte varints.
    _write(
        "full_vv_dangling_continuation",
        _frame(
            _uvarint(2)  # PropagationRequest
            + _uvarint(1)  # recipient
            + b"\x00"  # full-form vv tag
            + _uvarint(3)
            + b"\x03\x00\x87"
        ),
    )


if __name__ == "__main__":
    main()
