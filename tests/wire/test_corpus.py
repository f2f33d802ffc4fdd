"""Replay the checked-in malformed-frame corpus.

Each ``corpus/*.hex`` file is a frame a hostile or corrupted peer could
send; every one must be rejected with ``WireFormatError`` — never
accepted, never a different exception, never a hang or an allocation
sized from attacker bytes.  See ``corpus/README.md`` for what each
frame corrupts and ``corpus/_regen.py`` to regenerate after a
deliberate format change.
"""

import tracemalloc
from pathlib import Path

import pytest

from repro.core.messages import ItemPayload, PropagationReply
from repro.core.version_vector import VersionVector
from repro.errors import WireFormatError
from repro.wire.codec import MAX_FRAME_LEN, WireCodec
from repro.wire.varint import read_uvarint, write_uvarint

CORPUS = Path(__file__).parent / "corpus"


def _load(path: Path) -> bytes:
    return bytes.fromhex("".join(path.read_text().split()))


def _corpus_files() -> list[Path]:
    return sorted(CORPUS.glob("*.hex"))


def test_corpus_is_present():
    # The corpus only protects anything while it exists; a refactor that
    # drops the directory must fail loudly.
    assert len(_corpus_files()) >= 14


@pytest.mark.parametrize("path", _corpus_files(), ids=lambda p: p.stem)
def test_malformed_frame_is_rejected(path):
    frame = _load(path)
    with pytest.raises(WireFormatError):
        WireCodec(delta_vv=True).decode(0, 1, frame)


def test_over_cap_length_prefix_rejected_without_allocation():
    """A ten-byte frame claiming a 2^60-byte payload must cost nothing:
    the cap check runs before anything is sized from the prefix."""
    frame = _load(CORPUS / "over_cap_length_prefix.hex")
    assert len(frame) < 16
    tracemalloc.start()
    try:
        with pytest.raises(WireFormatError, match="exceeds the"):
            WireCodec().decode(0, 1, frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The claimed size is ~10^18 bytes; a megabyte of slack is plenty.
    assert peak < 1 << 20


def test_over_cap_count_rejected_without_allocation():
    frame = _load(CORPUS / "over_cap_count.hex")
    tracemalloc.start()
    try:
        with pytest.raises(WireFormatError, match="element count"):
            WireCodec().decode(0, 1, frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_corpus_frames_match_their_regeneration():
    """The regen script and the checked-in files must agree — catches a
    format change that forgot to regenerate (or hand-edited files)."""
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location(
        "_corpus_regen", CORPUS / "_regen.py"
    )
    module = importlib.util.module_from_spec(spec)
    before = {p.name: p.read_bytes() for p in _corpus_files()}
    try:
        spec.loader.exec_module(module)
        module.main()
        after = {p.name: p.read_bytes() for p in _corpus_files()}
        assert before == after
    finally:
        # Restore whatever was checked in, even if the assert failed.
        for name, blob in before.items():
            (CORPUS / name).write_bytes(blob)
        sys.modules.pop("_corpus_regen", None)


@pytest.mark.parametrize(
    "stem", ["full_vv_count_overrun", "full_vv_dangling_continuation"]
)
def test_short_full_vector_is_reported_as_truncated(stem):
    """The bulk full-form read hands a short or unterminated run to the
    varint loop, which names the truncation; a read that ran past the
    frame would only fail later, at the unconsumed-bytes check."""
    with pytest.raises(WireFormatError, match="truncated varint"):
        WireCodec().decode(0, 1, _load(CORPUS / f"{stem}.hex"))


def test_reply_with_full_ivvs_cut_at_every_offset_is_rejected():
    """A ``PropagationReply`` payload cut at any byte, re-framed with a
    matching length prefix, raises ``WireFormatError`` — never the
    ``IndexError``/``ValueError`` of a bulk vector read that trusted a
    short or unterminated slice.  The IVVs cover both full-form paths:
    all components below 0x80, and components that need several bytes.
    """
    reply = PropagationReply(
        0,
        ((("a", 1),), (("b", 2),)),
        (
            ItemPayload("a", b"x" * 130, VersionVector.from_counts(range(32))),
            ItemPayload("b", b"y", VersionVector.from_counts((5, 300, 2**64 - 1))),
        ),
    )
    frame = WireCodec(delta_vv=False).encode(0, 1, reply)
    _, start = read_uvarint(frame, 0)
    payload = frame[start:]
    assert WireCodec().decode(0, 1, frame) == reply
    for cut in range(len(payload)):
        buf = bytearray()
        write_uvarint(buf, cut)
        with pytest.raises(WireFormatError):
            WireCodec().decode(0, 1, bytes(buf) + payload[:cut])


def test_max_frame_len_is_the_shared_cap():
    from repro.net.framing import MAX_FRAME_BYTES

    assert MAX_FRAME_BYTES == MAX_FRAME_LEN
