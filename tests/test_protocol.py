"""Unit tests for the NetChain packet format (Figure 2(b))."""

from __future__ import annotations

import pytest

from repro.core.protocol import (
    KEY_BYTES,
    NETCHAIN_UDP_PORT,
    REPLY_FOR,
    KeyTooLongError,
    NetChainHeader,
    OpCode,
    QueryStatus,
    build_query_packet,
    make_cas,
    make_delete,
    make_read,
    make_write,
    normalize_value,
)


def test_the_key_field_is_padded_on_the_wire_only():
    """A header carries the canonical key; ``to_bytes`` writes the fixed
    16-byte field (NUL-padded) and ``from_bytes`` strips it again."""
    header = make_read("foo", ["10.0.0.1"])
    assert header.key == b"foo"
    wire = header.to_bytes()
    assert wire[2:2 + KEY_BYTES] == b"foo" + b"\x00" * (KEY_BYTES - 3)
    assert NetChainHeader.from_bytes(wire) == header
    assert make_write(b"x" * KEY_BYTES, b"v", ["10.0.0.1"]).key == b"x" * KEY_BYTES
    with pytest.raises(ValueError):
        make_write(b"x" * (KEY_BYTES + 1), b"v", ["10.0.0.1"])


def test_a_header_key_round_trips_whole_or_is_refused():
    """A 16-byte key fills the field and comes back exactly; a header built
    directly with a 17-byte key is refused at ``to_bytes``, never cut."""
    full = NetChainHeader(op=OpCode.READ, key=b"k" * (KEY_BYTES - 1) + b"z")
    assert NetChainHeader.from_bytes(full.to_bytes()) == full
    with pytest.raises(KeyTooLongError):
        NetChainHeader(op=OpCode.READ, key=b"k" * (KEY_BYTES + 1)).to_bytes()


def test_normalize_value_accepts_common_types():
    assert normalize_value(None) == b""
    assert normalize_value(b"abc") == b"abc"
    assert normalize_value("abc") == b"abc"
    assert normalize_value(42) == b"42"


def test_header_wire_roundtrip():
    header = NetChainHeader(op=OpCode.WRITE, key=b"k1", value=b"hello",
                            seq=7, session=2, chain=["10.0.0.2", "10.0.0.3"], vgroup=12,
                            status=QueryStatus.OK)
    decoded = NetChainHeader.from_bytes(header.to_bytes())
    assert decoded.op == OpCode.WRITE
    assert decoded.key == header.key
    assert decoded.value == b"hello"
    assert decoded.seq == 7
    assert decoded.session == 2
    assert decoded.chain == ["10.0.0.2", "10.0.0.3"]
    assert decoded.vgroup == 12
    assert decoded.query_id == header.query_id
    assert decoded.cas_expected is None


def test_header_roundtrip_with_cas_field():
    header = make_cas("lock", b"", b"owner-1", ["10.0.0.1", "10.0.0.2", "10.0.0.3"])
    decoded = NetChainHeader.from_bytes(header.to_bytes())
    assert decoded.op == OpCode.CAS
    assert decoded.cas_expected == b""
    assert decoded.value == b"owner-1"


def test_wire_size_matches_encoding_length():
    header = make_write("k", b"v" * 64, ["10.0.0.1", "10.0.0.2", "10.0.0.3"])
    assert header.wire_size() == len(header.to_bytes())


def test_header_copy_isolates_chain_list():
    header = make_write("k", b"v", ["10.0.0.1", "10.0.0.2", "10.0.0.3"])
    clone = header.copy()
    clone.chain.pop(0)
    assert len(header.chain) == 2
    assert len(clone.chain) == 1


def test_sc_field_counts_remaining_hops():
    header = make_write("k", b"v", ["10.0.0.1", "10.0.0.2", "10.0.0.3"])
    assert header.sc == 2
    header.chain.pop(0)
    assert header.sc == 1


def test_make_write_addresses_head_and_carries_rest():
    chain = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
    header = make_write("k", b"v", chain)
    # The caller sends to chain[0]; the header holds the rest in order.
    assert header.chain == ["10.0.0.2", "10.0.0.3"]
    assert header.op == OpCode.WRITE
    assert header.seq == 0 and header.session == 0


def test_make_read_addresses_tail_with_reverse_list():
    chain = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
    header = make_read("k", chain)
    # Read goes to the tail; the list holds the others in reverse order for
    # failure handling (Section 4.2).
    assert header.chain == ["10.0.0.2", "10.0.0.1"]
    assert header.op == OpCode.READ


def test_make_delete():
    header = make_delete("k", ["10.0.0.1", "10.0.0.2", "10.0.0.3"])
    assert header.op == OpCode.DELETE
    assert header.chain == ["10.0.0.2", "10.0.0.3"]


def test_reply_mapping_covers_all_requests():
    for op, reply in REPLY_FOR.items():
        assert NetChainHeader(op=op, key=b"k").is_request()
        assert NetChainHeader(op=reply, key=b"k").is_reply()


def test_query_ids_are_unique():
    ids = {make_read("k", ["10.0.0.1", "10.0.0.2", "10.0.0.3"]).query_id for _ in range(50)}
    assert len(ids) == 50


def test_build_query_packet_uses_reserved_port():
    header = make_read("k", ["10.0.0.1", "10.0.0.2", "10.0.0.3"])
    packet = build_query_packet("10.1.0.1", 9001, "10.0.0.3", header, created_at=1.5)
    assert packet.udp.dst_port == NETCHAIN_UDP_PORT
    assert packet.udp.src_port == 9001
    assert packet.ip.src_ip == "10.1.0.1"
    assert packet.ip.dst_ip == "10.0.0.3"
    assert packet.payload is header
    assert packet.payload_bytes == header.wire_size()
    assert packet.created_at == 1.5


def test_query_packet_fits_in_jumbo_frame_even_at_max_value():
    header = make_write("k", bytes(128), ["10.0.0.1", "10.0.0.2", "10.0.0.3"])
    packet = build_query_packet("10.1.0.1", 9001, "10.0.0.1", header)
    assert packet.fits_in_jumbo_frame()
