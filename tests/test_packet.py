"""Unit tests for the packet model and header encodings."""

from __future__ import annotations

import dataclasses

import pytest

from repro.netsim.packet import (
    JUMBO_FRAME_BYTES,
    EthernetHeader,
    IPv4Header,
    Packet,
    UDPHeader,
    int_to_ip,
    ip_to_int,
)


def test_ip_int_roundtrip():
    for addr in ("10.0.0.1", "192.168.1.255", "0.0.0.0", "255.255.255.255"):
        assert int_to_ip(ip_to_int(addr)) == addr


def test_ethernet_header_roundtrip():
    header = EthernetHeader(src_mac="02:00:00:00:00:01", dst_mac="02:00:00:00:00:02",
                            ethertype=0x0800)
    data = header.to_bytes()
    assert len(data) == EthernetHeader.HEADER_BYTES
    decoded = EthernetHeader.from_bytes(data)
    assert decoded.src_mac == header.src_mac
    assert decoded.dst_mac == header.dst_mac
    assert decoded.ethertype == header.ethertype


def test_ipv4_header_roundtrip():
    header = IPv4Header(src_ip="10.1.0.1", dst_ip="10.0.0.3", ttl=17)
    decoded = IPv4Header.from_bytes(header.to_bytes())
    assert decoded.src_ip == header.src_ip
    assert decoded.dst_ip == header.dst_ip
    assert decoded.ttl == header.ttl
    assert decoded.protocol == 17


def test_udp_header_roundtrip():
    header = UDPHeader(src_port=9000, dst_port=8123, length=64)
    decoded = UDPHeader.from_bytes(header.to_bytes())
    assert decoded.src_port == 9000
    assert decoded.dst_port == 8123
    assert decoded.length == 64


def test_packet_size_includes_all_headers():
    packet = Packet(udp=UDPHeader(), payload_bytes=100)
    expected = (EthernetHeader.HEADER_BYTES + IPv4Header.HEADER_BYTES
                + UDPHeader.HEADER_BYTES + 100)
    assert packet.size_bytes() == expected


def test_packet_without_udp_is_smaller():
    with_udp = Packet(udp=UDPHeader(), payload_bytes=0)
    without_udp = Packet(payload_bytes=0)
    assert with_udp.size_bytes() - without_udp.size_bytes() == UDPHeader.HEADER_BYTES


def test_jumbo_frame_limit():
    small = Packet(udp=UDPHeader(), payload_bytes=1000)
    huge = Packet(udp=UDPHeader(), payload_bytes=JUMBO_FRAME_BYTES)
    assert small.fits_in_jumbo_frame()
    assert not huge.fits_in_jumbo_frame()


def test_packet_ids_are_unique():
    ids = {Packet().packet_id for _ in range(100)}
    assert len(ids) == 100


def test_packet_copy_gets_fresh_identity_and_headers():
    packet = Packet(udp=UDPHeader(src_port=1, dst_port=2), payload_bytes=10)
    packet.ip.dst_ip = "10.0.0.9"
    clone = packet.copy()
    assert clone.packet_id != packet.packet_id
    clone.ip.dst_ip = "10.0.0.1"
    clone.udp.dst_port = 99
    assert packet.ip.dst_ip == "10.0.0.9"
    assert packet.udp.dst_port == 2


def test_default_ethernet_header_is_shared_immutable_and_not_aliased_by_copy():
    first, second = Packet(), Packet()
    assert first.eth is second.eth  # one default header, not one per packet
    assert first.eth == EthernetHeader()
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.eth.src_mac = "02:00:00:00:00:01"
    clone = first.copy()
    assert clone.eth == first.eth and clone.eth is not first.eth
    own = EthernetHeader(src_mac="02:00:00:00:00:01")
    assert Packet(eth=own).eth is own


def test_packet_copy_copies_payload_when_supported():
    class Payload:
        def __init__(self):
            self.copied = False

        def copy(self):
            other = Payload()
            other.copied = True
            return other

    packet = Packet(payload=Payload())
    clone = packet.copy()
    assert clone.payload.copied
    assert not packet.payload.copied
