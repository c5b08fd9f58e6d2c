"""QUIC packet headers: encoding and decoding (RFC 9000 section 17).

Long headers (Initial, Handshake, 0-RTT, Retry) carry version and both
connection ids; short headers (1-RTT) carry only the destination id.
Version Negotiation and Stateless Reset are special datagram formats.

Packet numbers are carried as fixed 4-byte fields (a legal choice in QUIC;
full packet-number encoding/decoding truncation is an authenticity detail
irrelevant to the learning pipeline, and a constant length keeps decode
unambiguous for every implementation in the simulation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .crypto import TAG_LENGTH, retry_integrity_tag
from .varint import Buffer, VarintError

QUIC_VERSION = 0x00000001
HEADER_FORM_LONG = 0x80
FIXED_BIT = 0x40
PN_LENGTH = 4


class PacketType(enum.Enum):
    INITIAL = "INITIAL"
    ZERO_RTT = "ZERO_RTT"
    HANDSHAKE = "HANDSHAKE"
    RETRY = "RETRY"
    SHORT = "SHORT"
    VERSION_NEGOTIATION = "VERSION_NEGOTIATION"
    STATELESS_RESET = "STATELESS_RESET"


_LONG_TYPE_BITS = {
    PacketType.INITIAL: 0x00,
    PacketType.ZERO_RTT: 0x01,
    PacketType.HANDSHAKE: 0x02,
    PacketType.RETRY: 0x03,
}
_LONG_TYPE_FROM_BITS = {bits: ptype for ptype, bits in _LONG_TYPE_BITS.items()}
#: The packet-type name bound into the AEAD associated data.
_AEAD_TYPE_BYTES = {ptype: ptype.value.encode() for ptype in PacketType}


class PacketError(ValueError):
    """Raised on malformed packet headers."""


@dataclass(frozen=True)
class PacketHeader:
    """A parsed (or to-be-encoded) packet header plus protected payload.

    For RETRY packets ``payload`` is the retry token and ``packet_number``
    is meaningless; for STATELESS_RESET ``payload`` is the reset token.
    """

    packet_type: PacketType
    destination_cid: bytes
    source_cid: bytes = b""
    packet_number: int = 0
    token: bytes = b""
    payload: bytes = b""
    version: int = QUIC_VERSION

    def describe(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{self.packet_type.value}(pn={self.packet_number}, "
            f"dcid={self.destination_cid.hex()}, payload={len(self.payload)}B)"
        )


def encode_packet(header: PacketHeader) -> bytes:
    """Serialize a packet (payload is assumed already sealed)."""
    ptype = header.packet_type
    if ptype is PacketType.SHORT:
        buf = Buffer()
        buf.push_uint8(FIXED_BIT | (PN_LENGTH - 1))
        buf.push_bytes(header.destination_cid)
        buf.push_uint(header.packet_number, PN_LENGTH)
        buf.push_bytes(header.payload)
        return buf.getvalue()
    if ptype is PacketType.STATELESS_RESET:
        # Unpredictable bits followed by the 16-byte reset token.
        buf = Buffer()
        buf.push_uint8(FIXED_BIT | 0x20)
        buf.push_bytes(b"\xaa" * 20)
        buf.push_bytes(header.payload[-TAG_LENGTH:])
        return buf.getvalue()
    if ptype is PacketType.VERSION_NEGOTIATION:
        buf = Buffer()
        buf.push_uint8(HEADER_FORM_LONG)
        buf.push_uint(0, 4)
        buf.push_uint8(len(header.destination_cid))
        buf.push_bytes(header.destination_cid)
        buf.push_uint8(len(header.source_cid))
        buf.push_bytes(header.source_cid)
        buf.push_bytes(header.payload)  # list of supported versions
        return buf.getvalue()

    first = HEADER_FORM_LONG | FIXED_BIT | (_LONG_TYPE_BITS[ptype] << 4)
    buf = Buffer()
    if ptype is PacketType.RETRY:
        buf.push_uint8(first)
        buf.push_uint(header.version, 4)
        buf.push_uint8(len(header.destination_cid))
        buf.push_bytes(header.destination_cid)
        buf.push_uint8(len(header.source_cid))
        buf.push_bytes(header.source_cid)
        buf.push_bytes(header.token)
        pseudo = buf.getvalue()
        tag = retry_integrity_tag(header.destination_cid, pseudo)
        return pseudo + tag

    buf.push_uint8(first | (PN_LENGTH - 1))
    buf.push_uint(header.version, 4)
    buf.push_uint8(len(header.destination_cid))
    buf.push_bytes(header.destination_cid)
    buf.push_uint8(len(header.source_cid))
    buf.push_bytes(header.source_cid)
    if ptype is PacketType.INITIAL:
        buf.push_varint_bytes(header.token)
    buf.push_varint(PN_LENGTH + len(header.payload))
    buf.push_uint(header.packet_number, PN_LENGTH)
    buf.push_bytes(header.payload)
    return buf.getvalue()


def decode_packet(data: bytes, short_cid_length: int = 8) -> PacketHeader:
    """Parse one packet from ``data`` (which must contain exactly one).

    ``short_cid_length`` tells the parser how long the destination id of a
    short-header packet is (QUIC short headers do not self-describe this).
    Every malformed or truncated input raises :class:`PacketError`.
    """
    if not data:
        raise PacketError("empty datagram")
    try:
        return _parse_packet(data, short_cid_length)
    except VarintError as exc:
        raise PacketError(f"truncated packet: {exc}") from exc


def _parse_packet(data: bytes, short_cid_length: int) -> PacketHeader:
    buf = Buffer(data)
    first = buf.pull_uint8()
    if not first & HEADER_FORM_LONG:
        if first & 0x20 and not first & 0x80:
            # Heuristic stateless-reset detection: our simulation marks
            # reset datagrams with bit 0x20 and 20 bytes of filler.
            if len(data) >= 21 + TAG_LENGTH:
                return PacketHeader(
                    packet_type=PacketType.STATELESS_RESET,
                    destination_cid=b"",
                    payload=data[-TAG_LENGTH:],
                )
        dcid = buf.pull_bytes(short_cid_length)
        packet_number = buf.pull_uint(PN_LENGTH)
        return PacketHeader(
            packet_type=PacketType.SHORT,
            destination_cid=dcid,
            packet_number=packet_number,
            payload=buf.pull_bytes(buf.remaining),
        )

    version = buf.pull_uint(4)
    dcid = buf.pull_bytes(buf.pull_uint8())
    scid = buf.pull_bytes(buf.pull_uint8())
    if version == 0:
        return PacketHeader(
            packet_type=PacketType.VERSION_NEGOTIATION,
            destination_cid=dcid,
            source_cid=scid,
            version=0,
            payload=buf.pull_bytes(buf.remaining),
        )
    ptype = _LONG_TYPE_FROM_BITS[(first >> 4) & 0x03]
    if ptype is PacketType.RETRY:
        rest = buf.pull_bytes(buf.remaining)
        if len(rest) < TAG_LENGTH:
            raise PacketError("retry packet too short for integrity tag")
        token, tag = rest[:-TAG_LENGTH], rest[-TAG_LENGTH:]
        return PacketHeader(
            packet_type=PacketType.RETRY,
            destination_cid=dcid,
            source_cid=scid,
            token=token,
            payload=tag,
            version=version,
        )
    token = b""
    if ptype is PacketType.INITIAL:
        token = buf.pull_varint_bytes()
    length = buf.pull_varint()
    if length < PN_LENGTH or length > buf.remaining:
        raise PacketError(f"bad packet length: {length}")
    packet_number = buf.pull_uint(PN_LENGTH)
    payload = buf.pull_bytes(length - PN_LENGTH)
    return PacketHeader(
        packet_type=ptype,
        destination_cid=dcid,
        source_cid=scid,
        packet_number=packet_number,
        token=token,
        payload=payload,
        version=version,
    )


def header_bytes_for_aead(header: PacketHeader) -> bytes:
    """The associated data bound into packet protection.

    Binding type, connection ids and packet number is enough to detect
    header tampering in the simulation.
    """
    return b"|".join(
        (
            _AEAD_TYPE_BYTES[header.packet_type],
            header.destination_cid,
            header.source_cid,
            header.packet_number.to_bytes(8, "big"),
        )
    )
