"""QUIC frames: all 20 frame types of RFC 9000 section 12.4.

Each frame is a frozen dataclass with ``encode`` and a registered decoder;
:func:`decode_frames` parses a packet payload into a frame list and
:func:`encode_frames` is its inverse.  Frame type names match the abstract
alphabet of :mod:`repro.core.alphabet` (``frame.kind`` is the name the
adapter uses when abstracting packets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

from .varint import Buffer, VarintError

FRAME_PADDING = 0x00
FRAME_PING = 0x01
FRAME_ACK = 0x02
FRAME_ACK_ECN = 0x03
FRAME_RESET_STREAM = 0x04
FRAME_STOP_SENDING = 0x05
FRAME_CRYPTO = 0x06
FRAME_NEW_TOKEN = 0x07
FRAME_STREAM_BASE = 0x08  # 0x08..0x0f with OFF/LEN/FIN bits
FRAME_MAX_DATA = 0x10
FRAME_MAX_STREAM_DATA = 0x11
FRAME_MAX_STREAMS_BIDI = 0x12
FRAME_MAX_STREAMS_UNI = 0x13
FRAME_DATA_BLOCKED = 0x14
FRAME_STREAM_DATA_BLOCKED = 0x15
FRAME_STREAMS_BLOCKED_BIDI = 0x16
FRAME_STREAMS_BLOCKED_UNI = 0x17
FRAME_NEW_CONNECTION_ID = 0x18
FRAME_RETIRE_CONNECTION_ID = 0x19
FRAME_PATH_CHALLENGE = 0x1A
FRAME_PATH_RESPONSE = 0x1B
FRAME_CONNECTION_CLOSE_TRANSPORT = 0x1C
FRAME_CONNECTION_CLOSE_APP = 0x1D
FRAME_HANDSHAKE_DONE = 0x1E


class FrameError(ValueError):
    """Raised on malformed frame encodings."""


@dataclass(frozen=True)
class Frame:
    """Base class; ``kind`` is the abstract frame-type name."""

    kind: ClassVar[str] = "FRAME"

    def encode(self, buf: Buffer) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class PaddingFrame(Frame):
    kind: ClassVar[str] = "PADDING"
    length: int = 1

    def encode(self, buf: Buffer) -> None:
        buf.push_bytes(b"\x00" * self.length)


@dataclass(frozen=True)
class PingFrame(Frame):
    kind: ClassVar[str] = "PING"

    def encode(self, buf: Buffer) -> None:
        buf.push_uint8(FRAME_PING)


@dataclass(frozen=True)
class AckRange:
    """A closed range ``[smallest, largest]`` of acknowledged numbers."""

    smallest: int
    largest: int

    def __post_init__(self) -> None:
        if self.smallest > self.largest or self.smallest < 0:
            raise FrameError(f"bad ack range: [{self.smallest}, {self.largest}]")


@dataclass(frozen=True)
class AckFrame(Frame):
    kind: ClassVar[str] = "ACK"
    largest_acknowledged: int = 0
    ack_delay: int = 0
    ranges: tuple[AckRange, ...] = ()

    def encode(self, buf: Buffer) -> None:
        if not self.ranges:
            raise FrameError("ACK frame needs at least one range")
        ordered = sorted(self.ranges, key=lambda r: -r.largest)
        first = ordered[0]
        if first.largest != self.largest_acknowledged:
            raise FrameError("largest_acknowledged must match first range")
        buf.push_uint8(FRAME_ACK)
        buf.push_varint(self.largest_acknowledged)
        buf.push_varint(self.ack_delay)
        buf.push_varint(len(ordered) - 1)
        buf.push_varint(first.largest - first.smallest)
        previous_smallest = first.smallest
        for ack_range in ordered[1:]:
            gap = previous_smallest - ack_range.largest - 2
            if gap < 0:
                raise FrameError("ack ranges overlap or touch")
            buf.push_varint(gap)
            buf.push_varint(ack_range.largest - ack_range.smallest)
            previous_smallest = ack_range.smallest

    @classmethod
    def decode(cls, buf: Buffer, frame_type: int) -> "AckFrame":
        largest = buf.pull_varint()
        delay = buf.pull_varint()
        range_count = buf.pull_varint()
        first_span = buf.pull_varint()
        ranges = [AckRange(largest - first_span, largest)]
        smallest = largest - first_span
        for _ in range(range_count):
            gap = buf.pull_varint()
            span = buf.pull_varint()
            next_largest = smallest - gap - 2
            ranges.append(AckRange(next_largest - span, next_largest))
            smallest = next_largest - span
        if frame_type == FRAME_ACK_ECN:
            buf.pull_varint(), buf.pull_varint(), buf.pull_varint()
        return cls(largest_acknowledged=largest, ack_delay=delay, ranges=tuple(ranges))

    def acknowledges(self, packet_number: int) -> bool:
        return any(r.smallest <= packet_number <= r.largest for r in self.ranges)


@dataclass(frozen=True)
class ResetStreamFrame(Frame):
    kind: ClassVar[str] = "RESET_STREAM"
    stream_id: int = 0
    error_code: int = 0
    final_size: int = 0

    def encode(self, buf: Buffer) -> None:
        buf.push_uint8(FRAME_RESET_STREAM)
        buf.push_varint(self.stream_id)
        buf.push_varint(self.error_code)
        buf.push_varint(self.final_size)


@dataclass(frozen=True)
class StopSendingFrame(Frame):
    kind: ClassVar[str] = "STOP_SENDING"
    stream_id: int = 0
    error_code: int = 0

    def encode(self, buf: Buffer) -> None:
        buf.push_uint8(FRAME_STOP_SENDING)
        buf.push_varint(self.stream_id)
        buf.push_varint(self.error_code)


@dataclass(frozen=True)
class CryptoFrame(Frame):
    kind: ClassVar[str] = "CRYPTO"
    offset: int = 0
    data: bytes = b""

    def encode(self, buf: Buffer) -> None:
        buf.push_uint8(FRAME_CRYPTO)
        buf.push_varint(self.offset)
        buf.push_varint_bytes(self.data)


@dataclass(frozen=True)
class NewTokenFrame(Frame):
    kind: ClassVar[str] = "NEW_TOKEN"
    token: bytes = b""

    def encode(self, buf: Buffer) -> None:
        if not self.token:
            raise FrameError("NEW_TOKEN frame must carry a token")
        buf.push_uint8(FRAME_NEW_TOKEN)
        buf.push_varint_bytes(self.token)


@dataclass(frozen=True)
class StreamFrame(Frame):
    kind: ClassVar[str] = "STREAM"
    stream_id: int = 0
    offset: int = 0
    data: bytes = b""
    fin: bool = False

    def encode(self, buf: Buffer) -> None:
        frame_type = FRAME_STREAM_BASE | 0x02  # LEN always present
        if self.offset:
            frame_type |= 0x04
        if self.fin:
            frame_type |= 0x01
        buf.push_uint8(frame_type)
        buf.push_varint(self.stream_id)
        if self.offset:
            buf.push_varint(self.offset)
        buf.push_varint_bytes(self.data)

    @classmethod
    def decode(cls, buf: Buffer, frame_type: int) -> "StreamFrame":
        stream_id = buf.pull_varint()
        offset = buf.pull_varint() if frame_type & 0x04 else 0
        if frame_type & 0x02:
            data = buf.pull_varint_bytes()
        else:
            data = buf.pull_bytes(buf.remaining)
        return cls(
            stream_id=stream_id, offset=offset, data=data, fin=bool(frame_type & 0x01)
        )

    @property
    def end_offset(self) -> int:
        return self.offset + len(self.data)


@dataclass(frozen=True)
class MaxDataFrame(Frame):
    kind: ClassVar[str] = "MAX_DATA"
    maximum_data: int = 0

    def encode(self, buf: Buffer) -> None:
        buf.push_uint8(FRAME_MAX_DATA)
        buf.push_varint(self.maximum_data)


@dataclass(frozen=True)
class MaxStreamDataFrame(Frame):
    kind: ClassVar[str] = "MAX_STREAM_DATA"
    stream_id: int = 0
    maximum_stream_data: int = 0

    def encode(self, buf: Buffer) -> None:
        buf.push_uint8(FRAME_MAX_STREAM_DATA)
        buf.push_varint(self.stream_id)
        buf.push_varint(self.maximum_stream_data)


@dataclass(frozen=True)
class MaxStreamsFrame(Frame):
    kind: ClassVar[str] = "MAX_STREAMS"
    maximum_streams: int = 0
    bidirectional: bool = True

    def encode(self, buf: Buffer) -> None:
        buf.push_uint8(
            FRAME_MAX_STREAMS_BIDI if self.bidirectional else FRAME_MAX_STREAMS_UNI
        )
        buf.push_varint(self.maximum_streams)


@dataclass(frozen=True)
class DataBlockedFrame(Frame):
    kind: ClassVar[str] = "DATA_BLOCKED"
    limit: int = 0

    def encode(self, buf: Buffer) -> None:
        buf.push_uint8(FRAME_DATA_BLOCKED)
        buf.push_varint(self.limit)


@dataclass(frozen=True)
class StreamDataBlockedFrame(Frame):
    """The frame at the heart of Issue 4 (section 6.2.6).

    ``maximum_stream_data`` indicates the offset at which the sender got
    blocked; Google's implementation left a development placeholder of 0
    here, which Prognosis detected by synthesizing a register model.
    """

    kind: ClassVar[str] = "STREAM_DATA_BLOCKED"
    stream_id: int = 0
    maximum_stream_data: int = 0

    def encode(self, buf: Buffer) -> None:
        buf.push_uint8(FRAME_STREAM_DATA_BLOCKED)
        buf.push_varint(self.stream_id)
        buf.push_varint(self.maximum_stream_data)


@dataclass(frozen=True)
class StreamsBlockedFrame(Frame):
    kind: ClassVar[str] = "STREAMS_BLOCKED"
    limit: int = 0
    bidirectional: bool = True

    def encode(self, buf: Buffer) -> None:
        buf.push_uint8(
            FRAME_STREAMS_BLOCKED_BIDI
            if self.bidirectional
            else FRAME_STREAMS_BLOCKED_UNI
        )
        buf.push_varint(self.limit)


@dataclass(frozen=True)
class NewConnectionIdFrame(Frame):
    kind: ClassVar[str] = "NEW_CONNECTION_ID"
    sequence_number: int = 0
    retire_prior_to: int = 0
    connection_id: bytes = b""
    stateless_reset_token: bytes = b"\x00" * 16

    def encode(self, buf: Buffer) -> None:
        if not 1 <= len(self.connection_id) <= 20:
            raise FrameError("connection id must be 1..20 bytes")
        if len(self.stateless_reset_token) != 16:
            raise FrameError("stateless reset token must be 16 bytes")
        buf.push_uint8(FRAME_NEW_CONNECTION_ID)
        buf.push_varint(self.sequence_number)
        buf.push_varint(self.retire_prior_to)
        buf.push_uint8(len(self.connection_id))
        buf.push_bytes(self.connection_id)
        buf.push_bytes(self.stateless_reset_token)


@dataclass(frozen=True)
class RetireConnectionIdFrame(Frame):
    kind: ClassVar[str] = "RETIRE_CONNECTION_ID"
    sequence_number: int = 0

    def encode(self, buf: Buffer) -> None:
        buf.push_uint8(FRAME_RETIRE_CONNECTION_ID)
        buf.push_varint(self.sequence_number)


@dataclass(frozen=True)
class PathChallengeFrame(Frame):
    kind: ClassVar[str] = "PATH_CHALLENGE"
    data: bytes = b"\x00" * 8

    def encode(self, buf: Buffer) -> None:
        if len(self.data) != 8:
            raise FrameError("path challenge data must be 8 bytes")
        buf.push_uint8(FRAME_PATH_CHALLENGE)
        buf.push_bytes(self.data)


@dataclass(frozen=True)
class PathResponseFrame(Frame):
    kind: ClassVar[str] = "PATH_RESPONSE"
    data: bytes = b"\x00" * 8

    def encode(self, buf: Buffer) -> None:
        if len(self.data) != 8:
            raise FrameError("path response data must be 8 bytes")
        buf.push_uint8(FRAME_PATH_RESPONSE)
        buf.push_bytes(self.data)


@dataclass(frozen=True)
class ConnectionCloseFrame(Frame):
    kind: ClassVar[str] = "CONNECTION_CLOSE"
    error_code: int = 0
    frame_type: int = 0
    reason: bytes = b""
    application_close: bool = False

    def encode(self, buf: Buffer) -> None:
        if self.application_close:
            buf.push_uint8(FRAME_CONNECTION_CLOSE_APP)
            buf.push_varint(self.error_code)
        else:
            buf.push_uint8(FRAME_CONNECTION_CLOSE_TRANSPORT)
            buf.push_varint(self.error_code)
            buf.push_varint(self.frame_type)
        buf.push_varint_bytes(self.reason)


@dataclass(frozen=True)
class HandshakeDoneFrame(Frame):
    kind: ClassVar[str] = "HANDSHAKE_DONE"

    def encode(self, buf: Buffer) -> None:
        buf.push_uint8(FRAME_HANDSHAKE_DONE)


# QUIC error codes used by the implementations (RFC 9000 section 20.1).
ERROR_NO_ERROR = 0x00
ERROR_PROTOCOL_VIOLATION = 0x0A
ERROR_FLOW_CONTROL = 0x03


def encode_frames(frames: Sequence[Frame]) -> bytes:
    """Serialize a frame sequence into a packet payload."""
    buf = Buffer()
    for frame in frames:
        frame.encode(buf)
    return buf.getvalue()


def decode_frames(payload: bytes) -> list[Frame]:
    """Parse a packet payload into frames; raises FrameError if malformed."""
    buf = Buffer(payload)
    frames: list[Frame] = []
    try:
        while not buf.eof:
            frame_type = buf.pull_uint8()
            frames.append(_decode_one(buf, frame_type))
    except VarintError as exc:
        raise FrameError(f"truncated frame: {exc}") from exc
    return frames


def _decode_one(buf: Buffer, frame_type: int) -> Frame:
    if frame_type == FRAME_PADDING:
        return PaddingFrame(length=1 + buf.pull_zeros())
    if frame_type == FRAME_PING:
        return PingFrame()
    if frame_type in (FRAME_ACK, FRAME_ACK_ECN):
        return AckFrame.decode(buf, frame_type)
    if frame_type == FRAME_RESET_STREAM:
        return ResetStreamFrame(
            stream_id=buf.pull_varint(),
            error_code=buf.pull_varint(),
            final_size=buf.pull_varint(),
        )
    if frame_type == FRAME_STOP_SENDING:
        return StopSendingFrame(
            stream_id=buf.pull_varint(), error_code=buf.pull_varint()
        )
    if frame_type == FRAME_CRYPTO:
        offset = buf.pull_varint()
        return CryptoFrame(offset=offset, data=buf.pull_varint_bytes())
    if frame_type == FRAME_NEW_TOKEN:
        return NewTokenFrame(token=buf.pull_varint_bytes())
    if FRAME_STREAM_BASE <= frame_type <= FRAME_STREAM_BASE | 0x07:
        return StreamFrame.decode(buf, frame_type)
    if frame_type == FRAME_MAX_DATA:
        return MaxDataFrame(maximum_data=buf.pull_varint())
    if frame_type == FRAME_MAX_STREAM_DATA:
        return MaxStreamDataFrame(
            stream_id=buf.pull_varint(), maximum_stream_data=buf.pull_varint()
        )
    if frame_type in (FRAME_MAX_STREAMS_BIDI, FRAME_MAX_STREAMS_UNI):
        return MaxStreamsFrame(
            maximum_streams=buf.pull_varint(),
            bidirectional=frame_type == FRAME_MAX_STREAMS_BIDI,
        )
    if frame_type == FRAME_DATA_BLOCKED:
        return DataBlockedFrame(limit=buf.pull_varint())
    if frame_type == FRAME_STREAM_DATA_BLOCKED:
        return StreamDataBlockedFrame(
            stream_id=buf.pull_varint(), maximum_stream_data=buf.pull_varint()
        )
    if frame_type in (FRAME_STREAMS_BLOCKED_BIDI, FRAME_STREAMS_BLOCKED_UNI):
        return StreamsBlockedFrame(
            limit=buf.pull_varint(),
            bidirectional=frame_type == FRAME_STREAMS_BLOCKED_BIDI,
        )
    if frame_type == FRAME_NEW_CONNECTION_ID:
        sequence = buf.pull_varint()
        retire = buf.pull_varint()
        cid_len = buf.pull_uint8()
        cid = buf.pull_bytes(cid_len)
        token = buf.pull_bytes(16)
        return NewConnectionIdFrame(
            sequence_number=sequence,
            retire_prior_to=retire,
            connection_id=cid,
            stateless_reset_token=token,
        )
    if frame_type == FRAME_RETIRE_CONNECTION_ID:
        return RetireConnectionIdFrame(sequence_number=buf.pull_varint())
    if frame_type == FRAME_PATH_CHALLENGE:
        return PathChallengeFrame(data=buf.pull_bytes(8))
    if frame_type == FRAME_PATH_RESPONSE:
        return PathResponseFrame(data=buf.pull_bytes(8))
    if frame_type in (FRAME_CONNECTION_CLOSE_TRANSPORT, FRAME_CONNECTION_CLOSE_APP):
        error_code = buf.pull_varint()
        if frame_type == FRAME_CONNECTION_CLOSE_TRANSPORT:
            offending = buf.pull_varint()
        else:
            offending = 0
        return ConnectionCloseFrame(
            error_code=error_code,
            frame_type=offending,
            reason=buf.pull_varint_bytes(),
            application_close=frame_type == FRAME_CONNECTION_CLOSE_APP,
        )
    if frame_type == FRAME_HANDSHAKE_DONE:
        return HandshakeDoneFrame()
    raise FrameError(f"unknown frame type: {frame_type:#04x}")


def frame_kinds(frames: Sequence[Frame]) -> tuple[str, ...]:
    """Sorted unique frame-kind names -- the abstraction the adapter uses."""
    return tuple(sorted({frame.kind for frame in frames}))
