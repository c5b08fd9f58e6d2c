"""QUIC variable-length integers (RFC 9000 section 16).

A varint's two most significant bits encode its total length (1, 2, 4 or 8
bytes); the remaining bits carry the value.  Every length-prefixed field in
the QUIC wire format uses this encoding.
"""

from __future__ import annotations

import re

VARINT_MAX = (1 << 62) - 1

_ONE_BYTE = tuple(bytes([value]) for value in range(1 << 6))
_ZERO_RUN = re.compile(b"\x00*")


class VarintError(ValueError):
    """Raised on out-of-range values or truncated buffers."""


def varint_length(value: int) -> int:
    """Number of bytes needed to encode ``value``."""
    if value < 0 or value > VARINT_MAX:
        raise VarintError(f"varint out of range: {value}")
    if value < 1 << 6:
        return 1
    if value < 1 << 14:
        return 2
    if value < 1 << 30:
        return 4
    return 8


def encode_varint(value: int) -> bytes:
    """Encode ``value`` in the minimal number of bytes."""
    if value < 1 << 6:
        if value >= 0:
            return _ONE_BYTE[value]
    elif value < 1 << 14:
        return (value | 0x4000).to_bytes(2, "big")
    elif value < 1 << 30:
        return (value | 0x8000_0000).to_bytes(4, "big")
    elif value <= VARINT_MAX:
        return (value | 0xC000_0000_0000_0000).to_bytes(8, "big")
    raise VarintError(f"varint out of range: {value}")


def decode_varint(data: bytes | bytearray, offset: int = 0) -> tuple[int, int]:
    """Decode a varint at ``offset``; returns ``(value, next_offset)``."""
    if offset >= len(data):
        raise VarintError("varint truncated: empty buffer")
    first = data[offset]
    if first < 0x40:
        return first, offset + 1
    length = 1 << (first >> 6)
    end = offset + length
    if end > len(data):
        raise VarintError(
            f"varint truncated: need {length} bytes, have {len(data) - offset}"
        )
    value = int.from_bytes(data[offset:end], "big") & ((1 << (8 * length - 2)) - 1)
    return value, end


class Buffer:
    """A tiny cursor-based reader/writer used by the codecs.

    ``Buffer()`` is a writer over a growing ``bytearray``; ``Buffer(data)``
    is a reader that keeps ``data`` as it is (``bytes`` are not copied).
    """

    def __init__(self, data: bytes | None = None) -> None:
        self._data = bytearray() if data is None else bytes(data)
        self._offset = 0

    # -- writing ---------------------------------------------------------
    def push_bytes(self, data: bytes) -> "Buffer":
        self._data.extend(data)
        return self

    def push_uint8(self, value: int) -> "Buffer":
        self._data.append(value & 0xFF)
        return self

    def push_uint(self, value: int, size: int) -> "Buffer":
        self._data.extend(value.to_bytes(size, "big"))
        return self

    def push_varint(self, value: int) -> "Buffer":
        self._data.extend(encode_varint(value))
        return self

    def push_varint_bytes(self, data: bytes) -> "Buffer":
        """Length-prefixed byte string."""
        self.push_varint(len(data))
        self._data.extend(data)
        return self

    # -- reading ---------------------------------------------------------
    def pull_bytes(self, count: int) -> bytes:
        end = self._offset + count
        if end > len(self._data):
            raise VarintError(f"buffer underrun: need {count} bytes")
        chunk = self._data[self._offset : end]
        self._offset = end
        return chunk

    def pull_uint8(self) -> int:
        return self.pull_bytes(1)[0]

    def pull_uint(self, size: int) -> int:
        return int.from_bytes(self.pull_bytes(size), "big")

    def pull_varint(self) -> int:
        value, self._offset = decode_varint(self._data, self._offset)
        return value

    def pull_zeros(self) -> int:
        """Consume the run of zero bytes at the cursor; returns its length."""
        end = _ZERO_RUN.match(self._data, self._offset).end()
        count, self._offset = end - self._offset, end
        return count

    def pull_varint_bytes(self) -> bytes:
        return self.pull_bytes(self.pull_varint())

    # -- state -----------------------------------------------------------
    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset

    @property
    def eof(self) -> bool:
        return self._offset >= len(self._data)

    def getvalue(self) -> bytes:
        return bytes(self._data)
