"""Differential tests: the QUIC crypto and varint fast paths against
reference copies of the straightforward implementations they replaced.

The references below are deliberately the plain versions: a fresh
``hmac.new`` object per keystream block and tag, per-byte XOR, a
length-table varint codec and a ``Buffer`` that copies its input into a
``bytearray``.  The fast paths must agree with them byte for byte, and
must raise the same exception type on out-of-range or truncated input.
"""

from __future__ import annotations

import copy
import hashlib
import hmac
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.quic.crypto import (
    TAG_LENGTH,
    CryptoError,
    DirectionalKey,
    hkdf_expand_label,
)
from repro.quic.varint import (
    VARINT_MAX,
    Buffer,
    VarintError,
    decode_varint,
    encode_varint,
)

# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def ref_hkdf_expand_label(secret: bytes, label: bytes, length: int = 32) -> bytes:
    output = b""
    block = b""
    counter = 1
    while len(output) < length:
        block = hmac.new(
            secret, block + label + bytes([counter]), hashlib.sha256
        ).digest()
        output += block
        counter += 1
    return output[:length]


def ref_seal(key: bytes, packet_number: int, header: bytes, plaintext: bytes) -> bytes:
    nonce = packet_number.to_bytes(8, "big")
    stream = ref_hkdf_expand_label(key, b"ks" + nonce, len(plaintext))
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    tag = hmac.new(
        key, b"tag" + nonce + header + ciphertext, hashlib.sha256
    ).digest()[:TAG_LENGTH]
    return ciphertext + tag


def ref_open(key: bytes, packet_number: int, header: bytes, sealed: bytes) -> bytes:
    if len(sealed) < TAG_LENGTH:
        raise CryptoError("sealed payload shorter than tag")
    ciphertext, tag = sealed[:-TAG_LENGTH], sealed[-TAG_LENGTH:]
    nonce = packet_number.to_bytes(8, "big")
    expected = hmac.new(
        key, b"tag" + nonce + header + ciphertext, hashlib.sha256
    ).digest()[:TAG_LENGTH]
    if not hmac.compare_digest(tag, expected):
        raise CryptoError("authentication failed")
    stream = ref_hkdf_expand_label(key, b"ks" + nonce, len(ciphertext))
    return bytes(c ^ s for c, s in zip(ciphertext, stream))


_PREFIX_FOR_LENGTH = {1: 0x00, 2: 0x40, 4: 0x80, 8: 0xC0}
_LENGTH_FOR_PREFIX = {0x00: 1, 0x40: 2, 0x80: 4, 0xC0: 8}


def ref_encode_varint(value: int) -> bytes:
    if value < 0 or value > VARINT_MAX:
        raise VarintError(f"varint out of range: {value}")
    length = 1 if value < 1 << 6 else 2 if value < 1 << 14 else 4 if value < 1 << 30 else 8
    encoded = value.to_bytes(length, "big")
    return bytes([encoded[0] | _PREFIX_FOR_LENGTH[length]]) + encoded[1:]


def ref_decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    if offset >= len(data):
        raise VarintError("varint truncated: empty buffer")
    length = _LENGTH_FOR_PREFIX[data[offset] & 0xC0]
    end = offset + length
    if end > len(data):
        raise VarintError("varint truncated")
    value = int.from_bytes(data[offset:end], "big") & ~(0xC0 << (8 * (length - 1)))
    return value, end


class RefBuffer:
    """The reader half of the original ``Buffer``: copies into a bytearray."""

    def __init__(self, data: bytes) -> None:
        self._data = bytearray(data)
        self._offset = 0

    def pull_bytes(self, count: int) -> bytes:
        end = self._offset + count
        if end > len(self._data):
            raise VarintError(f"buffer underrun: need {count} bytes")
        chunk = bytes(self._data[self._offset : end])
        self._offset = end
        return chunk

    def pull_uint8(self) -> int:
        return self.pull_bytes(1)[0]

    def pull_uint(self, size: int) -> int:
        return int.from_bytes(self.pull_bytes(size), "big")

    def pull_varint(self) -> int:
        value, self._offset = ref_decode_varint(self._data, self._offset)
        return value

    def pull_zeros(self) -> int:
        end = re.compile(b"\x00*").match(self._data, self._offset).end()
        count, self._offset = end - self._offset, end
        return count

    def pull_varint_bytes(self) -> bytes:
        return self.pull_bytes(self.pull_varint())

    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset

    @property
    def eof(self) -> bool:
        return self._offset >= len(self._data)


def outcome(call, *args):
    """``("ok", result)`` or ``("raise", exception type)``."""
    try:
        return "ok", call(*args)
    except Exception as exc:  # the differential compares exception types
        return "raise", type(exc)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

KEY_LENGTHS = (1, 32, 64, 65, 100)
keys = st.sampled_from(KEY_LENGTHS).flatmap(
    lambda n: st.binary(min_size=n, max_size=n)
)
# Lengths cluster on the 32-byte keystream block edges.
lengths = st.one_of(
    st.integers(0, 400),
    st.sampled_from((0, 1, 31, 32, 33, 63, 64, 65, 95, 96, 97, 399, 400)),
)
payloads = lengths.flatmap(lambda n: st.binary(min_size=n, max_size=n))
packet_numbers = st.integers(0, (1 << 32) - 1)
headers = st.binary(max_size=48)

VARINT_EDGES = (0, 63, 64, 16383, 16384, (1 << 30) - 1, 1 << 30, VARINT_MAX)
varint_values = st.one_of(
    st.sampled_from(VARINT_EDGES).flatmap(lambda e: st.integers(e - 2, e + 2)),
    st.integers(-(1 << 64), 1 << 64),
)


# ---------------------------------------------------------------------------
# Crypto
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(key=keys, label=st.binary(max_size=40), length=lengths)
def test_hkdf_expand_label_matches_reference(key, label, length):
    assert hkdf_expand_label(key, label, length) == ref_hkdf_expand_label(
        key, label, length
    )


@settings(max_examples=200, deadline=None)
@given(key=keys, pn=packet_numbers, header=headers, plaintext=payloads)
def test_seal_and_open_match_reference(key, pn, header, plaintext):
    fast = DirectionalKey(key, "test")
    sealed = fast.seal(pn, header, plaintext)
    assert sealed == ref_seal(key, pn, header, plaintext)
    assert fast.open(pn, header, sealed) == ref_open(key, pn, header, sealed)
    assert fast.open(pn, header, sealed) == plaintext


@settings(max_examples=200, deadline=None)
@given(
    key=keys,
    pn=packet_numbers,
    header=headers,
    sealed=st.one_of(st.binary(max_size=TAG_LENGTH + 2), st.binary(max_size=200)),
)
def test_open_rejects_like_reference(key, pn, header, sealed):
    fast = DirectionalKey(key, "test")
    assert outcome(fast.open, pn, header, sealed) == outcome(
        ref_open, key, pn, header, sealed
    )


@settings(max_examples=100, deadline=None)
@given(key=keys, pn=packet_numbers, header=headers, plaintext=payloads,
       flip=st.integers(0, 10_000))
def test_tampered_packets_fail_like_reference(key, pn, header, plaintext, flip):
    fast = DirectionalKey(key, "test")
    sealed = bytearray(fast.seal(pn, header, plaintext))
    sealed[flip % len(sealed)] ^= 0x01
    tampered = bytes(sealed)
    assert outcome(fast.open, pn, header, tampered) == ("raise", CryptoError)
    assert outcome(ref_open, key, pn, header, tampered) == ("raise", CryptoError)


def test_directional_key_identity_ignores_cached_state():
    used = DirectionalKey(b"k" * 32, "level/client")
    fresh = DirectionalKey(b"k" * 32, "level/client")
    sealed = used.seal(7, b"hdr", b"payload")  # computes the cached pads
    assert used == fresh and hash(used) == hash(fresh)
    assert DirectionalKey(b"k" * 32, "other") != used
    for clone in (pickle.loads(pickle.dumps(used)), copy.deepcopy(used)):
        assert clone == used
        assert clone.seal(7, b"hdr", b"payload") == sealed


# ---------------------------------------------------------------------------
# Varints and Buffer reads
# ---------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(value=varint_values)
def test_encode_varint_matches_reference(value):
    assert outcome(encode_varint, value) == outcome(ref_encode_varint, value)


@settings(max_examples=400, deadline=None)
@given(data=st.binary(max_size=12), offset=st.integers(0, 13))
def test_decode_varint_matches_reference(data, offset):
    assert outcome(decode_varint, data, offset) == outcome(
        ref_decode_varint, data, offset
    )


@settings(max_examples=200, deadline=None)
@given(value=st.sampled_from(VARINT_EDGES).flatmap(
    lambda e: st.integers(max(0, e - 2), min(VARINT_MAX, e + 2))
), cut=st.integers(0, 8))
def test_truncated_varints_fail_like_reference(value, cut):
    encoded = ref_encode_varint(value)
    truncated = encoded[: min(cut, len(encoded))]
    assert outcome(decode_varint, truncated) == outcome(ref_decode_varint, truncated)


READS = st.lists(
    st.one_of(
        st.tuples(st.just("pull_bytes"), st.integers(0, 12)),
        st.tuples(st.just("pull_uint8")),
        st.tuples(st.just("pull_uint"), st.sampled_from((1, 2, 4, 8))),
        st.tuples(st.just("pull_varint")),
        st.tuples(st.just("pull_varint_bytes")),
        st.tuples(st.just("pull_zeros")),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=40), reads=READS)
def test_buffer_reads_match_reference(data, reads):
    fast, ref = Buffer(data), RefBuffer(data)
    for name, *args in reads:
        got = outcome(getattr(fast, name), *args)
        assert got == outcome(getattr(ref, name), *args)
        if got[0] == "ok" and isinstance(got[1], bytes | bytearray):
            assert type(got[1]) is bytes
        assert (fast.remaining, fast.eof) == (ref.remaining, ref.eof)


@pytest.mark.parametrize("value", VARINT_EDGES)
def test_buffer_writes_round_trip_at_edges(value):
    writer = Buffer()
    writer.push_varint(value).push_varint_bytes(encode_varint(value))
    reader = Buffer(writer.getvalue())
    assert reader.pull_varint() == value
    assert reader.pull_varint_bytes() == ref_encode_varint(value)
    assert reader.eof
