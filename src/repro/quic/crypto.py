"""Simulated QUIC-TLS key schedule and packet protection.

The real QUIC handshake derives per-level secrets through TLS 1.3 and
protects packets with AEAD ciphers.  Reproducing actual TLS is out of scope
(and irrelevant to the closed-box learning pipeline), so this module
implements a *shape-faithful* substitute built on HMAC-SHA256:

* Initial secrets are derived from the client's destination connection id
  with a fixed salt -- exactly like RFC 9001, so any party observing the
  first datagram can decrypt Initial packets and nothing else.
* Handshake and application secrets mix the client and server randoms
  exchanged in the simulated ClientHello/ServerHello, so a party must
  process the CRYPTO stream to obtain them.
* Packet protection is an authenticated stream cipher: an HMAC-derived
  keystream XOR plus a 16-byte HMAC tag over header and ciphertext.
  Tampering or a wrong key fails authentication, which the servers treat as
  an undecryptable packet (silently dropped), mirroring real QUIC.

Each :class:`DirectionalKey` holds its own HMAC state: the SHA-256 inner
and outer pad states are hashed once, on the key's first seal or open, and
cached on the instance.  Every keystream block and tag then costs two
``hash.copy()`` calls instead of a fresh HMAC object.  Many derived keys
never protect a packet, so the pads are computed lazily, not when the key
is built.  Key derivation (:func:`hkdf_expand_label`) uses one-shot
:func:`hmac.digest`.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import cached_property

INITIAL_SALT = b"prognosis-repro-initial-salt-v1"
TAG_LENGTH = 16
RANDOM_LENGTH = 32

_HMAC_BLOCK = 64  # SHA-256 block size
_INNER_PAD = bytes(b ^ 0x36 for b in range(256))
_OUTER_PAD = bytes(b ^ 0x5C for b in range(256))


class CryptoError(Exception):
    """Raised when packet protection fails to authenticate."""


def hkdf_extract(salt: bytes, input_key_material: bytes) -> bytes:
    return hmac.digest(salt, input_key_material, "sha256")


def hkdf_expand_label(secret: bytes, label: bytes, length: int = 32) -> bytes:
    """Simplified HKDF-Expand-Label: iterated HMAC blocks."""
    output = b""
    block = b""
    counter = 1
    while len(output) < length:
        block = hmac.digest(secret, block + label + bytes([counter]), "sha256")
        output += block
        counter += 1
    return output[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR the first ``len(data)`` bytes of ``stream``."""
    length = len(data)
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(stream[:length], "big")
    ).to_bytes(length, "big")


@dataclass(frozen=True)
class DirectionalKey:
    """Key material protecting one direction at one encryption level.

    Equality and hashing use ``(key, label)`` only; the cached HMAC pad
    states are derived from ``key`` and never pickled.
    """

    key: bytes
    label: str

    @cached_property
    def _pads(self) -> tuple:
        """SHA-256 states after absorbing the inner and outer HMAC pads."""
        key = self.key
        if len(key) > _HMAC_BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_HMAC_BLOCK, b"\x00")
        return (
            hashlib.sha256(key.translate(_INNER_PAD)),
            hashlib.sha256(key.translate(_OUTER_PAD)),
        )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_pads", None)
        return state

    def _mac(self, message: bytes) -> bytes:
        """HMAC-SHA256 of ``message`` under this key."""
        inner_pad, outer_pad = self._pads
        inner = inner_pad.copy()
        inner.update(message)
        outer = outer_pad.copy()
        outer.update(inner.digest())
        return outer.digest()

    def _keystream(self, nonce: bytes, length: int) -> bytes:
        # Byte-identical to hkdf_expand_label(self.key, b"ks" + nonce, length).
        label = b"ks" + nonce
        blocks = []
        block = b""
        for counter in range(1, (length + 31) // 32 + 1):
            block = self._mac(block + label + bytes([counter]))
            blocks.append(block)
        return b"".join(blocks)

    def seal(self, packet_number: int, header: bytes, plaintext: bytes) -> bytes:
        """Encrypt and authenticate ``plaintext`` bound to ``header``."""
        nonce = packet_number.to_bytes(8, "big")
        ciphertext = _xor(plaintext, self._keystream(nonce, len(plaintext)))
        tag = self._mac(b"tag" + nonce + header + ciphertext)[:TAG_LENGTH]
        return ciphertext + tag

    def open(self, packet_number: int, header: bytes, sealed: bytes) -> bytes:
        """Verify and decrypt; raises :class:`CryptoError` on failure."""
        if len(sealed) < TAG_LENGTH:
            raise CryptoError("sealed payload shorter than tag")
        ciphertext, tag = sealed[:-TAG_LENGTH], sealed[-TAG_LENGTH:]
        nonce = packet_number.to_bytes(8, "big")
        expected = self._mac(b"tag" + nonce + header + ciphertext)[:TAG_LENGTH]
        if not hmac.compare_digest(tag, expected):
            raise CryptoError(f"authentication failed for {self.label}")
        return _xor(ciphertext, self._keystream(nonce, len(ciphertext)))


@dataclass(frozen=True)
class KeyPair:
    """Client-direction and server-direction keys for one level."""

    client: DirectionalKey
    server: DirectionalKey


def initial_keys(destination_cid: bytes) -> KeyPair:
    """Initial-level keys, derivable by anyone who saw the first datagram."""
    secret = hkdf_extract(INITIAL_SALT, destination_cid)
    return KeyPair(
        client=DirectionalKey(
            hkdf_expand_label(secret, b"client in"), "initial/client"
        ),
        server=DirectionalKey(
            hkdf_expand_label(secret, b"server in"), "initial/server"
        ),
    )


def handshake_keys(client_random: bytes, server_random: bytes) -> KeyPair:
    """Handshake-level keys, requiring both hello randoms."""
    secret = hkdf_extract(b"hs", client_random + server_random)
    return KeyPair(
        client=DirectionalKey(hkdf_expand_label(secret, b"c hs"), "handshake/client"),
        server=DirectionalKey(hkdf_expand_label(secret, b"s hs"), "handshake/server"),
    )


def application_keys(client_random: bytes, server_random: bytes) -> KeyPair:
    """1-RTT keys, derived alongside the handshake keys."""
    secret = hkdf_extract(b"app", client_random + server_random)
    return KeyPair(
        client=DirectionalKey(hkdf_expand_label(secret, b"c ap"), "application/client"),
        server=DirectionalKey(hkdf_expand_label(secret, b"s ap"), "application/server"),
    )


def retry_integrity_tag(original_dcid: bytes, retry_pseudo_packet: bytes) -> bytes:
    """16-byte integrity tag appended to RETRY packets (RFC 9001 section 5.8)."""
    return hmac.digest(
        b"retry" + original_dcid, retry_pseudo_packet, "sha256"
    )[:TAG_LENGTH]


def stateless_reset_token(connection_id: bytes) -> bytes:
    """The 16-byte stateless reset token for a connection id."""
    return hmac.digest(b"reset-token", connection_id, "sha256")[:TAG_LENGTH]


def address_validation_token(host: str, port: int, original_dcid: bytes) -> bytes:
    """A RETRY token binding the client's source address (Issue 3 depends on
    this binding: a token returned from a different port fails validation)."""
    material = f"{host}:{port}".encode() + original_dcid
    return hmac.digest(b"retry-token", material, "sha256")
