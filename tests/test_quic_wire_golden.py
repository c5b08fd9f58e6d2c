"""Wire-level golden test: every datagram of a seeded learn, hashed.

The digests were recorded before the QUIC codec and crypto fast paths
existed.  Any change that alters a single byte on the simulated wire --
keystream, tag, varint, header layout or delivery order -- changes the
digest, even when the learned model happens to come out the same.

The second half checks the decode boundary the simulators rely on: random
and truncated bytes make each QUIC decoder raise its own typed error and
nothing else, so a codec bug cannot be learned as a silent drop.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import ExperimentSpec, Prognosis
from repro.netsim.network import SimulatedNetwork
from repro.quic.frames import (
    AckFrame,
    AckRange,
    ConnectionCloseFrame,
    CryptoFrame,
    FrameError,
    HandshakeDoneFrame,
    MaxDataFrame,
    MaxStreamDataFrame,
    PingFrame,
    StreamFrame,
    decode_frames,
    encode_frames,
)
from repro.quic.packet import (
    PacketError,
    PacketHeader,
    PacketType,
    decode_packet,
    encode_packet,
)
from repro.quic.transport_params import TransportParameterError, TransportParameters

#: target -> (datagrams sent, SHA-256 over every length-prefixed payload).
GOLDEN = {
    "quic-quiche": (
        19165,
        "7fc33ac005eb8746b29a74850d029259d7c94619e356a9677f9eb49d6e0080b8",
    ),
    "http3": (
        34284,
        "dac301f6e8f0688bdec1508b80275907a9214022d9a4960d4b31078ad6a0a4a5",
    ),
}


def _wire_digest(monkeypatch, target: str, seed: int = 1) -> tuple[int, str]:
    digest = hashlib.sha256()
    sent = 0
    original = SimulatedNetwork.send

    def send(self, source, destination, payload):
        nonlocal sent
        sent += 1
        data = bytes(payload)
        digest.update(len(data).to_bytes(4, "big") + data)
        return original(self, source, destination, payload)

    monkeypatch.setattr(SimulatedNetwork, "send", send)
    spec = ExperimentSpec(target=target, target_params={"seed": seed})
    with Prognosis.from_spec(spec) as prognosis:
        prognosis.learn()
    return sent, digest.hexdigest()


@pytest.mark.parametrize("target", sorted(GOLDEN))
def test_learn_wire_bytes_match_golden(monkeypatch, target):
    assert _wire_digest(monkeypatch, target) == GOLDEN[target]


# ---------------------------------------------------------------------------
# The decode boundary: malformed bytes raise only the codec's typed error
# ---------------------------------------------------------------------------

_LONG_TYPES = (PacketType.INITIAL, PacketType.HANDSHAKE, PacketType.ZERO_RTT)

_headers = st.builds(
    PacketHeader,
    packet_type=st.sampled_from(_LONG_TYPES + (PacketType.SHORT, PacketType.RETRY)),
    destination_cid=st.binary(min_size=8, max_size=8),
    source_cid=st.binary(max_size=20),
    packet_number=st.integers(0, (1 << 32) - 1),
    token=st.binary(max_size=24),
    payload=st.binary(max_size=64),
)

_frames = st.one_of(
    st.builds(CryptoFrame, offset=st.integers(0, 1 << 20), data=st.binary(max_size=40)),
    st.builds(StreamFrame, stream_id=st.integers(0, 64), offset=st.integers(0, 1 << 20),
              data=st.binary(max_size=40), fin=st.booleans()),
    st.builds(MaxDataFrame, maximum_data=st.integers(0, 1 << 40)),
    st.builds(MaxStreamDataFrame, stream_id=st.integers(0, 64),
              maximum_stream_data=st.integers(0, 1 << 40)),
    st.builds(ConnectionCloseFrame, error_code=st.integers(0, 0xFF),
              reason=st.binary(max_size=20)),
    st.just(AckFrame(5, 0, (AckRange(3, 5), AckRange(0, 1)))),
    st.just(HandshakeDoneFrame()),
    st.just(PingFrame()),
)


def _cut(data: bytes, where: int) -> bytes:
    return data[: where % (len(data) + 1)]


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=80), cid_length=st.integers(0, 20))
def test_decode_packet_raises_only_packet_error(data, cid_length):
    try:
        decode_packet(data, short_cid_length=cid_length)
    except PacketError:
        pass


@settings(max_examples=300, deadline=None)
@given(header=_headers, where=st.integers(0, 1 << 16))
def test_truncated_packets_raise_only_packet_error(header, where):
    try:
        decode_packet(_cut(encode_packet(header), where), short_cid_length=8)
    except PacketError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=80),
    st.lists(_frames, max_size=4).map(encode_frames).flatmap(
        lambda wire: st.integers(0, 1 << 16).map(lambda where: _cut(wire, where))
    ),
))
def test_decode_frames_raises_only_frame_error(data):
    try:
        decode_frames(data)
    except FrameError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(
    st.binary(max_size=80),
    st.builds(
        TransportParameters,
        initial_max_data=st.integers(0, 1 << 40),
        original_dcid=st.binary(max_size=20),
    ).map(TransportParameters.encode).flatmap(
        lambda wire: st.integers(0, 1 << 16).map(lambda where: _cut(wire, where))
    ),
))
def test_transport_parameters_decode_raises_only_its_error(data):
    try:
        TransportParameters.decode(data)
    except TransportParameterError:
        pass
