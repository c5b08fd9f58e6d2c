"""The HTTP/2 adapter: translation pair (alpha, gamma) for HTTP/2.

The abstraction function ``alpha`` maps a concrete frame to its type and
flag set (``HEADERS[END_HEADERS,END_STREAM]``) and a whole response -- the
ordered frame sequence the server wrote to the byte stream -- to an
:class:`~repro.core.alphabet.HTTP2Output`.  The concretization ``gamma``
is delegated to the reference client
(:class:`repro.http2.client.HTTP2Client`), which owns the connection
preface, stream-id allocation and HPACK logic -- the third instance of the
paper's ~300-line-adapter claim, sharing every learner/oracle layer with
the TCP and QUIC targets.
"""

from __future__ import annotations

from ..core.alphabet import (
    AbstractSymbol,
    HTTP2_EMPTY_OUTPUT,
    HTTP2Output,
    HTTP2Symbol,
    http2_alphabet,
)
from ..http2.client import HTTP2Client, HTTP2ClientConfig
from ..http2.frames import Frame, FrameType, parse_goaway, parse_rst_stream
from ..http2.server import HTTP2Server, HTTP2ServerConfig
from ..registry import SUL_REGISTRY
from .layered import (
    AppLayer,
    LayeredSUL,
    ReliableByteTransport,
    StreamEvent,
    Transport,
    compose,
)


def abstract_frame(frame: Frame) -> HTTP2Symbol:
    """The abstraction function alpha for one frame."""
    return HTTP2Symbol.make(FrameType(frame.frame_type).name, frame.flag_names())


def abstract_frames(frames: list[Frame]) -> HTTP2Output:
    """alpha lifted to a whole response (an ordered frame sequence).

    Named distinctly from :func:`repro.adapter.quic_adapter
    .abstract_response` (which expects QUIC packets) so both can be
    exported from :mod:`repro.adapter` without shadowing.
    """
    if not frames:
        return HTTP2_EMPTY_OUTPUT
    return HTTP2Output.make(abstract_frame(f) for f in frames)


def frame_params(frame: Frame) -> dict[str, int]:
    """Concrete numeric view of a frame for the Oracle Table.

    ``sid`` feeds the stream-id monotonicity check; ``err`` carries the
    RST_STREAM/GOAWAY error code the abstraction drops.
    """
    params = {"sid": frame.stream_id, "plen": len(frame.payload)}
    if frame.frame_type == FrameType.RST_STREAM:
        params["err"] = parse_rst_stream(frame)
    elif frame.frame_type == FrameType.GOAWAY:
        last_stream_id, error_code = parse_goaway(frame)
        params["err"] = error_code
        params["last_sid"] = last_stream_id
    return params


class TransportHTTP2Client(HTTP2Client):
    """The reference client with its bytes routed over a composed transport.

    Identical protocol logic; only ``_transmit`` differs -- request bytes
    ride stream 0 of the transport instead of a network endpoint, and the
    response chunks come back as transport events.
    """

    def __init__(
        self,
        transport: Transport,
        config: HTTP2ClientConfig | None = None,
        seed: int = 11,
    ) -> None:
        self._transport = transport
        super().__init__(config=config, seed=seed)

    def _transmit(self, payload: bytes) -> list[bytes]:
        self._transport.send(0, payload)
        return [
            event.data
            for event in self._transport.exchange()
            if event.kind == "data"
        ]


class HTTP2AppLayer(AppLayer):
    """HTTP/2 protocol logic riding a reliable byte transport.

    The in-process server and the reference client, wired through the
    layered-adapter API: the server consumes stream-0 events via
    :meth:`~repro.http2.server.HTTP2Server.process_bytes` and the client
    transmits through the transport.
    """

    name = "http2"

    def __init__(
        self,
        transport: Transport,
        seed: int = 9,
        server_config: HTTP2ServerConfig | None = None,
    ) -> None:
        self.alphabet = http2_alphabet()
        self.transport = transport
        self.server = HTTP2Server(config=server_config, seed=seed + 1)
        self.client = TransportHTTP2Client(transport, seed=seed + 2)
        transport.set_server(self._serve)

    def _serve(self, event: StreamEvent) -> list[StreamEvent]:
        if event.kind != "data":
            return []
        response = self.server.process_bytes(event.data)
        if not response:
            return []
        return [StreamEvent(stream_id=0, kind="data", data=response)]

    def reset(self) -> None:
        self.server.reset()
        self.client.reset()

    def step(self, symbol: AbstractSymbol):
        if not isinstance(symbol, HTTP2Symbol):
            raise TypeError(f"HTTP/2 adapter got non-HTTP/2 symbol: {symbol}")
        sent, responses = self.client.exchange(symbol.kind, symbol.flags)
        in_params = frame_params(sent)
        out_params: dict[str, int] = {}
        for frame in responses:
            out_params.update(frame_params(frame))
        return abstract_frames(responses), in_params, out_params

    def close(self) -> None:
        self.client.close()
        self.server.close()


def build_http2_app(
    transport: Transport,
    seed: int = 9,
    rst_on_closed_bug: bool = False,
    server_config: HTTP2ServerConfig | dict | None = None,
) -> HTTP2AppLayer:
    """The HTTP/2 app layer for :func:`~repro.adapter.layered.compose`.

    ``server_config`` accepts either an :class:`HTTP2ServerConfig` or a
    plain dict of its fields, so JSON experiment specs can configure the
    server (``{"rst_on_closed_bug": true}``); the ``rst_on_closed_bug``
    shorthand toggles the quirk without spelling out a config.
    """
    if isinstance(server_config, dict):
        server_config = HTTP2ServerConfig(**server_config)
    if server_config is None:
        server_config = HTTP2ServerConfig(rst_on_closed_bug=rst_on_closed_bug)
    elif rst_on_closed_bug:
        server_config.rst_on_closed_bug = True
    return HTTP2AppLayer(transport, seed=seed, server_config=server_config)


#: ``http2``: the HTTP/2 app composed over the reliable byte pipe.  Its
#: learned model is pinned by ``tests/golden/http2_model.json``.
build_http2_sul = compose(ReliableByteTransport, build_http2_app, name="http2")
SUL_REGISTRY.register("http2", build_http2_sul)


@SUL_REGISTRY.register("http2-buggy")
def build_http2_buggy_sul(seed: int = 9) -> LayeredSUL:
    """The HTTP/2 target with the seeded RST_STREAM-on-closed-stream bug."""
    return build_http2_sul(seed=seed, rst_on_closed_bug=True)
