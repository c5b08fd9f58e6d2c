"""Tests for the HTTP/2 adapter: alpha/gamma, registry, pooled identity."""

import json
from pathlib import Path

import pytest

from repro.adapter.http2_adapter import (
    abstract_frame,
    abstract_frames,
    build_http2_sul,
    frame_params,
)
from repro.core.alphabet import (
    HTTP2_EMPTY_OUTPUT,
    deserialize_symbol,
    parse_http2_output,
    parse_http2_symbol,
    parse_tcp_symbol,
    serialize_symbol,
)
from repro.experiments import learn_http2
from repro.http2.frames import ErrorCode, goaway_frame, headers_frame, settings_frame
from repro.registry import SUL_REGISTRY, load_builtins

SETTINGS = parse_http2_symbol("SETTINGS[]")
REQUEST = parse_http2_symbol("HEADERS[END_HEADERS,END_STREAM]")
RST = parse_http2_symbol("RST_STREAM[]")


class TestAbstraction:
    def test_alpha_strips_payload_and_stream_id(self):
        frame = headers_frame(7, b"\x82\x84", end_stream=True)
        assert str(abstract_frame(frame)) == "HEADERS[END_HEADERS,END_STREAM]"

    def test_alpha_lifts_empty_response_to_nil(self):
        assert abstract_frames([]) is HTTP2_EMPTY_OUTPUT
        assert str(abstract_frames([])) == "NIL"

    def test_alpha_preserves_frame_order(self):
        frames = [settings_frame(), settings_frame(ack=True)]
        assert str(abstract_frames(frames)) == "SETTINGS[]+SETTINGS[ACK]"

    def test_frame_params_carry_error_codes(self):
        params = frame_params(goaway_frame(3, ErrorCode.STREAM_CLOSED))
        assert params["err"] == ErrorCode.STREAM_CLOSED
        assert params["last_sid"] == 3


class TestSymbolCodec:
    def test_symbol_roundtrip(self):
        symbol = parse_http2_symbol("HEADERS[END_HEADERS,END_STREAM]")
        data = serialize_symbol(symbol)
        assert data["kind"] == "http2"
        assert deserialize_symbol(data) == symbol

    def test_output_roundtrip(self):
        output = parse_http2_output("HEADERS[END_HEADERS]+DATA[END_STREAM]")
        data = serialize_symbol(output)
        assert data["kind"] == "http2-output"
        assert deserialize_symbol(data) == output

    def test_nil_output_roundtrip(self):
        assert deserialize_symbol(serialize_symbol(HTTP2_EMPTY_OUTPUT)).is_empty


class TestHTTP2AdapterSUL:
    def test_query_records_oracle_entry(self):
        sul = build_http2_sul()
        outputs = sul.query((SETTINGS, REQUEST))
        assert str(outputs[0]) == "SETTINGS[]+SETTINGS[ACK]"
        assert str(outputs[1]) == "HEADERS[END_HEADERS]+DATA[END_STREAM]"
        entry = sul.oracle_table.lookup((SETTINGS, REQUEST))
        assert entry is not None
        assert entry.steps[1].input_params["sid"] == 1
        sul.close()

    def test_determinism_across_queries(self):
        sul = build_http2_sul()
        word = (SETTINGS, REQUEST, RST, REQUEST)
        assert sul.query(word) == sul.query(word)
        sul.close()

    def test_foreign_symbol_rejected(self):
        sul = build_http2_sul()
        with pytest.raises(TypeError):
            sul.query((parse_tcp_symbol("SYN(?,?,0)"),))
        sul.close()

    def test_registry_targets_present(self):
        load_builtins()
        assert "http2" in SUL_REGISTRY
        assert "http2-buggy" in SUL_REGISTRY

    def test_spec_configurable_quirk(self):
        sul = SUL_REGISTRY.create("http2", server_config={"rst_on_closed_bug": True})
        outputs = sul.query((SETTINGS, REQUEST, RST))
        assert "GOAWAY" in str(outputs[2])
        sul.close()

    def test_buggy_convenience_target(self):
        sul = build_http2_sul(rst_on_closed_bug=True)
        assert sul.server.config.rst_on_closed_bug
        sul.close()

    def test_quirk_flag_composes_with_server_config(self):
        sul = build_http2_sul(
            rst_on_closed_bug=True, server_config={"response_body": b"x"}
        )
        assert sul.server.config.rst_on_closed_bug
        assert sul.server.config.response_body == b"x"
        sul.close()


#: The http2 model (ttt, W-method with one extra state, seed 9) as learned
#: by the monolithic adapter that predated ``compose()``; relabelled.
GOLDEN_MODEL = Path(__file__).parent / "golden" / "http2_model.json"


class TestComposedIdentity:
    def test_composed_stack_learns_the_monolithic_model(self):
        """The ``compose(ReliableByteTransport, build_http2_app)`` stack
        learns byte-for-byte the model the monolithic adapter learned."""
        composed = learn_http2()
        try:
            model = composed.model.relabel().to_dict()
        finally:
            composed.close()
        assert model == json.loads(GOLDEN_MODEL.read_text())


class TestLearnedModels:
    def test_pooled_equals_serial(self):
        """Acceptance: workers=4 learns a byte-identical model (like the
        TCP/QUIC pooled-identity tests in test_batch_equivalence.py)."""
        serial = learn_http2(workers=1)
        pooled = learn_http2(workers=4)
        try:
            assert serial.model.states == pooled.model.states
            assert serial.model.initial_state == pooled.model.initial_state
            for state in serial.model.states:
                for symbol in serial.model.input_alphabet:
                    assert serial.model.step(state, symbol) == pooled.model.step(
                        state, symbol
                    )
            assert serial.report.counterexamples == pooled.report.counterexamples
            assert serial.report.sul_queries == pooled.report.sul_queries
        finally:
            serial.close()
            pooled.close()

    def test_ttt_and_lstar_agree(self):
        """Acceptance: both learners converge to the same minimal machine."""
        ttt = learn_http2(learner="ttt")
        lstar = learn_http2(learner="lstar")
        try:
            assert ttt.model.num_states == 5
            assert ttt.model.minimize().num_states == ttt.model.num_states
            assert ttt.model.relabel().structurally_equal(lstar.model.relabel())
        finally:
            ttt.close()
            lstar.close()

    def test_buggy_model_merges_states(self):
        buggy = learn_http2(rst_on_closed_bug=True)
        try:
            assert buggy.model.num_states == 4
        finally:
            buggy.close()
