"""Unit tests for abstract symbols and alphabets."""

import pytest

from repro.core.alphabet import (
    AbstractSymbol,
    Alphabet,
    QUIC_EMPTY_OUTPUT,
    QUICOutput,
    QUICSymbol,
    SymbolError,
    TCP_NIL,
    TCPSymbol,
    deserialize_symbol,
    h3_alphabet,
    http2_alphabet,
    parse_quic_output,
    parse_quic_symbol,
    parse_tcp_symbol,
    quic_alphabet,
    serialize_symbol,
    tcp_alphabet,
    tcp_handshake_alphabet,
)
from repro.framework import Prognosis
from repro.spec import ExperimentSpec


class TestTCPSymbol:
    def test_make_canonicalizes_flag_order(self):
        a = TCPSymbol.make(["SYN", "ACK"])
        b = TCPSymbol.make(["ACK", "SYN"])
        assert a == b
        assert a.label == "ACK+SYN(?,?,0)"

    def test_parse_round_trips_canonical_labels(self):
        for text in ["SYN(?,?,0)", "ACK+PSH(?,?,1)", "ACK+FIN(?,?,0)"]:
            assert str(parse_tcp_symbol(text)) == text

    def test_parse_canonicalizes_paper_spelling(self):
        # The paper writes FIN+ACK for inputs and ACK+FIN for outputs;
        # both spellings parse to the same canonical symbol.
        assert parse_tcp_symbol("FIN+ACK(?,?,0)") == parse_tcp_symbol(
            "ACK+FIN(?,?,0)"
        )

    def test_parse_rejects_garbage(self):
        with pytest.raises(SymbolError):
            parse_tcp_symbol("SYN")
        with pytest.raises(SymbolError):
            parse_tcp_symbol("SIN(?,?,0)")

    def test_nil_is_special(self):
        assert parse_tcp_symbol("NIL") is TCP_NIL
        assert TCP_NIL.is_nil
        assert not parse_tcp_symbol("SYN(?,?,0)").is_nil

    def test_unknown_flag_rejected(self):
        with pytest.raises(SymbolError):
            TCPSymbol.make(["SYN", "XXX"])

    def test_payload_length_in_label(self):
        assert TCPSymbol.make(["ACK", "PSH"], payload_len=1).label == "ACK+PSH(?,?,1)"

    def test_symbols_are_hashable_and_ordered(self):
        symbols = {TCPSymbol.make(["SYN"]), TCPSymbol.make(["ACK"])}
        assert len(symbols) == 2
        assert sorted(symbols)


class TestQUICSymbol:
    def test_make_sorts_frames(self):
        a = QUICSymbol.make("INITIAL", ["CRYPTO", "ACK"])
        assert a.label == "INITIAL(?,?)[ACK,CRYPTO]"

    def test_parse_round_trips(self):
        for text in [
            "INITIAL(?,?)[CRYPTO]",
            "SHORT(?,?)[ACK,MAX_DATA,MAX_STREAM_DATA]",
            "HANDSHAKE(?,?)[ACK,HANDSHAKE_DONE]",
        ]:
            assert str(parse_quic_symbol(text)) == text

    def test_unknown_packet_type_rejected(self):
        with pytest.raises(SymbolError):
            QUICSymbol.make("BOGUS", ["ACK"])

    def test_unknown_frame_rejected(self):
        with pytest.raises(SymbolError):
            QUICSymbol.make("INITIAL", ["NOT_A_FRAME"])

    def test_empty_frame_list_allowed(self):
        assert parse_quic_symbol("RETRY(?,?)[]").frames == ()


class TestQUICOutput:
    def test_empty_output_renders_braces(self):
        assert str(QUIC_EMPTY_OUTPUT) == "{}"
        assert QUIC_EMPTY_OUTPUT.is_empty

    def test_multiset_keeps_duplicates(self):
        crypto = parse_quic_symbol("HANDSHAKE(?,?)[CRYPTO]")
        output = QUICOutput.make([crypto, crypto])
        assert len(output) == 2

    def test_order_insensitive_equality(self):
        a = parse_quic_symbol("HANDSHAKE(?,?)[CRYPTO]")
        b = parse_quic_symbol("INITIAL(?,?)[ACK,CRYPTO]")
        assert QUICOutput.make([a, b]) == QUICOutput.make([b, a])

    def test_parse_round_trips(self):
        text = "{HANDSHAKE(?,?)[CRYPTO],HANDSHAKE(?,?)[CRYPTO],INITIAL(?,?)[ACK,CRYPTO]}"
        assert str(parse_quic_output(text)) == text

    def test_parse_empty(self):
        assert parse_quic_output("{}") == QUIC_EMPTY_OUTPUT

    def test_frame_types_union(self):
        output = parse_quic_output(
            "{HANDSHAKE(?,?)[CRYPTO],SHORT(?,?)[ACK,STREAM]}"
        )
        assert output.frame_types() == {"CRYPTO", "ACK", "STREAM"}


class TestAlphabet:
    def test_rejects_duplicates(self):
        syn = TCPSymbol.make(["SYN"])
        with pytest.raises(SymbolError):
            Alphabet.of([syn, syn])

    def test_index_and_contains(self):
        alphabet = tcp_alphabet()
        symbol = parse_tcp_symbol("RST(?,?,0)")
        assert symbol in alphabet
        assert alphabet[alphabet.index(symbol)] == symbol

    def test_index_raises_for_foreign_symbol(self):
        with pytest.raises(SymbolError):
            tcp_alphabet().index(TCPSymbol.make(["URG"]))

    def test_paper_alphabet_sizes(self):
        assert len(tcp_alphabet()) == 7
        assert len(tcp_handshake_alphabet()) == 2
        assert len(quic_alphabet()) == 7


def _symbol_classes(cls=AbstractSymbol):
    yield cls
    for sub in cls.__subclasses__():
        yield from _symbol_classes(sub)


def _with_nested(symbols):
    """The symbols plus every symbol nested inside an output symbol."""
    for symbol in symbols:
        yield symbol
        for part in getattr(symbol, "packets", ()) + getattr(symbol, "frames", ()):
            if isinstance(part, AbstractSymbol):
                yield part
        for stream in getattr(symbol, "streams", ()):
            yield from stream


@pytest.fixture(scope="module")
def learned_models():
    """One learned model per protocol."""
    models = []
    for target in ("tcp", "http2", "http3", "quic-quiche"):
        with Prognosis.from_spec(ExperimentSpec(target=target)) as prognosis:
            models.append(prognosis.learn().model)
    return models


class TestLabelHash:
    def test_every_subclass_inherits_the_label_hash(self):
        classes = list(_symbol_classes())
        assert len(classes) >= 8
        for cls in classes:
            assert cls.__hash__ is AbstractSymbol.__hash__, cls

    @pytest.mark.parametrize(
        "alphabet",
        [tcp_alphabet, tcp_handshake_alphabet, http2_alphabet, h3_alphabet, quic_alphabet],
    )
    def test_alphabet_symbols_hash_by_label(self, alphabet):
        for symbol in _with_nested(alphabet()):
            assert hash(symbol) == hash(symbol.label)

    def test_learned_outputs_hash_by_label(self, learned_models):
        kinds = set()
        for model in learned_models:
            symbols = list(model.input_alphabet) + list(model.output_alphabet())
            for symbol in _with_nested(symbols):
                assert hash(symbol) == hash(symbol.label)
                kinds.add(type(symbol).__name__)
        assert {"TCPSymbol", "HTTP2Output", "H3Output", "QUICOutput"} <= kinds

    def test_equality_still_compares_type_and_fields(self):
        raw = AbstractSymbol(label=TCP_NIL.label)
        assert hash(raw) == hash(TCP_NIL)
        assert raw != TCP_NIL
        assert len({raw, TCP_NIL}) == 2


class TestDecodeMemo:
    def test_same_text_decodes_to_the_same_object(self, learned_models):
        for model in learned_models:
            for symbol in list(model.input_alphabet) + list(model.output_alphabet()):
                data = serialize_symbol(symbol)
                first = deserialize_symbol(data)
                assert first == symbol
                assert deserialize_symbol(dict(data)) is first

    @pytest.mark.parametrize(
        "data",
        [
            {"kind": "tcp", "text": "SYN("},
            {"kind": "martian", "text": "X"},
            {"kind": "quic", "text": "INITIAL(?,?)[BOGUS]"},
        ],
    )
    def test_errors_are_raised_on_every_call(self, data):
        for _ in range(3):
            with pytest.raises(SymbolError):
                deserialize_symbol(data)
