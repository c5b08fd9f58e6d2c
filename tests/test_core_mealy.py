"""Unit and property tests for Mealy machines."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alphabet import Alphabet, TCPSymbol
from repro.core.mealy import MealyError, MealyMachine, behavior_fingerprint

SYN = TCPSymbol.make(["SYN"])
ACK = TCPSymbol.make(["ACK"])
SYNACK = TCPSymbol.make(["SYN", "ACK"])
NIL = TCPSymbol(label="NIL")


class TestConstruction:
    def test_incomplete_machine_rejected(self, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        with pytest.raises(MealyError):
            MealyMachine("s0", ab_alphabet, {("s0", syn): ("s0", NIL)})

    def test_unreachable_states_dropped(self, ab_alphabet, toy_machine):
        syn, ack = ab_alphabet.symbols
        table = {(t.source, t.input): (t.target, t.output) for t in toy_machine.transitions()}
        table[("orphan", syn)] = ("orphan", NIL)
        table[("orphan", ack)] = ("orphan", NIL)
        machine = MealyMachine("s0", ab_alphabet, table)
        assert "orphan" not in machine.states

    def test_counts(self, toy_machine):
        assert toy_machine.num_states == 3
        assert toy_machine.num_transitions == 6


class TestExecution:
    def test_run_produces_outputs(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        outputs = toy_machine.run((syn, ack))
        assert outputs == (SYNACK, NIL)

    def test_state_after(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        assert toy_machine.state_after(()) == "s0"
        assert toy_machine.state_after((syn, ack)) == "s2"

    def test_step_unknown_symbol_raises(self, toy_machine):
        foreign = TCPSymbol.make(["URG"])
        with pytest.raises(MealyError):
            toy_machine.step("s0", foreign)

    def test_trace(self, toy_machine, ab_alphabet):
        syn, _ = ab_alphabet.symbols
        trace = toy_machine.trace((syn,))
        assert trace.inputs == (syn,)
        assert trace.outputs == (SYNACK,)


class TestMinimization:
    def test_redundant_state_merged(self, redundant_machine, toy_machine):
        minimal = redundant_machine.minimize()
        assert minimal.num_states == toy_machine.num_states

    def test_minimization_preserves_behaviour(self, redundant_machine, ab_alphabet):
        minimal = redundant_machine.minimize()
        syn, ack = ab_alphabet.symbols
        for word in [(syn,), (ack, syn), (syn, ack, syn), (ack, ack, syn, ack)]:
            assert minimal.run(word) == redundant_machine.run(word)

    def test_already_minimal_is_stable(self, toy_machine):
        assert toy_machine.minimize().num_states == toy_machine.num_states


class TestCanonicalization:
    def test_relabel_names_are_bfs(self, toy_machine):
        relabeled = toy_machine.relabel()
        assert relabeled.initial_state == "s0"
        assert set(relabeled.states) == {"s0", "s1", "s2"}

    def test_structural_equality_after_relabel(self, redundant_machine, toy_machine):
        assert redundant_machine.minimize().structurally_equal(
            toy_machine.minimize()
        )


class TestTestSuites:
    def test_access_sequences_reach_all_states(self, toy_machine):
        access = toy_machine.access_sequences()
        assert set(access) == set(toy_machine.states)
        for state, word in access.items():
            assert toy_machine.state_after(word) == state

    def test_transition_cover_size(self, toy_machine):
        cover = toy_machine.transition_cover()
        assert len(cover) == toy_machine.num_transitions

    def test_characterization_set_distinguishes_all_pairs(self, toy_machine):
        w_set = toy_machine.characterization_set()
        states = list(toy_machine.states)
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                assert any(
                    toy_machine.run(w, a) != toy_machine.run(w, b) for w in w_set
                ), f"{a} and {b} not distinguished"

    def test_distinguishing_suffix_none_for_same_state(self, toy_machine):
        assert toy_machine.distinguishing_suffix("s0", "s0") is None

    def test_w_method_suite_catches_mutant(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        # Mutate one transition's output.
        table = {
            (t.source, t.input): (t.target, t.output)
            for t in toy_machine.transitions()
        }
        table[("s1", ack)] = ("s2", SYNACK)
        mutant = MealyMachine("s0", ab_alphabet, table, "mutant")
        suite = toy_machine.w_method_suite(extra_states=0)
        assert any(toy_machine.run(w) != mutant.run(w) for w in suite)

    def test_dot_contains_all_edges(self, toy_machine):
        dot = toy_machine.to_dot()
        assert dot.count("->") >= toy_machine.num_transitions
        assert "digraph" in dot


class TestSerialization:
    def test_to_dict_round_trip_is_lossless(self, toy_machine):
        data = toy_machine.to_dict()
        restored = MealyMachine.from_dict(data)
        assert restored.to_dict() == data
        assert restored.structurally_equal(toy_machine)
        assert restored.to_dot() == toy_machine.to_dot()

    def test_to_dict_is_json_stable(self, toy_machine):
        import json

        text = json.dumps(toy_machine.to_dict())
        restored = MealyMachine.from_dict(json.loads(text))
        assert json.dumps(restored.to_dict()) == text

    def test_quic_output_symbols_round_trip(self):
        from repro.core.alphabet import parse_quic_output, parse_quic_symbol

        ch = parse_quic_symbol("INITIAL(?,?)[CRYPTO]")
        hello = parse_quic_output(
            "{HANDSHAKE(?,?)[CRYPTO],INITIAL(?,?)[ACK,CRYPTO]}"
        )
        silent = parse_quic_output("{}")
        machine = MealyMachine(
            "s0",
            Alphabet.of([ch]),
            {("s0", ch): ("s1", hello), ("s1", ch): ("s1", silent)},
            name="quic-toy",
        )
        restored = MealyMachine.from_dict(machine.to_dict())
        assert restored.to_dict() == machine.to_dict()
        assert restored.run((ch, ch)) == (hello, silent)

    def test_malformed_symbol_rejected(self):
        from repro.core.alphabet import SymbolError, deserialize_symbol

        with pytest.raises(SymbolError):
            deserialize_symbol({"kind": "martian", "text": "X"})
        with pytest.raises(SymbolError):
            deserialize_symbol({"text": "X"})

    @pytest.mark.parametrize(
        "data",
        [
            {"kind": "tcp", "text": 5},
            {"kind": "raw", "text": ["x"]},
            {"kind": ["tcp"], "text": "SYN(?,?,0)"},
            {"kind": None, "text": "X"},
        ],
    )
    def test_non_string_kind_or_text_rejected(self, data):
        from repro.core.alphabet import SymbolError, deserialize_symbol

        with pytest.raises(SymbolError, match="malformed serialized symbol"):
            deserialize_symbol(data)


class TestFingerprint:
    def test_fingerprint_equal_for_equivalent(self, redundant_machine, toy_machine):
        assert behavior_fingerprint(redundant_machine, 3) == behavior_fingerprint(
            toy_machine, 3
        )


# ---------------------------------------------------------------------------
# Property-based: random machines keep behaviour through minimize/relabel
# ---------------------------------------------------------------------------

_SYMS = [SYN, ACK]
_OUTS = [SYNACK, NIL, TCPSymbol(label="RST(?,?,0)")]


@st.composite
def random_machine(draw):
    num_states = draw(st.integers(min_value=1, max_value=6))
    alphabet = Alphabet.of(_SYMS)
    table = {}
    for state in range(num_states):
        for symbol in _SYMS:
            target = draw(st.integers(min_value=0, max_value=num_states - 1))
            output = draw(st.sampled_from(_OUTS))
            table[(state, symbol)] = (target, output)
    return MealyMachine(0, alphabet, table, "random")


@st.composite
def machine_and_words(draw):
    machine = draw(random_machine())
    words = draw(
        st.lists(
            st.lists(st.sampled_from(_SYMS), min_size=1, max_size=8).map(tuple),
            min_size=1,
            max_size=5,
        )
    )
    return machine, words


@given(machine_and_words())
@settings(max_examples=60, deadline=None)
def test_minimize_preserves_behaviour(machine_words):
    machine, words = machine_words
    minimal = machine.minimize()
    assert minimal.num_states <= machine.num_states
    for word in words:
        assert machine.run(word) == minimal.run(word)


@given(machine_and_words())
@settings(max_examples=60, deadline=None)
def test_relabel_preserves_behaviour(machine_words):
    machine, words = machine_words
    relabeled = machine.relabel()
    for word in words:
        assert machine.run(word) == relabeled.run(word)


@given(random_machine())
@settings(max_examples=40, deadline=None)
def test_minimize_is_idempotent(machine):
    once = machine.minimize()
    twice = once.minimize()
    assert once.structurally_equal(twice)


@given(machine_and_words())
@settings(max_examples=60, deadline=None)
def test_dict_round_trip_preserves_behaviour(machine_words):
    # Symbols serialize via their canonical label, so for hand-built
    # (non-canonical) symbols behaviour is preserved up to rendering;
    # parser/adapter-built symbols round-trip exactly (TestSerialization).
    machine, words = machine_words
    restored = MealyMachine.from_dict(machine.to_dict())
    for word in words:
        assert [str(o) for o in machine.run(word)] == [
            str(o) for o in restored.run(word)
        ]


@given(random_machine())
@settings(max_examples=40, deadline=None)
def test_dict_round_trip_is_lossless_after_relabel(machine):
    relabeled = machine.relabel()
    data = relabeled.to_dict()
    assert MealyMachine.from_dict(data).to_dict() == data
