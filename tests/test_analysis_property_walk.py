"""Differential test of the exhaustive property walker.

``check_property``/``check_invariant`` walk every trace up to a depth over
precomputed transition rows.  The reference below is the plain recursive
enumeration (``machine.step`` + ``IOTrace.extend`` at every node); on random
machines, formulas and predicates the two must agree on the verdict, the
witness, the exact sequence of predicate calls and any ``MealyError``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.ltl import (
    And,
    Eventually,
    Formula,
    Globally,
    Next,
    Not,
    Or,
    Until,
    input_is,
    output_is,
)
from repro.analysis.properties import (
    PropertyViolation,
    check_invariant,
    check_property,
)
from repro.core.alphabet import AbstractSymbol, Alphabet
from repro.core.mealy import MealyError, MealyMachine
from repro.core.trace import EMPTY_TRACE

INPUTS = tuple(AbstractSymbol(label=name) for name in ("a", "b", "c"))
OUTPUTS = tuple(AbstractSymbol(label=name) for name in ("x", "y", "z"))


def reference_walk(machine, holds, depth):
    """All traces of length 1..depth in pre-order; the first that fails."""

    def explore(state, trace, remaining):
        if len(trace) > 0 and not holds(trace):
            return PropertyViolation(trace=trace, description="LTLf violation")
        if remaining == 0:
            return None
        for symbol in machine.input_alphabet:
            target, output = machine.step(state, symbol)
            violation = explore(target, trace.extend(symbol, output), remaining - 1)
            if violation is not None:
                return violation
        return None

    return explore(machine.initial_state, EMPTY_TRACE, depth)


class Recording(Formula):
    """Delegates to ``inner`` and records every trace it is asked about."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def holds(self, trace):
        self.calls.append(trace)
        return self.inner(trace)


def reference(machine, depth):
    return lambda rec: reference_walk(machine, rec.holds, depth)


def outcome(walk, holds):
    """``(result, error message, predicate calls)`` of ``walk(recording)``."""
    recording = Recording(holds)
    try:
        result, error = walk(recording), None
    except MealyError as exc:
        result, error = None, str(exc)
    return result, error, recording.calls


@st.composite
def machines(draw):
    num_states = draw(st.integers(min_value=1, max_value=4))
    alphabet = INPUTS[: draw(st.integers(min_value=1, max_value=len(INPUTS)))]
    transitions = {
        (state, symbol): (
            draw(st.integers(min_value=0, max_value=num_states - 1)),
            draw(st.sampled_from(OUTPUTS)),
        )
        for state in range(num_states)
        for symbol in alphabet
    }
    return MealyMachine(0, Alphabet.of(alphabet), transitions, name="random")


def atoms():
    return st.one_of(
        st.sampled_from(INPUTS).map(lambda s: input_is(s.label)),
        st.sampled_from(OUTPUTS).map(lambda s: output_is(s.label)),
    )


formulas = st.recursive(
    atoms(),
    lambda inner: st.one_of(
        inner.map(Not),
        inner.map(Globally),
        inner.map(Eventually),
        inner.map(Next),
        st.tuples(inner, inner).map(lambda pair: And(*pair)),
        st.tuples(inner, inner).map(lambda pair: Or(*pair)),
        st.tuples(inner, inner).map(lambda pair: Until(*pair)),
    ),
    max_leaves=4,
)

# Arbitrary whole-trace predicates: a set of forbidden input words, or a
# bound on how often one output occurs anywhere in the trace.
forbidden_words = st.frozensets(
    st.lists(st.sampled_from(INPUTS), min_size=1, max_size=4).map(tuple),
    max_size=6,
).map(lambda bad: lambda trace: trace.inputs not in bad)
output_budgets = st.tuples(
    st.sampled_from(OUTPUTS), st.integers(min_value=0, max_value=3)
).map(lambda pair: lambda trace: trace.outputs.count(pair[0]) <= pair[1])
predicates = st.one_of(forbidden_words, output_budgets)

depths = st.integers(min_value=0, max_value=4)


@given(machine=machines(), formula=formulas, depth=depths)
@settings(max_examples=150, deadline=None)
def test_check_property_matches_reference(machine, formula, depth):
    expected = outcome(reference(machine, depth), formula.holds)
    actual = outcome(lambda rec: check_property(machine, rec, depth), formula.holds)
    assert actual == expected


@given(machine=machines(), predicate=predicates, depth=depths)
@settings(max_examples=150, deadline=None)
def test_check_invariant_matches_reference(machine, predicate, depth):
    expected = outcome(reference(machine, depth), predicate)
    actual = outcome(lambda rec: check_invariant(machine, rec.holds, depth), predicate)
    assert actual == expected


@given(machine=machines(), predicate=predicates, depth=depths, data=st.data())
@settings(max_examples=150, deadline=None)
def test_partial_machine_raises_like_reference(machine, predicate, depth, data):
    keys = sorted(machine._delta, key=repr)
    missing = data.draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
    for key in missing:
        del machine._delta[key]
    expected = outcome(reference(machine, depth), predicate)
    actual = outcome(lambda rec: check_invariant(machine, rec.holds, depth), predicate)
    assert actual == expected


def test_missing_transition_raises_after_earlier_subtrees():
    a, b = INPUTS[:2]
    x = OUTPUTS[0]
    machine = MealyMachine(
        0, Alphabet.of((a, b)), {(0, a): (0, x), (0, b): (0, x)}, name="partial"
    )
    del machine._delta[(0, b)]
    recording = Recording(lambda trace: True)
    with pytest.raises(MealyError, match="no transition from 0 on b"):
        check_property(machine, recording, 2)
    # The whole ``a`` subtree is checked before ``b`` is stepped.
    assert [trace.inputs for trace in recording.calls] == [(a,), (a, a)]
