"""Property checking over learned models (paper section 5).

For a Mealy machine and an LTLf property, checking "all traces up to a
bound satisfy the property" is decidable by exhaustive exploration of the
machine (the machine's trace set is regular, and traces of a given length
are finitely many).  For extended machines with registers the problem is
undecidable in general, so -- like the paper -- we fall back to randomised
testing of concrete executions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.extended import ConcreteStep, ExtendedMealyMachine
from ..core.mealy import MealyError, MealyMachine, State
from ..core.trace import EPSILON, IOTrace, Word
from .ltl import Formula


@dataclass(frozen=True)
class PropertyViolation:
    """A counterexample trace for a property."""

    trace: IOTrace
    description: str

    def render(self) -> str:
        return f"{self.description}: {self.trace.render()}"


def check_property(
    machine: MealyMachine, formula: Formula, depth: int
) -> PropertyViolation | None:
    """Exhaustively check all traces of length <= depth; None if they hold.

    Every input word of length 1..depth is enumerated -- |Sigma|^<=depth
    traces, in pre-order, alphabet order -- and ``formula.holds`` is called
    on each trace.  Traces that reach the same state cannot be merged,
    because the check may be an arbitrary whole-trace predicate (see
    :func:`check_invariant`) whose verdict depends on the full history,
    not only on the state reached.  The learned model is what makes this
    affordable (the trace-reduction argument of section 6.2.2): each step
    is a transition-table lookup instead of a query against the live SUL.
    The first violating trace in that order is returned.
    """
    return _walk(machine, formula.holds, depth)


def check_invariant(
    machine: MealyMachine,
    predicate: Callable[[IOTrace], bool],
    depth: int,
) -> PropertyViolation | None:
    """Check an arbitrary trace predicate on all traces up to ``depth``."""
    return _walk(machine, predicate, depth)


def _walk(
    machine: MealyMachine, holds: Callable[[IOTrace], bool], depth: int
) -> PropertyViolation | None:
    # Per state, computed at its first visit: ``(input, target, output)``
    # in alphabet order up to the first missing transition, and that
    # transition's error.  The error is raised only after everything
    # before it has been explored, which is where stepping would raise.
    rows: dict[State, tuple[list, MealyError | None]] = {}

    def row(state: State) -> tuple[list, MealyError | None]:
        entries = []
        for symbol in machine.input_alphabet:
            try:
                target, output = machine.step(state, symbol)
            except MealyError as error:
                return entries, error
            entries.append((symbol, target, output))
        return entries, None

    def explore(
        state: State, inputs: Word, outputs: Word, remaining: int
    ) -> PropertyViolation | None:
        if state not in rows:
            rows[state] = row(state)
        entries, error = rows[state]
        for symbol, target, output in entries:
            trace = IOTrace(inputs + (symbol,), outputs + (output,))
            if not holds(trace):
                return PropertyViolation(trace=trace, description="LTLf violation")
            if remaining > 1:
                violation = explore(target, trace.inputs, trace.outputs, remaining - 1)
                if violation is not None:
                    return violation
        if error is not None:
            raise error
        return None

    if depth < 1:
        return None
    return explore(machine.initial_state, EPSILON, EPSILON, depth)


# ---------------------------------------------------------------------------
# Register properties on extended machines: randomised testing
# ---------------------------------------------------------------------------

RegisterPredicate = Callable[[Sequence[ConcreteStep], Sequence[dict]], bool]


@dataclass(frozen=True)
class RegisterViolation:
    steps: tuple[ConcreteStep, ...]
    predictions: tuple[dict, ...]
    description: str


def check_register_property(
    machine: ExtendedMealyMachine,
    concrete_traces: Sequence[Sequence[ConcreteStep]],
    predicate: RegisterPredicate,
    description: str = "register property",
) -> RegisterViolation | None:
    """Test a predicate over (observed steps, predicted outputs) pairs.

    Used for quantity properties like "packet numbers are always
    increasing" or "``maximum_stream_data`` is not constant" (Issue 4).
    """
    for steps in concrete_traces:
        try:
            predictions = machine.execute(list(steps))
        except KeyError:
            continue
        if not predicate(steps, predictions):
            return RegisterViolation(
                steps=tuple(steps),
                predictions=tuple(predictions),
                description=description,
            )
    return None


def random_traces(
    machine: MealyMachine,
    num_traces: int,
    max_length: int,
    seed: int = 0,
) -> list[IOTrace]:
    """Sample random traces from a model (for model-based test generation).

    An empty input alphabet yields an empty list (there is nothing to
    sample), mirroring :func:`repro.analysis.testgen.generate_test_suite`.
    """
    rng = random.Random(seed)
    symbols = list(machine.input_alphabet)
    if not symbols:
        return []
    traces = []
    for _ in range(num_traces):
        length = rng.randint(1, max_length)
        word = tuple(rng.choice(symbols) for _ in range(length))
        traces.append(machine.trace(word))
    return traces
