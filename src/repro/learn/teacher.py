"""The Minimally Adequate Teacher interface (paper section 4.1).

Learners interact with the SUL exclusively through two oracle protocols:

* a :class:`MembershipOracle` answers "what does the SUL output for this
  input word?";
* an :class:`EquivalenceOracle` answers "is this hypothesis correct?" with
  either ``None`` or a counterexample input word.

:class:`SULMembershipOracle` adapts a :class:`repro.adapter.sul.SUL` to the
membership protocol and keeps the statistics the paper reports (e.g. the
4,726 membership queries of section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from ..adapter.sul import SUL
from ..core.alphabet import AbstractSymbol, Alphabet
from ..core.mealy import MealyMachine
from ..core.trace import Word


class MembershipOracle(Protocol):
    """Answers membership queries over abstract words.

    Both entry points must agree: ``query_batch(words)[i]`` equals
    ``query(words[i])`` for a deterministic SUL.  The batch form is the
    primary one -- learners and equivalence oracles emit batches so the
    layers below (cache planning, majority voting, SUL pooling) can dedup,
    collapse and parallelize; ``query`` remains for inherently sequential
    probing such as Rivest-Schapire binary search.
    """

    input_alphabet: Alphabet

    def query(self, word: Sequence[AbstractSymbol]) -> Word:  # pragma: no cover
        ...

    def query_batch(
        self, words: Sequence[Sequence[AbstractSymbol]]
    ) -> list[Word]:  # pragma: no cover
        ...


class EquivalenceOracle(Protocol):
    """Searches for counterexamples to a hypothesis."""

    def find_counterexample(
        self, hypothesis: MealyMachine
    ) -> Word | None:  # pragma: no cover
        ...

    def attribution(self) -> dict[str, dict[str, int]]:  # pragma: no cover
        """Per-strategy accounting: ``{name: {words_submitted,
        counterexamples_found}}`` (chained oracles report one entry per
        sub-oracle)."""
        ...


@dataclass
class OracleStats:
    """Query accounting for one oracle layer."""

    queries: int = 0
    symbols: int = 0

    def note(self, word: Sequence[AbstractSymbol]) -> None:
        self.queries += 1
        self.symbols += len(word)


class SULMembershipOracle:
    """The base oracle: every query reaches the actual SUL."""

    def __init__(self, sul: SUL) -> None:
        self.sul = sul
        self.input_alphabet = sul.input_alphabet
        self.stats = OracleStats()

    def query(self, word: Sequence[AbstractSymbol]) -> Word:
        self.stats.note(word)
        return self.sul.query(word)

    def query_batch(self, words: Sequence[Sequence[AbstractSymbol]]) -> list[Word]:
        words = [tuple(word) for word in words]
        for word in words:
            self.stats.note(word)
        return list(self.sul.query_batch(words))


def mq_suffix(
    oracle: MembershipOracle, prefix: Word, suffix: Word
) -> Word:
    """Outputs for ``suffix`` after driving the SUL through ``prefix``."""
    outputs = oracle.query(prefix + suffix)
    return outputs[len(prefix):]


def mq_suffix_batch(
    oracle: MembershipOracle, pairs: Sequence[tuple[Word, Word]]
) -> list[Word]:
    """Batched :func:`mq_suffix`: one query batch, suffix outputs per pair."""
    pairs = [(tuple(prefix), tuple(suffix)) for prefix, suffix in pairs]
    answers = oracle.query_batch([prefix + suffix for prefix, suffix in pairs])
    return [
        tuple(outputs[len(prefix):]) for (prefix, _), outputs in zip(pairs, answers)
    ]
