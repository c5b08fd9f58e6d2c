"""A prefix-tree query cache (the Oracle-Table optimization of section 3.2).

Active learners re-ask heavily overlapping queries; because a deterministic
SUL's responses are prefix-closed, a trie of past observations answers any
query that is a prefix of (or equal to) something already asked.  The cache
also *detects* nondeterminism for free: a cached output conflicting with a
fresh observation can only mean the SUL (or the abstraction) is not
deterministic.

:meth:`CachedMembershipOracle.query_batch` additionally acts as the batch
*planner*: it dedups repeated words within a batch, answers trie hits
without touching the SUL, and collapses words that are prefixes of other
batch members -- prefix-closure means a single SUL run of the longer word
answers both.  Only the surviving words are forwarded to the inner oracle
(majority vote, SUL pool, ...) in one batch.

It is also the one layer where answers from outside the run come in: an
optional persistent query store and an optional trace corpus warm the
trie, and hit accounting says how many answers each of them supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..core.alphabet import AbstractSymbol, Alphabet
from ..core.trace import Word
from ..registry import MIDDLEWARE_REGISTRY
from .teacher import MembershipOracle, OracleStats


class CacheInconsistencyError(Exception):
    """A fresh observation contradicts the cache: nondeterminism."""

    def __init__(self, word: Word, cached: AbstractSymbol, fresh: AbstractSymbol):
        self.word = word
        self.cached = cached
        self.fresh = fresh
        super().__init__(
            f"nondeterministic SUL: on {word} cache says {cached}, SUL says {fresh}"
        )


@dataclass
class _TrieNode:
    children: dict = field(default_factory=dict)  # symbol -> (output, _TrieNode)
    terminal: bool = False  # a stored word ends exactly here


class QueryCache:
    """The trie itself, usable standalone (also backs the EQ oracles).

    ``entries`` counts *stored words* (queries whose full observation was
    inserted); ``nodes`` counts trie nodes, i.e. the number of distinct
    (word-prefix, output) steps held.  Earlier versions conflated the two.
    """

    def __init__(self) -> None:
        self._root = _TrieNode()
        self.entries = 0
        self.nodes = 0

    def lookup(self, word: Sequence[AbstractSymbol]) -> Word | None:
        """Cached outputs for ``word``, or None on any cache miss."""
        node = self._root
        outputs: list[AbstractSymbol] = []
        for symbol in word:
            slot = node.children.get(symbol)
            if slot is None:
                return None
            output, node = slot
            outputs.append(output)
        return tuple(outputs)

    def longest_cached_prefix(
        self, word: Sequence[AbstractSymbol]
    ) -> tuple[Word, Word]:
        """The longest prefix of ``word`` held in the trie, with its outputs.

        Returns ``(prefix, outputs)``; both are empty when not even the
        first symbol is cached.  The batch planner uses this to see how much
        of a word an execution would re-traverse, and callers can use it to
        warm-start adapters that support checkpointing.
        """
        node = self._root
        outputs: list[AbstractSymbol] = []
        matched = 0
        for symbol in word:
            slot = node.children.get(symbol)
            if slot is None:
                break
            output, node = slot
            outputs.append(output)
            matched += 1
        return tuple(word[:matched]), tuple(outputs)

    def insert(self, word: Sequence[AbstractSymbol], outputs: Sequence[AbstractSymbol]) -> None:
        """Store an observation; raises on conflicts with cached outputs."""
        node = self._root
        for symbol, output in zip(word, outputs):
            slot = node.children.get(symbol)
            if slot is None:
                child = _TrieNode()
                node.children[symbol] = (output, child)
                node = child
                self.nodes += 1
            else:
                cached_output, child = slot
                if cached_output != output:
                    raise CacheInconsistencyError(
                        tuple(word), cached_output, output
                    )
                node = child
        if not node.terminal:
            node.terminal = True
            self.entries += 1

    def clear(self) -> None:
        self._root = _TrieNode()
        self.entries = 0
        self.nodes = 0

    def dump(self) -> Iterator[tuple[Word, Word]]:
        """All stored ``(word, outputs)`` observations, depth-first.

        Every trie path ends at a terminal node (inserts mark their end),
        so re-inserting the dumped words into an empty trie reproduces the
        full structure -- the transfer :meth:`merge_from` relies on.
        """
        stack: list[tuple[_TrieNode, Word, Word]] = [(self._root, (), ())]
        while stack:
            node, word, outputs = stack.pop()
            if node.terminal:
                yield word, outputs
            for symbol, (output, child) in node.children.items():
                stack.append((child, word + (symbol,), outputs + (output,)))

    def check_consistent(
        self, word: Sequence[AbstractSymbol], outputs: Sequence[AbstractSymbol]
    ) -> None:
        """Raise :class:`CacheInconsistencyError` if the observation
        conflicts with the trie.  Never mutates; a missing path is fine
        (only *disagreeing* outputs along a shared prefix are conflicts).
        """
        node = self._root
        for symbol, output in zip(word, outputs):
            slot = node.children.get(symbol)
            if slot is None:
                return
            cached_output, node = slot
            if cached_output != output:
                raise CacheInconsistencyError(tuple(word), cached_output, output)

    def merge_from(self, other: "QueryCache") -> None:
        """Absorb every observation stored in ``other``.

        Raises :class:`CacheInconsistencyError` if the two tries disagree
        on any output -- merging observations of *different* SULs is a
        caller bug (or genuine nondeterminism).  The merge is atomic:
        every observation is checked against this trie before any is
        inserted, so a failed merge leaves the destination untouched
        instead of half-poisoned.
        """
        observations = list(other.dump())
        for word, outputs in observations:
            self.check_consistent(word, outputs)
        for word, outputs in observations:
            self.insert(word, outputs)


def _drop_covered_prefixes(words: Sequence[Word]) -> list[Word]:
    """Words from ``words`` that are not proper prefixes of another member.

    One SUL execution of a word also answers every prefix of it, so only
    the maximal words of a (deduplicated) batch need to run.  Order of the
    survivors follows the input order.
    """
    trie: dict = {}
    for word in words:
        node = trie
        for symbol in word:
            node = node.setdefault(symbol, {})
    survivors: list[Word] = []
    for word in words:
        node = trie
        for symbol in word:
            node = node[symbol]
        if not node:  # nothing extends this word: it must run
            survivors.append(word)
    return survivors


@MIDDLEWARE_REGISTRY.register("cache")
class CachedMembershipOracle:
    """Membership oracle layer that answers from the trie when possible.

    ``collapse_prefixes`` toggles the within-batch prefix collapse (kept
    switchable for the ablation benchmark); dedup and trie answering are
    always on.  Passing ``cache`` substitutes a pre-warmed
    :class:`QueryCache` (campaigns share per-SUL-fingerprint caches across
    runs this way).

    Two optional sources warm the trie before the first query, and hit
    accounting attributes answers to them (:func:`repro.spec.assemble`
    attaches a spec's ``store`` and ``corpus`` sections here):

    * ``store`` -- a :class:`~repro.store.query_store.QueryStore`.  Every
      observation it holds for ``fingerprint`` is loaded, and every
      observation it lacks (fresh SUL answers and corpus lines alike) is
      appended back.  ``store_hits`` counts queries answered by what the
      store held when the run began.  A stored row that contradicts the
      pre-warmed ``cache`` raises :class:`CacheInconsistencyError`:
      stale rows must be garbage-collected, never silently preferred.
    * ``corpus`` -- a :class:`~repro.spec.CorpusSpec` naming a JSONL
      trace corpus (:mod:`repro.learn.bulk`), streamed in after the
      store.  A line that contradicts anything already in the trie is
      skipped and counted in ``corpus_stats``, or raises
      :class:`~repro.learn.passive.TraceConflictError` when the spec
      sets ``skip_conflicts=False``.  ``corpus_hits`` counts queries
      answered by corpus observations.

    The layer owns ``store``: :meth:`close` (which the
    :class:`~repro.framework.Prognosis` context manager calls) flushes
    it and records this session's usage.
    """

    def __init__(
        self,
        inner: MembershipOracle,
        collapse_prefixes: bool = True,
        cache: QueryCache | None = None,
        store=None,
        fingerprint: str = "",
        corpus=None,
    ) -> None:
        from .bulk import CorpusStats, load_corpus_cache  # bulk imports this module

        self.inner = inner
        self.input_alphabet: Alphabet = inner.input_alphabet
        self.cache = cache if cache is not None else QueryCache()
        self.stats = OracleStats()
        self.collapse_prefixes = collapse_prefixes
        self.hits = 0
        self.misses = 0
        self.batch_deduped = 0
        self.prefix_collapsed = 0
        self.store = store
        self.fingerprint = fingerprint
        self.store_hits = 0
        self.corpus_hits = 0
        self.corpus_stats = CorpusStats()
        #: What the store held when the run began, and what the corpus
        #: contributed: second tries, so hit accounting can tell those
        #: answers apart from within-run ones (prefix hits included).
        self.stored: QueryCache | None = None
        self.corpus_cache: QueryCache | None = None
        try:
            if store is not None:
                self.stored = QueryCache()
                for word, outputs in store.observations(fingerprint):
                    self.stored.insert(word, outputs)
                    self.cache.insert(word, outputs)
            if corpus is not None:
                self.corpus_cache, self.corpus_stats = load_corpus_cache(
                    corpus.path,
                    skip_conflicts=corpus.skip_conflicts,
                    max_traces=corpus.max_traces,
                    into=self.cache,
                )
                if store is not None:
                    for word, outputs in self.corpus_cache.dump():
                        self._persist(word, outputs)
        except BaseException:
            self.close()
            raise

    def _note_hits(self, word: Word, count: int = 1) -> None:
        self.hits += count
        if self.stored is not None and self.stored.lookup(word) is not None:
            self.store_hits += count
        if self.corpus_cache is not None and self.corpus_cache.lookup(word) is not None:
            self.corpus_hits += count

    def _persist(self, word: Word, outputs: Word) -> None:
        """Append an observation the store did not hold at the start."""
        if self.store is not None and self.stored.lookup(word) is None:
            self.store.append(self.fingerprint, word, outputs)

    def _record(self, word: Word, outputs: Word) -> None:
        self.cache.insert(word, outputs)
        self._persist(word, outputs)

    def query(self, word: Sequence[AbstractSymbol]) -> Word:
        word = tuple(word)
        self.stats.note(word)
        cached = self.cache.lookup(word)
        if cached is not None:
            self._note_hits(word)
            return cached
        self.misses += 1
        outputs = self.inner.query(word)
        self._record(word, tuple(outputs))
        return outputs

    def query_batch(self, words: Sequence[Sequence[AbstractSymbol]]) -> list[Word]:
        words = [tuple(word) for word in words]
        for word in words:
            self.stats.note(word)
        results: list[Word | None] = [None] * len(words)

        # 1. Answer what the trie already knows.
        pending: dict[Word, list[int]] = {}
        for index, word in enumerate(words):
            cached = self.cache.lookup(word)
            if cached is not None:
                self._note_hits(word)
                results[index] = cached
            else:
                pending.setdefault(word, []).append(index)
        if not pending:
            return results  # type: ignore[return-value]

        # 2. Dedup within the batch, then collapse words that are prefixes
        #    of other batch members: the longer run answers both.
        unique = list(pending)
        self.batch_deduped += sum(
            len(indices) for indices in pending.values()
        ) - len(unique)
        if self.collapse_prefixes and len(unique) > 1:
            survivors = _drop_covered_prefixes(unique)
            self.prefix_collapsed += len(unique) - len(survivors)
        else:
            survivors = unique

        # 3. One inner batch for the survivors; everything else is answered
        #    from the trie the survivors just populated.
        answers = self.inner.query_batch(survivors)
        for word, outputs in zip(survivors, answers):
            self._record(word, tuple(outputs))
        executed = set(survivors)
        for word, indices in pending.items():
            outputs = self.cache.lookup(word)
            assert outputs is not None  # survivors cover every pending word
            if word in executed:
                self.misses += 1
                self._note_hits(word, len(indices) - 1)
            else:
                self._note_hits(word, len(indices))
            for index in indices:
                results[index] = outputs
        return results  # type: ignore[return-value]

    @property
    def hit_rate(self) -> float:
        return self._share(self.hits)

    @property
    def store_hit_rate(self) -> float:
        """Share of membership queries served from the persistent store."""
        return self._share(self.store_hits)

    @property
    def corpus_hit_rate(self) -> float:
        """Share of membership queries served from the corpus."""
        return self._share(self.corpus_hits)

    @property
    def corpus_skipped(self) -> int:
        """Corpus lines skipped because they contradicted the trie."""
        return len(self.corpus_stats.skipped)

    def _share(self, count: int) -> float:
        total = self.hits + self.misses
        return count / total if total else 0.0

    def close(self) -> None:
        """Flush buffered store appends and record this session's usage.

        A no-op without a store, and on every call after the first.
        """
        store, self.store = self.store, None
        if store is None:
            return
        if self.hits or self.misses:
            store.record_usage(
                self.fingerprint, hits=self.store_hits, misses=self.misses
            )
        store.close()
