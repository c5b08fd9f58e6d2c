"""Bulk-trace passive learning: stream a corpus, fold, actively refine.

The production half of the passive story (ROADMAP: "millions of users
means traces arrive in bulk, not one active query at a time"):

* **Corpus IO** -- :func:`read_jsonl_corpus` / :func:`write_jsonl_corpus`
  stream ``{"inputs": [...], "outputs": [...]}`` JSONL trace files using
  the :func:`~repro.core.alphabet.serialize_symbol` codec, and
  :func:`generate_corpus` random-walks a registered (netsim-backed)
  target to produce session logs.  :func:`record_full_corpus` dumps one
  active run's entire observation set -- a *covering* corpus, the bulk
  analogue of a warm persistent store.
* **Corpus seeding** -- :func:`load_corpus_cache` streams a corpus into
  a prefix-tree trie; conflicting (nondeterministic) traces are skipped
  and counted, never fatal.  A spec's ``corpus`` section
  (:class:`~repro.spec.CorpusSpec`) seeds the
  :class:`~repro.learn.cache.CachedMembershipOracle` layer this way,
  which then attributes corpus-served answers.
* **The pipeline** -- :func:`bulk_passive_learn` folds the corpus trie
  into a :class:`~repro.learn.passive.PartialMealyMachine` (hardened
  RPNI), turns its undetermined ``(state, symbol)`` cells into targeted
  membership queries through the spec's oracle/executor stack, then runs
  the spec's active learner over the warmed cache.  Behaviour the corpus
  already determines costs zero SUL resets, mirroring ``repro ci``'s
  warm path; the refined model is byte-identical to a pure-active run
  because cache warmth never changes a deterministic SUL's answers.

With *both* a ``store`` and a ``corpus`` section, the cache layer also
persists the corpus observations into the store.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from ..core.alphabet import SymbolError, deserialize_symbol, serialize_symbol
from ..core.trace import IOTrace, Word, render_word
from ..registry import SUL_REGISTRY, load_builtins
from .cache import CacheInconsistencyError, QueryCache
from .passive import (
    PartialMealyMachine,
    TraceConflictError,
    fold_prefix_tree,
    prefix_tree_from_cache,
)

class CorpusFormatError(ValueError):
    """A corpus file line that is not a well-formed serialized trace."""


@dataclass
class CorpusConflict:
    """One skipped trace: it contradicted the corpus read so far."""

    trace_index: int | None
    word: Word
    cached: object
    fresh: object

    def to_dict(self) -> dict:
        return {
            "trace_index": self.trace_index,
            "word": render_word(self.word),
            "cached": str(self.cached),
            "fresh": str(self.fresh),
        }


@dataclass
class CorpusStats:
    """Accounting for one streaming corpus pass."""

    traces: int = 0
    #: Input symbols across the accepted traces (the "trace token" unit
    #: of the states-recovered-per-trace-token benchmark).
    tokens: int = 0
    #: Distinct observations the corpus trie holds (dedup'd traces).
    words: int = 0
    skipped: list[CorpusConflict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "traces": self.traces,
            "tokens": self.tokens,
            "words": self.words,
            "skipped": [conflict.to_dict() for conflict in self.skipped],
        }


# ---------------------------------------------------------------------------
# Corpus IO
# ---------------------------------------------------------------------------

def write_jsonl_corpus(path, traces: Iterable) -> int:
    """Write traces as one-JSON-object-per-line; returns the count.

    ``traces`` is either an iterable of :class:`IOTrace` (written in
    arrival order) or of ``(index, IOTrace)`` pairs -- the form attack
    replay emits -- which are **sorted by index before writing**, so a
    corpus assembled from concurrently confirmed strategies always
    round-trips through :func:`stream_corpus` in the same trace order.
    """
    entries = list(traces)
    if entries and not isinstance(entries[0], IOTrace):
        entries = [trace for _, trace in sorted(entries, key=lambda e: e[0])]
    count = 0
    with open(path, "w") as handle:
        for trace in entries:
            handle.write(
                json.dumps(
                    {
                        "inputs": [serialize_symbol(s) for s in trace.inputs],
                        "outputs": [serialize_symbol(s) for s in trace.outputs],
                    }
                )
                + "\n"
            )
            count += 1
    return count


def read_jsonl_corpus(path) -> Iterator[IOTrace]:
    """Stream traces from a JSONL corpus file, one line at a time.

    Malformed lines raise :class:`CorpusFormatError` with the line
    number; they are *format* bugs, unlike nondeterministic traces,
    which are findings the caller may skip-and-report.
    """
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                inputs = tuple(deserialize_symbol(s) for s in data["inputs"])
                outputs = tuple(deserialize_symbol(s) for s in data["outputs"])
                trace = IOTrace(inputs, outputs)
            except (KeyError, TypeError, ValueError, SymbolError) as error:
                raise CorpusFormatError(
                    f"{path}, line {lineno}: not a serialized trace ({error})"
                ) from None
            yield trace


def iter_corpus(source) -> Iterator[IOTrace]:
    """Traces from a JSONL path or any in-memory iterable of traces."""
    if isinstance(source, (str, Path)):
        yield from read_jsonl_corpus(source)
    else:
        yield from source


def stream_corpus(source, max_traces: int | None = None) -> Iterator[IOTrace]:
    """The public streaming reader: traces in deterministic file order.

    A thin, bounded wrapper over :func:`iter_corpus`: traces come back
    exactly in corpus order (which :func:`write_jsonl_corpus` made
    index-sorted for pair-form writers), and ``max_traces`` caps the
    read without consuming the rest of the file.
    """
    for index, trace in enumerate(iter_corpus(source)):
        if max_traces is not None and index >= max_traces:
            return
        yield trace


def load_corpus_cache(
    source,
    skip_conflicts: bool = True,
    max_traces: int | None = None,
    into: QueryCache | None = None,
) -> tuple[QueryCache, CorpusStats]:
    """One streaming pass: corpus -> prefix-tree trie + accounting.

    The returned :class:`~repro.learn.cache.QueryCache` holds the
    accepted traces; it *is* the passive learner's prefix tree
    (:func:`~repro.learn.passive.prefix_tree_from_cache`).  ``into``,
    when given, is a live cache the corpus seeds: every accepted trace
    goes there too, and a trace contradicting anything it already holds
    is a conflict.  Traces that conflict are skipped and counted when
    ``skip_conflicts`` (nondeterministic logs are a finding, not a
    crash), or raise :class:`~repro.learn.passive.TraceConflictError`
    otherwise.
    """
    cache = QueryCache()
    seeded = cache if into is None else into
    stats = CorpusStats()
    for index, trace in enumerate(iter_corpus(source)):
        if max_traces is not None and stats.traces >= max_traces:
            break
        try:
            # insert raises before it creates a node, so a conflicting
            # trace leaves the trie untouched.
            seeded.insert(trace.inputs, trace.outputs)
        except CacheInconsistencyError as error:
            if not skip_conflicts:
                raise TraceConflictError(
                    error.word, error.cached, error.fresh, trace_index=index
                ) from None
            stats.skipped.append(
                CorpusConflict(index, error.word, error.cached, error.fresh)
            )
            continue
        if into is not None:
            cache.insert(trace.inputs, trace.outputs)
        stats.traces += 1
        stats.tokens += len(trace)
    stats.words = cache.entries
    return cache, stats


# ---------------------------------------------------------------------------
# Corpus generation (netsim-backed session logs, covering corpora)
# ---------------------------------------------------------------------------

def log_sessions(
    sul, num_sessions: int = 200, max_len: int = 8, seed: int = 0
) -> list[IOTrace]:
    """Random-walk session logs from a live SUL (netsim traffic shapes).

    Each session resets the SUL and drives a random input word through
    it -- the closest in-process stand-in for "pcap-shaped" production
    logs arriving in bulk.
    """
    rng = random.Random(seed)
    symbols = list(sul.input_alphabet)
    traces = []
    for _ in range(num_sessions):
        word = tuple(
            rng.choice(symbols) for _ in range(rng.randint(1, max_len))
        )
        traces.append(IOTrace(word, tuple(sul.query(word))))
    return traces


def generate_corpus(
    spec, path, num_sessions: int = 200, max_len: int = 8
) -> int:
    """Random-walk a spec's registered target into a JSONL corpus file."""
    load_builtins()
    factory = SUL_REGISTRY.get(spec.target)
    sul = factory(**spec.target_params)
    try:
        traces = log_sessions(
            sul, num_sessions=num_sessions, max_len=max_len, seed=spec.seed
        )
    finally:
        close = getattr(sul, "close", None)
        if callable(close):
            close()
    return write_jsonl_corpus(path, traces)


def record_full_corpus(spec, path) -> int:
    """Dump a *covering* corpus: one active run's entire observation set.

    Re-running the same spec against this corpus pre-answers every
    membership query its learner will ask, so the passive->active
    pipeline completes with **zero SUL resets** -- the bulk-trace
    analogue of a warm persistent store.
    """
    from ..framework import Prognosis

    clean = spec.clone(corpus=None, store=None)
    with Prognosis.from_spec(clean) as prognosis:
        prognosis.learn()
        observations = list(prognosis.cache_oracle.cache.dump())
    return write_jsonl_corpus(
        path, (IOTrace(word, outputs) for word, outputs in observations)
    )


# ---------------------------------------------------------------------------
# The passive -> active pipeline
# ---------------------------------------------------------------------------

@dataclass
class BulkLearnResult:
    """Everything one bulk passive->active run produced."""

    spec: object
    corpus_stats: CorpusStats
    passive_model: PartialMealyMachine
    #: The active-refinement learning report (None with ``refine=False``).
    refined: object | None = None
    #: Membership queries issued for the partial machine's undetermined
    #: ``(state, symbol)`` cells, and how many of them the corpus had
    #: already answered.
    targeted_queries: int = 0
    targeted_covered: int = 0

    @property
    def model(self):
        return None if self.refined is None else self.refined.model

    def summary(self) -> str:
        stats = self.corpus_stats
        lines = [
            f"corpus: {stats.traces} traces, {stats.tokens} tokens, "
            f"{stats.words} distinct words"
            + (f", {len(stats.skipped)} skipped conflicts" if stats.skipped else ""),
            f"passive: {self.passive_model.num_states} states, "
            f"{self.passive_model.completeness:.0%} complete",
        ]
        if self.refined is not None:
            lines.append(
                f"refinement: {self.targeted_queries} targeted queries "
                f"({self.targeted_covered} corpus-covered); "
                + self.refined.summary()
                + f", {self.refined.sul_resets} SUL resets"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "corpus": self.corpus_stats.to_dict(),
            "passive_model": self.passive_model.to_dict(),
            "targeted_queries": self.targeted_queries,
            "targeted_covered": self.targeted_covered,
            "refined": None if self.refined is None else self.refined.to_dict(),
        }


def bulk_passive_learn(spec, *, refine: bool = True, shared_cache=None) -> BulkLearnResult:
    """The full pipeline: stream corpus -> fold -> targeted refinement.

    Requires a spec with a ``corpus`` section.  The corpus is read once
    (by the cache layer the spec assembles); its trie
    seeds the active learner's cache *and* folds into the passive
    :class:`~repro.learn.passive.PartialMealyMachine`.  With ``refine``,
    each undetermined ``(state, symbol)`` cell becomes one targeted
    membership query (access word + missing symbol) batched through the
    spec's oracle/executor stack, then the spec's active learner runs
    over the warmed cache.  Cache warmth never changes a deterministic
    SUL's answers, so the refined model is byte-identical to a
    pure-active run of the same spec -- and a covering corpus
    (:func:`record_full_corpus`) completes with zero SUL resets.
    """
    from ..framework import Prognosis
    from ..spec import SpecError

    if spec.corpus is None:
        raise SpecError("bulk_passive_learn needs a spec with a corpus section")
    spec.validate()
    with Prognosis.from_spec(spec, shared_cache=shared_cache) as prognosis:
        corpus_cache = prognosis.cache_oracle.corpus_cache
        stats = prognosis.cache_oracle.corpus_stats
        passive_model = fold_prefix_tree(
            prefix_tree_from_cache(corpus_cache), prognosis.oracle.input_alphabet
        )
        targeted = covered = 0
        refined = None
        if refine:
            access = passive_model.access_words()
            words = [
                access[state] + (symbol,)
                for state, symbol in passive_model.undetermined_cells()
            ]
            targeted = len(words)
            covered = sum(
                1 for word in words if corpus_cache.lookup(word) is not None
            )
            for start in range(0, len(words), spec.batch_size):
                prognosis.oracle.query_batch(words[start : start + spec.batch_size])
            refined = prognosis.learn()
    return BulkLearnResult(
        spec=spec,
        corpus_stats=stats,
        passive_model=passive_model,
        refined=refined,
        targeted_queries=targeted,
        targeted_covered=covered,
    )
