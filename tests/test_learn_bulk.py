"""Tests for the bulk-trace passive pipeline (corpus IO, middleware,
passive->active refinement)."""

import json

import pytest

from repro.core.trace import IOTrace
from repro.framework import Prognosis
from repro.learn.bulk import (
    CorpusFormatError,
    bulk_passive_learn,
    generate_corpus,
    load_corpus_cache,
    read_jsonl_corpus,
    record_full_corpus,
    stream_corpus,
    write_jsonl_corpus,
)
from repro.learn.cache import CacheInconsistencyError, CachedMembershipOracle, QueryCache
from repro.learn.passive import TraceConflictError
from repro.registry import MIDDLEWARE_REGISTRY, RegistryError, load_builtins
from repro.spec import CorpusSpec, ExperimentSpec, SpecError, assemble
from repro.store import QueryStore

from repro.core.alphabet import TCPSymbol, parse_tcp_symbol

SYN = TCPSymbol.make(["SYN"])
ACK = TCPSymbol.make(["ACK"])
SYNACK = TCPSymbol.make(["ACK", "SYN"])
NIL = parse_tcp_symbol("NIL")
RST = parse_tcp_symbol("RST(?,?,0)")


def session_traces():
    return [
        IOTrace((SYN,), (SYNACK,)),
        IOTrace((SYN, ACK), (SYNACK, NIL)),
        IOTrace((ACK, ACK), (NIL, NIL)),
    ]


class TestCorpusIO:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        count = write_jsonl_corpus(path, session_traces())
        assert count == 3
        assert list(read_jsonl_corpus(path)) == session_traces()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, session_traces())
        text = path.read_text().replace("\n", "\n\n")
        path.write_text(text)
        assert list(read_jsonl_corpus(path)) == session_traces()

    def test_malformed_line_names_its_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, session_traces()[:1])
        with open(path, "a") as handle:
            handle.write('{"inputs": "not-a-list"}\n')
        with pytest.raises(CorpusFormatError, match="line 2"):
            list(read_jsonl_corpus(path))

    @pytest.mark.parametrize(
        "symbol", [{"kind": "tcp", "text": 5}, {"kind": "raw", "text": ["x"]}]
    )
    def test_non_string_symbol_text_names_its_line(self, tmp_path, symbol):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, session_traces()[:1])
        with open(path, "a") as handle:
            handle.write(json.dumps({"inputs": [symbol], "outputs": [symbol]}) + "\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            list(read_jsonl_corpus(path))

    def test_non_json_line_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("definitely not json\n")
        with pytest.raises(CorpusFormatError, match="line 1"):
            list(read_jsonl_corpus(path))


class TestLoadCorpusCache:
    def test_stats_account_for_the_pass(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, session_traces())
        cache, stats = load_corpus_cache(path)
        assert stats.traces == 3
        assert stats.tokens == 5
        assert stats.words == cache.entries > 0
        assert stats.skipped == []
        assert cache.lookup((SYN, ACK)) == (SYNACK, NIL)

    def test_conflicting_trace_skipped_and_reported(self):
        traces = session_traces() + [IOTrace((SYN,), (NIL,))]
        cache, stats = load_corpus_cache(traces)
        assert stats.traces == 3
        assert len(stats.skipped) == 1
        conflict = stats.skipped[0]
        assert conflict.trace_index == 3
        assert conflict.cached == SYNACK
        assert conflict.fresh == NIL
        # The cache keeps the first-seen answer untouched.
        assert cache.lookup((SYN,)) == (SYNACK,)
        assert "trace_index" in conflict.to_dict()

    def test_strict_mode_raises_with_trace_index(self):
        traces = session_traces() + [IOTrace((SYN,), (NIL,))]
        with pytest.raises(TraceConflictError) as excinfo:
            load_corpus_cache(traces, skip_conflicts=False)
        assert excinfo.value.trace_index == 3

    def test_max_traces_truncates(self):
        cache, stats = load_corpus_cache(session_traces(), max_traces=2)
        assert stats.traces == 2
        assert cache.lookup((ACK, ACK)) is None


class TestIndexedCorpusOrdering:
    """Regression: attack-emitted (index, trace) corpora replay in order."""

    def test_pairs_sorted_by_index_before_write(self, tmp_path):
        traces = session_traces()
        # Arrival order scrambled (concurrently confirmed strategies):
        # the file must still come out index-sorted.
        pairs = [(2, traces[2]), (0, traces[0]), (1, traces[1])]
        path = tmp_path / "corpus.jsonl"
        assert write_jsonl_corpus(path, pairs) == 3
        assert list(stream_corpus(path)) == traces

    def test_bare_traces_keep_arrival_order(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, session_traces())
        assert list(stream_corpus(path)) == session_traces()

    def test_stream_corpus_caps_the_read(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, session_traces())
        assert list(stream_corpus(path, max_traces=2)) == session_traces()[:2]

    def test_stream_corpus_accepts_in_memory_iterables(self):
        assert list(stream_corpus(session_traces())) == session_traces()


def close_pipeline(pipeline) -> None:
    for layer in pipeline.middleware:
        close = getattr(layer, "close", None)
        if callable(close):
            close()
    close = getattr(pipeline.sul, "close", None)
    if callable(close):
        close()


class TestCorpusSeededCache:
    def test_store_and_passive_keys_are_gone(self):
        load_builtins()
        assert sorted(MIDDLEWARE_REGISTRY) == ["cache", "majority-vote"]
        spec = ExperimentSpec(target="toy", middleware=["passive"])
        with pytest.raises(RegistryError, match="cache"):
            spec.validate()

    def test_corpus_hits_counted(self, tmp_path, cached_oracle_for, toy_machine):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, session_traces())
        inner = cached_oracle_for(toy_machine).inner
        layer = CachedMembershipOracle(inner, corpus=CorpusSpec(path=str(path)))
        assert layer.corpus_stats.words == 3
        assert layer.corpus_skipped == 0
        assert layer.query((SYN, ACK)) == (SYNACK, NIL)  # corpus answers
        assert layer.corpus_hits == 1
        assert layer.query((ACK, SYN)) is not None  # live SUL answers
        assert layer.corpus_hits == 1
        assert 0.0 < layer.corpus_hit_rate < 1.0

    def test_counters_exist_without_sources(self, cached_oracle_for, toy_machine):
        layer = cached_oracle_for(toy_machine)
        layer.query((SYN, ACK))
        layer.query((SYN,))
        assert (layer.store_hits, layer.corpus_hits, layer.corpus_skipped) == (0, 0, 0)
        assert layer.store_hit_rate == layer.corpus_hit_rate == 0.0
        assert layer.corpus_stats.traces == 0
        layer.close()  # no store: nothing to flush

    def test_conflicting_shared_cache_line_is_skipped(
        self, tmp_path, cached_oracle_for, toy_machine
    ):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, [IOTrace((SYN,), (NIL,))])  # wrong answer
        shared = QueryCache()
        shared.insert((SYN,), (SYNACK,))
        inner = cached_oracle_for(toy_machine).inner
        layer = CachedMembershipOracle(
            inner, cache=shared, corpus=CorpusSpec(path=str(path))
        )
        assert layer.corpus_skipped == 1
        assert layer.corpus_stats.skipped[0].trace_index == 0
        assert layer.cache.lookup((SYN,)) == (SYNACK,)  # shared answer wins
        assert layer.corpus_cache.lookup((SYN,)) is None
        with pytest.raises(TraceConflictError):
            CachedMembershipOracle(
                inner,
                cache=shared,
                corpus=CorpusSpec(path=str(path), skip_conflicts=False),
            )

    def test_corpus_line_conflicting_with_a_store_row_is_skipped(
        self, tmp_path, cached_oracle_for, toy_machine
    ):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(corpus, [IOTrace((SYN, ACK), (NIL, NIL))])
        with QueryStore(tmp_path / "s.sqlite") as store:
            store.append("fp", (SYN,), (SYNACK,))
        inner = cached_oracle_for(toy_machine).inner
        layer = CachedMembershipOracle(
            inner,
            store=QueryStore(tmp_path / "s.sqlite"),
            fingerprint="fp",
            corpus=CorpusSpec(path=str(corpus)),
        )
        layer.close()
        assert layer.corpus_skipped == 1
        assert layer.cache.lookup((SYN, ACK)) is None
        with QueryStore(tmp_path / "s.sqlite") as store:
            assert store.word_count("fp") == 1  # the skipped line is not persisted

    def test_store_row_conflicting_with_shared_cache_raises(
        self, tmp_path, cached_oracle_for, toy_machine
    ):
        with QueryStore(tmp_path / "s.sqlite") as store:
            store.append("fp", (SYN,), (NIL,))  # stale row
        shared = QueryCache()
        shared.insert((SYN,), (SYNACK,))
        inner = cached_oracle_for(toy_machine).inner
        store = QueryStore(tmp_path / "s.sqlite")
        with pytest.raises(CacheInconsistencyError):
            CachedMembershipOracle(inner, cache=shared, store=store, fingerprint="fp")
        with pytest.raises(Exception, match="closed"):
            store.word_count("fp")  # the failed layer closed its store


class TestSpecWiring:
    def test_corpus_section_seeds_the_cache_layer(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(path, session_traces())
        spec = ExperimentSpec(
            target="toy", middleware=["cache"], corpus=str(path)
        )
        pipeline = assemble(spec)
        try:
            (layer,) = pipeline.middleware
            assert type(layer) is CachedMembershipOracle
            assert layer.corpus_stats.traces == 3
            assert layer.cache.lookup((SYN, ACK)) == (SYNACK, NIL)
            assert layer.store is None
        finally:
            close_pipeline(pipeline)

    def test_corpus_requires_a_seedable_layer(self, tmp_path):
        spec = ExperimentSpec(
            target="toy", middleware=[], corpus=str(tmp_path / "c.jsonl")
        )
        with pytest.raises(SpecError, match="corpus"):
            spec.validate()

    def test_corpus_round_trips_and_clones(self, tmp_path):
        spec = ExperimentSpec(
            target="toy",
            corpus={"path": "c.jsonl", "max_traces": 10},
        )
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored.corpus.path == "c.jsonl"
        assert restored.corpus.max_traces == 10
        clone = spec.clone()
        assert clone.corpus is not spec.corpus
        assert clone.corpus.to_dict() == spec.corpus.to_dict()
        # The corpus changes where answers come from, never what they are.
        assert (
            spec.sul_fingerprint()
            == ExperimentSpec(target="toy").sul_fingerprint()
        )

    def test_store_plus_corpus_persists_observations(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(corpus, session_traces())
        store = tmp_path / "store.sqlite"
        spec = ExperimentSpec(
            target="toy",
            middleware=["cache"],
            corpus=str(corpus),
            store=str(store),
        )
        pipeline = assemble(spec)
        try:
            (layer,) = pipeline.middleware
            assert layer.store is not None  # one layer holds both sources
            assert layer.corpus_stats.traces == 3
            assert layer.corpus_skipped == 0
        finally:
            close_pipeline(pipeline)
        with QueryStore(store) as persisted:
            assert persisted.word_count(spec.sul_fingerprint()) >= 3

    def test_store_plus_corpus_reports_corpus_hits(self, tmp_path):
        """With both a store and a covering corpus, the corpus answers
        every query, and the report says so."""
        corpus = tmp_path / "corpus.jsonl"
        spec = ExperimentSpec(target="toy", seed=3)
        record_full_corpus(spec, corpus)
        both = spec.clone(corpus=str(corpus), store=str(tmp_path / "s.sqlite"))
        with Prognosis.from_spec(both) as prognosis:
            report = prognosis.learn()
        assert report.sul_resets == 0
        assert report.corpus_hits == report.oracle_queries > 0
        assert report.corpus_hit_rate == 1.0
        assert report.store_hits == 0  # the store was empty at the start

    def test_seed_oracle_skips_conflicts_with_existing_answers(
        self, cached_oracle_for, toy_machine, tmp_path
    ):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(
            corpus, [IOTrace((SYN, ACK), (NIL, NIL)), IOTrace((ACK,), (NIL,))]
        )
        shared = QueryCache()
        shared.insert((SYN,), (SYNACK,))  # contradicts corpus line 1
        layer = CachedMembershipOracle(
            cached_oracle_for(toy_machine).inner,
            cache=shared,
            corpus=CorpusSpec(path=str(corpus)),
        )
        assert len(layer.corpus_stats.skipped) == 1
        assert layer.cache.lookup((SYN,)) == (SYNACK,)  # existing answer wins
        assert layer.cache.lookup((SYN, ACK)) is None
        assert layer.cache.lookup((ACK,)) == (NIL,)
        assert layer.corpus_skipped == 1

    def test_seed_oracle_strict_mode_raises(
        self, cached_oracle_for, toy_machine, tmp_path
    ):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl_corpus(corpus, [IOTrace((SYN, ACK), (NIL, NIL))])
        shared = QueryCache()
        shared.insert((SYN,), (SYNACK,))
        with pytest.raises(TraceConflictError):
            CachedMembershipOracle(
                cached_oracle_for(toy_machine).inner,
                cache=shared,
                corpus=CorpusSpec(path=str(corpus), skip_conflicts=False),
            )

    def test_bulk_learn_through_a_store_backed_stack(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        store = tmp_path / "store.sqlite"
        spec = ExperimentSpec(
            target="toy",
            middleware=["cache"],
            corpus=str(corpus),
            store=str(store),
        )
        generate_corpus(spec, corpus, num_sessions=50)
        result = bulk_passive_learn(spec)
        assert result.model.num_states == 3
        assert result.corpus_stats.traces == 50
        # The corpus observations were persisted through the store layer.
        with QueryStore(store) as persisted:
            assert persisted.word_count(spec.sul_fingerprint()) > 0


class TestGenerateCorpus:
    def test_generate_corpus_is_seed_deterministic(self, tmp_path):
        spec = ExperimentSpec(target="toy", seed=3)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert generate_corpus(spec, first, num_sessions=25) == 25
        generate_corpus(spec, second, num_sessions=25)
        assert first.read_text() == second.read_text()

    def test_record_full_corpus_covers_the_learner(self, tmp_path):
        corpus = tmp_path / "full.jsonl"
        spec = ExperimentSpec(
            target="toy", middleware=["cache"], corpus=str(corpus)
        )
        assert record_full_corpus(spec, corpus) > 0
        result = bulk_passive_learn(spec)
        # A covering corpus pre-answers everything: zero SUL resets.
        assert result.refined.sul_resets == 0
        assert result.refined.sul_queries == 0
        assert result.passive_model.completeness == 1.0


class TestBulkPipeline:
    def test_requires_a_corpus_section(self):
        with pytest.raises(SpecError, match="corpus"):
            bulk_passive_learn(ExperimentSpec(target="toy"))

    def test_refined_model_matches_pure_active(self, tmp_path, assert_identical_models):
        corpus = tmp_path / "corpus.jsonl"
        spec = ExperimentSpec(
            target="toy", middleware=["cache"], corpus=str(corpus)
        )
        generate_corpus(spec, corpus, num_sessions=60)
        result = bulk_passive_learn(spec)
        with Prognosis.from_spec(ExperimentSpec(target="toy")) as plain:
            active = plain.learn()
        assert_identical_models(result.model, active.model)
        assert result.refined.corpus_hits > 0
        assert result.refined.corpus_hit_rate > 0.0

    def test_partial_corpus_refines_undetermined_cells(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        # A single one-symbol session leaves most of the grid undetermined.
        spec = ExperimentSpec(
            target="toy", middleware=["cache"], corpus=str(corpus)
        )
        generate_corpus(spec, corpus, num_sessions=1, max_len=1)
        result = bulk_passive_learn(spec)
        assert result.targeted_queries > 0
        assert result.passive_model.completeness < 1.0
        assert result.model.num_states == 3  # still converges to the truth

    def test_no_refine_stops_at_the_partial_machine(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        spec = ExperimentSpec(
            target="toy", middleware=["cache"], corpus=str(corpus)
        )
        generate_corpus(spec, corpus, num_sessions=40)
        result = bulk_passive_learn(spec, refine=False)
        assert result.refined is None
        assert result.model is None
        assert result.passive_model.num_states >= 1
        assert "refinement" not in result.summary()

    def test_result_serializes(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        spec = ExperimentSpec(
            target="toy", middleware=["cache"], corpus=str(corpus)
        )
        generate_corpus(spec, corpus, num_sessions=30)
        result = bulk_passive_learn(spec)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["corpus"]["traces"] == 30
        assert payload["passive_model"]["num_states"] >= 1
        assert payload["refined"]["corpus_hits"] == result.refined.corpus_hits

    def test_skipped_conflicts_reach_the_report(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        spec = ExperimentSpec(
            target="toy", middleware=["cache"], corpus=str(corpus)
        )
        generate_corpus(spec, corpus, num_sessions=30)
        with open(corpus, "a") as handle:
            handle.write(
                json.dumps(
                    {
                        "inputs": [
                            {"kind": "tcp", "text": "SYN(?,?,0)"},
                        ],
                        "outputs": [
                            {"kind": "tcp", "text": "RST(?,?,0)"},
                        ],
                    }
                )
                + "\n"
            )
        result = bulk_passive_learn(spec)
        assert len(result.corpus_stats.skipped) == 1
        assert result.refined.corpus_skipped == 1
        assert "skipped conflicts" in result.summary()
