"""Tests for the persistent query/model store subsystem.

Covers the sqlite round-trips, the cache layer's store hit attribution
and -- the headline guarantee -- warm-start identity: a re-learn through a
populated store yields a byte-identical model with >= 90% of membership
queries served from the store and zero SUL resets, on every executor
backend, and every store/corpus combination learns the model a plain
cache learns.
"""

import json
import sqlite3

import pytest

from repro.campaign import Campaign, run_spec
from repro.framework import Prognosis
from repro.learn.bulk import record_full_corpus
from repro.learn.cache import CacheInconsistencyError, CachedMembershipOracle
from repro.spec import ExecutorSpec, ExperimentSpec, SpecError, StoreSpec, assemble
from repro.store import (
    FingerprintStats,
    ModelStore,
    QueryStore,
    StoreError,
    decode_word,
    encode_word,
)


def _model_bytes(model) -> str:
    return json.dumps(model.to_dict(), sort_keys=True)


class TestWordCodec:
    def test_round_trip(self, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        word = (syn, ack, syn)
        assert decode_word(encode_word(word)) == word

    def test_canonical_text(self, ab_alphabet):
        syn, _ = ab_alphabet.symbols
        text = encode_word((syn,))
        assert text == encode_word(decode_word(text))
        json.loads(text)  # valid, human-inspectable JSON


class TestQueryStore:
    def test_append_and_load_round_trip(self, tmp_path, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        path = tmp_path / "store.sqlite"
        with QueryStore(path) as store:
            store.append("fp", (syn, ack), toy_machine.run((syn, ack)))
            store.append("fp", (ack,), toy_machine.run((ack,)))
        with QueryStore(path) as store:
            cache = store.load("fp")
            assert cache.lookup((syn, ack)) == toy_machine.run((syn, ack))
            assert cache.lookup((syn,)) == toy_machine.run((syn,))  # prefix
            assert store.word_count("fp") == 2
            assert store.fingerprints() == ["fp"]

    def test_append_is_idempotent(self, tmp_path, toy_machine, ab_alphabet):
        syn, _ = ab_alphabet.symbols
        path = tmp_path / "store.sqlite"
        with QueryStore(path) as store:
            for _ in range(3):
                store.append("fp", (syn,), toy_machine.run((syn,)))
            store.flush()
            assert store.word_count("fp") == 1

    def test_flush_every_batches_writes(self, tmp_path, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        path = tmp_path / "store.sqlite"
        store = QueryStore(path, flush_every=10)
        store.append("fp", (syn,), toy_machine.run((syn,)))
        with sqlite3.connect(path) as probe:
            (count,) = probe.execute(
                "SELECT COUNT(*) FROM observations"
            ).fetchone()
        assert count == 0  # still buffered
        store.close()  # close flushes
        with sqlite3.connect(path) as probe:
            (count,) = probe.execute(
                "SELECT COUNT(*) FROM observations"
            ).fetchone()
        assert count == 1

    def test_fingerprints_are_isolated(self, tmp_path, toy_machine, ab_alphabet):
        syn, _ = ab_alphabet.symbols
        path = tmp_path / "store.sqlite"
        with QueryStore(path) as store:
            store.append("a", (syn,), toy_machine.run((syn,)))
            store.flush()
            assert store.word_count("b") == 0
            assert store.load("b").entries == 0

    def test_gc_drops_one_fingerprint(self, tmp_path, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        path = tmp_path / "store.sqlite"
        with QueryStore(path) as store:
            store.append("a", (syn,), toy_machine.run((syn,)))
            store.append("a", (ack,), toy_machine.run((ack,)))
            store.append("b", (syn,), toy_machine.run((syn,)))
            store.record_usage("a", hits=5, misses=2)
            assert store.gc("a") == 2
            assert store.word_count("a") == 0
            assert store.usage("a") == (0, 0)
            assert store.word_count("b") == 1

    def test_conflicting_rows_raise_on_load(self, tmp_path, ab_alphabet, out_symbols):
        syn, _ = ab_alphabet.symbols
        synack, nil = out_symbols
        path = tmp_path / "store.sqlite"
        with QueryStore(path) as store:
            store.append("fp", (syn,), (synack,))
            # A second writer stored a disagreeing extension of the word.
            store.append("fp", (syn, syn), (nil, nil))
        with QueryStore(path) as store:
            with pytest.raises(CacheInconsistencyError):
                store.load("fp")

    def test_usage_accumulates_across_sessions(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with QueryStore(path) as store:
            store.record_usage("fp", hits=3, misses=1)
        with QueryStore(path) as store:
            store.record_usage("fp", hits=2, misses=0)
            assert store.usage("fp") == (5, 1)

    def test_rejects_bad_flush_every(self, tmp_path):
        with pytest.raises(StoreError):
            QueryStore(tmp_path / "store.sqlite", flush_every=0)

    def test_stats_hit_rate(self):
        stats = FingerprintStats(
            fingerprint="fp", observations=10, models=1, hits=9, misses=1
        )
        assert stats.hit_rate == pytest.approx(0.9)
        empty = FingerprintStats("fp", 0, 0, 0, 0)
        assert empty.hit_rate == 0.0


class TestModelStore:
    def test_save_and_latest_round_trip(self, tmp_path, toy_machine):
        path = tmp_path / "store.sqlite"
        with ModelStore(path) as models:
            version = models.save(
                "fp", toy_machine, spec={"target": "toy"}, stats={"rounds": 1}
            )
            assert version == 1
        with ModelStore(path) as models:
            record = models.latest("fp")
            assert record.version == 1
            assert record.spec == {"target": "toy"}
            assert record.stats == {"rounds": 1}
            assert _model_bytes(record.machine()) == _model_bytes(toy_machine)

    def test_versions_form_a_lineage(self, tmp_path, toy_machine):
        path = tmp_path / "store.sqlite"
        with ModelStore(path) as models:
            assert models.save("fp", toy_machine) == 1
            assert models.save("fp", toy_machine) == 2
            assert models.save("other", toy_machine) == 1
            assert [r.version for r in models.history("fp")] == [1, 2]
            assert models.version_count("fp") == 2
            assert models.fingerprints() == ["fp", "other"]
            assert models.latest("missing") is None

    def test_gc_drops_lineage(self, tmp_path, toy_machine):
        path = tmp_path / "store.sqlite"
        with ModelStore(path) as models:
            models.save("fp", toy_machine)
            models.save("fp", toy_machine)
            assert models.gc("fp") == 2
            assert models.latest("fp") is None

    def test_shares_file_with_query_store(self, tmp_path, toy_machine, ab_alphabet):
        syn, _ = ab_alphabet.symbols
        path = tmp_path / "store.sqlite"
        with QueryStore(path) as store:
            store.append("fp", (syn,), toy_machine.run((syn,)))
        with ModelStore(path) as models:
            models.save("fp", toy_machine)
        with QueryStore(path) as store:
            assert store.word_count("fp") == 1


class TestStoreSpecSection:
    def test_round_trips_losslessly(self):
        spec = ExperimentSpec(
            target="toy", store=StoreSpec(path="s.sqlite", flush_every=8)
        )
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert again.store.flush_every == 8

    def test_string_shorthand(self):
        spec = ExperimentSpec.from_dict(
            {"target": "toy", "store": "s.sqlite"}
        )
        assert spec.store == StoreSpec(path="s.sqlite")

    def test_absent_section_stays_none(self):
        spec = ExperimentSpec(target="toy")
        assert spec.store is None
        assert ExperimentSpec.from_json(spec.to_json()).store is None

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict(
                {"target": "toy", "store": {"path": "s", "nope": 1}}
            )

    def test_validate_needs_a_cache_layer(self):
        spec = ExperimentSpec(
            target="toy", middleware=[], store=StoreSpec(path="s.sqlite")
        )
        with pytest.raises(SpecError):
            spec.validate()

    def test_validate_rejects_bad_knobs(self):
        with pytest.raises(SpecError):
            ExperimentSpec(target="toy", store=StoreSpec(path="")).validate()
        with pytest.raises(SpecError):
            ExperimentSpec(
                target="toy", store=StoreSpec(path="s", flush_every=0)
            ).validate()

    def test_clone_deep_copies_the_section(self):
        spec = ExperimentSpec(target="toy", store=StoreSpec(path="s.sqlite"))
        clone = spec.clone()
        clone.store.path = "other.sqlite"
        assert spec.store.path == "s.sqlite"

    def test_fingerprint_ignores_store(self):
        bare = ExperimentSpec(target="toy")
        stored = ExperimentSpec(target="toy", store=StoreSpec(path="s.sqlite"))
        assert bare.sul_fingerprint() == stored.sul_fingerprint()

    def test_assemble_swaps_cache_for_store(self, tmp_path):
        spec = ExperimentSpec(
            target="toy", store=StoreSpec(path=str(tmp_path / "s.sqlite"))
        )
        pipeline = assemble(spec)
        try:
            (layer,) = pipeline.middleware
            assert type(layer) is CachedMembershipOracle
            assert layer.store is not None
            assert layer.fingerprint == spec.sul_fingerprint()
        finally:
            for layer in pipeline.middleware:
                layer.close()


class TestStoreBackedCache:
    def _learn(self, spec, store):
        result = run_spec(spec, store=store)
        assert result.ok, result.error
        return result

    def test_cold_run_populates_the_store(self, tmp_path):
        store = tmp_path / "store.sqlite"
        spec = ExperimentSpec(target="toy", name="toy")
        result = self._learn(spec, store)
        assert result.report.store_hit_rate == 0.0
        with QueryStore(store) as qs:
            assert qs.word_count(spec.sul_fingerprint()) > 0
        with ModelStore(store) as ms:
            assert ms.version_count(spec.sul_fingerprint()) == 1

    @pytest.mark.parametrize(
        "executor",
        [None, ExecutorSpec(kind="thread", workers=2),
         ExecutorSpec(kind="process", workers=2)],
        ids=["serial", "thread", "process"],
    )
    def test_warm_start_identity(self, tmp_path, executor):
        """Cold then warm re-learn: byte-identical model, >= 90% of the
        queries store-served, zero SUL resets -- on every backend."""
        store = tmp_path / "store.sqlite"
        workers = 1 if executor is None else executor.workers
        spec = ExperimentSpec(
            target="tcp-handshake", name="tcp-handshake",
            workers=workers, executor=executor,
        )
        cold = self._learn(spec, store)
        warm = self._learn(spec, store)
        assert _model_bytes(warm.model) == _model_bytes(cold.model)
        assert warm.report.store_hit_rate >= 0.9
        assert warm.report.sul_resets == 0

    @pytest.mark.parametrize("target", ["toy", "tcp"])
    @pytest.mark.parametrize(
        "source", ["cache", "store-cold", "store-warm", "corpus", "store+corpus"]
    )
    def test_every_source_learns_the_plain_cache_model(self, tmp_path, target, source):
        """Where cached answers come from never changes what is learned:
        same model bytes and the same learner queries as a plain cache."""
        spec = ExperimentSpec(target=target, name=target)
        with Prognosis.from_spec(spec) as prognosis:
            plain = prognosis.learn()
        store, corpus = str(tmp_path / "s.sqlite"), str(tmp_path / "c.jsonl")
        if "corpus" in source:
            record_full_corpus(spec, corpus)
        sourced = spec.clone(
            store=store if "store" in source else None,
            corpus=corpus if "corpus" in source else None,
        )
        if source == "store-warm":
            with Prognosis.from_spec(sourced) as prognosis:
                prognosis.learn()
        with Prognosis.from_spec(sourced) as prognosis:
            report = prognosis.learn()
        assert _model_bytes(report.model) == _model_bytes(plain.model)
        assert report.oracle_queries == plain.oracle_queries
        if source in ("store-warm", "corpus", "store+corpus"):
            assert report.sul_resets == 0
        assert (report.store_hits > 0) == (source == "store-warm")
        assert (report.corpus_hits > 0) == ("corpus" in source)

    def test_store_hits_attributed_only_to_preloaded(self, tmp_path):
        store = tmp_path / "store.sqlite"
        spec = ExperimentSpec(target="toy", name="toy")
        cold = self._learn(spec, store)
        assert cold.report.store_hits == 0  # nothing preloaded yet
        warm = self._learn(spec, store)
        assert warm.report.store_hits > 0
        assert warm.report.store_hits <= warm.report.oracle_queries

    def test_usage_recorded_on_close(self, tmp_path):
        store = tmp_path / "store.sqlite"
        spec = ExperimentSpec(target="toy", name="toy")
        self._learn(spec, store)
        self._learn(spec, store)
        with QueryStore(store) as qs:
            hits, misses = qs.usage(spec.sul_fingerprint())
        assert misses > 0  # the cold run
        assert hits > 0  # the warm run

    def test_campaign_store_parameter_reaches_every_spec(self, tmp_path):
        store = tmp_path / "store.sqlite"
        campaign = Campaign(
            [ExperimentSpec(target="toy", name="a"),
             ExperimentSpec(target="toy", name="b")],
            store=store,
        )
        assert all(spec.store is not None for spec in campaign.specs)
        results = campaign.run()
        assert all(result.ok for result in results)
        with QueryStore(store) as qs:
            assert qs.word_count(campaign.specs[0].sul_fingerprint()) > 0

    def test_spec_own_store_section_wins(self, tmp_path):
        own = StoreSpec(path=str(tmp_path / "own.sqlite"))
        campaign = Campaign(
            [ExperimentSpec(target="toy", store=own)],
            store=tmp_path / "other.sqlite",
        )
        assert campaign.specs[0].store.path == own.path
