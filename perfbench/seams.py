"""Which program calls are traced, and the per-layer metrics built from them.

Layers follow the modules: ``learn`` (learn/ttt.py, lstar.py,
counterexample.py), ``eq`` (learn/equivalence.py and the W-method suite),
``cache`` (learn/cache.py), ``store`` (store/), ``passive`` (learn/bulk.py,
learn/passive.py), ``alphabet`` (symbol deserialization), ``executor``
(adapter/executor.py, adapter/pool.py), ``sul`` (adapter/sul.py and the
membership oracle in front of it), ``transport``, ``server``, ``netsim``,
``codec``, ``crypto``, ``analysis`` and ``attack``.
"""

from __future__ import annotations

from itertools import zip_longest
from statistics import median

from spans import Patcher, Tracer

#: Layers whose open span decides who caused a membership query.
OWNERS = ("eq", "attack", "analysis", "passive")

#: (module, Class.method or function, layer, span name)
PLAIN = [
    ("repro.learn.ttt", "TTTLearner.learn", "learn", "learn.run"),
    ("repro.learn.lstar", "LStarLearner.learn", "learn", "learn.run"),
    ("repro.learn.ttt", "TTTLearner._process_counterexample", "learn", "learn.rs"),
    ("repro.core.mealy", "MealyMachine.w_method_suite", "eq", "eq.suite"),
    ("repro.store.query_store", "QueryStore.__init__", "store", "store.open"),
    ("repro.store.query_store", "QueryStore.flush", "store", "store.flush"),
    ("repro.store.query_store", "QueryStore.append", "store", "store.append"),
    ("repro.store.query_store", "QueryStore.record_usage", "store", "store.usage"),
    ("repro.store.query_store", "QueryStore.close", "store", "store.close"),
    ("repro.adapter.executor", "ExecutorBackend.map", "executor", "executor.map"),
    ("repro.adapter.sul", "SUL.reset", "sul", "sul.reset"),
    ("repro.quic.impls.tracker", "TrackerClient.exchange", "transport", "transport.exchange"),
    ("repro.adapter.layered", "Transport.exchange", "transport", "transport.exchange"),
    ("repro.tcp.client", "TCPClient.exchange", "transport", "transport.exchange"),
    ("repro.http2.client", "HTTP2Client.exchange", "transport", "transport.exchange"),
    ("repro.quic.connection", "QUICServer._handle", "server", "server.handle"),
    ("repro.quic.connection", "QUICServerConnection.handle_packet", "server", "server.handle"),
    ("repro.tcp.server", "TCPServer._handle", "server", "server.handle"),
    ("repro.http2.server", "HTTP2Server.process_bytes", "server", "server.handle"),
    ("repro.h3.server", "H3Server.handle_data", "server", "server.handle"),
    ("repro.h3.server", "H3Server.handle_reset", "server", "server.handle"),
    ("repro.netsim.network", "SimulatedNetwork.run", "netsim", "netsim.run"),
    ("repro.tcp.segment", "TCPSegment.encode", "codec", "codec.tcp"),
    ("repro.tcp.segment", "TCPSegment.decode", "codec", "codec.tcp"),
    ("repro.http2.frames", "Frame.encode", "codec", "codec.http2"),
    ("repro.http2.frames", "Frame.decode", "codec", "codec.http2"),
    ("repro.http2.frames", "FrameDecoder.feed", "codec", "codec.http2"),
    ("repro.http2.hpack", "HPACKEncoder.encode", "codec", "codec.http2"),
    ("repro.http2.hpack", "HPACKDecoder.decode", "codec", "codec.http2"),
    ("repro.h3.frames", "H3Frame.encode", "codec", "codec.h3"),
    ("repro.h3.frames", "H3FrameDecoder.feed", "codec", "codec.h3"),
    ("repro.h3.qpack", "QPACKEncoder.encode", "codec", "codec.h3"),
    ("repro.h3.qpack", "QPACKDecoder.decode", "codec", "codec.h3"),
    ("repro.quic.crypto", "DirectionalKey.seal", "crypto", "crypto.seal"),
    ("repro.quic.crypto", "DirectionalKey.open", "crypto", "crypto.open"),
    ("repro.analysis.property_api", "check_model_property", "analysis", "analysis.property"),
    ("repro.learn.counterexample", "rivest_schapire", "learn", "learn.rs"),
    ("repro.learn.passive", "prefix_tree_from_cache", "passive", "passive.fold"),
    ("repro.learn.passive", "fold_prefix_tree", "passive", "passive.fold"),
    ("repro.core.alphabet", "deserialize_symbol", "alphabet", "alphabet.deserialize"),
    ("repro.netsim.network", "SimulatedNetwork.send", "netsim", "netsim.send"),
    ("repro.quic.packet", "encode_packet", "codec", "codec.quic"),
    ("repro.quic.packet", "decode_packet", "codec", "codec.quic"),
    ("repro.quic.frames", "encode_frames", "codec", "codec.quic"),
    ("repro.quic.frames", "decode_frames", "codec", "codec.quic"),
    ("repro.quic.crypto", "hkdf_expand_label", "crypto", "crypto.hkdf"),
    ("repro.quic.crypto", "hkdf_extract", "crypto", "crypto.hkdf"),
    ("repro.quic.crypto", "initial_keys", "crypto", "crypto.keys"),
    ("repro.quic.crypto", "handshake_keys", "crypto", "crypto.keys"),
    ("repro.quic.crypto", "application_keys", "crypto", "crypto.keys"),
    ("repro.quic.crypto", "retry_integrity_tag", "crypto", "crypto.keys"),
    ("repro.quic.crypto", "stateless_reset_token", "crypto", "crypto.keys"),
    ("repro.quic.crypto", "address_validation_token", "crypto", "crypto.keys"),
    ("repro.analysis.difftest", "minimize_witness", "analysis", "analysis.minimize"),
    ("repro.analysis.property_api", "check_properties", "analysis", "analysis.check"),
    ("repro.attack.search", "synthesize_attack", "attack", "attack.search"),
]

#: Layers each workload must reach (``fire``) and must bypass (``silent``),
#: judged by the parent process's spans.  An entry with a dot names a span.
SEAMS = {
    "learn-quic": {
        "fire": ("learn", "eq", "cache", "sul", "transport", "server", "netsim",
                 "codec", "crypto"),
        "silent": ("executor", "store", "passive", "analysis", "attack"),
    },
    "learn-stream": {
        "fire": ("learn", "eq", "cache", "sul", "transport", "server", "netsim",
                 "codec"),
        "silent": ("crypto", "executor", "store", "passive", "analysis", "attack"),
    },
    "learn-pooled": {
        "fire": ("learn", "eq", "cache", "store", "executor"),
        "silent": ("crypto", "passive", "analysis", "attack"),
    },
    # Building a QUIC SUL derives keys, so offline may touch crypto, but
    # it never protects a packet.
    "offline": {
        "fire": ("learn", "eq", "cache", "store", "passive", "alphabet",
                 "analysis", "attack"),
        "silent": ("crypto.seal", "crypto.open", "executor"),
    },
}

PER_LAYER = [
    "learn.self_s", "learn.rounds", "learn.mq_words", "learn.rs_s",
    "eq.self_s", "eq.suite_s", "eq.words", "eq.miss_words", "eq.ce_per_kword",
    "cache.self_s", "cache.words_in", "cache.words_out", "cache.hit_rate",
    "cache.prefix_collapsed", "cache.deduped",
    "store.load_s", "store.rows_loaded", "store.append_rows", "store.flush_s",
    "passive.load_s", "passive.fold_s", "passive.traces", "passive.skipped",
    "alphabet.deserialize_s", "alphabet.deserialize_calls",
    "executor.map_s", "executor.batches", "executor.words", "executor.imbalance",
    "executor.failed",
    "sul.self_s", "sul.reset_s", "sul.query_p50_us", "sul.query_p99_us",
    "sul.steps_per_query",
    "transport.self_s", "transport.exchanges",
    "server.self_s", "server.packets",
    "netsim.self_s", "netsim.datagrams",
    "codec.self_s", "codec.calls",
    "crypto.self_s", "crypto.seal_calls", "crypto.open_calls", "crypto.hkdf_calls",
    "analysis.self_s", "analysis.properties", "analysis.minimize_s",
    "attack.search_s", "attack.replay_s", "attack.confirmed_ratio",
    "other.self_s",
]

ROW_FIELDS = ("states", "sul_queries", "sul_steps", "sul_resets", "us_per_step", "wall_s")


def install(tracer: Tracer) -> Patcher:
    """Wrap every seam; returns the patcher that removes them again."""
    patcher = Patcher(tracer)
    counts = tracer.counts

    def owner() -> str:
        return tracer.innermost(OWNERS) or "learn"

    def words_of(args, method: str) -> int:
        return len(args[1]) if method == "query_batch" else 1

    def on_cache(method):
        def hook(args, kwargs):
            if tracer.top_layer() == "cache":
                return  # a subclass layer delegating to its base
            words = words_of(args, method)
            counts["cache.words_in"] += words
            counts[f"words.{owner()}"] += words
        return hook

    def on_sul_oracle(method):
        def hook(args, kwargs):
            words = words_of(args, method)
            counts["sul.words"] += words
            counts[f"sul_words.{owner()}"] += words
        return hook

    def on_eq_result(args, result, duration):
        if result is not None and not tracer.is_open("eq.find"):
            counts["eq.counterexamples"] += 1

    def on_sul_query(args, result, duration):
        if not tracer.is_open("sul.query"):
            tracer.samples["sul.query"].append(duration)

    def on_rows(args, result, duration):
        counts["store.rows_loaded"] += len(result)

    def on_corpus(args, result, duration):
        stats = result[1]
        counts["passive.traces"] += stats.traces
        counts["passive.skipped"] += len(stats.skipped)

    def on_pool(args, kwargs):
        counts["executor.words"] += len(args[1])

    def on_replay(args, result, duration):
        counts["attack.replayed"] += len(result)
        counts["attack.confirmed"] += sum(
            1 for r in result if r.verdict == "CONFIRMED"
        )

    def on_respawn(args, kwargs):
        counts["executor.failed"] += 1

    for module, attribute, layer, name in PLAIN:
        wrap = patcher.method if "." in attribute else patcher.function
        wrap(module, attribute, layer, name)
    for method in ("query", "query_batch"):
        patcher.method(
            "repro.learn.cache", f"CachedMembershipOracle.{method}", "cache",
            "cache.query", on_call=on_cache(method),
        )
        patcher.method(
            "repro.learn.teacher", f"SULMembershipOracle.{method}", "sul",
            "sul.oracle", on_call=on_sul_oracle(method),
        )
    for oracle in (
        "WMethodEquivalenceOracle", "RandomWordEquivalenceOracle",
        "ChainedEquivalenceOracle", "FixedWordsEquivalenceOracle",
    ):
        patcher.method(
            "repro.learn.equivalence", f"{oracle}.find_counterexample", "eq",
            "eq.find", on_result=on_eq_result,
        )
    patcher.method("repro.adapter.sul", "SUL.query", "sul", "sul.query",
                   on_result=on_sul_query)
    patcher.method("repro.store.query_store", "QueryStore.observations", "store",
                   "store.load", on_result=on_rows, materialize=True)
    patcher.function("repro.learn.bulk", "load_corpus_cache", "passive",
                     "passive.load", on_result=on_corpus)
    patcher.method("repro.adapter.pool", "SULPool.query_batch", "executor",
                   "executor.pool", on_call=on_pool)
    patcher.method("repro.adapter.executor", "ProcessExecutor._respawn", "executor",
                   "executor.respawn", on_call=on_respawn)
    patcher.function("repro.attack.replay", "replay_strategies", "attack",
                     "attack.replay", on_result=on_replay)
    return patcher


def _percentile(samples: list[float], share: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def layer_metrics(tracer: Tracer, ops, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    counts, calls, inclusive = tracer.counts, tracer.calls, tracer.inclusive_s
    self_s = tracer.self_s
    eq_words = counts["words.eq"]
    learn_ops = [op for op in ops if op.kind in ("learn", "relearn", "passive")]
    queries = sum(op.sul[0] for op in ops)
    steps = sum(op.sul[1] for op in ops)
    cache_words = sum(op.oracle_queries for op in learn_ops)
    cache_hits = sum(op.oracle_queries * op.cache_hit_rate for op in learn_ops)
    per_worker = [
        sum(loads)
        for loads in zip_longest(*(op.worker_queries for op in ops), fillvalue=0)
    ]
    mean_load = sum(per_worker) / len(per_worker) if per_worker else 0.0
    replayed = counts["attack.replayed"]
    query_samples = tracer.samples["sul.query"]
    metrics = {
        "learn.self_s": self_s["learn"],
        "learn.rounds": sum(op.rounds for op in learn_ops),
        "learn.mq_words": counts["words.learn"],
        "learn.rs_s": inclusive["learn.rs"],
        "eq.self_s": self_s["eq"],
        "eq.suite_s": inclusive["eq.suite"],
        "eq.words": eq_words,
        "eq.miss_words": counts["sul_words.eq"],
        "eq.ce_per_kword": (
            1000.0 * counts["eq.counterexamples"] / eq_words if eq_words else 0.0
        ),
        "cache.self_s": self_s["cache"],
        "cache.words_in": counts["cache.words_in"],
        "cache.words_out": counts["sul.words"],
        "cache.hit_rate": cache_hits / cache_words if cache_words else 0.0,
        "cache.prefix_collapsed": sum(op.prefix_collapsed for op in learn_ops),
        "cache.deduped": sum(op.deduped for op in learn_ops),
        "store.load_s": inclusive["store.load"],
        "store.rows_loaded": counts["store.rows_loaded"],
        "store.append_rows": calls["store.append"],
        "store.flush_s": inclusive["store.flush"],
        "passive.load_s": inclusive["passive.load"],
        "passive.fold_s": inclusive["passive.fold"],
        "passive.traces": counts["passive.traces"],
        "passive.skipped": counts["passive.skipped"],
        "alphabet.deserialize_s": inclusive["alphabet.deserialize"],
        "alphabet.deserialize_calls": calls["alphabet.deserialize"],
        "executor.map_s": inclusive["executor.map"],
        "executor.batches": tracer.outer_calls["executor"],
        "executor.words": counts["executor.words"],
        "executor.imbalance": max(per_worker) / mean_load if mean_load else 0.0,
        "executor.failed": counts["executor.failed"],
        "sul.self_s": self_s["sul"],
        "sul.reset_s": inclusive["sul.reset"],
        "sul.query_p50_us": 1e6 * _percentile(query_samples, 0.50),
        "sul.query_p99_us": 1e6 * _percentile(query_samples, 0.99),
        "sul.steps_per_query": steps / queries if queries else 0.0,
        "transport.self_s": self_s["transport"],
        "transport.exchanges": tracer.outer_calls["transport"],
        "server.self_s": self_s["server"],
        "server.packets": tracer.outer_calls["server"],
        "netsim.self_s": self_s["netsim"],
        "netsim.datagrams": calls["netsim.send"],
        "codec.self_s": self_s["codec"],
        "codec.calls": tracer.outer_calls["codec"],
        "crypto.self_s": self_s["crypto"],
        "crypto.seal_calls": calls["crypto.seal"],
        "crypto.open_calls": calls["crypto.open"],
        "crypto.hkdf_calls": calls["crypto.hkdf"],
        "analysis.self_s": self_s["analysis"],
        "analysis.properties": calls["analysis.property"],
        "analysis.minimize_s": inclusive["analysis.minimize"],
        "attack.search_s": inclusive["attack.search"],
        "attack.replay_s": inclusive["attack.replay"],
        "attack.confirmed_ratio": (
            counts["attack.confirmed"] / replayed if replayed else 0.0
        ),
        "other.self_s": wall_s - tracer.covered_s,
    }
    return metrics


def seam_failures(workload: str, tracer: Tracer, patcher: Patcher, ops) -> list[str]:
    """Seams that did not fire where they must, or fired where they must not."""
    failures = [f"seam not found: {name}" for name in patcher.missing]
    expected = SEAMS[workload]
    for layer in expected["fire"]:
        if tracer.layer_calls[layer] == 0:
            failures.append(f"{workload}: layer {layer} never fired")
    for seam in expected["silent"]:
        fired = tracer.calls[seam] if "." in seam else tracer.layer_calls[seam]
        if fired:
            failures.append(f"{workload}: {seam} fired {fired} times")
    if workload == "offline":
        queries = sum(op.sul[0] for op in ops)
        if queries > 0.01 * tracer.counts["cache.words_in"]:
            failures.append(f"offline: {queries} SUL queries is not about 0")
    return failures


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(row[name] for row in rows) for name in rows[0]}
