"""The four benchmark workloads, driven through the public ``repro`` API.

Every workload is a closed loop: one learner at a time, each waiting for
its query batches, all driven from this process (``learn-pooled`` adds
worker processes behind the executor).  An *iteration* is one pass over
the workload's targets and yields one :class:`Op` per operation: a learn,
a store relearn, a passive relearn, a property suite or an attack run.
Only the calls into the program are timed; the correctness checks run
between the timed regions.
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import References

TARGETS = {
    "learn-quic": ("quic-google", "quic-quiche"),
    "learn-stream": (
        "tcp",
        "tcp-no-challenge-ack",
        "http2",
        "http2-buggy",
        "http3",
        "http3-buggy",
    ),
    "learn-pooled": ("tcp", "http2", "http3"),
    "offline": ("tcp", "http2", "http3", "quic-google"),
}

WORKLOADS = tuple(TARGETS)

#: Every target any workload learns (the per-target rows of the trace).
ALL_TARGETS = tuple(dict.fromkeys(t for targets in TARGETS.values() for t in targets))

POOL_WORKERS = min(2, os.cpu_count() or 1)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Meter:
    """Accumulates wall and CPU time (own plus reaped children) over the
    ``with`` blocks it is entered for."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def __enter__(self) -> "Meter":
        self._wall = time.perf_counter()
        self._cpu = time.process_time() + _children_cpu()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s += time.perf_counter() - self._wall
        self.cpu_s += time.process_time() + _children_cpu() - self._cpu


@dataclass
class Op:
    """One operation of an iteration and what it cost."""

    kind: str  # learn | relearn | passive | properties | attacks
    target: str
    meter: Meter
    error: str | None = None
    sul: tuple[int, int, int] = (0, 0, 0)  # queries, steps, resets
    #: Exact counters that must repeat across iterations and seeds.
    counters: tuple = ()
    states: int = 0
    rounds: int = 0
    oracle_queries: int = 0
    cache_hit_rate: float = 0.0
    prefix_collapsed: int = 0
    deduped: int = 0
    worker_queries: list[int] = field(default_factory=list)


def _learn_op(kind: str, target: str, meter: Meter, report, refs: References) -> Op:
    eq_words = sum(
        stats["words_submitted"] for stats in report.eq_attribution.values()
    )
    sul = (report.sul_queries, report.sul_steps, report.sul_resets)
    return Op(
        kind=kind,
        target=target,
        meter=meter,
        error=refs.model_error(target, report.model.to_dict()),
        sul=sul,
        counters=sul + (report.oracle_queries - eq_words, eq_words),
        states=report.num_states,
        rounds=report.rounds,
        oracle_queries=report.oracle_queries,
        cache_hit_rate=report.cache_hit_rate,
        prefix_collapsed=report.prefix_collapsed,
        deduped=report.batch_deduped,
    )


def _failed_op(kind: str, target: str, meter: Meter, error: Exception) -> Op:
    return Op(kind, target, meter, error=f"{target}: {type(error).__name__}: {error}")


def _remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


class Workload:
    """Set-up state plus one iteration of a workload.

    ``workdir`` is a scratch directory inside the checkout that the
    caller creates and removes.
    """

    def __init__(self, name: str, workdir: Path, refs: References) -> None:
        self.name = name
        self.targets = TARGETS[name]
        self.workdir = workdir
        self.refs = refs
        self.iterations = 0

    def spec(self, target: str, seed: int):
        from repro import ExperimentSpec

        return ExperimentSpec(target=target, target_params={"seed": seed})

    # -- set-up --------------------------------------------------------------
    def setup(self, seed: int) -> None:
        """Build each target's pipeline once (and, for ``offline``, fill
        the query store and write the covering corpora)."""
        from repro import Prognosis

        for target in self.targets:
            self.refs.model(target)
            spec = self.spec(target, seed)
            if self.name == "learn-pooled":
                spec = spec.clone(executor={"kind": "process", "workers": POOL_WORKERS})
            Prognosis.from_spec(spec).close()
        if self.name == "offline":
            self._populate(seed)

    def _store_path(self) -> Path:
        return self.workdir / "store.sqlite"

    def _corpus_path(self, target: str) -> Path:
        return self.workdir / f"{target}.jsonl"

    def _populate(self, seed: int) -> None:
        from repro import Prognosis
        from repro.learn.bulk import record_full_corpus

        for target in self.targets:
            spec = self.spec(target, seed)
            corpus = self._corpus_path(target)
            record_full_corpus(spec, corpus)
            # A spec with both a store and a corpus streams the corpus
            # through the store-backed cache, which persists it.
            Prognosis.from_spec(
                spec.clone(store=str(self._store_path()), corpus=str(corpus))
            ).close()

    # -- iterations ----------------------------------------------------------
    def iteration(self, seed: int) -> list[Op]:
        index, self.iterations = self.iterations, self.iterations + 1
        if self.name == "offline":
            return [op for t in self.targets for op in self._offline(t, seed)]
        return [self._learn(target, seed, index) for target in self.targets]

    def _learn(self, target: str, seed: int, index: int) -> Op:
        from repro import Prognosis

        spec = self.spec(target, seed)
        store = None
        if self.name == "learn-pooled":
            store = self.workdir / f"pooled-{index}-{target}.sqlite"
            spec = spec.clone(
                executor={"kind": "process", "workers": POOL_WORKERS},
                store=str(store),
            )
        meter = Meter()
        try:
            with meter:
                with Prognosis.from_spec(spec) as prognosis:
                    report = prognosis.learn()
                    workers = (
                        prognosis.sul.per_worker_queries()
                        if store is not None
                        else []
                    )
        except Exception as error:  # a failed learn is a failed operation
            return _failed_op("learn", target, meter, error)
        finally:
            if store is not None:
                _remove_store(store)
        op = _learn_op("learn", target, meter, report, self.refs)
        op.worker_queries = workers
        return op

    def _offline(self, target: str, seed: int) -> list[Op]:
        from repro import Prognosis
        from repro.attack.replay import run_attacks
        from repro.learn.bulk import bulk_passive_learn

        spec = self.spec(target, seed)
        ops = []

        # Relearn from the query store, then run the property suite on the
        # relearned model (its oracle table is that run's).
        learn_meter, props_meter = Meter(), Meter()
        model = None
        try:
            with learn_meter:
                prognosis = Prognosis.from_spec(
                    spec.clone(store=str(self._store_path()))
                )
            try:
                with learn_meter:
                    report = prognosis.learn()
                model = report.model
                with props_meter:
                    properties = prognosis.check_properties(model)
            finally:
                with learn_meter:
                    prognosis.close()
            ops.append(_learn_op("relearn", target, learn_meter, report, self.refs))
            verdicts = {v.property.name: str(v.verdict) for v in properties}
            error = self.refs.property_error(target, verdicts)
            ops.append(Op("properties", target, props_meter, error=error))
        except Exception as error:
            if model is None:
                ops.append(_failed_op("relearn", target, learn_meter, error))
            else:
                ops.append(_failed_op("properties", target, props_meter, error))

        # Relearn from the covering JSONL corpus (fold, then refine).
        meter = Meter()
        try:
            with meter:
                bulk = bulk_passive_learn(
                    spec.clone(corpus=str(self._corpus_path(target)))
                )
            ops.append(_learn_op("passive", target, meter, bulk.refined, self.refs))
        except Exception as error:
            ops.append(_failed_op("passive", target, meter, error))

        # Synthesize attacks on the model and replay them on a live SUL.
        meter = Meter()
        if model is None:
            ops.append(Op("attacks", target, meter, error=f"{target}: no model"))
            return ops
        try:
            with meter:
                with Prognosis.from_spec(spec.clone(middleware=[])) as live:
                    attacks = run_attacks(
                        spec, model, live.oracle, oracle_table=live.sul.oracle_table
                    )
                    stats = live.sul.stats
            verdicts = {r.strategy.attacker: r.verdict for r in attacks.results}
            verdicts.update({name: "unreachable" for name in attacks.unreachable})
            verdicts.update({name: "skipped" for name in attacks.skipped})
            sul = (stats.queries, stats.steps, stats.resets)
            ops.append(
                Op(
                    "attacks",
                    target,
                    meter,
                    error=self.refs.attack_error(target, verdicts),
                    sul=sul,
                    counters=sul,
                )
            )
        except Exception as error:
            ops.append(_failed_op("attacks", target, meter, error))
        return ops
