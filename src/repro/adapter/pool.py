"""Parallel SUL execution: a pool of identical SUL instances.

Membership queries are independent of each other (each starts with a
reset), so a batch of words can be fanned out across several SUL instances
and executed concurrently.  :class:`SULPool` looks like a single
:class:`~repro.adapter.sul.SUL` to the oracle stack but answers
``query_batch`` by dispatching onto N workers built by a ``sul_factory``.

The pool runs on a pluggable :class:`~repro.adapter.executor
.ExecutorBackend`:

* ``thread`` (default) -- N SUL instances in-process, one shard per pool
  thread.  Scales for queries that wait on I/O (network round-trips,
  subprocess turnarounds, the :class:`~repro.adapter.remote.SocketSUL`
  boundary); pure-Python simulators stay correct but gain little, because
  the GIL serializes them.
* ``process`` -- N worker *processes*, each building its own SUL from the
  (picklable) ``sul_factory`` in the child.  Shard results -- outputs,
  Oracle-Table entries and an :class:`~repro.adapter.sul.SULStats` delta
  -- are shipped back per batch and merged, so the accounting is identical
  to a serial run while the work truly runs on all cores.
* ``serial`` -- a plain loop over the same sharding; the debugging
  reference.

Results are always returned in submission order, worker Oracle Tables are
merged into the pool's table after every batch, and the pool's stats are
the sum over all workers -- so the accounting the paper tables report
(queries, steps, resets) is identical whether a run was serial, threaded
or process-parallel, and so is the learned model.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from ..core.alphabet import AbstractSymbol
from ..core.oracle_table import OracleEntry
from ..core.trace import Word
from .executor import ProcessExecutor, build_executor
from .sul import SUL, SULStats


def _run_shard_in_child(sul: SUL, words: Sequence[Word]) -> tuple[list, dict]:
    """Run one shard on a worker process's private SUL.

    Module-level (hence picklable) task function for the ``process``
    backend: returns the per-word ``(outputs, oracle entry)`` pairs plus
    the stats delta this shard cost, so the parent can keep serial-
    identical accounting.
    """
    before = sul.stats.snapshot()
    outcomes = [(sul.query(word), sul.oracle_table.lookup(word)) for word in words]
    after = sul.stats.snapshot()
    delta = {key: after[key] - before[key] for key in after}
    return outcomes, delta


class SULPool(SUL):
    """N identical SULs behind the single-SUL interface.

    A batch is sharded deterministically: word ``i`` always runs on worker
    ``i mod n`` (``n`` = active workers for the batch), each worker's shard
    on its own thread or process.  Deterministic assignment matters beyond
    taste -- for SULs whose RNG state persists across resets (mvfst's
    stateless resets), a timing-dependent assignment would make the
    observed response distribution vary between identically-seeded runs.
    Every worker is built by the same ``sul_factory`` and must behave
    identically, so for deterministic SULs the pool's answers do not
    depend on the assignment at all.

    ``backend`` picks the executor (``"thread"``, ``"process"`` or
    ``"serial"``).  The ``process`` backend builds each worker's SUL
    *inside* the worker process (the factory must be picklable -- a
    module-level function, :class:`functools.partial` over one, or a
    :class:`~repro.registry.RegistryFactory`; under the default ``fork``
    start method closures work too) and supports ``timeout_s``: a shard
    exceeding it gets its worker killed, respawned and retried once.
    """

    def __init__(
        self,
        sul_factory: Callable[[], SUL],
        workers: int = 4,
        name: str | None = None,
        backend: str = "thread",
        timeout_s: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.backend = backend
        if backend == "process":
            # One parent-side instance serves the single-SUL interface
            # (alphabet, reset/step for random walks); the N query-serving
            # instances live in the worker processes.
            suls = [sul_factory()]
            self._executor = ProcessExecutor(
                workers, initializer=sul_factory, timeout_s=timeout_s
            )
        else:
            suls = [sul_factory() for _ in range(workers)]
            self._executor = build_executor(backend, workers)
        super().__init__(suls[0].input_alphabet, name=name or f"{suls[0].name}-pool")
        self._suls = suls
        self._worker_stats = [SULStats() for _ in range(workers)]

    # -- batched execution -------------------------------------------------
    def query_batch(self, words: Sequence[Sequence[AbstractSymbol]]) -> list[Word]:
        words = [tuple(word) for word in words]
        if not words:
            return []
        shards = min(self.workers, len(words))
        results: list[tuple[Word, OracleEntry | None] | None] = [None] * len(words)

        if self.backend == "process":
            payloads = self._executor.map(
                _run_shard_in_child, [words[index::shards] for index in range(shards)]
            )
            for index, (shard, delta) in enumerate(payloads):
                stats = self._worker_stats[index]
                stats.queries += delta["queries"]
                stats.steps += delta["steps"]
                stats.resets += delta["resets"]
                for position, outcome in zip(
                    range(index, len(words), shards), shard
                ):
                    results[position] = outcome
        else:
            def run_shard(index: int) -> list[tuple[Word, OracleEntry | None]]:
                sul = self._suls[index]
                return [
                    (sul.query(word), sul.oracle_table.lookup(word))
                    for word in words[index::shards]
                ]

            for index, shard in enumerate(
                self._executor.map(run_shard, list(range(shards)))
            ):
                for position, outcome in zip(
                    range(index, len(words), shards), shard
                ):
                    results[position] = outcome

        answers: list[Word] = []
        for outputs, entry in results:  # type: ignore[misc]
            if entry is not None:
                self.oracle_table.merge(entry)
            answers.append(outputs)
        self._refresh_stats()
        return answers

    def query(self, word: Sequence[AbstractSymbol]) -> Word:
        return self.query_batch([word])[0]

    # -- single-instance interface (random walks, distribution sampling) --
    def reset(self) -> None:
        self._suls[0].reset()
        self._refresh_stats()

    def step(self, symbol: AbstractSymbol) -> AbstractSymbol:
        output = self._suls[0].step(symbol)
        self._refresh_stats()
        return output

    def _reset_impl(self) -> None:  # pragma: no cover - routed via reset()
        self._suls[0]._reset_impl()

    def _step_impl(
        self, symbol: AbstractSymbol
    ) -> tuple[AbstractSymbol, Mapping[str, int], Mapping[str, int]]:  # pragma: no cover
        return self._suls[0]._step_impl(symbol)

    # -- accounting --------------------------------------------------------
    def _refresh_stats(self) -> None:
        """The pool's stats are the sum over its workers.

        On the ``process`` backend, worker stats are the accumulated
        deltas shipped back with each batch plus whatever the parent-side
        instance did through the single-SUL interface.
        """
        if self.backend == "process":
            parent = self._suls[0].stats
            self.stats.queries = parent.queries + sum(
                s.queries for s in self._worker_stats
            )
            self.stats.steps = parent.steps + sum(
                s.steps for s in self._worker_stats
            )
            self.stats.resets = parent.resets + sum(
                s.resets for s in self._worker_stats
            )
        else:
            self.stats.queries = sum(sul.stats.queries for sul in self._suls)
            self.stats.steps = sum(sul.stats.steps for sul in self._suls)
            self.stats.resets = sum(sul.stats.resets for sul in self._suls)

    def per_worker_queries(self) -> list[int]:
        """Query count per worker (load-balance visibility for benchmarks)."""
        if self.backend == "process":
            return [stats.queries for stats in self._worker_stats]
        return [sul.stats.queries for sul in self._suls]

    def close(self) -> None:
        self._executor.close()
        for sul in self._suls:
            close = getattr(sul, "close", None)
            if callable(close):
                close()
