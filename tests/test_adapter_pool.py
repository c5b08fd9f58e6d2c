"""Tests for the SUL pool: parallel fan-out behind the single-SUL interface."""

import pytest

from repro.adapter.mealy_sul import MealySUL
from repro.adapter.executor import ThreadExecutor
from repro.adapter.pool import SULPool
from repro.learn.teacher import SULMembershipOracle


def _pool_for(machine, workers):
    return SULPool(lambda: MealySUL(machine), workers=workers)


@pytest.fixture(params=["serial", "thread", "process"])
def any_backend(request):
    return request.param


class TestBatchExecutor:
    """The thread backend that campaigns and SUL pools fan batches out on."""

    def test_preserves_order(self):
        executor = ThreadExecutor(workers=4)
        try:
            assert executor.map(lambda x: x * x, list(range(20))) == [
                x * x for x in range(20)
            ]
        finally:
            executor.close()

    def test_single_worker_runs_without_threads(self):
        executor = ThreadExecutor(workers=1)
        assert executor.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert executor._pool is None

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ThreadExecutor(workers=0)


class TestSULPool:
    def test_matches_single_sul(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        words = [(syn,), (syn, ack), (ack, syn, syn), (syn, ack, ack)]
        single = MealySUL(toy_machine)
        pool = _pool_for(toy_machine, workers=4)
        assert pool.query_batch(words) == [single.query(w) for w in words]
        pool.close()

    def test_deterministic_result_ordering(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        words = [(syn,) * n + (ack,) for n in range(12)]
        pool = _pool_for(toy_machine, workers=4)
        expected = [toy_machine.run(w) for w in words]
        for _ in range(3):  # repeated batches stay index-aligned
            assert pool.query_batch(words) == expected
        pool.close()

    def test_stats_are_merged_across_workers(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        words = [(syn, ack)] * 10
        pool = _pool_for(toy_machine, workers=3)
        pool.query_batch(words)
        assert pool.stats.queries == 10
        assert pool.stats.resets == 10
        assert pool.stats.steps == 20
        assert sum(pool.per_worker_queries()) == 10
        pool.close()

    def test_oracle_tables_are_merged(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        words = [(syn,), (syn, ack), (ack, ack)]
        pool = _pool_for(toy_machine, workers=2)
        pool.query_batch(words)
        for word in words:
            entry = pool.oracle_table.lookup(word)
            assert entry is not None
            assert entry.abstract.outputs == toy_machine.run(word)
        pool.close()

    def test_deterministic_shard_assignment(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        pool = _pool_for(toy_machine, workers=4)
        pool.query_batch([(syn,)] * 8)
        # Word i always runs on worker i mod n: a balanced batch loads
        # every worker equally, independent of thread timing.
        assert pool.per_worker_queries() == [2, 2, 2, 2]
        pool.close()

    def test_single_query_routes_through_pool(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        pool = _pool_for(toy_machine, workers=2)
        assert pool.query((syn, ack)) == toy_machine.run((syn, ack))
        assert pool.stats.queries == 1
        pool.close()

    def test_empty_batch(self, toy_machine):
        pool = _pool_for(toy_machine, workers=2)
        assert pool.query_batch([]) == []
        pool.close()

    def test_step_interface_for_random_walks(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        pool = _pool_for(toy_machine, workers=2)
        pool.reset()
        outputs = [pool.step(syn), pool.step(ack)]
        assert tuple(outputs) == toy_machine.run((syn, ack))
        pool.close()

    def test_rejects_zero_workers(self, toy_machine):
        with pytest.raises(ValueError):
            SULPool(lambda: MealySUL(toy_machine), workers=0)

    def test_behind_membership_oracle(self, toy_machine, ab_alphabet):
        syn, ack = ab_alphabet.symbols
        pool = _pool_for(toy_machine, workers=4)
        oracle = SULMembershipOracle(pool)
        words = [(syn,), (syn, ack)]
        assert oracle.query_batch(words) == [toy_machine.run(w) for w in words]
        assert oracle.stats.queries == 2
        pool.close()


class TestSULPoolBackends:
    """Every executor backend answers and accounts like a single SUL.

    The toy-machine factory is a closure: fine for serial/thread, and for
    ``process`` it exercises the documented fork-start-method guarantee
    (Process args are inherited, not pickled).
    """

    def _pool(self, machine, backend, workers=4):
        pool = SULPool(
            lambda: MealySUL(machine), workers=workers, backend=backend
        )
        assert pool.backend == backend
        return pool

    def test_matches_single_sul(self, toy_machine, ab_alphabet, any_backend):
        syn, ack = ab_alphabet.symbols
        words = [(syn,), (syn, ack), (ack, syn, syn), (syn, ack, ack)]
        single = MealySUL(toy_machine)
        pool = self._pool(toy_machine, any_backend)
        assert pool.query_batch(words) == [single.query(w) for w in words]
        pool.close()

    def test_stats_and_load_balance(self, toy_machine, ab_alphabet, any_backend):
        syn, ack = ab_alphabet.symbols
        pool = self._pool(toy_machine, any_backend)
        pool.query_batch([(syn, ack)] * 8)
        assert pool.stats.queries == 8
        assert pool.stats.resets == 8
        assert pool.stats.steps == 16
        # word i -> worker i mod n, so a balanced batch loads all equally
        assert pool.per_worker_queries() == [2, 2, 2, 2]
        pool.close()

    def test_oracle_tables_are_merged(self, toy_machine, ab_alphabet, any_backend):
        syn, ack = ab_alphabet.symbols
        words = [(syn,), (syn, ack), (ack, ack)]
        pool = self._pool(toy_machine, any_backend, workers=2)
        pool.query_batch(words)
        for word in words:
            entry = pool.oracle_table.lookup(word)
            assert entry is not None
            assert entry.abstract.outputs == toy_machine.run(word)
        pool.close()

    def test_repeated_batches_stay_aligned(
        self, toy_machine, ab_alphabet, any_backend
    ):
        syn, ack = ab_alphabet.symbols
        words = [(syn,) * n + (ack,) for n in range(12)]
        pool = self._pool(toy_machine, any_backend)
        expected = [toy_machine.run(w) for w in words]
        for _ in range(3):
            assert pool.query_batch(words) == expected
        pool.close()

    def test_step_interface_runs_on_the_parent(
        self, toy_machine, ab_alphabet, any_backend
    ):
        syn, ack = ab_alphabet.symbols
        pool = self._pool(toy_machine, any_backend, workers=2)
        pool.reset()
        outputs = [pool.step(syn), pool.step(ack)]
        assert tuple(outputs) == toy_machine.run((syn, ack))
        assert pool.stats.steps == 2
        pool.close()

    def test_process_parent_and_worker_stats_accumulate(
        self, toy_machine, ab_alphabet
    ):
        syn, ack = ab_alphabet.symbols
        pool = self._pool(toy_machine, "process", workers=2)
        pool.query_batch([(syn,), (ack,)])
        pool.reset()
        pool.step(syn)
        assert pool.stats.queries == 2
        assert pool.stats.resets == 3  # 2 shipped from workers + 1 parent
        assert pool.stats.steps == 3
        pool.close()
