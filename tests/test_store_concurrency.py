"""Cross-process store concurrency: WAL writers sharing one sqlite file.

Two worker processes learn the same spec against one store file at the
same time; the store must come out consistent (loadable, no conflicting
rows) and a warm re-learn through it must match a store-less serial run
byte-for-byte.
"""

import json
import multiprocessing

import pytest

from repro.campaign import run_spec
from repro.spec import ExecutorSpec, ExperimentSpec
from repro.store import QueryStore, StoreError


def _learn_into_store(args):
    """Worker-process entry point: one store-backed learning run."""
    target, store_path = args
    from repro.campaign import run_spec
    from repro.spec import ExperimentSpec

    result = run_spec(
        ExperimentSpec(target=target, name=target), store=store_path
    )
    if not result.ok:
        return result.error
    return json.dumps(result.model.to_dict(), sort_keys=True)


def _open_when_released(path, release, results):
    """Worker-process entry point: open a store once ``release`` is set."""
    release.wait(timeout=30)
    try:
        QueryStore(path).close()
        results.put(None)
    except StoreError as error:
        results.put(str(error))


@pytest.fixture
def mp_context():
    return multiprocessing.get_context("fork")


class TestConcurrentWriters:
    def test_two_processes_share_one_store(self, tmp_path, mp_context):
        store = tmp_path / "store.sqlite"
        spec = ExperimentSpec(target="tcp-handshake", name="tcp-handshake")
        serial = run_spec(spec)
        assert serial.ok, serial.error
        expected = json.dumps(serial.model.to_dict(), sort_keys=True)

        with mp_context.Pool(2) as pool:
            learned = pool.map(
                _learn_into_store,
                [("tcp-handshake", str(store))] * 2,
            )
        # Both concurrent writers learned the same model...
        assert learned == [expected, expected]

        # ...and left a consistent store behind: it loads without raising
        # and a warm re-learn through it is byte-identical and free.
        with QueryStore(store) as qs:
            cache = qs.load(spec.sul_fingerprint())
            assert cache.entries > 0
        warm = run_spec(spec, store=store)
        assert warm.ok, warm.error
        assert json.dumps(warm.model.to_dict(), sort_keys=True) == expected
        assert warm.report.sul_resets == 0
        assert warm.report.store_hit_rate >= 0.9

    def test_simultaneous_opens_of_a_fresh_store_all_succeed(
        self, tmp_path, mp_context
    ):
        # Both processes race to switch the new file to WAL, and sqlite's
        # busy handler does not wait for the loser; the race is rare, so
        # it takes many rounds to show.
        errors = []
        for round_ in range(300):
            path = str(tmp_path / f"store-{round_}.sqlite")
            release, results = mp_context.Event(), mp_context.Queue()
            workers = [
                mp_context.Process(
                    target=_open_when_released, args=(path, release, results)
                )
                for _ in range(2)
            ]
            for worker in workers:
                worker.start()
            release.set()
            errors += [results.get(timeout=60) for _ in workers]
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        assert [error for error in errors if error] == []

    def test_store_composes_with_process_executor(self, tmp_path):
        """The spec's own process-pool workers and the store middleware
        live in different layers: workers answer queries in child
        processes, the store connection stays in the parent."""
        store = tmp_path / "store.sqlite"
        spec = ExperimentSpec(
            target="tcp-handshake",
            name="tcp-handshake",
            workers=2,
            executor=ExecutorSpec(kind="process", workers=2),
        )
        cold = run_spec(spec, store=store)
        assert cold.ok, cold.error
        warm = run_spec(spec, store=store)
        assert warm.ok, warm.error
        assert json.dumps(warm.model.to_dict(), sort_keys=True) == json.dumps(
            cold.model.to_dict(), sort_keys=True
        )
        assert warm.report.sul_resets == 0
