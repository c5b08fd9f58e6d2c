"""Tests for the pluggable executor backends (serial / thread / process)."""

import os
import time

import pytest

from repro.adapter.executor import (
    EXECUTOR_KINDS,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    build_executor,
)


def _square(x):
    return x * x


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd item {x}")
    return x


def _die(x):
    os._exit(1)


def _die_once(marker_dir, x):
    """Crash the worker process the first time, succeed on the retry."""
    marker = os.path.join(marker_dir, f"crashed-{x}")
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return x * 10


def _sleep_forever(x):
    time.sleep(3600)


def _sleepy_square(x):
    time.sleep(0.05 if x == 0 else 0.0)
    return x * x


class _Counter:
    """Picklable worker state: counts how many tasks this worker ran."""

    def __init__(self):
        self.calls = 0


def _make_counter():
    return _Counter()


def _count(state, x):
    state.calls += 1
    return (os.getpid(), state.calls, x)


@pytest.fixture(params=EXECUTOR_KINDS)
def executor(request):
    backend = build_executor(request.param, workers=4)
    yield backend
    backend.close()


class TestAllBackends:
    def test_preserves_order(self, executor):
        assert executor.map(_square, list(range(20))) == [
            x * x for x in range(20)
        ]

    def test_empty_batch(self, executor):
        assert executor.map(_square, []) == []

    def test_kind_matches(self, executor):
        assert executor.kind in EXECUTOR_KINDS

    def test_aggregates_all_failures(self, executor):
        """Satellite regression: every failing item is named, not just the
        first -- the old ``ThreadPoolExecutor.map`` raised on the first
        failure and silently discarded the rest of the batch."""
        with pytest.raises(ExecutorError) as excinfo:
            executor.map(_fail_on_odd, list(range(6)))
        error = excinfo.value
        assert [index for index, _, _ in error.failures] == [1, 3, 5]
        assert error.total == 6
        assert "3/6 items failed" in str(error)
        assert "odd item 3" in str(error)

    def test_failure_names_the_item(self, executor):
        with pytest.raises(ExecutorError, match=r"item=5"):
            executor.map(_fail_on_odd, [2, 5, 8])

    def test_context_manager(self):
        for kind in EXECUTOR_KINDS:
            with build_executor(kind, workers=2) as backend:
                assert backend.map(_square, [3]) == [9]

    def test_rejects_zero_workers(self):
        for kind in EXECUTOR_KINDS:
            with pytest.raises(ValueError):
                build_executor(kind, workers=0)


class TestBuildExecutor:
    def test_kinds(self):
        assert isinstance(build_executor("serial", 1), SerialExecutor)
        assert isinstance(build_executor("thread", 2), ThreadExecutor)
        assert isinstance(build_executor("process", 2), ProcessExecutor)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            build_executor("gpu", 2)


class TestThreadExecutor:
    def test_single_worker_runs_without_threads(self):
        executor = ThreadExecutor(workers=1)
        assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert executor._pool is None

    def test_error_message_truncates_long_failure_lists(self):
        executor = ThreadExecutor(workers=4)
        try:
            with pytest.raises(ExecutorError) as excinfo:
                executor.map(_fail_on_odd, [2 * i + 1 for i in range(9)])
            assert "and 4 more" in str(excinfo.value)
            assert len(excinfo.value.failures) == 9
        finally:
            executor.close()


class TestProcessExecutor:
    def test_runs_in_other_processes(self):
        with ProcessExecutor(workers=2, initializer=_make_counter) as executor:
            results = executor.map(_count, list(range(8)))
        pids = {pid for pid, _, _ in results}
        assert os.getpid() not in pids
        assert len(pids) == 2

    def test_initializer_state_persists_per_worker(self):
        """Item i runs on worker i mod n, so each worker's private state
        sees exactly its own shard -- in shard order."""
        with ProcessExecutor(workers=2, initializer=_make_counter) as executor:
            results = executor.map(_count, list(range(6)))
        for index, (_, calls, item) in enumerate(results):
            assert item == index
            assert calls == index // 2 + 1

    def test_dead_worker_is_respawned_and_task_retried(self, tmp_path):
        with ProcessExecutor(workers=2, initializer=_make_counter) as executor:
            fn = _RetriedCrash(str(tmp_path))
            assert executor.map(fn, [0, 1, 2, 3]) == [0, 10, 20, 30]
            assert executor.respawns == 1

    def test_worker_death_exhausts_retries(self):
        with ProcessExecutor(workers=2, retries=1) as executor:
            with pytest.raises(ExecutorError, match="worker process died"):
                executor.map(_die, [0])
            # one respawn for the retry, one replacing the final casualty
            assert executor.respawns == 2

    def test_timeout_kills_and_reports(self):
        with ProcessExecutor(workers=2, timeout_s=0.3, retries=0) as executor:
            started = time.monotonic()
            with pytest.raises(ExecutorError, match="timed out after 0.3s"):
                executor.map(_sleep_forever, [0])
            assert time.monotonic() - started < 5.0

    def test_timeout_fires_even_while_siblings_stay_busy(self):
        with ProcessExecutor(workers=2, timeout_s=0.3, retries=0) as executor:
            with pytest.raises(ExecutorError) as excinfo:
                executor.map(_hang_on_zero, list(range(10)))
            assert [index for index, _, _ in excinfo.value.failures] == [0]

    def test_application_error_does_not_respawn(self):
        with ProcessExecutor(workers=2, initializer=_make_counter) as executor:
            with pytest.raises(ExecutorError, match="odd item"):
                executor.map(_count_fail_on_odd, list(range(4)))
            assert executor.respawns == 0
            # the workers stayed alive and keep serving
            assert [x for _, _, x in executor.map(_count, [4, 5])] == [4, 5]

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError):
            ProcessExecutor(workers=1, timeout_s=0.0)


class _RetriedCrash:
    """Picklable callable: worker 1's first task crashes it, retry succeeds."""

    def __init__(self, marker_dir):
        self.marker_dir = marker_dir

    def __call__(self, state, x):
        if x == 1:
            return _die_once(self.marker_dir, x) * 1 or x * 10
        return x * 10


def _hang_on_zero(x):
    if x == 0:
        time.sleep(3600)
    time.sleep(0.01)
    return x


def _count_fail_on_odd(state, x):
    if x % 2:
        raise ValueError(f"odd item {x}")
    return (os.getpid(), state.calls, x)
