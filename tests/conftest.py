"""Fixtures shared by the test modules."""
import pytest

from cotrain import tensor as T

_POOLS = {}


def _use_pool(workers):
    """Point the tensor module at a pool of ``workers`` threads, whatever the CPU count and cap.

    Each pool starts once and is reused, so the tests leave at most a few idle
    daemon threads behind.
    """
    if workers not in _POOLS:
        T._forget_pool()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(T, "_cpu_count", lambda: workers)
            m.setattr(T, "MAX_WORKERS", workers)
            T._pool_workers()
        _POOLS[workers] = (T._tasks, T._workers, T._helpers)
    T._tasks, T._workers, T._helpers = _POOLS[workers]


@pytest.fixture
def use_pool():
    """``use_pool(workers)`` points the tensor module at a pool of that many threads for one test.

    Afterwards the module gets back the pool it had, or none, in which case
    the next large op starts one sized by the affinity mask.
    """
    saved = T._tasks, T._workers, T._helpers
    yield _use_pool
    T._tasks, T._workers, T._helpers = saved
