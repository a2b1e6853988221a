"""Fixtures shared by the test modules."""

import concurrent.futures
import os
from types import SimpleNamespace

import pytest

from actkit import chunks


@pytest.fixture
def pool_spy(monkeypatch):
    """Two cores, no kept pool, and a record of the chunk executor's pools: .pools, each pool
    made, and .submits, the arguments of each call handed to one. Skips where numpy's OpenBLAS
    has no thread controls, since the executor then makes no pool. The pools it records end
    with the test, and the kept pool from before it is kept again."""
    if chunks._openblas_threads() is None:
        pytest.skip("without OpenBLAS thread controls the executor makes no pool")
    spy = SimpleNamespace(pools=[], submits=[])

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            spy.pools.append(self)
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            spy.submits.append(args)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(chunks, "_kept", None)
    yield spy
    for pool in spy.pools:
        pool.shutdown()
