"""The chunk executor that runs modelspec's chunks of images and the kernels' spans of blocks
on the caller's thread and a pool of one thread per other core."""

import contextlib
import functools
import os
import threading

import numpy as np

# lets one _chunk_pool block at a time hold OpenBLAS at one thread and start threads
_pool_lock = threading.Lock()
_held = threading.local()  # .pool: this thread's _chunk_pool pool, unset while it runs chunks


@functools.cache
def _openblas_threads():
    """(get, set) for the thread count of the OpenBLAS that numpy's wheel ships in
    numpy.libs, or None if no library there exports a known pair."""
    import ctypes
    import glob

    libs = os.path.normpath(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs"))
    for path in sorted(glob.glob(os.path.join(libs, "lib*openblas*.so"))):
        lib = ctypes.CDLL(path)  # the copy numpy loaded: the loader matches the file
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            put = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _chunk_pool():
    """The thread pool of the _run_chunks calls inside the block: one thread per core but
    the caller's, with OpenBLAS held at one thread; the threads end with the block.

    A nested block on the thread that holds the pool gets the same pool. Yields None, so
    that the caller runs every chunk, on one core, without numpy's OpenBLAS thread
    controls, inside a chunk, or on any other thread while one holds the pool. A training
    run opens one block for its steps and evaluation: a thread started per step could start
    before the last one had handed back its malloc arena, which keeps a chunk's worth of memory.
    """
    if hasattr(_held, "pool"):
        yield _held.pool
        return
    blas = _openblas_threads()
    workers = len(os.sched_getaffinity(0)) - 1 if blas is not None else 0
    if workers < 1 or not _pool_lock.acquire(blocking=False):
        yield None
        return
    try:
        from concurrent.futures import ThreadPoolExecutor

        threads = blas[0]()
        blas[1](1)
        try:
            with ThreadPoolExecutor(workers, thread_name_prefix="actkit-chunks") as _held.pool:
                yield _held.pool
        finally:
            vars(_held).pop("pool", None)
            blas[1](threads)
    finally:
        _pool_lock.release()


def _cut(n: int, size: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of n items cut into max(1, n // size) near-equal chunks of whole items."""
    k = max(1, n // size)
    return [(n * j // k, n * (j + 1) // k) for j in range(k)]


def _run_chunks(fn, bounds: list[tuple[int, int]]) -> list:
    """[fn(lo, hi) for lo, hi in bounds]: one chunk inline; several by the caller's thread and the
    threads of its _chunk_pool, if it gets one; a call from inside a running chunk on its own thread.

    The threads take chunk indices in order from one shared iterator, each under the
    caller's numpy error state. Once a chunk raises, no new chunk starts; the running
    ones finish, and the lowest failing index's exception is re-raised as it is.
    """
    if len(bounds) < 2:  # no pool, and OpenBLAS's thread count left alone
        return [fn(lo, hi) for lo, hi in bounds]
    err = np.geterr()
    results = [None] * len(bounds)
    failed: dict[int, BaseException] = {}
    jobs = iter(range(len(bounds)))
    take = threading.Lock()

    def work() -> None:
        # a pool thread starts with numpy's default error handling, not the caller's
        with np.errstate(**err):
            while True:
                with take:
                    j = None if failed else next(jobs, None)
                if j is None:
                    return
                try:
                    results[j] = fn(*bounds[j])
                except BaseException as exc:
                    with take:
                        failed[j] = exc

    with _chunk_pool() as pool:
        # one helper per chunk but the caller's; the pool runs as many at once as it has threads
        helpers = [pool.submit(work) for _ in bounds[1:]] if pool is not None else []
        held = vars(_held).pop("pool", None)  # its threads are busy: a call in a chunk gets none
        try:
            work()
        finally:
            if held is not None:
                _held.pool = held
            for h in helpers:
                h.result()
    if failed:
        raise failed[min(failed)]
    return results
