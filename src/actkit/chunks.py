"""The chunk executor that runs modelspec's chunks of images and the kernels' spans of blocks.

One rule: while numpy's OpenBLAS thread controls exist and no other call holds _pool_lock, a
call of one chunk or many holds OpenBLAS at one thread and runs its chunks on the caller's
thread together with the process's helper pool, one thread per other core. The pool is kept
between calls; it is built on first use and rebuilt when the pid or the core count changes,
so a forked child or a new affinity gets fresh threads. In every other case (no controls, a
call from inside a running chunk, a call on another thread while one runs) the caller's
thread runs the chunks in order."""

import functools
import os
import threading

import numpy as np

# lets one _run_chunks call at a time hold OpenBLAS at one thread and hand chunks to the helpers
_pool_lock = threading.Lock()
_kept = None  # (pid, helper count, ThreadPoolExecutor): the helper pool, kept between calls


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


def _helpers(count: int):
    """The kept pool of count helper threads, rebuilt in a forked child or for another count.
    Call it only while holding _pool_lock."""
    global _kept
    pid = os.getpid()
    if _kept is None or _kept[:2] != (pid, count):
        from concurrent.futures import ThreadPoolExecutor

        if _kept is not None and _kept[0] == pid:  # a forked child has none of its parent's threads
            _kept[2].shutdown(wait=False)
        _kept = (pid, count, ThreadPoolExecutor(count, thread_name_prefix="actkit-chunks"))
    return _kept[2]


def _cut(n: int, size: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of n items cut into max(1, n // size) near-equal chunks of whole items."""
    k = max(1, n // size)
    return [(n * j // k, n * (j + 1) // k) for j in range(k)]


def _run_chunks(fn, bounds: list[tuple[int, int]]) -> list:
    """[fn(lo, hi) for lo, hi in bounds], under the module's one rule: with OpenBLAS held at one
    thread, on the caller's thread and as many kept helpers as there are other chunks and other
    cores; or, without the controls or the lock, on the caller's thread alone, in order.

    The threads take chunk indices in order from one shared iterator, each under the
    caller's numpy error state. Once a chunk raises, no new chunk starts; the running
    ones finish, and the lowest failing index's exception is re-raised as it is.
    """
    blas = _openblas_threads()
    if blas is None or not _pool_lock.acquire(blocking=False):
        return [fn(lo, hi) for lo, hi in bounds]
    err = np.geterr()
    results = [None] * len(bounds)
    failed: dict[int, BaseException] = {}
    jobs = iter(range(len(bounds)))
    take = threading.Lock()

    def work() -> None:
        # a helper thread runs with numpy's default error handling, not the caller's
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

    threads = blas[0]()
    blas[1](1)
    try:
        cores = len(os.sched_getaffinity(0))
        helpers = [_helpers(cores - 1).submit(work) for _ in range(min(cores, len(bounds)) - 1)]
        try:
            work()
        finally:
            for h in helpers:
                h.result()
    finally:
        blas[1](threads)
        _pool_lock.release()
    if failed:
        raise failed[min(failed)]
    return results
