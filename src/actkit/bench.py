"""Throughput microbenchmarks for the activation kernels.

Every kind is timed on one buffer of seeded uniforms over [-6, 6], so every piecewise
branch is exercised; the checksum over all timed outputs keeps the work observable and
ties timing to real computation. ns/elem is one activate_batch call's wall time per element,
the median over repeats; a call of 2^20 elements or more runs on every core, not on one."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError
from .kernels import ActivationKind, activate_batch
from .tensor import Rng

MIN_ELEMENTS = 1_000_000
MIN_REPEATS = 3


@dataclass(frozen=True)
class BenchResult:
    kind: ActivationKind
    n_elements: int
    repeats: int
    median_ns_per_element: float
    checksum: float
    ratio_vs_relu: float


def make_bench_input(n_elements: int, seed: int) -> np.ndarray:
    """The benchmark buffer: n seeded uniforms in [-6, 6] as float32."""
    u = Rng(seed).uniforms(n_elements)
    return (u * 12.0 - 6.0).astype(np.float32)


def compare(kinds: list[ActivationKind], n_elements: int, repeats: int, seed: int) -> list[BenchResult]:
    """Time each distinct kind on one seeded buffer; one result per listed kind, in order.

    A kind gets two untimed activate_batch passes, then `repeats` timed ones. Its checksum is
    the float64 sum of every timed pass's outputs, so identical seeds give identical checksums.
    Each ratio is the kind's median over ReLU's; ReLU is timed last when it is not listed.
    """
    if not kinds:
        raise DomainError("kinds list must not be empty")
    if n_elements < MIN_ELEMENTS:
        raise DomainError(f"n_elements must be >= {MIN_ELEMENTS} for stable medians, got {n_elements}")
    if repeats < MIN_REPEATS:
        raise DomainError(f"repeats must be >= {MIN_REPEATS}, got {repeats}")
    xs = make_bench_input(n_elements, seed)
    timed = {}  # kind -> (median ns per element, checksum)
    for kind in dict.fromkeys([*kinds, ActivationKind.RELU]):
        for _ in range(2):
            activate_batch(kind, xs)
        totals = []
        checksum = 0.0
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            out = activate_batch(kind, xs)
            totals.append(time.perf_counter_ns() - t0)
            checksum += float(out.sum(dtype=np.float64))
        timed[kind] = (float(np.median(totals)) / n_elements, checksum)
    relu_ns, _ = timed[ActivationKind.RELU]
    return [BenchResult(kind, n_elements, repeats, *timed[kind], timed[kind][0] / relu_ns) for kind in kinds]


def save_bench_csv(results: list[BenchResult], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kind", "n", "repeats", "median_ns_per_elem", "ratio_vs_relu"])
        writer.writerows(
            [r.kind.value, r.n_elements, r.repeats, repr(r.median_ns_per_element), repr(r.ratio_vs_relu)]
            for r in results
        )
