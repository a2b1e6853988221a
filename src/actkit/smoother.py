"""Smooth moving average over per-frame probability rows, decoding, and window sweeps.

The window is centered with a left-heavy split (for window w, up to ceil((w-1)/2)
rows before frame t and floor((w-1)/2) after), truncated at the sequence edges and
divided by the number of rows actually included, so every output row stays a
probability vector and no phase lag is introduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import PhaseSequence, check_integer_labels
from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class WindowSweepRow:
    w: int
    accuracy: float


def sma(probs: np.ndarray, w: int) -> np.ndarray:
    """Windowed mean of the rows of a (T, C) matrix via a sliding cumulative sum.

    w=1 is the exact identity. Output is float64, O(T*C) regardless of w.
    """
    return next(_window_means(probs, [w]))


def _window_means(probs: np.ndarray, windows: list[int]):
    """Yield sma(probs, w) for each window in turn; all of them share one cumulative sum."""
    cum = None
    for w in windows:
        if isinstance(w, bool) or not isinstance(w, (int, np.integer)):
            raise DomainError(f"window size must be an integer, got {w!r}")
        if w < 1:
            raise DomainError(f"window size must be >= 1, got {w}")
        p = np.asarray(probs, dtype=np.float64)
        if p.ndim != 2:
            raise ShapeError(f"probs must be a (T, C) matrix, got shape {p.shape}")
        if w == 1:
            yield p.copy()
            continue
        if cum is None:
            cum = np.vstack([np.zeros((1, p.shape[1])), np.cumsum(p, axis=0)])
        pos = np.arange(p.shape[0])
        lo = np.maximum(0, pos - w // 2)  # ceil((w-1)/2) rows before
        hi = np.minimum(p.shape[0] - 1, pos + (w - 1) // 2)  # floor((w-1)/2) rows after
        yield (cum[hi + 1] - cum[lo]) / (hi - lo + 1)[:, None]


def argmax_decode(probs: np.ndarray) -> np.ndarray:
    """Per-row argmax; ties resolve to the lowest class index."""
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2:
        raise ShapeError(f"probs must be a (T, C) matrix, got shape {p.shape}")
    return p.argmax(axis=1).astype(np.int64)


def frame_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of frames whose predicted label equals ground truth. Float labels must
    be integer-valued: a fractional, NaN or infinite one raises DomainError."""
    a, b = np.asarray(pred), np.asarray(truth)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ShapeError(f"need equal-length nonempty label vectors, got {a.shape} vs {b.shape}")
    check_integer_labels(a, "predicted")
    check_integer_labels(b, "truth")
    return float(np.mean(a == b))


def sweep_window(seq: PhaseSequence, windows: list[int]) -> tuple[list[WindowSweepRow], int]:
    """Smoothed-then-decoded accuracy for each window size, in input order.

    Also returns the window with the highest accuracy (first wins on ties).
    """
    if not windows:
        raise DomainError("window list must not be empty")
    means = _window_means(seq.probs, windows)
    rows = [WindowSweepRow(int(w), frame_accuracy(argmax_decode(m), seq.truth)) for w, m in zip(windows, means)]
    best = max(rows, key=lambda r: r.accuracy)
    return rows, best.w


def save_sweep_csv(rows: list[WindowSweepRow], path: str | Path) -> None:
    """Plot-ready 'w,accuracy' CSV, one row per window."""
    with open(path, "w", newline="") as fh:
        fh.write("w,accuracy\n")
        fh.writelines(f"{row.w},{row.accuracy!r}\n" for row in rows)
