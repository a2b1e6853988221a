"""Dataset ingestion and generation: CIFAR-10 binaries, stratified subsets,
synthetic quadrant-coded images, and per-frame phase-probability sequences."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError, ShapeError
from .tensor import Rng

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3*1024 channel-major pixel bytes
CIFAR_CLASSES = 10
PHASE_ROW_SUM_TOL = 1e-3
_ROW_SUM = "sums to {:.6f}, outside 1 +/- " + str(PHASE_ROW_SUM_TOL)


@dataclass(frozen=True)
class ImageDataset:
    """N images as float32 (N,3,32,32) in [0,1] plus int labels in [0,10)."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.images.ndim != 4 or self.images.shape[1:] != (3, 32, 32):
            raise ShapeError(f"images must be (N,3,32,32), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ShapeError("labels length must match image count")

    def __len__(self) -> int:
        return self.images.shape[0]


def check_integer_labels(labels: np.ndarray, what: str) -> None:
    """Raise DomainError naming the first label that is fractional, NaN or infinite.
    An integer dtype passes without a scan."""
    if labels.dtype.kind in "biu":
        return
    whole = np.isfinite(labels) & (labels == np.trunc(labels))
    if not whole.all():
        i = int(np.argmin(whole))
        raise DomainError(f"{what} labels must be integers, got {labels[i]} at frame {i}")


@dataclass(frozen=True)
class PhaseSequence:
    """Per-frame class probabilities (T,C) with ground-truth labels (T,).

    Rows are probability vectors: nonnegative, summing to 1 within 1e-5.
    """

    probs: np.ndarray
    truth: np.ndarray

    def __post_init__(self) -> None:
        if self.probs.ndim != 2 or self.probs.shape[0] < 1 or self.probs.shape[1] < 2:
            raise ShapeError(f"probs must be (T>=1, C>=2), got {self.probs.shape}")
        if self.truth.shape != (self.probs.shape[0],):
            raise ShapeError("truth length must match frame count")
        if (self.probs < 0).any():
            raise DomainError("probabilities must be nonnegative")
        sums = self.probs.sum(axis=1)
        if not (np.abs(sums - 1.0).max() <= 1e-5):  # also rejects NaN
            raise DomainError("probability rows must sum to 1 within 1e-5")
        check_integer_labels(self.truth, "truth")
        c = self.probs.shape[1]
        if self.truth.min() < 0 or self.truth.max() >= c:
            raise DomainError(f"truth labels must lie in [0, {c})")

    @property
    def num_frames(self) -> int:
        return self.probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]


def load_cifar10_binary(paths: list[str | Path]) -> ImageDataset:
    """Parse CIFAR-10 binary batch files (3073-byte records: label, 1024 R, 1024 G, 1024 B).

    Pixels come out as byte/255. Any malformed file aborts the whole load.
    """
    if not paths:
        raise FormatError("no batch files given")
    images, labels = [], []
    for path in paths:
        raw = Path(path).read_bytes()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD_BYTES != 0:
            raise FormatError(
                f"{path}: truncated file ({len(raw)} bytes is not a positive multiple of {CIFAR_RECORD_BYTES})"
            )
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        batch_labels = records[:, 0]
        if batch_labels.max() >= CIFAR_CLASSES:
            raise FormatError(f"{path}: label byte {int(batch_labels.max())} out of range [0,10)")
        labels.append(batch_labels.astype(np.int64))
        images.append(records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / np.float32(255.0))
    return ImageDataset(np.concatenate(images), np.concatenate(labels))


def subset(ds: ImageDataset, n: int, seed: int) -> ImageDataset:
    """Stratified deterministic sample: n//10 images per class via seeded shuffle,
    the remainder distributed one each to classes 0, 1, ... in order."""
    if n < 1:
        raise DomainError(f"subset size must be >= 1, got {n}")
    if n > len(ds):
        raise DomainError(f"subset size {n} exceeds dataset size {len(ds)}")
    rng = Rng(seed)
    per_class = n // CIFAR_CLASSES
    remainder = n % CIFAR_CLASSES
    picks = []
    for c in range(CIFAR_CLASSES):
        want = per_class + (1 if c < remainder else 0)
        idx = np.nonzero(ds.labels == c)[0]
        keys = rng.uniforms(idx.size)
        if want > idx.size:
            raise DomainError(f"class {c} has only {idx.size} images, need {want}")
        picks.append(idx[np.argsort(keys, kind="stable")[:want]])
    order = np.concatenate(picks)
    return ImageDataset(ds.images[order].copy(), ds.labels[order].copy())


def _quadrant_pattern(label: int) -> np.ndarray:
    """Base image for one class: each quadrant bright (0.8) or dark (0.2) per the
    label's binary code, identical across channels. Labels 0..9 give distinct images."""
    img = np.empty((3, 32, 32), dtype=np.float32)
    for q in range(4):
        level = 0.8 if (label >> q) & 1 else 0.2
        r0 = 0 if q < 2 else 16
        c0 = 0 if q % 2 == 0 else 16
        img[:, r0 : r0 + 16, c0 : c0 + 16] = level
    return img


def gen_synthetic_images(n: int, seed: int, noise: float = 0.1) -> ImageDataset:
    """n quadrant-coded images with labels cycling 0..9 and uniform noise in [-noise, +noise]."""
    if n < 1:
        raise DomainError(f"image count must be >= 1, got {n}")
    if not 0 <= noise <= 0.2:
        raise DomainError(f"noise must lie in [0, 0.2] to keep pixels in [0,1], got {noise}")
    labels = np.arange(n, dtype=np.int64) % CIFAR_CLASSES
    base = np.stack([_quadrant_pattern(k) for k in range(CIFAR_CLASSES)])
    images = base[labels]
    if noise > 0:
        u = Rng(seed).uniforms(images.size).reshape(images.shape)
        images = (images + (2.0 * u - 1.0) * noise).astype(np.float32)
    return ImageDataset(np.ascontiguousarray(images), labels)


def gen_synthetic_phases(
    num_phases: int,
    segment_len: int,
    frames: int,
    noise: float,
    confusion_spread: float,
    seed: int,
) -> PhaseSequence:
    """Synthetic per-frame probabilities over a segment-structured ground truth.

    Truth cycles through phases in consecutive segments of segment_len frames. Each
    frame draws a predicted label (the true one with probability 1-noise, otherwise
    uniform over the rest), then emits a row with confusion_spread probability mass
    spread evenly off the predicted label.
    """
    if num_phases < 2:
        raise DomainError(f"need at least 2 phases, got {num_phases}")
    if segment_len < 1:
        raise DomainError(f"segment length must be >= 1, got {segment_len}")
    if frames < 1:
        raise DomainError(f"frame count must be >= 1, got {frames}")
    if not 0 <= noise < 1:
        raise DomainError(f"noise must lie in [0, 1), got {noise}")
    if not 0 <= confusion_spread < 1:
        raise DomainError(f"confusion_spread must lie in [0, 1), got {confusion_spread}")

    truth = (np.arange(frames, dtype=np.int64) // segment_len) % num_phases
    rng = Rng(seed)
    draws = rng.uniforms(2 * frames)
    flip, pick = draws[:frames], draws[frames:]

    predicted = truth.copy()
    wrong = flip < noise
    # uniform over the other num_phases-1 labels, skipping the true one
    offsets = np.floor(pick[wrong] * (num_phases - 1)).astype(np.int64)
    offsets = np.minimum(offsets, num_phases - 2)
    alt = offsets + (offsets >= truth[wrong])
    predicted[wrong] = alt

    probs = np.full((frames, num_phases), confusion_spread / (num_phases - 1), dtype=np.float64)
    probs[np.arange(frames), predicted] = 1.0 - confusion_spread
    return PhaseSequence(probs, truth)


def save_phase_csv(seq: PhaseSequence, path: str | Path) -> None:
    """Write 'frame,truth,p0,...' rows, newline-terminated, 10 significant digits."""
    row = "%d,%d" + ",%.10g" * seq.num_classes + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["frame", "truth"] + [f"p{c}" for c in range(seq.num_classes)]) + "\n")
        fh.writelines(row % (t, y, *p) for t, (y, p) in enumerate(zip(seq.truth.tolist(), seq.probs.tolist())))


def load_phase_csv(path: str | Path) -> PhaseSequence:
    """Parse a phase CSV as save_phase_csv writes it: header 'frame,truth,p0,...', unquoted fields,
    '\\n' or '\\r\\n' row ends, frame column ignored. Rows need an integer truth in [0, C) and
    probabilities >= 0 summing to 1 within 1e-3 (then renormalized), else FormatError names the row."""
    text = Path(path).read_text()
    if not text:
        raise FormatError(f"{path}: empty file")
    header, *body = text.removesuffix("\n").split("\n")
    header = header.split(",") if header else []
    if len(header) < 4 or header[:2] != ["frame", "truth"] or header[2] != "p0":
        raise FormatError(f"{path}: bad header {header!r} (expected frame,truth,p0,...)")
    num_classes = len(header) - 2
    if header[2:] != [f"p{c}" for c in range(num_classes)]:
        raise FormatError(f"{path}: probability columns must be p0..p{num_classes - 1}")
    if not body:
        raise FormatError(f"{path}: no data rows")
    # 'frame' holds a row's first character only, so that loadtxt checks every row's field count
    row_type = [("frame", "U1"), ("truth", np.int64), ("p", np.float64, (num_classes,))]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1.x reads '1.0' as an int64 with just a DeprecationWarning
            table = np.loadtxt(body, row_type, delimiter=",", comments=None, quotechar=None, ndmin=1)
        if len(table) != len(body):
            raise ValueError("loadtxt skipped a blank line")
    except (ValueError, Warning) as exc:
        # the only row loop, run on failure alone: name the first bad row and what is wrong with it
        for i, fields in enumerate(line.split(",") if line else [] for line in body):
            if len(fields) != len(header):
                raise FormatError(f"{path}: row {i} has {len(fields)} fields, expected {len(header)}")
            try:
                int(fields[1])
                total = sum(map(float, fields[2:]))
            except ValueError as err:
                raise FormatError(f"{path}: row {i}: {err}") from None
            if not (abs(total - 1.0) <= PHASE_ROW_SUM_TOL):
                raise FormatError(f"{path}: row {i} {_ROW_SUM.format(total)}")
        raise FormatError(f"{path}: {exc}") from None  # a number Python's parser takes and numpy's does not
    truth, probs = table["truth"].copy(), table["p"]
    sums = probs.sum(axis=1)
    for bad, why in (
        (~(np.abs(sums - 1.0) <= PHASE_ROW_SUM_TOL), lambda i: _ROW_SUM.format(sums[i])),  # also rejects NaN
        ((probs < 0).any(axis=1), lambda i: f"has a negative probability {probs[i].min():g}"),
        ((truth < 0) | (truth >= num_classes), lambda i: f"has truth {truth[i]}, outside [0, {num_classes})"),
    ):
        if bad.any():
            raise FormatError(f"{path}: row {bad.argmax()} {why(bad.argmax())}")
    return PhaseSequence(probs / sums[:, None], truth)
