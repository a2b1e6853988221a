"""Experiment orchestration: activation-placement runs over repeated seeds,
mean aggregation, wall-time capture, and CSV/JSON report emission.

Every run is deterministic given (config, platform): model init, batch order,
and evaluation all draw from one SplitMix64 stream per seed, single-threaded.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataio import ImageDataset, gen_synthetic_images, load_cifar10_binary, subset
from .errors import ConfigError, DomainError, FormatError
from .kernels import ActivationKind
from .modelspec import (
    GroupSelector,
    Model,
    ModelSpec,
    _is_finite,
    _is_int,
    build_model,
    fingerprint,
    forward,
    loss_and_gradients,
    preset,
    record_from_json,
    record_to_json,
    replace_activations,
)
from .tensor import Rng, sgd_momentum_step

CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILES = ["test_batch.bin"]


@dataclass(frozen=True)
class Hyperparams:
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 5

    def __post_init__(self) -> None:
        for name in ("lr", "momentum"):
            value = getattr(self, name)
            if not _is_finite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class DataConfig:
    """Where training data comes from: generated images or CIFAR-10 binary batches."""

    source: str  # "synthetic-images" | "cifar10-binary"
    train_size: int
    test_size: int
    data_dir: str | None = None
    subset_seed: int = 0

    def __post_init__(self) -> None:
        if self.source not in ("synthetic-images", "cifar10-binary"):
            raise ConfigError(f"unknown dataset source {self.source!r}")
        if self.source == "cifar10-binary" and not self.data_dir:
            raise ConfigError("cifar10-binary source needs data_dir")
        for name in ("train_size", "test_size"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not _is_int(self.subset_seed):
            raise ConfigError(f"subset_seed must be an integer, got {self.subset_seed!r}")


@dataclass(frozen=True, kw_only=True)
class SurgeryStep:
    selector: GroupSelector
    from_kind: ActivationKind | None = field(default=None, metadata={"json": "from"})  # None matches any kind
    to_kind: ActivationKind = field(metadata={"json": "to"})


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    preset: str
    label: str = "experiment"
    surgery: tuple[SurgeryStep, ...] = ()
    dataset: DataConfig
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    seeds: tuple[int, ...] = (1, 2)

    def __post_init__(self) -> None:
        if not isinstance(self.seeds, tuple) or not self.seeds or not all(_is_int(s) for s in self.seeds):
            raise ConfigError(f"seeds must be a nonempty tuple of integers, got {self.seeds!r}")


@dataclass(frozen=True)
class SeedRun:
    seed: int
    test_accuracy: float
    train_seconds: float
    init_param_hash: str


@dataclass(frozen=True, kw_only=True)
class ExperimentReport:
    """One config's result; the field order is the JSON key order."""

    label: str
    preset: str
    spec_fingerprint: str
    hyperparams: Hyperparams
    dataset: DataConfig
    runs: tuple[SeedRun, ...]
    mean_accuracy: float
    mean_train_seconds: float


def apply_surgery(spec: ModelSpec, steps: tuple[SurgeryStep, ...]) -> ModelSpec:
    for step in steps:
        spec, _ = replace_activations(spec, step.selector, step.from_kind, step.to_kind)
    return spec


def param_hash(model: Model) -> str:
    """SHA-256 over parameter names and raw bytes, in allocation order."""
    digest = hashlib.sha256()
    for name, value in model.params.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def load_datasets(cfg: DataConfig) -> tuple[ImageDataset, ImageDataset]:
    """Materialize (train, test) per the config; pure function of the config."""
    if cfg.source == "synthetic-images":
        return (
            gen_synthetic_images(cfg.train_size, seed=cfg.subset_seed),
            gen_synthetic_images(cfg.test_size, seed=cfg.subset_seed + 1),
        )
    root = Path(cfg.data_dir)
    train_paths = [root / f for f in CIFAR_TRAIN_FILES]
    test_paths = [root / f for f in CIFAR_TEST_FILES]
    missing = [str(p) for p in train_paths + test_paths if not p.exists()]
    if missing:
        raise DomainError(f"missing CIFAR-10 batch files: {', '.join(missing)}")
    train = load_cifar10_binary(train_paths)
    test = load_cifar10_binary(test_paths)
    if cfg.train_size < len(train):
        train = subset(train, cfg.train_size, seed=cfg.subset_seed)
    if cfg.test_size < len(test):
        test = subset(test, cfg.test_size, seed=cfg.subset_seed + 1)
    return train, test


def evaluate(model: Model, ds: ImageDataset, batch_size: int = 256) -> float:
    """Top-1 accuracy over the dataset, evaluated in fixed-order batches."""
    correct = 0
    for start in range(0, len(ds), batch_size):
        logits = forward(model, ds.images[start : start + batch_size])
        correct += int((logits.argmax(axis=1) == ds.labels[start : start + batch_size]).sum())
    return correct / len(ds)


def _train_single(
    spec: ModelSpec, train: ImageDataset, test: ImageDataset, hp: Hyperparams, seed: int
) -> SeedRun:
    rng = Rng(seed)
    model = build_model(spec, rng)
    init_hash = param_hash(model)
    velocity = {name: np.zeros_like(p) for name, p in model.params.items()}
    n = len(train)

    start = time.perf_counter()
    for _ in range(hp.epochs):
        order = np.argsort(rng.uniforms(n), kind="stable")
        for lo in range(0, n, hp.batch_size):
            batch_idx = order[lo : lo + hp.batch_size]
            _, grads = loss_and_gradients(model, train.images[batch_idx], train.labels[batch_idx])
            model.params, velocity = sgd_momentum_step(model.params, grads, velocity, hp.lr, hp.momentum)
    train_seconds = time.perf_counter() - start

    return SeedRun(
        seed=seed,
        test_accuracy=evaluate(model, test),
        train_seconds=train_seconds,
        init_param_hash=init_hash,
    )


def run_experiment(
    cfg: ExperimentConfig, data: tuple[ImageDataset, ImageDataset] | None = None
) -> ExperimentReport:
    """Train once per seed on the configured data and aggregate the means.

    `data` short-circuits dataset loading when the caller already holds (train, test).
    """
    spec = apply_surgery(preset(cfg.preset), cfg.surgery)
    train, test = data if data is not None else load_datasets(cfg.dataset)
    runs = tuple(_train_single(spec, train, test, cfg.hyperparams, seed) for seed in cfg.seeds)
    return ExperimentReport(
        label=cfg.label,
        preset=cfg.preset,
        runs=runs,
        mean_accuracy=sum(r.test_accuracy for r in runs) / len(runs),
        mean_train_seconds=sum(r.train_seconds for r in runs) / len(runs),
        hyperparams=cfg.hyperparams,
        dataset=cfg.dataset,
        spec_fingerprint=fingerprint(spec),
    )


def run_grid(
    base_cfg: ExperimentConfig, placements: list[GroupSelector], to_kind: ActivationKind
) -> list[ExperimentReport]:
    """The unmodified baseline plus one cell per placement, all sharing seeds,
    hyperparameters, and the exact same loaded dataset."""
    data = load_datasets(base_cfg.dataset)
    reports = [run_experiment(replace(base_cfg, surgery=(), label="baseline"), data=data)]
    for sel in placements:
        step = SurgeryStep(selector=sel, from_kind=None, to_kind=to_kind)
        cell = replace(base_cfg, surgery=(step,), label=f"{sel.as_string()}->{to_kind.value}")
        reports.append(run_experiment(cell, data=data))
    return reports


# --- serialization ---------------------------------------------------------

# One CSV row per seed; each column is a field name of ExperimentReport, its Hyperparams or the SeedRun.
_REPORT_CSV_COLUMNS = [
    "label",
    "preset",
    "lr",
    "momentum",
    "batch_size",
    "epochs",
    "seed",
    "test_accuracy",
    "train_seconds",
    "mean_accuracy",
    "mean_train_seconds",
    "spec_fingerprint",
    "init_param_hash",
]


def emit_report(reports: list[ExperimentReport], path: str | Path) -> None:
    """Write reports to disk: one row per seed if the path ends in .csv (any case), else JSON."""
    if not reports:
        raise DomainError("no reports to emit")
    with open(path, "w", newline="") as fh:
        if Path(path).suffix.lower() == ".csv":
            writer = csv.DictWriter(fh, _REPORT_CSV_COLUMNS, extrasaction="ignore", lineterminator="\n")
            writer.writeheader()
            for rep in reports:
                row = {**asdict(rep), **asdict(rep.hyperparams)}
                writer.writerows({**row, **asdict(run)} for run in rep.runs)
        else:
            json.dump([record_to_json(r) for r in reports], fh, indent=2)
            fh.write("\n")


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from None
    return record_from_json(ExperimentConfig, doc)
