"""Experiment orchestration: activation-placement runs over repeated seeds,
mean aggregation, wall-time capture, and CSV/JSON report emission.

Every run is deterministic given (config, platform): model init, batch order,
and evaluation all draw from one SplitMix64 stream per seed, single-threaded.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .dataio import ImageDataset, gen_synthetic_images, load_cifar10_binary, subset
from .errors import ActkitError, ConfigError, DomainError, FormatError
from .kernels import ActivationKind
from .modelspec import (
    GroupSelector,
    Model,
    ModelSpec,
    build_model,
    fingerprint,
    forward,
    loss_and_gradients,
    preset,
    replace_activations,
)
from .tensor import Rng, sgd_momentum_step

CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILES = ["test_batch.bin"]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Hyperparams:
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 5

    def __post_init__(self) -> None:
        for name in ("lr", "momentum"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool) or not math.isfinite(value):
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
        if self.train_size < 1 or self.test_size < 1:
            raise ConfigError("train_size and test_size must be >= 1")


@dataclass(frozen=True)
class SurgeryStep:
    selector: GroupSelector
    from_kind: ActivationKind | None  # None matches any kind
    to_kind: ActivationKind


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str
    dataset: DataConfig
    label: str
    surgery: tuple[SurgeryStep, ...] = ()
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    seeds: tuple[int, ...] = (1, 2)

    def __post_init__(self) -> None:
        object.__setattr__(self, "surgery", tuple(self.surgery))
        if not isinstance(self.seeds, (list, tuple)) or not all(_is_int(s) for s in self.seeds):
            raise ConfigError(f"seeds must be a list of integers, got {self.seeds!r}")
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.seeds:
            raise ConfigError("seeds must not be empty")


@dataclass(frozen=True)
class SeedRun:
    seed: int
    test_accuracy: float
    train_seconds: float
    init_param_hash: str


@dataclass(frozen=True)
class ExperimentReport:
    label: str
    preset: str
    runs: tuple[SeedRun, ...]
    mean_accuracy: float
    mean_train_seconds: float
    hyperparams: Hyperparams
    dataset: DataConfig
    spec_fingerprint: str


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
    velocity = [np.zeros_like(p) for p in model.param_list()]
    n = len(train)

    start = time.perf_counter()
    for _ in range(hp.epochs):
        order = np.argsort(rng.uniforms(n), kind="stable")
        for lo in range(0, n, hp.batch_size):
            batch_idx = order[lo : lo + hp.batch_size]
            _, grads = loss_and_gradients(model, train.images[batch_idx], train.labels[batch_idx])
            new_params, velocity = sgd_momentum_step(
                model.param_list(), list(grads.values()), velocity, hp.lr, hp.momentum
            )
            model.set_params(new_params)
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


def report_to_json(report: ExperimentReport) -> dict:
    return {
        "label": report.label,
        "preset": report.preset,
        "spec_fingerprint": report.spec_fingerprint,
        "hyperparams": asdict(report.hyperparams),
        "dataset": asdict(report.dataset),
        "runs": [asdict(r) for r in report.runs],
        "mean_accuracy": report.mean_accuracy,
        "mean_train_seconds": report.mean_train_seconds,
    }


def report_from_json(doc: dict) -> ExperimentReport:
    try:
        return ExperimentReport(
            label=doc["label"],
            preset=doc["preset"],
            runs=tuple(SeedRun(**r) for r in doc["runs"]),
            mean_accuracy=doc["mean_accuracy"],
            mean_train_seconds=doc["mean_train_seconds"],
            hyperparams=Hyperparams(**doc["hyperparams"]),
            dataset=DataConfig(**doc["dataset"]),
            spec_fingerprint=doc["spec_fingerprint"],
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed report document: {exc!r}") from None


def emit_report(reports: list[ExperimentReport], path: str | Path, format: str = "json") -> None:
    """Write reports to disk; 'json' keeps full structure, 'csv' emits one row per seed."""
    if not reports:
        raise DomainError("no reports to emit")
    if format == "json":
        with open(path, "w") as fh:
            json.dump([report_to_json(r) for r in reports], fh, indent=2)
            fh.write("\n")
    elif format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_REPORT_CSV_COLUMNS)
            for rep in reports:
                for run in rep.runs:
                    writer.writerow(
                        [
                            rep.label,
                            rep.preset,
                            repr(rep.hyperparams.lr),
                            repr(rep.hyperparams.momentum),
                            rep.hyperparams.batch_size,
                            rep.hyperparams.epochs,
                            run.seed,
                            repr(run.test_accuracy),
                            repr(run.train_seconds),
                            repr(rep.mean_accuracy),
                            repr(rep.mean_train_seconds),
                            rep.spec_fingerprint,
                            run.init_param_hash,
                        ]
                    )
    else:
        raise ConfigError(f"unknown report format {format!r} (expected 'csv' or 'json')")


def config_to_json(cfg: ExperimentConfig) -> dict:
    return {
        "preset": cfg.preset,
        "label": cfg.label,
        "surgery": [
            {
                "selector": step.selector.as_string(),
                "from": step.from_kind.value if step.from_kind else None,
                "to": step.to_kind.value,
            }
            for step in cfg.surgery
        ],
        "dataset": asdict(cfg.dataset),
        "hyperparams": asdict(cfg.hyperparams),
        "seeds": list(cfg.seeds),
    }


def config_from_json(doc: dict) -> ExperimentConfig:
    try:
        surgery = tuple(
            SurgeryStep(
                selector=GroupSelector.from_string(step["selector"]),
                from_kind=ActivationKind.from_name(step["from"]) if step.get("from") else None,
                to_kind=ActivationKind.from_name(step["to"]),
            )
            for step in doc.get("surgery", [])
        )
        return ExperimentConfig(
            preset=doc["preset"],
            label=doc.get("label", "experiment"),
            surgery=surgery,
            dataset=DataConfig(**doc["dataset"]),
            hyperparams=Hyperparams(**doc.get("hyperparams", {})),
            seeds=doc.get("seeds", (1, 2)),
        )
    except ActkitError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"malformed experiment config: {exc!r}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from None
    return config_from_json(doc)
