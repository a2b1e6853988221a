"""Experiment orchestration: activation-placement runs over repeated seeds,
mean aggregation, wall-time capture, and CSV/JSON report emission.

Every run is deterministic given (config, platform): model init, batch order,
and evaluation all draw from one SplitMix64 stream per seed. How modelspec's
forward and loss_and_gradients cut a batch into chunks, and how many cores and
BLAS threads there are, never changes the results.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Annotated

import numpy as np

from .dataio import ImageDataset, gen_synthetic_images, load_cifar10_binary, subset
from .errors import ConfigError, DomainError, FormatError
from .kernels import ActivationKind
from .modelspec import (
    GroupSelector,
    Model,
    ModelSpec,
    _Record,
    build_model,
    fingerprint,
    forward,
    list_sites,
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
class Hyperparams(_Record):
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: Annotated[int, 1] = 32
    epochs: Annotated[int, 1] = 5

    def __post_init__(self) -> None:
        super().__post_init__()
        for key, ok, rule in (("lr", self.lr > 0, "> 0"), ("momentum", 0 <= self.momentum < 1, "in [0, 1)")):
            if not ok:  # a step that ascends, or a velocity that never decays
                got = getattr(self, key)
                raise ConfigError(f"malformed {key!r} in Hyperparams: expected a number {rule}, got {got!r}")


@dataclass(frozen=True)
class DataConfig(_Record):
    """Where training data comes from: generated images or CIFAR-10 binary batches."""

    source: str  # "synthetic-images" | "cifar10-binary"
    train_size: Annotated[int, 1]
    test_size: Annotated[int, 1]
    data_dir: str | None = None
    subset_seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.source not in ("synthetic-images", "cifar10-binary"):
            raise ConfigError(f"unknown dataset source {self.source!r}")
        if self.source == "cifar10-binary" and not self.data_dir:
            raise ConfigError("cifar10-binary source needs data_dir")


@dataclass(frozen=True, kw_only=True)
class SurgeryStep(_Record):
    selector: GroupSelector
    from_kind: ActivationKind | None = field(default=None, metadata={"json": "from"})  # None matches any kind
    to_kind: ActivationKind = field(metadata={"json": "to"})


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(_Record):
    preset: str
    label: str = "experiment"
    surgery: tuple[SurgeryStep, ...] = ()
    dataset: DataConfig
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    seeds: tuple[int, ...] = (1, 2)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.seeds:
            raise ConfigError("seeds must not be empty")


@dataclass(frozen=True)
class SeedRun(_Record):
    seed: int
    test_accuracy: float
    train_seconds: float
    init_param_hash: str


@dataclass(frozen=True, kw_only=True)
class ExperimentReport(_Record):
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
    """Materialize (train, test) per the config; pure function of the config. A CIFAR size below
    its batch files' image count takes a stratified subset, an equal one the files in their order,
    and a larger one raises DomainError."""
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
    for key, size, ds in (("train_size", cfg.train_size, train), ("test_size", cfg.test_size, test)):
        if size > len(ds):
            raise DomainError(f"{key} {size} exceeds the {len(ds)} images in its batch files")
    if cfg.train_size < len(train):
        train = subset(train, cfg.train_size, seed=cfg.subset_seed)
    if cfg.test_size < len(test):
        test = subset(test, cfg.test_size, seed=cfg.subset_seed + 1)
    return train, test


def evaluate(model: Model, ds: ImageDataset) -> float:
    """Top-1 accuracy over the dataset: one forward call, which runs a set of 32 or more in chunks on every core."""
    return int((forward(model, ds.images).argmax(axis=1) == ds.labels).sum()) / len(ds)


def _train_single(
    spec: ModelSpec, train: ImageDataset, test: ImageDataset, hp: Hyperparams, seed: int
) -> SeedRun:
    rng = Rng(seed)
    model = build_model(spec, rng)
    init_hash = param_hash(model)
    velocity = {name: np.zeros_like(p) for name, p in model.params.items()}
    n = len(train)

    last_loss = None
    start = time.perf_counter()
    for epoch in range(1, hp.epochs + 1):
        order = np.argsort(rng.uniforms(n), kind="stable")
        for step, lo in enumerate(range(0, n, hp.batch_size), start=1):
            idx = order[lo : lo + hp.batch_size]
            try:
                loss, grads = loss_and_gradients(model, train.images[idx], train.labels[idx])
                model.params, velocity = sgd_momentum_step(model.params, grads, velocity, hp.lr, hp.momentum)
            except DomainError as err:
                where = f"seed {seed} epoch {epoch} step {step} (last loss {last_loss!r})"
                raise DomainError(f"{where}: {err}") from err
            last_loss = loss
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
    """The unmodified baseline plus one cell per placement, all sharing seeds, hyperparameters,
    and the exact same loaded dataset. The config must have no surgery of its own, since the cells
    are the plain preset and one placement each; that and every placement are checked before the
    data is loaded."""
    if base_cfg.surgery:
        raise ConfigError(
            f"a grid config must have an empty 'surgery' list, got {len(base_cfg.surgery)} step(s): "
            "the grid's cells are the plain preset and one per placement"
        )
    sites = list_sites(preset(base_cfg.preset))
    cells = [replace(base_cfg, label="baseline")]
    for sel in placements:
        sel.match(sites)
        step = SurgeryStep(selector=sel, from_kind=None, to_kind=to_kind)
        cells.append(replace(base_cfg, surgery=(step,), label=f"{sel.text}->{to_kind.value}"))
    data = load_datasets(base_cfg.dataset)
    return [run_experiment(cell, data=data) for cell in cells]


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
