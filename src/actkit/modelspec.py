"""Declarative staged-CNN descriptions with named, surgically replaceable activation sites.

A ModelSpec is an immutable value: four stages of residual blocks behind a stem conv,
every nonlinearity addressable as "stem.act" or "stage{K}.block{J}.act_a/act_b".
Activation surgery rewrites kinds at selected sites and returns a new spec; building
a model from a spec allocates parameters in a fixed order so the initial weights are
a function of the seed alone, never of the activation kinds.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import os
import threading
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, DomainError
from .kernels import ActivationKind, activate_batch, activate_batch_backward
from .tensor import (
    Rng,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    global_avg_pool,
    global_avg_pool_backward,
    he_init,
    softmax_cross_entropy,
)

BAND_A = "A"
BAND_B = "B"

# Full-scale stage layout for the staged video model this mirrors; the presets
# default to one block per stage for desk-scale runs.
FULL_SCALE_BLOCKS = (3, 5, 11, 7)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class ActivationSite:
    """One named nonlinearity: its id, current kind, band (A/B inside blocks) and 1-based
    stage; band and stage are None for the stem."""

    site_id: str
    kind: ActivationKind
    band: str | None
    stage: int | None


@dataclass(frozen=True)
class BlockSpec:
    channels: int
    stride: int
    act_a: ActivationKind
    act_b: ActivationKind


@dataclass(frozen=True)
class ModelSpec:
    preset_name: str = field(metadata={"json": "preset"})
    stem_act: ActivationKind
    stages: tuple[tuple[BlockSpec, ...], ...]
    num_classes: int = 10

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(tuple(stage) for stage in self.stages))
        if len(self.stages) != 4:
            raise ConfigError(f"a model spec has exactly 4 stages, got {len(self.stages)}")
        prev = 0
        for k, stage in enumerate(self.stages, start=1):
            if not stage:
                raise ConfigError(f"stage {k} has no blocks")
            for blk in stage:
                if not (_is_int(blk.channels) and _is_int(blk.stride)) or blk.channels < 1 or blk.stride < 1:
                    raise ConfigError(f"stage {k} block has bad channels/stride: {blk}")
                if blk.channels < prev:
                    raise ConfigError("channel counts must be non-decreasing across blocks")
                prev = blk.channels
        if not _is_int(self.num_classes) or self.num_classes < 2:
            raise ConfigError(f"num_classes must be an integer >= 2, got {self.num_classes!r}")

    @property
    def stem_channels(self) -> int:
        return self.stages[0][0].channels


# The named site groups, each with the test a site must pass to belong to it.
_GROUPS = {
    "initial": lambda site: site.site_id == "stem.act",
    "middle": lambda site: site.stage in (2, 3),
    "last": lambda site: site.stage == 4,
    "all": lambda site: True,
    "band:a": lambda site: site.band == BAND_A,
    "band:b": lambda site: site.band == BAND_B,
}


@dataclass(frozen=True)
class GroupSelector:
    """Addresses a set of activation sites by its text: a named group (initial, middle, last,
    all, band:a, band:b) or one site, "site:<id>". The constructor accepts any case and spaces
    around the text or after the colon, and stores the canonical text; a site id keeps its case."""

    text: str

    def __post_init__(self) -> None:
        head, colon, rest = self.text.strip().partition(":")
        head, rest = head.lower(), rest.strip()
        if head == "site" and rest:
            text = f"site:{rest}"
        else:
            text = f"{head}{colon}{rest.lower()}"
            if text not in _GROUPS:
                raise ConfigError(
                    f"cannot parse selector {self.text!r} (expected {', '.join(_GROUPS)} or site:<id>)"
                )
        object.__setattr__(self, "text", text)

    @classmethod
    def from_string(cls, text: str) -> "GroupSelector":
        return cls(text)

    def matches(self, site: ActivationSite) -> bool:
        if self.text in _GROUPS:
            return _GROUPS[self.text](site)
        return self.text == f"site:{site.site_id}"

    def match(self, sites: list[ActivationSite]) -> list[bool]:
        """Whether the selector matches each site; a ConfigError if it matches none."""
        matched = [self.matches(s) for s in sites]
        if not any(matched):
            raise ConfigError(f"selector {self.text!r} matches no activation site")
        return matched


# Aliases of GroupSelector(text), kept (with from_string) only because perfbench's
# workloads call them; they go when the benchmark next changes.
INITIAL = GroupSelector("initial")
MIDDLE = GroupSelector("middle")
LAST = GroupSelector("last")
ALL = GroupSelector("all")


def preset(name: str, blocks_per_stage: tuple[int, int, int, int] = (1, 1, 1, 1)) -> ModelSpec:
    """Build a named desk-scale preset.

    mini-resnet: every site ReLU. mini-x3d: same topology, act_a ReLU and act_b Swish.
    Both use stage channels (8, 16, 32, 32) with strides (1, 2, 2, 2); the first block
    of a stage carries the stride. blocks_per_stage widens each stage, e.g. the
    full-scale layout FULL_SCALE_BLOCKS = (3, 5, 11, 7).
    """
    if name == "mini-resnet":
        act_a, act_b = ActivationKind.RELU, ActivationKind.RELU
    elif name == "mini-x3d":
        act_a, act_b = ActivationKind.RELU, ActivationKind.SWISH
    else:
        raise ConfigError(f"unknown preset {name!r} (expected 'mini-resnet' or 'mini-x3d')")
    if len(blocks_per_stage) != 4 or not all(_is_int(b) and b >= 1 for b in blocks_per_stage):
        raise ConfigError(f"blocks_per_stage must be 4 positive integers, got {blocks_per_stage}")
    channels = (8, 16, 32, 32)
    strides = (1, 2, 2, 2)
    stages = []
    for ch, st, nblocks in zip(channels, strides, blocks_per_stage):
        stage = [BlockSpec(ch, st if j == 0 else 1, act_a, act_b) for j in range(nblocks)]
        stages.append(tuple(stage))
    return ModelSpec(preset_name=name, stem_act=ActivationKind.RELU, stages=tuple(stages))


def _blocks(spec: ModelSpec):
    """Yield (1-based stage, "stage{k}.block{j}" prefix, BlockSpec) for every block, in order."""
    for k, stage in enumerate(spec.stages, start=1):
        for j, blk in enumerate(stage, start=1):
            yield k, f"stage{k}.block{j}", blk


def list_sites(spec: ModelSpec) -> list[ActivationSite]:
    """All sites in stable order: stem first, then stages and blocks in index order."""
    sites = [ActivationSite("stem.act", spec.stem_act, None, None)]
    for k, prefix, blk in _blocks(spec):
        sites.append(ActivationSite(f"{prefix}.act_a", blk.act_a, BAND_A, k))
        sites.append(ActivationSite(f"{prefix}.act_b", blk.act_b, BAND_B, k))
    return sites


def replace_activations(
    spec: ModelSpec,
    selector: GroupSelector,
    from_kind: ActivationKind | None,
    to_kind: ActivationKind,
) -> tuple[ModelSpec, int]:
    """Set kind=to_kind at every site the selector matches whose kind equals from_kind
    (from_kind=None matches any). Returns the new spec and the changed-site count;
    a site already at to_kind that matches still counts as changed."""
    sites = list_sites(spec)
    matched = selector.match(sites)
    hits = [m and from_kind in (None, s.kind) for s, m in zip(sites, matched)]
    kinds = (to_kind if hit else s.kind for s, hit in zip(sites, hits))
    stem_act = next(kinds)
    stages = tuple(
        tuple(replace(blk, act_a=next(kinds), act_b=next(kinds)) for blk in stage)
        for stage in spec.stages
    )
    return replace(spec, stem_act=stem_act, stages=stages), sum(hits)


# Field types written as JSON text, each with its parser.
_FROM_TEXT = {str: str, ActivationKind: ActivationKind.from_name, GroupSelector: GroupSelector}


def record_to_json(value):
    """JSON form of a record: a dataclass's fields in order under their JSON keys (a field's
    "json" metadata, else its name), kinds by name, selectors as text, tuples as lists."""
    if isinstance(value, GroupSelector):
        return value.text
    if isinstance(value, ActivationKind):
        return value.value
    if isinstance(value, tuple):
        return [record_to_json(item) for item in value]
    if is_dataclass(value):
        return {f.metadata.get("json", f.name): record_to_json(getattr(value, f.name)) for f in fields(value)}
    return value


def record_from_json(cls, doc: object):
    """Inverse of record_to_json for dataclass `cls`, read by its field annotations. A missing,
    unknown or wrongly typed key raises ConfigError naming the key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {doc!r}")
    keys = {f.metadata.get("json", f.name): f for f in fields(cls)}
    for key in doc:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {cls.__name__}")
    hints = get_type_hints(cls)
    kwargs = {}
    for key, f in keys.items():
        if key in doc:
            try:
                kwargs[f.name] = _decode(hints[f.name], doc[key])
            except TypeError as exc:
                raise ConfigError(f"malformed {key!r} in {cls.__name__}: {exc}") from None
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key {key!r} in {cls.__name__}")
    return cls(**kwargs)


def _decode(tp, value):
    """`value` read as annotation `tp`; a JSON type that cannot hold a `tp` raises TypeError.
    An int takes only an integer and a float any finite number; neither takes a bool."""
    args = get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _decode(args[0], value)
    if get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            each = f" (each {args[0].__name__} must be a JSON object)" if is_dataclass(args[0]) else ""
            raise TypeError(f"expected a list, got {value!r}{each}")
        return tuple(_decode(args[0], item) for item in value)
    if tp in _FROM_TEXT:
        if not isinstance(value, str):
            raise TypeError(f"expected a string, got {value!r}")
        return _FROM_TEXT[tp](value)
    if is_dataclass(tp):
        return record_from_json(tp, value)
    if tp is int and not _is_int(value):
        raise TypeError(f"expected an integer, got {value!r}")
    if tp is float and not _is_finite(value):
        raise TypeError(f"expected a finite number, got {value!r}")
    return value


def fingerprint(spec: ModelSpec) -> str:
    """Stable hex digest of the serialized spec; changes iff the spec changes."""
    blob = json.dumps(record_to_json(spec), sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(eq=False)
class Model:
    """Parameter tensors for one ModelSpec.

    Parameters live in an insertion-ordered dict; the allocation order (stem, stages
    in order, head) is independent of activation kinds, so two specs differing only
    in kinds yield bit-identical initial weights for the same seed.
    """

    spec: ModelSpec
    params: dict[str, np.ndarray]


def build_model(spec: ModelSpec, rng: Rng) -> Model:
    """Allocate He-uniform weights (zero biases) for the spec, in fixed order. A block
    gets a 1x1 skip projection ("{prefix}.proj") iff it changes stride or width."""
    params: dict[str, np.ndarray] = {}

    def alloc_conv(name: str, out_ch: int, in_ch: int, k: int) -> None:
        params[f"{name}.w"] = he_init((out_ch, in_ch, k, k), fan_in=in_ch * k * k, rng=rng)
        params[f"{name}.b"] = np.zeros(out_ch, dtype=np.float32)

    alloc_conv("stem", spec.stem_channels, 3, 3)
    in_ch = spec.stem_channels
    for _, prefix, blk in _blocks(spec):
        alloc_conv(f"{prefix}.conv1", blk.channels, in_ch, 3)
        alloc_conv(f"{prefix}.conv2", blk.channels, blk.channels, 3)
        if blk.stride != 1 or blk.channels != in_ch:
            alloc_conv(f"{prefix}.proj", blk.channels, in_ch, 1)
        in_ch = blk.channels
    params["head.w"] = he_init((in_ch, spec.num_classes), fan_in=in_ch, rng=rng)
    params["head.b"] = np.zeros(spec.num_classes, dtype=np.float32)
    return Model(spec, params)


def _activate_at(site_id: str, kind: ActivationKind, z: np.ndarray) -> np.ndarray:
    """activate_batch, with the site id in front of a non-finite pre-activation's DomainError."""
    try:
        return activate_batch(kind, z)
    except DomainError as err:
        raise DomainError(f"{site_id}: {err}") from err


def _forward_internal(model: Model, batch: np.ndarray, record: bool):
    """Logits plus what backward reads: the stem pre-activation and one (prefix, blk, x_in,
    z1, a1, s) record per block (None and [] unless record), pooled features, pre-pool shape."""
    p = model.params
    z_stem = conv2d_forward(batch, p["stem.w"], p["stem.b"], stride=1)
    cur = _activate_at("stem.act", model.spec.stem_act, z_stem)
    if not record:
        z_stem = None
    blocks = []
    for _, prefix, blk in _blocks(model.spec):
        x_in = cur
        z1 = conv2d_forward(x_in, p[f"{prefix}.conv1.w"], p[f"{prefix}.conv1.b"], blk.stride)
        a1 = _activate_at(f"{prefix}.act_a", blk.act_a, z1)
        s = conv2d_forward(a1, p[f"{prefix}.conv2.w"], p[f"{prefix}.conv2.b"], stride=1) + (
            conv2d_forward(x_in, p[f"{prefix}.proj.w"], p[f"{prefix}.proj.b"], blk.stride)
            if f"{prefix}.proj.w" in p
            else x_in
        )
        cur = _activate_at(f"{prefix}.act_b", blk.act_b, s)
        if record:
            blocks.append((prefix, blk, x_in, z1, a1, s))
    feats = global_avg_pool(cur)
    logits = dense_forward(feats, p["head.w"], p["head.b"])
    return logits, (z_stem, blocks, feats, cur.shape)


# forward runs a batch of n images as n // _CHUNK_IMAGES near-equal chunks. Each chunk
# holds at least this many images, so every conv GEMM has enough rows to stay out of
# OpenBLAS's small-matrix kernels (another summation order): the logits equal one
# whole-batch pass bit for bit, whatever the core count.
_CHUNK_IMAGES = 32
# lets one forward at a time hold OpenBLAS at one thread and run chunks on a pool
_pool_lock = threading.Lock()


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


def _forward_chunk(model: Model, chunk: np.ndarray, err: dict) -> np.ndarray:
    # a pool thread starts with numpy's default error handling, not the caller's
    with np.errstate(**err):
        return _forward_internal(model, chunk, record=False)[0]


def forward(model: Model, batch: np.ndarray) -> np.ndarray:
    """Run the model on an NCHW batch; returns (N, num_classes) logits. Pure.

    A batch of n >= 64 images runs as n // 32 near-equal chunks of whole images on a
    thread pool made for the call, with one thread per core, while OpenBLAS is held at
    one thread; the logits are the same bits as one whole-batch pass. An error in any
    chunk re-runs the whole batch in the caller's thread, so it names the whole batch's
    shape and indices. A nested or concurrent call, a smaller batch, or a process
    without numpy's OpenBLAS thread controls runs on one thread.
    """
    batch = np.asarray(batch)
    n = batch.shape[0] if batch.ndim == 4 else 0
    chunks = n // _CHUNK_IMAGES
    if chunks < 2 or not _pool_lock.acquire(blocking=False):
        return _forward_internal(model, batch, record=False)[0]
    try:
        from concurrent.futures import ThreadPoolExecutor

        blas = _openblas_threads()
        workers = len(os.sched_getaffinity(0)) if blas else 1
        threads = blas[0]() if blas else None
        if blas:
            blas[1](1)
        try:
            err = np.geterr()
            # leaving the block waits for every chunk and ends the pool's threads
            with ThreadPoolExecutor(workers, thread_name_prefix="actkit-forward") as pool:
                futures = [
                    pool.submit(_forward_chunk, model, batch[n * j // chunks : n * (j + 1) // chunks], err)
                    for j in range(chunks)
                ]
            errors = [f.exception() for f in futures]
        finally:
            if blas:
                blas[1](threads)
        if any(errors):
            _forward_internal(model, batch, record=False)  # raises the error the whole batch meets
            raise next(e for e in errors if e)
        return np.concatenate([f.result() for f in futures])
    finally:
        _pool_lock.release()


def loss_and_gradients(
    model: Model, batch: np.ndarray, labels: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy loss and exact parameter gradients for one batch."""
    logits, (z_stem, blocks, feats, last_shape) = _forward_internal(model, batch, record=True)
    loss, g_logits = softmax_cross_entropy(logits, labels)
    p = model.params
    grads: dict[str, np.ndarray] = {}

    def conv_back(name: str, x: np.ndarray, upstream: np.ndarray, stride: int) -> np.ndarray:
        gx, grads[f"{name}.w"], grads[f"{name}.b"] = conv2d_backward(x, p[f"{name}.w"], upstream, stride)
        return gx

    g_feats, grads["head.w"], grads["head.b"] = dense_backward(feats, p["head.w"], g_logits)
    g_cur = global_avg_pool_backward(g_feats, last_shape[2], last_shape[3])
    for prefix, blk, x_in, z1, a1, s in reversed(blocks):
        gs = activate_batch_backward(blk.act_b, s, g_cur)
        gz1 = activate_batch_backward(blk.act_a, z1, conv_back(f"{prefix}.conv2", a1, gs, 1))
        gx = conv_back(f"{prefix}.conv1", x_in, gz1, blk.stride)
        if f"{prefix}.proj.w" in p:
            gs = conv_back(f"{prefix}.proj", x_in, gs, blk.stride)
        g_cur = gx + gs
    g_stem = activate_batch_backward(model.spec.stem_act, z_stem, g_cur)
    _, grads["stem.w"], grads["stem.b"] = conv2d_backward(batch, p["stem.w"], g_stem, 1, input_grad=False)
    return loss, {name: grads[name] for name in model.params}
