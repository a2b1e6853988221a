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
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np

from .chunks import _cut, _run_chunks
from .errors import ActkitError, ConfigError, DomainError
from .kernels import ActivationKind, activate_batch, activate_batch_backward
from .tensor import (
    Rng,
    _as_real,
    _finite,
    class_labels,
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


_hints = functools.cache(functools.partial(get_type_hints, include_extras=True))  # a record class's annotations


class _Record:
    """Base of the frozen records: specs, configs and reports. On construction each field is
    read by its annotation as record_from_json reads JSON (_decode), and holds the result; a
    value that it cannot hold raises ConfigError "malformed '<JSON key>' in <Record>: ...".
    A record's own rules come after this."""

    def __post_init__(self) -> None:
        hints = _hints(type(self))
        for f in fields(self):
            try:
                object.__setattr__(self, f.name, _decode(hints[f.name], getattr(self, f.name)))
            except TypeError as exc:
                key = f.metadata.get("json", f.name)
                raise ConfigError(f"malformed {key!r} in {type(self).__name__}: {exc}") from None


@dataclass(frozen=True)
class ActivationSite:
    """One named nonlinearity: its id, current kind, band (A/B inside blocks) and 1-based
    stage; band and stage are None for the stem."""

    site_id: str
    kind: ActivationKind
    band: str | None
    stage: int | None


@dataclass(frozen=True)
class BlockSpec(_Record):
    channels: Annotated[int, 1]
    stride: Annotated[int, 1]
    act_a: ActivationKind
    act_b: ActivationKind


@dataclass(frozen=True)
class ModelSpec(_Record):
    preset_name: str = field(metadata={"json": "preset"})
    stem_act: ActivationKind
    stages: tuple[tuple[BlockSpec, ...], ...]
    num_classes: Annotated[int, 2] = 10

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.stages) != 4:
            raise ConfigError(f"a model spec has exactly 4 stages, got {len(self.stages)}")
        prev = 0
        for k, stage in enumerate(self.stages, start=1):
            if not stage:
                raise ConfigError(f"stage {k} has no blocks")
            for blk in stage:
                if blk.channels < prev:
                    raise ConfigError("channel counts must be non-decreasing across blocks")
                prev = blk.channels

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
class GroupSelector(_Record):
    """Addresses a set of activation sites by its text: a named group (initial, middle, last,
    all, band:a, band:b) or one site, "site:<id>". The constructor accepts any case and spaces
    around the text or after the colon, and stores the canonical text; a site id keeps its case."""

    text: str

    def __post_init__(self) -> None:
        super().__post_init__()
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
    stages = [
        [BlockSpec(ch, st if j == 0 else 1, act_a, act_b) for j in range(nblocks)]
        for ch, st, nblocks in zip(channels, strides, blocks_per_stage)
    ]
    return ModelSpec(preset_name=name, stem_act=ActivationKind.RELU, stages=stages)


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
    """Inverse of record_to_json for record class `cls`. It checks the keys: an unknown or
    missing required key raises ConfigError naming the key. The constructor checks the fields."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {doc!r}")
    keys = {f.metadata.get("json", f.name): f for f in fields(cls)}
    for key in doc:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {cls.__name__}")
    for key, f in keys.items():
        if key not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing key {key!r} in {cls.__name__}")
    return cls(**{f.name: doc[key] for key, f in keys.items() if key in doc})


def _decode(tp, value):
    """`value` read as annotation `tp`; a value that cannot be a `tp` raises TypeError. An int takes
    an integer (>= n for Annotated[int, n]), a float any finite number (not an int past float's
    range), neither a bool; a tuple a list, a kind or selector its text (a text its parser rejects
    raises TypeError with the parser's message), a record a dict (record_from_json); each also
    takes itself."""
    args = get_args(tp)
    if get_origin(tp) is Annotated:  # Annotated[int, n]
        value = _decode(args[0], value)
        if value < args[1]:
            raise TypeError(f"expected an integer >= {args[1]}, got {value!r}")
        return value
    if type(None) in args:  # X | None
        return None if value is None else _decode(args[0], value)
    if get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            each = f" (each {args[0].__name__} must be a JSON object)" if is_dataclass(args[0]) else ""
            raise TypeError(f"expected a list, got {value!r}{each}")
        return tuple(_decode(args[0], item) for item in value)
    if tp in _FROM_TEXT and not isinstance(value, tp):
        if not isinstance(value, str):
            raise TypeError(f"expected a string, got {value!r}")
        try:
            return _FROM_TEXT[tp](value)
        except ActkitError as exc:
            raise TypeError(str(exc)) from None
    if is_dataclass(tp) and not isinstance(value, tp):
        return record_from_json(tp, value)
    if tp is int and not _is_int(value):
        raise TypeError(f"expected an integer, got {value!r}")
    if tp is float and not (
        isinstance(value, numbers.Real) and not isinstance(value, bool) and _is_finite(value)
    ):
        raise TypeError(f"expected a finite number, got {value!r}")
    return value


def _is_finite(value: numbers.Real) -> bool:
    """math.isfinite, with an int past float's range (where it raises OverflowError) not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# MIDDLE and GroupSelector.from_string stay only because perfbench's workloads call them; they
# go when the benchmark next changes. Like any record, MIDDLE can be built only below _decode.
MIDDLE = GroupSelector("middle")


def fingerprint(spec: ModelSpec) -> str:
    """Stable hex digest of the serialized spec; changes iff the spec changes."""
    blob = json.dumps(record_to_json(spec), sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True, eq=False)
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
    """Logits plus what backward reads: the batch, the stem pre-activation and one (prefix, blk,
    x_in, z1, a1, s) record per block (None, None and [] unless record), pooled features, pre-pool
    shape. The stem conv reads the batch as given; every conv output, and so every activation
    after it, is channels-last (see actkit.tensor)."""
    p = model.params
    z_stem = conv2d_forward(batch, p["stem.w"], p["stem.b"], stride=1)
    cur = _activate_at("stem.act", model.spec.stem_act, z_stem)
    if not record:
        batch = z_stem = None
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
    feats = _finite("pool: features", global_avg_pool(cur))  # no site checks what follows the last one
    logits = _finite("head: logits", dense_forward(feats, p["head.w"], p["head.b"]))
    return logits, (batch, z_stem, blocks, feats, cur.shape)


# forward and loss_and_gradients cut a batch of n images into max(1, n // 16) near-equal chunks.
# Each of several chunks holds at least 16 images, so every conv GEMM stays out of OpenBLAS's
# small-matrix kernels (another summation order) whatever the core count.
_CHUNK = 16


def _run_image_chunks(fn, bounds: list[tuple[int, int]]) -> list:
    """_run_chunks, with a chunk's images in front of its ActkitError if there are several chunks
    ("images 32-47 of 96: ..."), and with numpy's overflow and invalid warnings off: a value that
    leaves float32 is named by the next activation site or finiteness check instead."""
    def run(lo: int, hi: int):
        try:
            return fn(lo, hi)
        except ActkitError as exc:
            raise type(exc)(f"images {lo}-{hi - 1} of {bounds[-1][1]}: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # the executor hands this to every chunk
        return _run_chunks(run if len(bounds) > 1 else fn, bounds)


def forward(model: Model, batch: np.ndarray) -> np.ndarray:
    """Run the model on an NCHW batch; returns (N, num_classes) logits. Pure.

    The batch runs as max(1, n // 16) near-equal chunks of whole images (_run_image_chunks),
    through the chunk executor: from 32 images on every core, so its peak memory is a few
    chunks', not the batch's. The logits are the same bits as one whole-batch pass. A
    non-finite pre-activation, pooled feature or logit raises a DomainError naming its site
    or op. Of several chunks, the first (in order) to raise an ActkitError re-raises it with
    its images in front, e.g. "images 32-47 of 96: stem.act: ..."; any other exception
    propagates as it is.
    """
    batch = _as_real(batch, 4, "conv input")
    bounds = _cut(batch.shape[0], _CHUNK)
    chunks = _run_image_chunks(lambda lo, hi: _forward_internal(model, batch[lo:hi], record=False)[0], bounds)
    return np.concatenate(chunks)


def loss_and_gradients(
    model: Model, batch: np.ndarray, labels: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy loss and parameter gradients for a batch of one image or more. Once its
    labels pass class_labels, it runs as max(1, n // 16) near-equal chunks (_run_image_chunks, as
    in forward), summed by chunk size in chunk order: the same bits for any core count and BLAS
    thread count; under 32 images the one-pass result bit for bit, from 32 within float32
    rounding of one whole-batch pass. Beyond forward's checks, a non-finite loss or parameter
    gradient raises a DomainError naming it ("loss: ...", "gradient of head.b (10,) has ...")."""
    batch = _as_real(batch, 4, "conv input")
    n = batch.shape[0]
    if n == 0:
        raise DomainError(f"loss needs at least one image, got batch shape {batch.shape}")
    labels = class_labels(labels, n, model.spec.num_classes)
    bounds = _cut(n, _CHUNK)
    parts = _run_image_chunks(lambda lo, hi: _loss_and_gradients_pass(model, batch[lo:hi], labels[lo:hi]), bounds)
    loss, grads = 0.0, {}
    for (lo, hi), (part_loss, part_grads) in zip(bounds, parts):
        share = (hi - lo) / n
        loss += share * part_loss
        for name, g in part_grads.items():
            term = np.float32(share) * g
            grads[name] = np.add(grads[name], term) if name in grads else term
    return loss, grads


def _loss_and_gradients_pass(
    model: Model, batch: np.ndarray, labels: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy loss and exact parameter gradients for one batch, in one pass."""
    logits, (x, z_stem, blocks, feats, last_shape) = _forward_internal(model, batch, record=True)
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
    _, grads["stem.w"], grads["stem.b"] = conv2d_backward(x, p["stem.w"], g_stem, 1, input_grad=False)
    return loss, {name: _finite(f"gradient of {name}", grads[name]) for name in model.params}
