"""In-memory spans around the calls into actkit's public functions.

`modelspec` and `experiments` import tensor and kernel functions by name, so
patching `actkit.tensor.conv2d_forward` alone records nothing. `Tracer.install`
therefore replaces every module-level name in every loaded `actkit` module that
is bound to a traced function, and `uninstall` restores them all.

A span is `[name, start_ns, end_ns, parent_index, op_id, attrs]`. Op id -1 is
the traced set-up. A span's self time is its duration minus its direct
children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

KINDS = ("relu", "relu6", "sigmoid", "swish", "hardswish")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _conv_attrs(flop_factor):
    def attrs(args, kwargs, _result):
        x = _arg(args, kwargs, 0, "x")
        w = _arg(args, kwargs, 1, "weights")
        stride = int(_arg(args, kwargs, 3, "stride", 1))
        n, c, h, wid = x.shape
        o, _, k, _ = w.shape
        ho, wo = math.ceil(h / stride), math.ceil(wid / stride)
        return {
            "flop": flop_factor * 2 * n * ho * wo * o * c * k * k,
            "im2col_bytes": n * ho * wo * c * k * k * 4,
        }

    return attrs


def _kernel_attrs(args, kwargs, _result):
    kind = _arg(args, kwargs, 0, "kind")
    xs = _arg(args, kwargs, 1, "xs")
    return {"kind": kind.value, "elems": int(np.size(xs))}


def _sites_attrs(_args, _kwargs, result):
    return {"sites": int(result[1])}


def _file_attrs(pos, name):
    def attrs(args, kwargs, _result):
        return {"bytes": Path(_arg(args, kwargs, pos, name)).stat().st_size}

    return attrs


# (defining module, attribute, span name, attrs computed from args and result).
# Dense and pooling spans are not reported; they keep the self time of forward
# and loss_and_gradients to the model glue.
TARGETS = (
    ("actkit.tensor", "conv2d_forward", "tensor.conv2d_forward", _conv_attrs(1)),
    ("actkit.tensor", "conv2d_backward", "tensor.conv2d_backward", _conv_attrs(2)),
    ("actkit.tensor", "dense_forward", "tensor.dense_forward", None),
    ("actkit.tensor", "dense_backward", "tensor.dense_backward", None),
    ("actkit.tensor", "global_avg_pool", "tensor.global_avg_pool", None),
    ("actkit.tensor", "global_avg_pool_backward", "tensor.global_avg_pool_backward", None),
    ("actkit.tensor", "softmax_cross_entropy", "tensor.softmax_cross_entropy", None),
    ("actkit.tensor", "sgd_momentum_step", "tensor.sgd_momentum_step", None),
    ("actkit.tensor", "Rng.uniforms", "tensor.rng_uniforms", None),
    ("actkit.kernels", "activate_batch", "kernels.activate_batch", _kernel_attrs),
    ("actkit.kernels", "activate_batch_backward", "kernels.activate_batch_backward", _kernel_attrs),
    ("actkit.modelspec", "forward", "modelspec.forward", None),
    ("actkit.modelspec", "loss_and_gradients", "modelspec.loss_and_gradients", None),
    ("actkit.modelspec", "build_model", "modelspec.build_model", None),
    ("actkit.modelspec", "replace_activations", "modelspec.replace_activations", _sites_attrs),
    ("actkit.experiments", "run_experiment", "experiments.run_experiment", None),
    ("actkit.experiments", "evaluate", "experiments.evaluate", None),
    ("actkit.experiments", "param_hash", "experiments.param_hash", None),
    ("actkit.experiments", "load_datasets", "experiments.load_datasets", None),
    ("actkit.dataio", "gen_synthetic_images", "dataio.gen_synthetic_images", None),
    ("actkit.dataio", "gen_synthetic_phases", "dataio.gen_synthetic_phases", None),
    ("actkit.dataio", "save_phase_csv", "dataio.save_phase_csv", _file_attrs(1, "path")),
    ("actkit.dataio", "load_phase_csv", "dataio.load_phase_csv", _file_attrs(0, "path")),
    ("actkit.smoother", "sma", "smoother.sma", None),
    ("actkit.smoother", "sweep_window", "smoother.sweep_window", None),
)


class Tracer:
    """Collects spans while installed; `op_id` tags every span opened after it is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._paused = False

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self.op_id, None])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, fn, name, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if attrs_fn is not None:
                tracer.spans[idx][5] = attrs_fn(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "actkit" or key.startswith("actkit.")]
        for mod_name, attr, name, attrs_fn in TARGETS:
            home = sys.modules.get(mod_name)
            if home is None:
                continue
            if "." in attr:  # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                orig = getattr(cls, meth, None)
                if orig is not None:
                    setattr(cls, meth, self._wrap(orig, name, attrs_fn))
                    self._restore.append((cls, meth, orig))
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            traced = self._wrap(orig, name, attrs_fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


class _Agg:
    __slots__ = ("incl_ns", "self_ns", "calls", "attrs", "by_kind")

    def __init__(self) -> None:
        self.incl_ns = 0
        self.self_ns = 0
        self.calls = 0
        self.attrs: list[dict] = []
        self.by_kind: dict[str, list[int]] = {}  # kind -> [ns, elements]

    def total(self, key: str) -> float:
        return sum(a[key] for a in self.attrs)


def _aggregate(spans: list[list]) -> dict[tuple[str, bool], _Agg]:
    """Per (span name, in an op?) totals of inclusive time, self time, calls and attrs."""
    child_ns = [0] * len(spans)
    for _name, start, end, parent, _op, _attrs in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    aggs: dict[tuple[str, bool], _Agg] = {}
    for i, (name, start, end, _parent, op, attrs) in enumerate(spans):
        agg = aggs.setdefault((name, op >= 0), _Agg())
        agg.incl_ns += end - start
        agg.self_ns += end - start - child_ns[i]
        agg.calls += 1
        if attrs:
            agg.attrs.append(attrs)
            if "kind" in attrs:
                acc = agg.by_kind.setdefault(attrs["kind"], [0, 0])
                acc[0] += end - start
                acc[1] += attrs["elems"]
    return aggs


def layer_metrics(spans: list[list], n_ops: int, copy_gb_per_s: float, overhead_pct: float) -> dict[str, float]:
    """Per-layer values from one traced run.

    Each value is per op: its total over the traced ops divided by their count.
    A layer that runs only during set-up on this workload (say `build_model` on
    inference) reports the traced set-up's own total instead. A layer the
    workload never calls reports 0. Rates divide totals by busy time.
    """
    aggs = _aggregate(spans)

    def layer(name: str) -> tuple[_Agg, int]:
        if (name, True) in aggs:
            return aggs[(name, True)], n_ops
        return aggs.get((name, False), _Agg()), 1

    def per_op(name: str, what: str) -> float:
        """`self_ms`, `incl_ms`, `calls` or the total of one attr, per op."""
        agg, div = layer(name)
        if what in ("self_ms", "incl_ms"):
            value = getattr(agg, what.replace("_ms", "_ns")) * 1e-6
        elif what == "calls":
            value = agg.calls
        else:
            value = agg.total(what)
        return value / div

    def rate(amount: float, ns: int) -> float:
        return amount / (ns * 1e-9) if ns else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for conv in ("tensor.conv2d_forward", "tensor.conv2d_backward"):
        agg, _ = layer(conv)
        out[f"{conv}.self_ms"] = per_op(conv, "self_ms")
        out[f"{conv}.calls"] = per_op(conv, "calls")
        out[f"{conv}.gflop"] = per_op(conv, "flop") / 1e9
        out[f"{conv}.gflop_per_s"] = rate(agg.total("flop") / 1e9, agg.incl_ns)
    out["tensor.im2col_max_mb"] = max(
        (a["im2col_bytes"] for (name, _), agg in aggs.items() if name == "tensor.conv2d_forward" for a in agg.attrs),
        default=0,
    ) / 1e6
    out["tensor.sgd_momentum_step.self_ms"] = per_op("tensor.sgd_momentum_step", "self_ms")
    out["tensor.softmax_cross_entropy.self_ms"] = per_op("tensor.softmax_cross_entropy", "self_ms")
    out["tensor.rng_uniforms_ms"] = per_op("tensor.rng_uniforms", "incl_ms")

    fwd, _ = layer("kernels.activate_batch")
    bwd, _ = layer("kernels.activate_batch_backward")
    for fn in ("kernels.activate_batch", "kernels.activate_batch_backward"):
        out[f"{fn}.self_ms"] = per_op(fn, "self_ms")
        out[f"{fn}.melem"] = per_op(fn, "elems") / 1e6
    out["kernels.max_buffer_mb"] = max(
        (4 * a["elems"] for (name, _), agg in aggs.items() if name.startswith("kernels.") for a in agg.attrs),
        default=0,
    ) / 1e6
    for k in KINDS:
        fwd_ns, fwd_el = fwd.by_kind.get(k, (0, 0))
        bwd_ns, bwd_el = bwd.by_kind.get(k, (0, 0))
        out[f"kernels.{k}.fwd_ns_per_elem"] = ratio(fwd_ns, fwd_el)
        out[f"kernels.{k}.bwd_ns_per_elem"] = ratio(bwd_ns, bwd_el)
        # forward moves 8 computed bytes per element: read 4, write 4
        out[f"kernels.{k}.fwd_bw_frac"] = ratio(rate(8 * fwd_el / 1e9, fwd_ns), copy_gb_per_s)
    out["kernels.hardswish_vs_swish"] = ratio(
        out["kernels.hardswish.fwd_ns_per_elem"], out["kernels.swish.fwd_ns_per_elem"]
    )
    out["mem.copy_gb_per_s"] = copy_gb_per_s

    out["modelspec.loss_and_gradients.self_ms"] = per_op("modelspec.loss_and_gradients", "self_ms")
    out["modelspec.forward.self_ms"] = per_op("modelspec.forward", "self_ms")
    out["modelspec.build_model_ms"] = per_op("modelspec.build_model", "incl_ms")
    out["modelspec.sites_changed"] = per_op("modelspec.replace_activations", "sites")

    # run_experiment's own time is the train loop: shuffle, batch gather, set_params
    out["experiments.train_loop.self_ms"] = per_op("experiments.run_experiment", "self_ms")
    out["experiments.evaluate_ms"] = per_op("experiments.evaluate", "incl_ms")
    out["experiments.param_hash_ms"] = per_op("experiments.param_hash", "incl_ms")
    out["experiments.load_datasets_ms"] = per_op("experiments.load_datasets", "incl_ms")

    for io in ("dataio.save_phase_csv", "dataio.load_phase_csv"):
        agg, _ = layer(io)
        out[f"{io}.ms"] = per_op(io, "incl_ms")
        out[f"{io}.mb_per_s"] = rate(agg.total("bytes") / 1e6, agg.incl_ns)
    out["dataio.csv_mb"] = per_op("dataio.save_phase_csv", "bytes") / 1e6
    out["dataio.gen_synthetic_phases_ms"] = per_op("dataio.gen_synthetic_phases", "incl_ms")
    out["dataio.gen_synthetic_images_ms"] = per_op("dataio.gen_synthetic_images", "incl_ms")

    out["smoother.sma.ms"] = per_op("smoother.sma", "incl_ms")
    out["smoother.sma.calls"] = per_op("smoother.sma", "calls")
    out["smoother.sweep_window.self_ms"] = per_op("smoother.sweep_window", "self_ms")
    out["trace.overhead_pct"] = overhead_pct
    return out
