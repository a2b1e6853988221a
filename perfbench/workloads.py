"""The four closed-loop workloads and the checks on their outputs.

Each workload is driven by one client that issues its next op only after the
previous one returns. `setup` builds the op's inputs from the workload seed and
may run several times; `op` is the timed call into actkit's public API; `check`
returns None or a one-line description of what is wrong with an op's output.
Check state lives in the workload object, so repeats are compared across every
op of a run, traced or not.

Functions are looked up on the `actkit` module at call time so that a traced
run sees the wrapped names.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import actkit as ak

HARDSWISH = ak.ActivationKind.HARDSWISH
KINDS = tuple(ak.ActivationKind)
# The `actkit smooth` default window list.
WINDOWS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
# Loaded CSV probabilities may differ from the generated ones by this much, and
# a decoded label may flip after the round-trip only where the in-memory
# smoothed top-2 gap is below it.
ROUNDTRIP_TOL = 1e-9


class Workload:
    name = ""
    alias = ""  # the per-workload throughput name the results row prints
    item = ""  # what one unit of `items_per_s` is, in the results row
    item_scale = 1  # items per row unit
    round_ops = 1  # throughput is taken over whole rounds of this many ops

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def items(self, out) -> int:
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError

    def largest_buffer(self) -> tuple[int, str]:
        """Computed bytes of the largest array one op touches, and what it is."""
        raise NotImplementedError

    def notes(self) -> str:
        return ""


class GridX3D(Workload):
    """One op: the placement grid, baseline plus four placements -> hardswish."""

    name = "grid-x3d"
    alias = "grid_img_per_s"
    item = "img"
    PLACEMENTS = ("initial", "middle", "last", "all")

    # The README's grid config trains 5 epochs on 2000 images and evaluates on 1000, so a
    # cell evaluates one image per ten it trains on. One epoch here keeps that 10:1 share;
    # 320 training images keep one op at 7 to 8 s, so a 20 s run times three ops after warm-up.
    TRAIN_SIZE, TEST_SIZE = 320, 32

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        train, test = (32, 8) if smoke else (self.TRAIN_SIZE, self.TEST_SIZE)
        self.hp = ak.Hyperparams(lr=0.01, momentum=0.9, batch_size=32, epochs=1)
        self.cfg = ak.ExperimentConfig(
            preset="mini-x3d",
            label="baseline",
            dataset=ak.DataConfig("synthetic-images", train_size=train, test_size=test, subset_seed=seed),
            hyperparams=self.hp,
            seeds=(seed,),
        )
        self.placements = [ak.GroupSelector.from_string(p) for p in self.PLACEMENTS]
        self.accuracies: list[float] | None = None

    def setup(self) -> None:
        base = ak.preset("mini-x3d")
        self.init_hash = ak.param_hash(ak.build_model(base, ak.Rng(self.seed)))
        cells = [base] + [ak.replace_activations(base, sel, None, HARDSWISH)[0] for sel in self.placements]
        self.fingerprints = [ak.fingerprint(spec) for spec in cells]

    def op(self, i: int):
        return ak.run_grid(self.cfg, self.placements, HARDSWISH)

    def items(self, reports) -> int:
        return len(reports) * self.hp.epochs * self.cfg.dataset.train_size

    def check(self, i: int, reports) -> str | None:
        fps = [r.spec_fingerprint for r in reports]
        if len(set(fps)) != 1 + len(self.placements) or fps != self.fingerprints:
            return f"cell spec fingerprints {[f[:8] for f in fps]} are not the 5 distinct planned ones"
        hashes = {run.init_param_hash for r in reports for run in r.runs}
        if hashes != {self.init_hash}:
            return f"cells do not share the init param hash {self.init_hash[:12]}"
        accs = [run.test_accuracy for r in reports for run in r.runs]
        if len(accs) != len(fps) or not all(0.0 <= a <= 1.0 for a in accs):
            return f"bad accuracies {accs}"
        if self.accuracies is None:
            self.accuracies = accs
        elif accs != self.accuracies:
            return f"accuracies {accs} differ from the first op's {self.accuracies}"
        return None

    def largest_buffer(self) -> tuple[int, str]:
        # stage-1 conv im2col: batch x 32x32 positions x (8 channels x 3x3) float32
        return self.hp.batch_size * 32 * 32 * 8 * 9 * 4, "stage-1 im2col at batch 32"

    def notes(self) -> str:
        return f"cell accuracies {self.accuracies}"


class InferX3DFull(Workload):
    """One op: forward of the full-scale (3,5,11,7) mini-x3d, middle -> hardswish."""

    name = "infer-x3d-full"
    alias = "infer_img_per_s"
    item = "img"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.batch = 2 if smoke else 256
        self.first: np.ndarray | None = None

    def setup(self) -> None:
        full = ak.preset("mini-x3d", ak.FULL_SCALE_BLOCKS)
        spec, self.sites_changed = ak.replace_activations(full, ak.MIDDLE, None, HARDSWISH)
        self.model = ak.build_model(spec, ak.Rng(self.seed))
        self.images = ak.gen_synthetic_images(self.batch, seed=self.seed).images

    def op(self, i: int):
        return ak.forward(self.model, self.images)

    def items(self, logits) -> int:
        return self.batch

    def check(self, i: int, logits) -> str | None:
        if logits.shape != (self.batch, 10) or logits.dtype != np.float32:
            return f"logits have shape {logits.shape} and dtype {logits.dtype}"
        if not np.isfinite(logits).all():
            return "logits are not all finite"
        if self.first is None:
            self.first = logits.copy()
        elif logits.tobytes() != self.first.tobytes():
            return "logits differ bitwise from the first op's"
        return None

    def largest_buffer(self) -> tuple[int, str]:
        return self.batch * 32 * 32 * 8 * 9 * 4, f"stage-1 im2col at batch {self.batch}"

    def notes(self) -> str:
        return f"{self.sites_changed} middle sites -> hardswish over {sum(ak.FULL_SCALE_BLOCKS)} blocks"


class PhaseStream(Workload):
    """One op: gen_synthetic_phases -> save_phase_csv -> load_phase_csv -> sweep_window."""

    name = "phase-stream"
    alias = "phase_frames_per_s"
    item = "frame"

    def __init__(self, seed: int, smoke: bool, work_dir: Path) -> None:
        super().__init__(seed, smoke)
        self.frames = 2000 if smoke else 40_000
        self.path = work_dir / f"phases-{seed}.csv"
        self.flips: list[int] = []

    def setup(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def stream_params(self, i: int) -> dict:
        """A fresh stream per op: its seed, segment length and noise come from (seed, i)."""
        rng = np.random.default_rng([self.seed, i])
        return {
            "num_phases": 10,
            "segment_len": int(rng.integers(50, 401)),
            "frames": self.frames,
            "noise": float(rng.uniform(0.1, 0.4)),
            "confusion_spread": 0.1,
            "seed": int(rng.integers(0, 2**31)),
        }

    def op(self, i: int):
        seq = ak.gen_synthetic_phases(**self.stream_params(i))
        ak.save_phase_csv(seq, self.path)
        loaded = ak.load_phase_csv(self.path)
        rows, _best = ak.sweep_window(loaded, list(WINDOWS))
        return seq, loaded, rows

    def items(self, out) -> int:
        return out[0].num_frames

    def check(self, i: int, out) -> str | None:
        seq, loaded, rows = out
        if not np.array_equal(loaded.truth, seq.truth):
            return "loaded truth differs from generated truth"
        err = float(np.abs(loaded.probs - seq.probs).max())
        if err > ROUNDTRIP_TOL:
            return f"loaded probs differ from generated ones by {err:.3g}"
        if [r.w for r in rows] != list(WINDOWS):
            return f"sweep rows cover windows {[r.w for r in rows]}"
        flips = 0
        for row in rows:
            mem = ak.sma(seq.probs, row.w)
            mem_labels = mem.argmax(axis=1)
            got_labels = ak.sma(loaded.probs, row.w).argmax(axis=1)
            if row.accuracy != float(np.mean(got_labels == loaded.truth)):
                return f"w={row.w}: sweep accuracy {row.accuracy} disagrees with its own decode"
            flipped = np.nonzero(mem_labels != got_labels)[0]
            if flipped.size:
                top2 = np.sort(mem[flipped], axis=1)[:, -2:]
                gap = float((top2[:, 1] - top2[:, 0]).max())
                if gap >= ROUNDTRIP_TOL:
                    return f"w={row.w}: a decoded label flipped where the top-2 gap is {gap:.3g}"
            flips += int(flipped.size)
        self.flips.append(flips)
        return None

    def largest_buffer(self) -> tuple[int, str]:
        return self.frames * 10 * 8, "float64 probability matrix"

    def notes(self) -> str:
        if not self.flips:
            return ""
        return (
            f"round-trip label flips (all on top-2 gaps < {ROUNDTRIP_TOL:g}): "
            f"{sum(self.flips)} over {len(self.flips)} ops x {len(WINDOWS)} windows"
        )


def _reference(kind: ak.ActivationKind, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float64 forward value and derivative, with actkit's conventions at the knots."""
    s = 1.0 / (1.0 + np.exp(-x))
    if kind is ak.ActivationKind.RELU:
        return np.maximum(x, 0.0), (x > 0).astype(np.float64)
    if kind is ak.ActivationKind.RELU6:
        return np.clip(x, 0.0, 6.0), ((x > 0) & (x < 6)).astype(np.float64)
    if kind is ak.ActivationKind.SIGMOID:
        return s, s * (1.0 - s)
    if kind is ak.ActivationKind.SWISH:
        return x * s, s * (1.0 + x * (1.0 - s))
    if kind is ak.ActivationKind.HARDSWISH:
        deriv = np.where(x <= -3, 0.0, np.where(x <= 3, (2.0 * x + 3.0) / 6.0, 1.0))
        return x * np.clip((x + 3.0) / 6.0, 0.0, 1.0), deriv
    raise ValueError(f"no reference for {kind}")


class KernelsLarge(Workload):
    """One op: activate_batch then activate_batch_backward for one kind; ops cycle the kinds."""

    name = "kernels-large"
    alias = "kernel_melem_per_s"
    item = "Melem"
    item_scale = 1_000_000
    round_ops = len(KINDS)
    # float32 results against the float64 reference: |got - ref| <= ATOL + RTOL*|ref|
    ATOL = 1e-6
    RTOL = 1e-5
    CHUNK = 1 << 20

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.n = 100_000 if smoke else 10_000_000
        self.sums: dict[ak.ActivationKind, tuple[float, float]] = {}

    def setup(self) -> None:
        self.x = self.up = None  # a repeated set-up must not hold two copies
        # x equals make_bench_input(n, seed): uniforms in [-6, 6]. Both buffers are built a
        # chunk at a time, so set-up's float64 temporaries stay below the ops' peak RSS.
        self.x = self._uniforms(self.seed, 12.0, -6.0)
        self.up = self._uniforms(self.seed ^ 0xD1B54A32D192ED03, 2.0, -1.0)

    def _uniforms(self, seed: int, scale: float, offset: float) -> np.ndarray:
        rng = ak.Rng(seed)
        out = np.empty(self.n, dtype=np.float32)
        for lo in range(0, self.n, self.CHUNK):
            u = rng.uniforms(min(self.CHUNK, self.n - lo))
            out[lo : lo + u.size] = u * scale + offset
        return out

    def op(self, i: int):
        kind = KINDS[i % len(KINDS)]
        return kind, ak.activate_batch(kind, self.x), ak.activate_batch_backward(kind, self.x, self.up)

    def items(self, out) -> int:
        return 2 * self.n

    def check(self, i: int, out) -> str | None:
        kind, fwd, bwd = out
        if fwd.shape != self.x.shape or bwd.shape != self.x.shape:
            return f"{kind.value}: output shapes {fwd.shape}, {bwd.shape}"
        sums = (float(fwd.sum(dtype=np.float64)), float(bwd.sum(dtype=np.float64)))
        if kind in self.sums:
            if sums != self.sums[kind]:
                return f"{kind.value}: checksums {sums} differ from the first op's {self.sums[kind]}"
            return None
        # first op of this kind: compare with the float64 reference, chunk by chunk to bound memory
        for lo in range(0, self.n, self.CHUNK):
            sl = slice(lo, lo + self.CHUNK)
            ref_f, ref_d = _reference(kind, self.x[sl].astype(np.float64))
            ref_b = ref_d * self.up[sl]
            for what, got, ref in (("forward", fwd[sl], ref_f), ("backward", bwd[sl], ref_b)):
                bad = np.abs(got - ref) > self.ATOL + self.RTOL * np.abs(ref)
                if bad.any():
                    j = lo + int(np.argmax(bad))
                    return f"{kind.value} {what}: x={self.x[j]!r} gives {got[j - lo]!r}, reference {ref[j - lo]!r}"
        self.sums[kind] = sums
        return None

    def largest_buffer(self) -> tuple[int, str]:
        return self.n * 4, "float32 input buffer"


def make(name: str, seed: int, smoke: bool, work_dir: Path) -> Workload:
    if name == PhaseStream.name:
        return PhaseStream(seed, smoke, work_dir)
    for cls in (GridX3D, InferX3DFull, KernelsLarge):
        if cls.name == name:
            return cls(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")

