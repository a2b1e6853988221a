"""Print one `name digest` line per result that a bit-for-bit change must leave alone.

    python tools/bit_digests.py > digests.txt

It imports actkit from this checkout's src/, so running the same script in two checkouts on
one machine and diffing the two outputs shows whether a change moved any bit of:

- Rng(seed).uniforms(n), and the next_uint64() after it, for seeds 1 and 2^64 - 1 at n = 0, 1,
  2^15 - 1, 2^15, 2^15 + 1, 3 * 2^15 + 7 and 10^6 + 3 (around and across the draw blocks);
- the full-depth (3,5,11,7) mini-x3d logits of perfbench's infer-x3d-full model (middle sites
  -> hardswish) for seeds 1 and 3, on the first 256, 40 and 1 of its images;
- loss_and_gradients of both presets on 48, 20 and 1 images (one pass and chunked);
- the five grid-x3d cells (baseline, initial, middle, last, all -> hardswish) for seeds 1 and 3
  at that workload's sizes: fingerprints, init hashes, accuracies, and each cell's trained
  parameters, from the chain run_experiment runs per seed (build_model, param_hash, train,
  evaluate);
- every kernel's forward and backward on 2^21 + 77 elements in C order, and on a channels-last
  (3, 13, 229, 235) array (2098785 elements) with a channels-last and a C-order upstream.

Each digest is the first 16 hex digits of a SHA-256 over the result's bytes (a float by its
repr). A run takes ~5 s on a 2-vCPU VM. Standard library plus the checkout's src/.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import actkit as ak  # noqa: E402

HARDSWISH = ak.ActivationKind.HARDSWISH


def emit(name: str, *parts) -> None:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode() if isinstance(part, (float, int, str)) else part.tobytes())
    print(name, digest.hexdigest()[:16], flush=True)


def uniforms(seed: int, n: int, lo: float, hi: float):
    """n float32 draws in [lo, hi) from actkit's Rng."""
    return (ak.Rng(seed).uniforms(n) * (hi - lo) + lo).astype("float32")


def rng() -> None:
    for seed in (1, 2**64 - 1):
        for n in (0, 1, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 7, 10**6 + 3):
            stream = ak.Rng(seed)
            emit(f"rng/seed{seed}/n{n}", stream.uniforms(n), stream.next_uint64())


def logits() -> None:
    full = ak.preset("mini-x3d", ak.FULL_SCALE_BLOCKS)
    spec, _ = ak.replace_activations(full, ak.GroupSelector("middle"), None, HARDSWISH)
    for seed in (1, 3):
        model = ak.build_model(spec, ak.Rng(seed))
        images = ak.gen_synthetic_images(256, seed=seed).images
        for n in (256, 40, 1):
            emit(f"logits/full-x3d/seed{seed}/n{n}", ak.forward(model, images[:n]))


def gradients() -> None:
    for name in ("mini-resnet", "mini-x3d"):
        model = ak.build_model(ak.preset(name), ak.Rng(5))
        data = ak.gen_synthetic_images(48, seed=6)
        for n in (48, 20, 1):
            loss, grads = ak.loss_and_gradients(model, data.images[:n], data.labels[:n])
            emit(f"grads/{name}/n{n}", loss, *(g for key in sorted(grads) for g in (key, grads[key])))


def grid() -> None:
    hp = ak.Hyperparams(lr=0.01, momentum=0.9, batch_size=32, epochs=1)
    base = ak.preset("mini-x3d")
    cells = [("baseline", base)] + [
        (f"{p}->{HARDSWISH.value}", ak.replace_activations(base, ak.GroupSelector(p), None, HARDSWISH)[0])
        for p in ("initial", "middle", "last", "all")
    ]
    for seed in (1, 3):
        train_set, test_set = ak.load_datasets(
            ak.DataConfig("synthetic-images", train_size=320, test_size=32, subset_seed=seed)
        )
        for label, spec in cells:
            stream = ak.Rng(seed)  # build_model draws first, then train: run_experiment's order
            model = ak.build_model(spec, stream)
            init_hash = ak.param_hash(model)
            trained = ak.train(model, train_set, hp, stream)
            cell = f"grid/seed{seed}/{label}"
            emit(f"{cell}/fingerprint", ak.fingerprint(spec))
            emit(f"{cell}/init-hash", init_hash)
            emit(f"{cell}/accuracy", ak.evaluate(trained, test_set))
            emit(f"{cell}/trained-hash", ak.param_hash(trained))


def kernels() -> None:
    flat = uniforms(11, (1 << 21) + 77, -8.0, 8.0)
    up_flat = uniforms(12, flat.size, -1.0, 1.0)
    n, c, h, w = 3, 13, 229, 235
    cl = uniforms(13, n * c * h * w, -8.0, 8.0).reshape(n, h, w, c).transpose(0, 3, 1, 2)
    up_cl = uniforms(14, cl.size, -1.0, 1.0).reshape(n, h, w, c).transpose(0, 3, 1, 2)
    up_c = up_cl.copy(order="C")
    for kind in ak.ActivationKind:
        emit(f"kernel/{kind.value}/c-order/forward", ak.activate_batch(kind, flat))
        emit(f"kernel/{kind.value}/c-order/backward", ak.activate_batch_backward(kind, flat, up_flat))
        fwd = ak.activate_batch(kind, cl)
        emit(f"kernel/{kind.value}/channels-last/forward", fwd, repr(fwd.strides))
        for layout, up in (("channels-last", up_cl), ("c-order", up_c)):
            bwd = ak.activate_batch_backward(kind, cl, up)
            emit(f"kernel/{kind.value}/channels-last/backward-{layout}-upstream", bwd, repr(bwd.strides))


def main() -> None:
    rng()
    kernels()
    logits()
    gradients()
    grid()


if __name__ == "__main__":
    main()
