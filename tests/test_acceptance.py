"""Acceptance gate: one test per shipping criterion, each printing a single
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 4 and the real-file half of criterion 8 need the CIFAR-10 binary
batches on disk; they skip loudly when the files are absent (this sandbox has
no network access to fetch them). Point ACTKIT_CIFAR10_DIR at a directory
holding data_batch_1..5.bin and test_batch.bin, or place them under
./data/cifar-10-batches-bin, to enable those checks.
"""

import os
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from actkit import (
    ALL,
    INITIAL,
    LAST,
    MIDDLE,
    ActivationKind,
    DataConfig,
    ExperimentConfig,
    FormatError,
    Hyperparams,
    Rng,
    activate_batch,
    activate_batch_backward,
    argmax_decode,
    bench_activation,
    build_model,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    frame_accuracy,
    gen_synthetic_phases,
    global_avg_pool,
    global_avg_pool_backward,
    load_cifar10_binary,
    max_approx_error,
    run_experiment,
    run_grid,
    sma,
    softmax_cross_entropy,
)
from actkit.experiments import CIFAR_TEST_FILES, CIFAR_TRAIN_FILES

KINDS = list(ActivationKind)
HS = ActivationKind.HARDSWISH


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"[SKIP] criterion {number}: {summary} -- {exc}", flush=True)
        raise
    except BaseException:
        print(f"[FAIL] criterion {number}: {summary}", flush=True)
        raise
    print(f"[PASS] criterion {number}: {summary}", flush=True)


def find_cifar_dir() -> Path | None:
    candidates = []
    env = os.environ.get("ACTKIT_CIFAR10_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "cifar-10-batches-bin")
    for root in candidates:
        if all((root / f).exists() for f in CIFAR_TRAIN_FILES + CIFAR_TEST_FILES):
            return root
    return None


def ref64(kind: ActivationKind, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if kind is ActivationKind.RELU:
        return np.maximum(x, 0.0)
    if kind is ActivationKind.RELU6:
        return np.minimum(np.maximum(x, 0.0), 6.0)
    z = np.exp(-np.abs(x))
    sig = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    if kind is ActivationKind.SIGMOID:
        return sig
    if kind is ActivationKind.SWISH:
        return x * sig
    return x * np.clip((x + 3.0) / 6.0, 0.0, 1.0)


def test_criterion_1_kernel_golden_suite():
    with criterion(1, "kernels match 64-bit reference within 1e-5; exact tails; < 1 s"):
        start = time.perf_counter()
        rs = np.random.RandomState(2024)
        xs = rs.uniform(-20.0, 20.0, size=10_000)
        for kind in KINDS:
            got = activate_batch(kind, xs.astype(np.float32)).astype(np.float64)
            err = np.max(np.abs(got - ref64(kind, xs)))
            assert err < 1e-5, f"{kind.value}: max abs error {err}"
        high = rs.uniform(3.0, 30.0, size=500).astype(np.float32)
        low = rs.uniform(-30.0, -3.0, size=500).astype(np.float32)
        assert np.array_equal(activate_batch(HS, high), high)
        assert np.all(activate_batch(HS, low) == 0.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_2_approximation_oracle():
    with criterion(2, "max |swish - hardswish| on [-10,10] = 0.1422776 at |x| = 3; < 5 s"):
        start = time.perf_counter()
        x_at_max, err = max_approx_error(
            ActivationKind.SWISH, HS, lo=-10.0, hi=10.0, step=1e-4
        )
        assert abs(err - 0.1422776) < 1e-4, f"peak error {err}"
        assert abs(abs(x_at_max) - 3.0) < 1e-3, f"peak at {x_at_max}"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def _rel(a, b, floor=1e-3):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def _fd(f, x, h):
    g = np.zeros(x.shape, dtype=np.float64)
    flat, gflat = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i].item()
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def test_criterion_3_gradient_checks():
    with criterion(3, "all layer ops + activation backwards match central FD, rel < 1e-3; < 30 s"):
        start = time.perf_counter()
        rs = np.random.RandomState(7)
        shapes_checked = 0
        worst = 0.0

        def track(err):
            nonlocal worst
            worst = max(worst, float(err))
            assert err < 1e-3, f"rel error {err}"

        # conv2d: x, w, b on four randomized configs (linear, so a large h is exact)
        for n, c, hw, co, k, stride in ((2, 2, 4, 3, 3, 1), (1, 3, 6, 2, 3, 2), (2, 1, 4, 2, 1, 1), (1, 2, 5, 3, 5, 2)):
            x = rs.uniform(-1, 1, (n, c, hw, hw)).astype(np.float32)
            w = rs.uniform(-1, 1, (co, c, k, k)).astype(np.float32)
            b = rs.uniform(-1, 1, co).astype(np.float32)
            up = rs.uniform(-1, 1, conv2d_forward(x, w, b, stride).shape).astype(np.float32)
            loss = lambda: float(np.sum(conv2d_forward(x, w, b, stride).astype(np.float64) * up))
            gx, gw, gb = conv2d_backward(x, w, up, stride=stride)
            track(_rel(_fd(loss, x, 0.05), gx))
            track(_rel(_fd(loss, w, 0.05), gw))
            track(_rel(_fd(loss, b, 0.05), gb))
            shapes_checked += 1

        # dense: two shapes
        for n, f_in, f_out in ((3, 6, 4), (5, 2, 7)):
            x = rs.uniform(-1, 1, (n, f_in)).astype(np.float32)
            w = rs.uniform(-1, 1, (f_in, f_out)).astype(np.float32)
            b = rs.uniform(-1, 1, f_out).astype(np.float32)
            up = rs.uniform(-1, 1, (n, f_out)).astype(np.float32)
            loss = lambda: float(np.sum(dense_forward(x, w, b).astype(np.float64) * up))
            gx, gw, gb = dense_backward(x, w, up)
            track(_rel(_fd(loss, x, 0.05), gx))
            track(_rel(_fd(loss, w, 0.05), gw))
            track(_rel(_fd(loss, b, 0.05), gb))
            shapes_checked += 1

        # global average pool: two shapes
        for n, c, hw in ((2, 3, 4), (3, 2, 6)):
            x = rs.uniform(-1, 1, (n, c, hw, hw)).astype(np.float32)
            up = rs.uniform(-1, 1, (n, c)).astype(np.float32)
            loss = lambda: float(np.sum(global_avg_pool(x).astype(np.float64) * up))
            track(_rel(_fd(loss, x, 0.05), global_avg_pool_backward(up, hw, hw)))
            shapes_checked += 1

        # softmax cross-entropy: two shapes
        for n, classes in ((4, 6), (7, 3)):
            z = rs.uniform(-2, 2, (n, classes)).astype(np.float32)
            y = rs.randint(0, classes, n).astype(np.int64)
            loss = lambda: softmax_cross_entropy(z, y)[0]
            _, gz = softmax_cross_entropy(z, y)
            track(_rel(_fd(loss, z, 0.01), gz))
            shapes_checked += 1

        # activation backwards: FD of the 64-bit formula, knots excluded
        from actkit import KNOTS

        for kind in KINDS:
            for size in (33, 64):
                xa = rs.uniform(-6.0, 6.0, size)
                for knot in KNOTS[kind]:
                    xa = xa[np.abs(xa - knot) > 1e-2]
                h = 1e-5
                fd = (ref64(kind, xa + h) - ref64(kind, xa - h)) / (2 * h)
                up = rs.uniform(-2.0, 2.0, xa.shape).astype(np.float32)
                got = activate_batch_backward(kind, xa.astype(np.float32), up)
                track(_rel(fd * up.astype(np.float64), got))
                shapes_checked += 1

        assert shapes_checked >= 20, f"only {shapes_checked} shapes"
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_4_desk_scale_learning():
    with criterion(4, "CIFAR-10 2000/1000 mini-resnet seed 42 reaches >= 0.30 accuracy; < 10 min"):
        root = find_cifar_dir()
        if root is None:
            pytest.skip(
                "CIFAR-10 binary batches not present (no network in this sandbox); "
                "set ACTKIT_CIFAR10_DIR or add ./data/cifar-10-batches-bin to enable"
            )
        start = time.perf_counter()
        cfg = ExperimentConfig(
            preset="mini-resnet",
            dataset=DataConfig(
                source="cifar10-binary", train_size=2000, test_size=1000, data_dir=str(root)
            ),
            label="desk-scale",
            hyperparams=Hyperparams(),  # lr 0.01, momentum 0.9, batch 32, 5 epochs
            seeds=(42,),
        )
        report = run_experiment(cfg)
        elapsed = time.perf_counter() - start
        acc = report.runs[0].test_accuracy
        assert acc >= 0.30, f"test accuracy {acc:.4f} < 0.30"
        assert elapsed < 600.0, f"took {elapsed:.1f} s"


def test_criterion_5_protocol_fidelity():
    with criterion(5, "grid yields 5 reports, shared protocol, matching init hashes, "
                      "bit-identical reruns"):
        cfg = ExperimentConfig(
            preset="mini-resnet",
            dataset=DataConfig(source="synthetic-images", train_size=120, test_size=60),
            label="grid-base",
            hyperparams=Hyperparams(epochs=1),
            seeds=(1, 2),
        )
        placements = [INITIAL, MIDDLE, LAST, ALL]
        first = run_grid(cfg, placements, HS)
        second = run_grid(cfg, placements, HS)

        assert len(first) == 5
        assert first[0].label == "baseline"
        for rep in first:
            assert rep.hyperparams == cfg.hyperparams
            assert tuple(r.seed for r in rep.runs) == cfg.seeds
        # same seed -> bit-identical initial weights in every cell
        for seed_pos in range(len(cfg.seeds)):
            hashes = {rep.runs[seed_pos].init_param_hash for rep in first}
            assert len(hashes) == 1, f"init hashes diverge: {hashes}"
        # the whole grid reruns bit-identically
        for a, b in zip(first, second):
            assert a.label == b.label
            assert a.mean_accuracy == b.mean_accuracy
            assert [r.test_accuracy for r in a.runs] == [r.test_accuracy for r in b.runs]
            assert a.spec_fingerprint == b.spec_fingerprint


def test_criterion_6_sma_behavior():
    with criterion(6, "smoothing curve peaks then declines; w=1 identity; oracle agreement; < 10 s"):
        # the bound times actkit's calls only, not the pure-Python oracle below
        actkit_seconds = 0.0

        def timed(fn, *args, **kwargs):
            nonlocal actkit_seconds
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            actkit_seconds += time.perf_counter() - start
            return out

        seq = timed(
            gen_synthetic_phases,
            num_phases=10, segment_len=200, frames=2000, noise=0.25, confusion_spread=0.1, seed=7,
        )

        def acc(w: int) -> float:
            return timed(frame_accuracy, timed(argmax_decode, timed(sma, seq.probs, w)), seq.truth)

        a1, a32, a2048 = acc(1), acc(32), acc(2048)
        assert a32 > a1, f"acc(32)={a32:.4f} <= acc(1)={a1:.4f}"
        assert a2048 < a32, f"acc(2048)={a2048:.4f} >= acc(32)={a32:.4f}"

        assert np.array_equal(timed(sma, seq.probs, 1), seq.probs)

        rs = np.random.RandomState(99)
        worst = 0.0
        for t_len in range(1, 201):
            probs = rs.uniform(0, 1, (t_len, 3))
            for w in range(1, 65):
                got = timed(sma, probs, w)
                want = np.zeros((t_len, 3))
                for t in range(t_len):  # the definition, straight off the page
                    lo = max(0, t - w // 2)
                    hi = min(t_len - 1, t + (w - 1) // 2)
                    want[t] = probs[lo : hi + 1].mean(axis=0)
                worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < 1e-6, f"worst oracle deviation {worst}"
        assert actkit_seconds < 10.0, f"actkit calls took {actkit_seconds:.2f} s"


def test_criterion_7_efficiency_expectation():
    with criterion(7, "bench(1e7 x 10): checksums deterministic (hard); hardswish <= swish (warn)"):
        n, repeats = 10_000_000, 10
        swish = bench_activation(ActivationKind.SWISH, n, repeats, seed=0)
        hardswish = bench_activation(HS, n, repeats, seed=0)

        # hard sub-checks: bookkeeping and bit-exact checksum reproducibility
        for res in (swish, hardswish):
            assert res.n_elements == n and res.repeats == repeats
            assert len(res.repeat_ns) == repeats
            assert np.isfinite(res.checksum)
        assert bench_activation(ActivationKind.SWISH, n, repeats, seed=0).checksum == swish.checksum
        assert bench_activation(HS, n, repeats, seed=0).checksum == hardswish.checksum

        # hardware-dependent expectation: report, warn on violation, never fail
        msg = (
            f"hardswish {hardswish.median_ns_per_element:.4f} ns/elem vs "
            f"swish {swish.median_ns_per_element:.4f} ns/elem"
        )
        print(msg, flush=True)
        if hardswish.median_ns_per_element > swish.median_ns_per_element:
            warnings.warn(f"efficiency expectation violated on this machine: {msg}")


def test_criterion_8_parser_byte_fixture():
    with criterion(8, "CIFAR parser: byte-fixture round-trip exact; malformed files rejected"):
        import tempfile

        def record(label: int, r: int, g: int, b: int) -> bytes:
            return bytes([label]) + bytes([r] * 1024 + [g] * 1024 + [b] * 1024)

        with tempfile.TemporaryDirectory() as tmp:
            good = Path(tmp) / "batch.bin"
            good.write_bytes(record(7, 10, 200, 31) + record(0, 255, 0, 5))
            ds = load_cifar10_binary([good])
            assert ds.labels.tolist() == [7, 0]
            assert np.all(ds.images[0, 0] == np.float32(10 / 255))
            assert np.all(ds.images[0, 1] == np.float32(200 / 255))
            assert np.all(ds.images[0, 2] == np.float32(31 / 255))
            assert np.all(ds.images[1, 0] == 1.0)

            truncated = Path(tmp) / "short.bin"
            truncated.write_bytes(record(1, 0, 0, 0)[:-10])
            with pytest.raises(FormatError):
                load_cifar10_binary([truncated])

            badlabel = Path(tmp) / "label.bin"
            badlabel.write_bytes(record(11, 0, 0, 0))
            with pytest.raises(FormatError):
                load_cifar10_binary([badlabel])

            with pytest.raises(FormatError):
                load_cifar10_binary([])


def test_criterion_8_parser_real_files():
    with criterion(8, "CIFAR parser: real batches give the 50000/10000 split"):
        root = find_cifar_dir()
        if root is None:
            pytest.skip(
                "CIFAR-10 binary batches not present (no network in this sandbox); "
                "set ACTKIT_CIFAR10_DIR or add ./data/cifar-10-batches-bin to enable"
            )
        train = load_cifar10_binary([root / f for f in CIFAR_TRAIN_FILES])
        test = load_cifar10_binary([root / f for f in CIFAR_TEST_FILES])
        assert len(train) == 50_000
        assert len(test) == 10_000
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0
