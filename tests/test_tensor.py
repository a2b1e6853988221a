"""Tensor substrate tests: the seeded PRNG, He-style init, layer ops against
brute-force oracles, finite-difference gradient checks, and the optimizer."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from actkit import (
    DomainError,
    Rng,
    ShapeError,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    global_avg_pool,
    global_avg_pool_backward,
    he_init,
    sgd_momentum_step,
    softmax_cross_entropy,
)


def rel_err(a, b, floor=1e-3):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def fd_grad(f, x, h):
    """Central finite differences of scalar-valued f() wrt every entry of x,
    mutating x in place one coordinate at a time."""
    g = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i].item()
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def conv2d_oracle(x, w, b, stride):
    """Direct nested-loop cross-correlation with 'same' zero padding, float64."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, c, h, ww = x.shape
    co, _, k, _ = w.shape
    pad = (k - 1) // 2
    ho = -(-h // stride)
    wo = -(-ww // stride)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, co, ho, wo))
    for ni in range(n):
        for oc in range(co):
            for oy in range(ho):
                for ox in range(wo):
                    acc = b[oc]
                    for ic in range(c):
                        for ky in range(k):
                            for kx in range(k):
                                acc += xp[ni, ic, oy * stride + ky, ox * stride + kx] * w[oc, ic, ky, kx]
                    out[ni, oc, oy, ox] = acc
    return out


def conv2d_f64(x, w, b, stride):
    """The same correlation as conv2d_oracle in vectorized float64, fast enough to
    sit inside a finite-difference loop without float32 rounding noise."""
    pad = (w.shape[2] - 1) // 2
    xp = np.pad(np.asarray(x, dtype=np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, w.shape[2:], axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.einsum("ncyxij,ocij->noyx", win, np.asarray(w, dtype=np.float64))
    return out + np.asarray(b, dtype=np.float64)[:, None, None]


class TestRng:
    """SplitMix64: fixed test vector, block/scalar equality, uniform range."""

    def test_seed_zero_vector(self):
        rng = Rng(0)
        assert rng.next_uint64() == 0xE220A8397B1DCDAF

    def test_seed_zero_first_uniform(self):
        assert Rng(0).next_uniform() == 0.8833108082136426

    def test_block_equals_scalar_draws(self):
        for seed in (0, 1, 42, 2**63):
            scalar = Rng(seed)
            block = Rng(seed)
            want = np.array([scalar.next_uniform() for _ in range(257)])
            got = block.uniforms(257)
            assert np.array_equal(got, want)

    def test_block_advances_state_like_scalars(self):
        a, b = Rng(9), Rng(9)
        a.uniforms(100)
        for _ in range(100):
            b.next_uniform()
        assert a.next_uint64() == b.next_uint64()

    def test_uniforms_in_unit_interval(self):
        u = Rng(123).uniforms(100_000)
        assert u.min() >= 0.0
        assert u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01

    def test_distinct_seeds_distinct_streams(self):
        assert not np.array_equal(Rng(1).uniforms(64), Rng(2).uniforms(64))

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            Rng(0).uniforms(-1)


class TestHeInit:
    """Uniform fan-in init: bounds, determinism, centering."""

    def test_bounds_and_dtype(self):
        w = he_init((64, 32, 3, 3), fan_in=32 * 9, rng=Rng(5))
        bound = np.sqrt(6.0 / (32 * 9))
        assert w.dtype == np.float32
        assert w.shape == (64, 32, 3, 3)
        assert np.all(np.abs(w) <= bound)

    def test_deterministic_per_seed(self):
        a = he_init((100, 100), 100, Rng(7))
        b = he_init((100, 100), 100, Rng(7))
        assert np.array_equal(a, b)

    def test_mean_near_zero(self):
        w = he_init((200, 500), 500, Rng(11))
        assert abs(float(w.mean())) < 0.01

    def test_bad_args_rejected(self):
        with pytest.raises(DomainError):
            he_init((4, 4), 0, Rng(0))
        with pytest.raises(ShapeError):
            he_init((4, 0), 4, Rng(0))


class TestConv2d:
    """'Same'-padded strided cross-correlation against a nested-loop oracle."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_oracle(self, stride, k):
        rs = np.random.RandomState(100 + k + stride)
        x = rs.uniform(-1, 1, (2, 3, 6, 6)).astype(np.float32)
        w = rs.uniform(-1, 1, (4, 3, k, k)).astype(np.float32)
        b = rs.uniform(-1, 1, 4).astype(np.float32)
        got = conv2d_forward(x, w, b, stride=stride)
        want = conv2d_oracle(x, w, b, stride)
        assert got.shape == want.shape
        assert np.max(np.abs(got.astype(np.float64) - want)) < 1e-5
        assert np.max(np.abs(conv2d_f64(x, w, b, stride) - want)) < 1e-12

    def test_output_shape_ceil_division(self):
        x = np.zeros((1, 1, 7, 5), dtype=np.float32)
        w = np.zeros((2, 1, 3, 3), dtype=np.float32)
        b = np.zeros(2, dtype=np.float32)
        assert conv2d_forward(x, w, b, stride=2).shape == (1, 2, 4, 3)
        assert conv2d_forward(x, w, b, stride=1).shape == (1, 2, 7, 5)

    def test_identity_kernel(self):
        """A centered 1-hot 3x3 kernel reproduces the input channel."""
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        out = conv2d_forward(x, w, np.zeros(1, dtype=np.float32), stride=1)
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("shape", [(2, 2, 4, 4), (2, 3, 7, 5)], ids=["4x4", "7x5"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_gradients_match_fd(self, k, stride, shape):
        """Odd, non-square inputs put the dilated upstream's last row and column on
        the ceil-division edge at stride 2. The loss is linear, so differences of a
        float64 forward are exact; a float32 forward's rounding alone exceeds 1e-3
        relative error at K=5."""
        rs = np.random.RandomState(31)
        x = rs.uniform(-1, 1, shape).astype(np.float32)
        w = rs.uniform(-1, 1, (3, shape[1], k, k)).astype(np.float32)
        b = rs.uniform(-1, 1, 3).astype(np.float32)
        up = rs.uniform(-1, 1, conv2d_forward(x, w, b, stride).shape).astype(np.float32)

        def loss():
            return float(np.sum(conv2d_f64(x, w, b, stride) * up))

        gx, gw, gb = conv2d_backward(x, w, up, stride=stride)
        assert rel_err(fd_grad(loss, x, 0.05), gx) < 1e-3
        assert rel_err(fd_grad(loss, w, 0.05), gw) < 1e-3
        assert rel_err(fd_grad(loss, b, 0.05), gb) < 1e-3

    def test_shape_validation(self):
        x = np.zeros((1, 3, 4, 4), dtype=np.float32)
        b2 = np.zeros(2, dtype=np.float32)
        with pytest.raises(ShapeError):  # even kernel
            conv2d_forward(x, np.zeros((2, 3, 2, 2), dtype=np.float32), b2, stride=1)
        with pytest.raises(ShapeError):  # channel mismatch
            conv2d_forward(x, np.zeros((2, 4, 3, 3), dtype=np.float32), b2, stride=1)
        with pytest.raises(ShapeError):  # bias length
            conv2d_forward(x, np.zeros((2, 3, 3, 3), dtype=np.float32), np.zeros(3, dtype=np.float32), stride=1)
        with pytest.raises(DomainError):  # stride
            conv2d_forward(x, np.zeros((2, 3, 3, 3), dtype=np.float32), b2, stride=0)


class TestDense:
    """Affine layer forward and gradients."""

    def test_known_product(self):
        x = np.array([[1.0, 2.0]], dtype=np.float32)
        w = np.array([[1.0, 0.0, -1.0], [0.5, 2.0, 0.0]], dtype=np.float32)
        b = np.array([0.0, 1.0, 0.0], dtype=np.float32)
        assert np.array_equal(dense_forward(x, w, b), np.array([[2.0, 5.0, -1.0]], dtype=np.float32))

    def test_gradients_match_fd(self):
        rs = np.random.RandomState(37)
        x = rs.uniform(-1, 1, (4, 7)).astype(np.float32)
        w = rs.uniform(-1, 1, (7, 5)).astype(np.float32)
        b = rs.uniform(-1, 1, 5).astype(np.float32)
        up = rs.uniform(-1, 1, (4, 5)).astype(np.float32)

        def loss():
            return float(np.sum(dense_forward(x, w, b).astype(np.float64) * up))

        gx, gw, gb = dense_backward(x, w, up)
        assert rel_err(fd_grad(loss, x, 0.05), gx) < 1e-3
        assert rel_err(fd_grad(loss, w, 0.05), gw) < 1e-3
        assert rel_err(fd_grad(loss, b, 0.05), gb) < 1e-3

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            dense_forward(
                np.zeros((2, 3), dtype=np.float32),
                np.zeros((4, 5), dtype=np.float32),
                np.zeros(5, dtype=np.float32),
            )


class TestGlobalAvgPool:
    """Spatial mean and its uniform-spread backward."""

    def test_mean_values(self):
        x = np.arange(2 * 3 * 2 * 2, dtype=np.float32).reshape(2, 3, 2, 2)
        out = global_avg_pool(x)
        assert out.shape == (2, 3)
        assert np.allclose(out, x.mean(axis=(2, 3)))

    def test_gradient_matches_fd(self):
        rs = np.random.RandomState(43)
        x = rs.uniform(-1, 1, (3, 5, 4, 4)).astype(np.float32)
        up = rs.uniform(-1, 1, (3, 5)).astype(np.float32)

        def loss():
            return float(np.sum(global_avg_pool(x).astype(np.float64) * up))

        gx = global_avg_pool_backward(up, 4, 4)
        assert rel_err(fd_grad(loss, x, 0.05), gx) < 1e-3


class TestSoftmaxCrossEntropy:
    """Stable log-sum-exp loss and its exact gradient."""

    def test_uniform_logits_give_log_c(self):
        logits = np.zeros((8, 10), dtype=np.float32)
        labels = np.arange(8, dtype=np.int64) % 10
        loss, _ = softmax_cross_entropy(logits, labels)
        assert abs(loss - 2.302585092994046) < 1e-6

    def test_correct_class_dominant_gives_small_loss(self):
        logits = np.full((4, 5), -10.0, dtype=np.float32)
        labels = np.array([0, 1, 2, 3], dtype=np.int64)
        logits[np.arange(4), labels] = 10.0
        loss, _ = softmax_cross_entropy(logits, labels)
        assert loss < 1e-6

    def test_extreme_logits_stay_finite(self):
        logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]], dtype=np.float32)
        labels = np.array([0, 0], dtype=np.int64)
        loss, grad = softmax_cross_entropy(logits, labels)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_gradient_rows_sum_to_zero(self):
        rs = np.random.RandomState(47)
        logits = rs.uniform(-3, 3, (6, 9)).astype(np.float32)
        labels = rs.randint(0, 9, 6).astype(np.int64)
        _, grad = softmax_cross_entropy(logits, labels)
        assert np.max(np.abs(grad.sum(axis=1))) < 1e-6

    def test_gradient_matches_fd(self):
        rs = np.random.RandomState(53)
        logits = rs.uniform(-2, 2, (4, 6)).astype(np.float32)
        labels = rs.randint(0, 6, 4).astype(np.int64)

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, grad = softmax_cross_entropy(logits, labels)
        assert rel_err(fd_grad(loss, logits, 0.01), grad) < 1e-3

    def test_label_out_of_range_rejected(self):
        logits = np.zeros((2, 3), dtype=np.float32)
        with pytest.raises(DomainError):
            softmax_cross_entropy(logits, np.array([0, 3], dtype=np.int64))
        with pytest.raises(DomainError):
            softmax_cross_entropy(logits, np.array([-1, 0], dtype=np.int64))


class TestSgdMomentum:
    """v <- m*v + g; p <- p - lr*v, applied per parameter name."""

    def test_two_steps_worked_example(self):
        p = {"w": np.zeros(1, dtype=np.float32)}
        v = {"w": np.zeros(1, dtype=np.float32)}
        g = {"w": np.ones(1, dtype=np.float32)}
        p, v = sgd_momentum_step(p, g, v, lr=1.0, momentum=0.9)
        assert p["w"][0] == -1.0 and v["w"][0] == 1.0
        p, v = sgd_momentum_step(p, g, v, lr=1.0, momentum=0.9)
        assert abs(p["w"][0] - (-2.9)) < 1e-6
        assert abs(v["w"][0] - 1.9) < 1e-6

    def test_zero_momentum_is_plain_sgd(self):
        rs = np.random.RandomState(59)
        p = {"w": rs.uniform(-1, 1, (3, 3)).astype(np.float32)}
        g = {"w": rs.uniform(-1, 1, (3, 3)).astype(np.float32)}
        v = {"w": np.zeros((3, 3), dtype=np.float32)}
        p2, _ = sgd_momentum_step(p, g, v, lr=0.1, momentum=0.0)
        assert np.allclose(p2["w"], p["w"] - np.float32(0.1) * g["w"], atol=1e-7)

    def test_inputs_not_mutated(self):
        p = {"w": np.ones(4, dtype=np.float32)}
        g = {"w": np.ones(4, dtype=np.float32)}
        v = {"w": np.ones(4, dtype=np.float32)}
        p_copy, v_copy = p["w"].copy(), v["w"].copy()
        sgd_momentum_step(p, g, v, lr=0.5, momentum=0.5)
        assert np.array_equal(p["w"], p_copy)
        assert np.array_equal(v["w"], v_copy)

    def test_mismatched_lists_rejected(self):
        """params, grads and velocity must hold the same parameter names and shapes;
        the error names the offending parameter (the least name, if several)."""

        def zeros(**shapes):
            return {name: np.zeros(shape, dtype=np.float32) for name, shape in shapes.items()}

        p = zeros(w=1, b=2)
        cases = [
            (zeros(), zeros(w=1, b=2), "grads and params differ at parameter 'b'"),
            (zeros(w=1, b=2), zeros(w=1, c=2), "velocity and params differ at parameter 'b'"),
            (zeros(w=1, b=3), zeros(w=1, b=2), "parameter 'b' has mismatched shapes (2,)/(3,)/(2,)"),
        ]
        for grads, velocity, message in cases:
            with pytest.raises(ShapeError) as err:
                sgd_momentum_step(p, grads, velocity, lr=0.1, momentum=0.9)
            assert str(err.value) == message
