"""Tensor substrate tests: the seeded PRNG, He-style init, layer ops against
brute-force oracles, finite-difference gradient checks, and the optimizer."""

import re
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from actkit import tensor
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


BLOCK = tensor._UNIFORM_BLOCK  # draws per block in Rng.uniforms


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

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_blocks_equal_scalar_draws_across_block_edges(self, seed, n):
        scalar, block = Rng(seed), Rng(seed)
        want = np.array([scalar.next_uniform() for _ in range(n)], dtype=np.float64)
        got = block.uniforms(n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert block.next_uint64() == scalar.next_uint64()

    @pytest.mark.parametrize("a, b", [(0, 5), (7, BLOCK), (BLOCK + 3, 2 * BLOCK - 1)])
    def test_consecutive_calls_continue_the_stream(self, a, b):
        split, whole = Rng(77), Rng(77)
        got = np.concatenate([split.uniforms(a), split.uniforms(b)])
        assert got.tobytes() == whole.uniforms(a + b).tobytes()
        assert split.next_uint64() == whole.next_uint64()

    def test_large_call_holds_result_plus_block_scratch(self):
        """A 2^20-draw call holds its 8 MiB result and a few block-sized temporaries (~577 KiB
        beyond the result); numpy reports its buffers to tracemalloc."""
        n = 1 << 20
        tracemalloc.start()
        try:
            Rng(3).uniforms(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + (1 << 20)

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


def channels_last(a):
    """a's values stored channels-last: the NCHW view of a C-contiguous NHWC copy."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def is_channels_last(a):
    """Whether a is 4-D and stored as the NCHW view of a C-contiguous NHWC array."""
    return a.ndim == 4 and a.transpose(0, 2, 3, 1).flags.c_contiguous


# Operand layouts, each of which must give the C-order operand's bytes; all but channels-last
# apply to any rank.
LAYOUTS = {
    "C": np.ascontiguousarray,
    "channels-last": channels_last,
    "fortran": np.asfortranarray,
    "strided": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
}


def backward_in_every_order(x, w, up, stride, **kw):
    """conv2d_backward of C-order x and upstream, after checking that every pairing of their
    layouts gives the same bytes, grad_input channels-last and grad_weights and grad_bias
    C-contiguous."""
    want = conv2d_backward(x, w, up, stride, **kw)
    for to_x in LAYOUTS.values():
        for to_up in LAYOUTS.values():
            got = conv2d_backward(to_x(x), w, to_up(up), stride, **kw)
            assert [None if g is None else g.tobytes() for g in got] == [
                None if g is None else g.tobytes() for g in want
            ]
            assert got[0] is None or is_channels_last(got[0])
            assert got[1].flags.c_contiguous and got[2].flags.c_contiguous
    return want


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
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_gradients_match_fd(self, k, stride, shape):
        """Odd, non-square inputs put the last row and column of a stride phase on
        the ceil-division edge, and K=1 at strides 2 and 3 leaves phases with no
        kernel taps. The loss is linear, so differences of a float64 forward are
        exact; a float32 forward's rounding alone exceeds 1e-3 relative error at K=5."""
        rs = np.random.RandomState(31)
        x = rs.uniform(-1, 1, shape).astype(np.float32)
        w = rs.uniform(-1, 1, (3, shape[1], k, k)).astype(np.float32)
        b = rs.uniform(-1, 1, 3).astype(np.float32)
        up = rs.uniform(-1, 1, conv2d_forward(x, w, b, stride).shape).astype(np.float32)

        def loss():
            return float(np.sum(conv2d_f64(x, w, b, stride) * up))

        gx, gw, gb = backward_in_every_order(x, w, up, stride)
        assert rel_err(fd_grad(loss, x, 0.05), gx) < 1e-3
        assert rel_err(fd_grad(loss, w, 0.05), gw) < 1e-3
        assert rel_err(fd_grad(loss, b, 0.05), gb) < 1e-3

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_weights_only_backward(self, stride):
        """input_grad=False returns no input gradient and the full call's exact
        weight and bias gradients."""
        rs = np.random.RandomState(61)
        x = rs.uniform(-1, 1, (2, 3, 7, 5)).astype(np.float32)
        w = rs.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32)
        up = rs.uniform(-1, 1, (2, 4, -(-7 // stride), -(-5 // stride))).astype(np.float32)
        _, gw, gb = conv2d_backward(x, w, up, stride)
        gx_none, gw_only, gb_only = backward_in_every_order(x, w, up, stride, input_grad=False)
        assert gx_none is None
        assert np.array_equal(gw_only, gw)
        assert np.array_equal(gb_only, gb)

    def test_unread_pixels_get_zero_gradient(self):
        """A 1x1 stride-2 conv reads only even rows and columns; every other input
        pixel belongs to a phase with no kernel taps and gets exactly zero."""
        rs = np.random.RandomState(67)
        x = rs.uniform(-1, 1, (2, 3, 7, 6)).astype(np.float32)
        w = rs.uniform(-1, 1, (4, 3, 1, 1)).astype(np.float32)
        up = rs.uniform(-1, 1, (2, 4, 4, 3)).astype(np.float32)
        gx, _, _ = backward_in_every_order(x, w, up, stride=2)
        read = np.zeros(gx.shape, dtype=bool)
        read[:, :, ::2, ::2] = True
        assert np.all(gx[~read] == 0.0)
        assert np.all(gx[read] != 0.0)

    def test_shape_validation(self):
        """The backward rejects every operand the forward rejects, with the forward's error,
        given an upstream shaped as the stride-1 output. A float, bool or string stride is
        named, rather than raising numpy's TypeError or running as stride 1."""
        x = np.zeros((1, 3, 4, 4), dtype=np.float32)
        b2, up = np.zeros(2, dtype=np.float32), np.zeros((1, 2, 4, 4), dtype=np.float32)
        with pytest.raises(ShapeError):  # bias length
            conv2d_forward(x, np.zeros((2, 3, 3, 3), dtype=np.float32), np.zeros(3, dtype=np.float32), stride=1)
        cases = [
            ((2, 3, 2, 2), 1, ShapeError, "kernel must be square with odd size, got 2x2"),
            ((2, 3, 3, 1), 1, ShapeError, "kernel must be square with odd size, got 3x1"),
            ((2, 4, 3, 3), 1, ShapeError, "weight input channels 4 != input channels 3"),
            ((2, 3, 3, 3), 0, DomainError, "stride must be >= 1, got 0"),
            ((2, 3, 3, 3), -1, DomainError, "stride must be >= 1, got -1"),
            ((2, 3, 3, 3), 1.5, DomainError, "stride must be an integer, got 1.5"),
            ((2, 3, 3, 3), 2.0, DomainError, "stride must be an integer, got 2.0"),
            ((2, 3, 3, 3), True, DomainError, "stride must be an integer, got True"),
            ((2, 3, 3, 3), "2", DomainError, "stride must be an integer, got '2'"),
        ]
        for w_shape, stride, error, message in cases:
            w = np.zeros(w_shape, dtype=np.float32)
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                conv2d_forward(x, w, b2, stride=stride)
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                conv2d_backward(x, w, up, stride=stride)
        w = np.zeros((2, 3, 3, 3), dtype=np.float32)
        for bad_up, message in [
            (np.zeros((1, 2, 2, 2)), "upstream shape (1, 2, 2, 2) != forward output shape (1, 2, 4, 4)"),
            (np.zeros((2, 4, 4)), "conv upstream must have rank 4, got shape (2, 4, 4)"),
        ]:
            with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
                conv2d_backward(x, w, bad_up, stride=1)

    def test_numpy_integer_stride_accepted(self):
        rs = np.random.RandomState(61)
        x = rs.uniform(-1, 1, (2, 3, 5, 5)).astype(np.float32)
        w = rs.uniform(-1, 1, (4, 3, 3, 3)).astype(np.float32)
        b = rs.uniform(-1, 1, 4).astype(np.float32)
        out = conv2d_forward(x, w, b, stride=np.int64(2))
        assert out.tobytes() == conv2d_forward(x, w, b, stride=2).tobytes()
        up = rs.uniform(-1, 1, out.shape).astype(np.float32)
        got = conv2d_backward(x, w, up, stride=np.int32(2))
        want = conv2d_backward(x, w, up, stride=2)
        assert [g.tobytes() for g in got] == [g.tobytes() for g in want]

    @pytest.mark.parametrize(
        "x_shape, w_shape",
        [
            ((2, 0, 5, 5), (4, 0, 3, 3)),
            ((2, 3, 0, 5), (4, 3, 3, 3)),
            ((2, 3, 5, 0), (4, 3, 3, 3)),
            ((2, 3, 5, 5), (0, 3, 3, 3)),
        ],
        ids=["no-channels", "no-rows", "no-columns", "no-outputs"],
    )
    def test_empty_dims_rejected(self, x_shape, w_shape):
        """Zero channels, rows, columns or output channels raise a ShapeError that
        names the shape, in both directions."""
        x = np.zeros(x_shape, dtype=np.float32)
        w = np.zeros(w_shape, dtype=np.float32)
        b = np.zeros(w_shape[0], dtype=np.float32)
        up = np.zeros((x_shape[0], w_shape[0], x_shape[2], x_shape[3]), dtype=np.float32)
        bad = re.escape(str(x_shape if 0 in x_shape else w_shape))
        with pytest.raises(ShapeError, match=bad):
            conv2d_forward(x, w, b, stride=1)
        with pytest.raises(ShapeError, match=bad):
            conv2d_backward(x, w, up, stride=1)

    def test_empty_batch(self):
        x = np.zeros((0, 3, 7, 5), dtype=np.float32)
        w = np.ones((4, 3, 3, 3), dtype=np.float32)
        out = conv2d_forward(x, w, np.zeros(4, dtype=np.float32), stride=2)
        assert out.shape == (0, 4, 4, 3)
        gx, gw, gb = backward_in_every_order(x, w, out, stride=2)
        assert gx.shape == x.shape
        assert np.array_equal(gw, np.zeros_like(w)) and np.array_equal(gb, np.zeros(4, dtype=np.float32))


def whole_batch_conv(x, w, b, stride):
    """conv2d_forward as one GEMM over the whole batch's patch matrix."""
    n, _, h, wid = x.shape
    o, _, k, _ = w.shape
    rows = tensor._patches(x.transpose(0, 2, 3, 1), k, stride) @ w.transpose(0, 2, 3, 1).reshape(o, -1).T + b
    return rows.reshape(n, -(-h // stride), -(-wid // stride), o).transpose(0, 3, 1, 2)


class TestConvSlices:
    """conv2d_forward runs one GEMM per batch slice, with each slice's patch matrix
    under tensor._SLICE_PATCH_BYTES.

    Each output is the dot product of one patch row with one weight column, so it
    must equal the whole-batch GEMM bit for bit as long as BLAS runs the same
    kernel for the slice. OpenBLAS's AVX-512 build switches to a small-matrix kernel,
    which sums in another order, for a GEMM with at most 1200 outputs and K >= 32.
    Real slices hold at least half the limit (about 1 MiB of patches), which keeps
    them above that size for 4 or more output channels. The limit is patched down
    here to force one- to three-image slices, so each image below has more than
    1200 outputs (its Ho*Wo*O) at every stride."""

    @pytest.mark.parametrize("images_per_slice", [1, 3])
    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("c", [3, 8], ids=["stem-C3", "C8"])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_bit_identical_to_whole_batch(self, monkeypatch, k, stride, c, n, images_per_slice):
        """n = 7 in slices of at most 3 images is cut 2, 2, 3, so one slice is larger
        than the others. The output is channels-last, and every layout of x gives the
        C-order call's bytes."""
        rs = np.random.RandomState(1000 + 100 * k + 10 * stride + c)
        h, wid, o = 19, 17, 40
        x = rs.uniform(-1, 1, (n, c, h, wid)).astype(np.float32)
        w = rs.uniform(-1, 1, (o, c, k, k)).astype(np.float32)
        b = rs.uniform(-1, 1, o).astype(np.float32)
        image_bytes = -(-h // stride) * -(-wid // stride) * k * k * c * 4
        monkeypatch.setattr(tensor, "_SLICE_PATCH_BYTES", images_per_slice * image_bytes)
        got = conv2d_forward(x, w, b, stride)
        want = whole_batch_conv(x, w, b, stride)
        assert got.shape == want.shape == (n, o, -(-h // stride), -(-wid // stride))
        assert np.array_equal(got, want)
        for layout in LAYOUTS.values():
            got_l = conv2d_forward(layout(x), w, b, stride)
            assert is_channels_last(got_l) and got_l.tobytes() == got.tobytes()

    @pytest.mark.parametrize("n, limit_images, sizes", [(7, 3, [2, 2, 3]), (6, 3, [3, 3]), (5, 1, [1] * 5), (2, 9, [2])])
    def test_slices_balanced_under_limit(self, monkeypatch, n, limit_images, sizes):
        """The batch is cut into the fewest slices under the limit, whose image
        counts differ by at most one, so no slice is a small remainder."""
        seen = []
        patches = tensor._patches

        def spy(x_nhwc, k, stride):
            out = patches(x_nhwc, k, stride)
            seen.append((x_nhwc.shape[0], out.nbytes))
            return out

        x = np.ones((n, 2, 6, 6), dtype=np.float32)
        w = np.ones((3, 2, 3, 3), dtype=np.float32)
        limit = limit_images * 6 * 6 * 3 * 3 * 2 * 4
        monkeypatch.setattr(tensor, "_SLICE_PATCH_BYTES", limit)
        monkeypatch.setattr(tensor, "_patches", spy)
        conv2d_forward(x, w, np.zeros(3, dtype=np.float32), stride=1)
        assert [count for count, _ in seen] == sizes
        assert all(nbytes <= limit for _, nbytes in seen)

    def test_peak_memory_under_whole_batch_patches(self):
        """(64, 8, 32, 32) with a 3x3 kernel has a 64*1024*72*4 B = 18.9 MB
        whole-batch patch matrix. Sliced, the traced peak is the NHWC output and
        one slice's padded input and patches: about 4.4 MB. numpy reports its
        buffers to tracemalloc."""
        rs = np.random.RandomState(71)
        x = rs.uniform(-1, 1, (64, 8, 32, 32)).astype(np.float32)
        w = rs.uniform(-1, 1, (8, 8, 3, 3)).astype(np.float32)
        b = rs.uniform(-1, 1, 8).astype(np.float32)
        tracemalloc.start()
        try:
            conv2d_forward(x, w, b, stride=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


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
        """The backward rejects the forward's feature mismatch with the forward's error, given
        an upstream shaped (N, G)."""
        x, w = np.zeros((2, 3), dtype=np.float32), np.zeros((4, 5), dtype=np.float32)
        message = "^input features 3 != weight rows 4$"
        with pytest.raises(ShapeError, match=message):
            dense_forward(x, w, np.zeros(5, dtype=np.float32))
        with pytest.raises(ShapeError, match=message):
            dense_backward(x, w, np.zeros((2, 5), dtype=np.float32))
        w = np.zeros((3, 5), dtype=np.float32)
        with pytest.raises(ShapeError, match=re.escape("upstream shape (2, 4) != output shape (2, 5)")):
            dense_backward(x, w, np.zeros((2, 4), dtype=np.float32))

    def test_operand_layout_keeps_bits(self):
        """Fortran-order and strided operands give the C-order calls' bytes, in C-contiguous
        results, here and in the loss the head feeds: a GEMM's or a row sum's summation order
        would follow its operands' memory."""
        rs = np.random.RandomState(39)
        x, w, up = (rs.uniform(-4, 4, shape).astype(np.float32) for shape in ((32, 32), (32, 10), (32, 10)))
        b, labels = rs.uniform(-1, 1, 10).astype(np.float32), rs.randint(0, 10, 32)

        def results(to):
            loss, grad = softmax_cross_entropy(to(up), labels)
            return [dense_forward(to(x), to(w), b), *dense_backward(to(x), to(w), to(up)), np.float64(loss), grad]

        want = results(np.ascontiguousarray)
        for to in (LAYOUTS["fortran"], LAYOUTS["strided"]):
            got = results(to)
            assert all(g.flags.c_contiguous for g in got)
            assert [g.tobytes() for g in got] == [g.tobytes() for g in want]


class TestGlobalAvgPool:
    """Spatial mean and its uniform-spread backward."""

    def test_mean_values(self):
        x = np.arange(2 * 3 * 2 * 2, dtype=np.float32).reshape(2, 3, 2, 2)
        out = global_avg_pool(x)
        assert out.shape == (2, 3)
        assert np.allclose(out, x.mean(axis=(2, 3)))

    def test_channels_last_input_same_bytes(self):
        """The mean reads C-order memory whatever x's layout, so its summation order and bits
        do not depend on it; the features are C-contiguous. The backward's 4-D gradient is
        channels-last, with the same values in every upstream layout."""
        rs = np.random.RandomState(41)
        x = rs.uniform(-1, 1, (4, 32, 9, 7)).astype(np.float32)
        want = global_avg_pool(x)
        for layout in LAYOUTS.values():
            got = global_avg_pool(layout(x))
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
        up = rs.uniform(-1, 1, (4, 32)).astype(np.float32)
        want = global_avg_pool_backward(up, 9, 7)
        assert is_channels_last(want) and want.shape == (4, 32, 9, 7)
        for layout in (LAYOUTS["fortran"], LAYOUTS["strided"]):
            got = global_avg_pool_backward(layout(up), 9, 7)
            assert is_channels_last(got) and got.tobytes() == want.tobytes()

    def test_gradient_matches_fd(self):
        rs = np.random.RandomState(43)
        x = rs.uniform(-1, 1, (3, 5, 4, 4)).astype(np.float32)
        up = rs.uniform(-1, 1, (3, 5)).astype(np.float32)

        def loss():
            return float(np.sum(global_avg_pool(x).astype(np.float64) * up))

        gx = global_avg_pool_backward(up, 4, 4)
        assert rel_err(fd_grad(loss, x, 0.05), gx) < 1e-3
        with pytest.raises(ShapeError, match="^bad spatial dims 0x4$"):
            global_avg_pool_backward(up, 0, 4)

    @pytest.mark.parametrize("shape", [(2, 3, 0, 4), (2, 3, 4, 0)], ids=["no-rows", "no-columns"])
    def test_empty_spatial_dims_rejected(self, shape):
        """No mean over zero positions: a ShapeError names the shape, as conv's does."""
        message = f"pool input needs height and width >= 1, got shape {shape}"
        for layout in LAYOUTS.values():
            with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
                global_avg_pool(layout(np.zeros(shape, dtype=np.float32)))

    def test_empty_batch_and_channels(self):
        assert global_avg_pool(np.zeros((0, 3, 2, 2), dtype=np.float32)).shape == (0, 3)
        assert global_avg_pool(np.zeros((2, 0, 2, 2), dtype=np.float32)).shape == (2, 0)

    @pytest.mark.parametrize("height, width", [(2.5, 2), (2, 2.0), (True, 2), (2, False), (3, -1)])
    def test_backward_sizes_must_be_integers_ge_1(self, height, width):
        up = np.ones((1, 2), dtype=np.float32)
        with pytest.raises(ShapeError, match=f"^{re.escape(f'bad spatial dims {height}x{width}')}$"):
            global_avg_pool_backward(up, height, width)

    def test_backward_numpy_integer_sizes_accepted(self):
        up = np.random.RandomState(67).uniform(-1, 1, (2, 3)).astype(np.float32)
        got = global_avg_pool_backward(up, np.int64(3), np.int32(2))
        assert got.tobytes() == global_avg_pool_backward(up, 3, 2).tobytes()


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
        with pytest.raises(DomainError, match=re.escape("labels must lie in [0, 3), got 3 at index 1")):
            softmax_cross_entropy(logits, np.array([0, 3], dtype=np.int64))
        with pytest.raises(DomainError, match=re.escape("labels must lie in [0, 3), got -1 at index 0")):
            softmax_cross_entropy(logits, np.array([-1, 0], dtype=np.int64))

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([0.9, 1.9], "got 0.9 at index 0"),
            ([1.0, np.nan], "got nan at index 1"),
            ([0, -np.inf], "got -inf at index 1"),
            ([True, False], "got dtype bool"),
            (["0", "1"], "got dtype <U1"),
            (np.array([0, 1], dtype=object), "got dtype object"),
        ],
        ids=["fractional", "nan", "inf", "bool", "str", "object"],
    )
    def test_non_integer_label_rejected(self, labels, message):
        """No truncation to int64, and no cast warning ahead of the error."""
        with pytest.raises(DomainError) as err:
            softmax_cross_entropy(np.zeros((2, 3), dtype=np.float32), np.array(labels))
        assert str(err.value) == f"labels must be integers, {message}"

    def test_no_rows_rejected(self):
        """No mean over zero rows, and so no NaN loss."""
        message = "cross-entropy needs at least one row of logits, got shape (0, 3)"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            softmax_cross_entropy(np.zeros((0, 3), dtype=np.float32), np.zeros(0, dtype=np.int64))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.nan, "logits (2, 3) has 1 non-finite elements, first nan at flat index 4"),
            (np.inf, "logits (2, 3) has 1 non-finite elements, first inf at flat index 4"),
            (-np.inf, "logits (2, 3) has 1 non-finite elements, first -inf at flat index 4"),
        ],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_logit_rejected(self, bad, message):
        logits = np.zeros((2, 3), dtype=np.float32)
        logits[1, 1] = bad
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            softmax_cross_entropy(logits, np.array([0, 2]))

    def test_loss_beyond_float32_spread_rejected(self):
        """Finite logits whose row spread passes float32's range give an infinite loss, named by
        the op without a numpy warning."""
        logits = np.array([[3e38, -3e38]], dtype=np.float32)
        with pytest.raises(DomainError, match=r"^loss: cross-entropy inf over 1 images is not finite$"):
            softmax_cross_entropy(logits, np.array([1]))
        loss, grad = softmax_cross_entropy(logits, np.array([0]))
        assert loss == 0.0 and grad.tolist() == [[0.0, 0.0]]

    def test_integer_valued_float_labels_accepted(self):
        logits = np.random.RandomState(59).uniform(-2, 2, (2, 3)).astype(np.float32)
        got = softmax_cross_entropy(logits, np.array([0.0, 2.0]))
        want = softmax_cross_entropy(logits, np.array([0, 2]))
        assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


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

    def test_non_finite_update_names_its_parameter(self):
        """An update that leaves float32 raises a DomainError naming the first such parameter,
        under the suite's warning filter, rather than numpy's overflow warning."""
        p = {"w": np.ones(2, dtype=np.float32), "b": np.array([1.0, 3e38, -3e38], dtype=np.float32)}
        g = {"w": np.ones(2, dtype=np.float32), "b": np.array([0.0, -1e38, 1e38], dtype=np.float32)}
        v = {name: np.zeros_like(a) for name, a in p.items()}
        with pytest.raises(DomainError) as err:
            sgd_momentum_step(p, g, v, lr=10.0, momentum=0.9)
        assert str(err.value) == "update of b (3,) has 2 non-finite elements, first inf at flat index 1"


def _conv(o):
    return conv2d_forward(o["conv input"], o["conv weights"], o["conv bias"], 1)


def _dense(o):
    return dense_forward(o["dense input"], o["dense weights"], o["dense bias"])


# Each operand's shape, and a call of an op that reads it, given every operand by name.
CAST_OPERANDS = {
    "conv input": ((2, 3, 4, 4), _conv),
    "conv weights": ((5, 3, 3, 3), _conv),
    "conv bias": ((5,), _conv),
    "conv upstream": ((2, 5, 4, 4), lambda o: conv2d_backward(o["conv input"], o["conv weights"], o["conv upstream"], 1)),
    "dense input": ((2, 3), _dense),
    "dense weights": ((3, 4), _dense),
    "dense bias": ((4,), _dense),
    "dense upstream": ((2, 4), lambda o: dense_backward(o["dense input"], o["dense weights"], o["dense upstream"])),
    "pool input": ((2, 3, 4, 4), lambda o: global_avg_pool(o["pool input"])),
    "pool upstream": ((2, 3), lambda o: global_avg_pool_backward(o["pool upstream"], 4, 4)),
    "logits": ((2, 4), lambda o: softmax_cross_entropy(o["logits"], np.array([0, 3]))),
}


@pytest.mark.parametrize("name", list(CAST_OPERANDS))
def test_operand_beyond_float32_is_named(name):
    """Every op casts a wider float operand to float32 in one place: a finite value beyond
    float32 raises a DomainError naming the operand and the value as given, under the suite's
    warning filter, where numpy's cast would warn and then compute on inf. A wider operand
    inside float32's range passes."""
    rs = np.random.RandomState(3)
    operands = {key: rs.uniform(-1, 1, shape).astype(np.float32) for key, (shape, _) in CAST_OPERANDS.items()}
    shape, call = CAST_OPERANDS[name]
    wide = operands[name].astype(np.float64)
    wide.flat[1] = 1e30
    call({**operands, name: wide})
    wide.flat[1] = -1e39
    with pytest.raises(DomainError) as err:
        call({**operands, name: wide})
    assert str(err.value) == f"{name} {shape} has 1 elements beyond float32, first -1e+39 at flat index 1"
