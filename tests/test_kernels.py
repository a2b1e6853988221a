"""Activation kernel tests: golden values against a 64-bit reference, knot
continuity, tail exactness, derivative conventions, block invariance, memory,
and the approximation analyzer."""

import os
import tracemalloc
import warnings

import numpy as np
import pytest

from actkit import (
    KNOTS,
    ActivationKind,
    DomainError,
    ShapeError,
    activate,
    activate_batch,
    activate_batch_backward,
    activate_derivative,
    max_approx_error,
)
from actkit import chunks, kernels

ALL_KINDS = list(ActivationKind)


def ref64(kind: ActivationKind, x: np.ndarray) -> np.ndarray:
    """64-bit reference evaluation of each formula, independent of the kernels."""
    x = np.asarray(x, dtype=np.float64)
    if kind is ActivationKind.RELU:
        return np.maximum(x, 0.0)
    if kind is ActivationKind.RELU6:
        return np.minimum(np.maximum(x, 0.0), 6.0)
    sig = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    if kind is ActivationKind.SIGMOID:
        return sig
    if kind is ActivationKind.SWISH:
        return x * sig
    return x * np.clip((x + 3.0) / 6.0, 0.0, 1.0)


class TestGoldenValues:
    """Point values fixed by the defining formulas."""

    def test_sigmoid_at_two(self):
        assert abs(activate(ActivationKind.SIGMOID, 2.0) - 0.8807970779778824) < 1e-6

    def test_swish_at_minus_three(self):
        assert abs(activate(ActivationKind.SWISH, -3.0) - (-0.1422776195327003)) < 1e-6

    def test_relu_basics(self):
        assert activate(ActivationKind.RELU, -1.5) == 0.0
        assert activate(ActivationKind.RELU, 2.5) == 2.5

    def test_relu6_caps_at_six(self):
        assert activate(ActivationKind.RELU6, 7.0) == 6.0
        assert activate(ActivationKind.RELU6, 3.0) == 3.0
        assert activate(ActivationKind.RELU6, -1.0) == 0.0

    def test_hardswish_knots(self):
        assert activate(ActivationKind.HARDSWISH, -3.0) == 0.0
        assert activate(ActivationKind.HARDSWISH, 0.0) == 0.0
        assert activate(ActivationKind.HARDSWISH, 3.0) == 3.0
        assert activate(ActivationKind.HARDSWISH, 6.0) == 6.0

    def test_sigmoid_symmetry(self):
        """sigma(-x) = 1 - sigma(x) up to float32 rounding."""
        for x in (0.5, 1.0, 3.7, 10.0):
            s_pos = activate(ActivationKind.SIGMOID, x)
            s_neg = activate(ActivationKind.SIGMOID, -x)
            assert abs(s_pos + s_neg - 1.0) < 1e-6


class TestAgainstReference:
    """Float32 kernels track the 64-bit formulas within 1e-5 absolute."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_batch_matches_reference(self, kind):
        rs = np.random.RandomState(7)
        xs = rs.uniform(-20.0, 20.0, size=10_000)
        got = activate_batch(kind, xs.astype(np.float32)).astype(np.float64)
        want = ref64(kind, xs)
        assert np.max(np.abs(got - want)) < 1e-5

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_scalar_equals_batch_elementwise(self, kind):
        rs = np.random.RandomState(11)
        xs = rs.uniform(-8.0, 8.0, size=50).astype(np.float32)
        batch = activate_batch(kind, xs)
        for i, x in enumerate(xs):
            assert activate(kind, float(x)) == batch[i]

    def test_swish_is_x_times_sigmoid(self):
        """Swish decomposes into the same float32 ops, bit for bit."""
        rs = np.random.RandomState(13)
        xs = rs.uniform(-15.0, 15.0, size=1000).astype(np.float32)
        swish = activate_batch(ActivationKind.SWISH, xs)
        composed = xs * activate_batch(ActivationKind.SIGMOID, xs)
        assert np.array_equal(swish, composed)


class TestKnotsAndTails:
    """Piecewise pieces join continuously and the flat tails are exact."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_forward_continuity_at_knots(self, kind):
        eps = 1e-6
        for knot in KNOTS[kind]:
            below = activate(kind, knot - eps)
            above = activate(kind, knot + eps)
            assert abs(below - above) < 1e-5

    def test_hardswish_tails_exact(self):
        rs = np.random.RandomState(17)
        high = rs.uniform(3.0, 50.0, size=200).astype(np.float32)
        low = rs.uniform(-50.0, -3.0, size=200).astype(np.float32)
        assert np.array_equal(activate_batch(ActivationKind.HARDSWISH, high), high)
        assert np.all(activate_batch(ActivationKind.HARDSWISH, low) == 0.0)

    def test_relu6_tails_exact(self):
        assert activate(ActivationKind.RELU6, 100.0) == 6.0
        assert activate(ActivationKind.RELU6, -100.0) == 0.0

    def test_hardswish_lower_bound(self):
        """x * clamp((x+3)/6, 0, 1) bottoms out at -0.375, reached at x = -1.5."""
        xs = np.linspace(-10.0, 10.0, 100_001).astype(np.float32)
        ys = activate_batch(ActivationKind.HARDSWISH, xs)
        assert np.min(ys) >= -0.375
        assert activate(ActivationKind.HARDSWISH, -1.5) == -0.375


class TestDerivatives:
    """Closed-form derivatives: FD agreement away from knots, stated conventions at them."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_matches_reference_fd(self, kind):
        rs = np.random.RandomState(19)
        xs = rs.uniform(-6.0, 6.0, size=500)
        for knot in KNOTS[kind]:
            xs = xs[np.abs(xs - knot) > 1e-2]
        h = 1e-5
        fd = (ref64(kind, xs + h) - ref64(kind, xs - h)) / (2 * h)
        got = np.array([activate_derivative(kind, float(x)) for x in xs])
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(got)), 1e-3)
        assert np.max(np.abs(fd - got) / denom) < 1e-4

    def test_knot_conventions(self):
        assert activate_derivative(ActivationKind.RELU, 0.0) == 0.0
        assert activate_derivative(ActivationKind.RELU6, 0.0) == 0.0
        assert activate_derivative(ActivationKind.RELU6, 6.0) == 0.0
        assert activate_derivative(ActivationKind.HARDSWISH, -3.0) == 0.0
        assert activate_derivative(ActivationKind.HARDSWISH, 3.0) == 1.5
        assert activate_derivative(ActivationKind.SWISH, 0.0) == 0.5
        assert activate_derivative(ActivationKind.SIGMOID, 0.0) == 0.25

    def test_hardswish_derivative_pieces(self):
        assert activate_derivative(ActivationKind.HARDSWISH, -5.0) == 0.0
        assert activate_derivative(ActivationKind.HARDSWISH, 0.0) == 0.5
        assert activate_derivative(ActivationKind.HARDSWISH, 5.0) == 1.0

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_backward_is_upstream_times_derivative(self, kind):
        rs = np.random.RandomState(23)
        xs = rs.uniform(-5.0, 5.0, size=(4, 8)).astype(np.float32)
        up = rs.uniform(-2.0, 2.0, size=(4, 8)).astype(np.float32)
        got = activate_batch_backward(kind, xs, up)
        deriv = np.array(
            [activate_derivative(kind, float(x)) for x in xs.reshape(-1)], dtype=np.float32
        ).reshape(xs.shape)
        assert np.array_equal(got, up * deriv)


FMAX = float(np.finfo(np.float32).max)
TINY = float(np.finfo(np.float32).tiny)
EXTREMES = np.array([-FMAX, -1e30, -100.0, -20.0, 20.0, 100.0, 1e30, FMAX], dtype=np.float32)
SMOOTH = [ActivationKind.SIGMOID, ActivationKind.SWISH]
# (forward, derivative) of the piecewise kinds on the negative and the positive tail; None is x itself
PIECEWISE_TAILS = {
    ActivationKind.RELU: ((0.0, 0.0), (None, 1.0)),
    ActivationKind.RELU6: ((0.0, 0.0), (6.0, 0.0)),
    ActivationKind.HARDSWISH: ((0.0, 0.0), (None, 1.0)),
}


def ref64_deriv(kind: ActivationKind, x: np.ndarray) -> np.ndarray:
    """64-bit Sigmoid and Swish derivatives, through sigma(x)*sigma(-x) so the tails keep their digits."""
    x = np.asarray(x, dtype=np.float64)
    s, s_neg = ref64(ActivationKind.SIGMOID, x), ref64(ActivationKind.SIGMOID, -x)
    return s * s_neg if kind is ActivationKind.SIGMOID else s + x * s * s_neg


def assert_tracks(got, want):
    """Relative error <= 1e-6 where the reference is a normal float32, below TINY elsewhere."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    normal = np.abs(want) >= TINY
    assert np.max(np.abs(got[normal] - want[normal]) / np.abs(want[normal])) <= 1e-6
    assert np.all(np.abs(got[~normal]) < TINY)


class TestExtremes:
    """Out to +-float32 max every kind stays finite and raises no numpy warning. Piecewise
    tails are exact; Sigmoid and Swish saturate exactly and track float64 wherever they
    are normal float32 numbers."""

    @staticmethod
    def evaluate(kind, xs):
        up = np.full(xs.shape, -0.5, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fwd = activate_batch(kind, xs)
            bwd = activate_batch_backward(kind, xs, up)
            deriv = np.array([activate_derivative(kind, float(x)) for x in xs], dtype=np.float32)
            scalar = np.array([activate(kind, float(x)) for x in xs], dtype=np.float32)
        assert np.isfinite(fwd).all() and np.isfinite(deriv).all()
        assert np.array_equal(fwd, scalar)
        assert np.array_equal(bwd, up * deriv)
        return fwd, deriv

    @pytest.mark.parametrize("kind", list(PIECEWISE_TAILS), ids=lambda k: k.value)
    def test_piecewise_tails_exact(self, kind):
        fwd, deriv = self.evaluate(kind, EXTREMES)
        for x, f, d in zip(EXTREMES, fwd, deriv):
            want_f, want_d = PIECEWISE_TAILS[kind][bool(x > 0)]
            assert f == (x if want_f is None else want_f), (x, f)
            assert d == want_d, (x, d)

    @pytest.mark.parametrize("kind", SMOOTH, ids=lambda k: k.value)
    def test_smooth_kinds_at_extremes(self, kind):
        fwd, deriv = self.evaluate(kind, EXTREMES)
        assert_tracks(fwd, ref64(kind, EXTREMES))
        assert_tracks(deriv, ref64_deriv(kind, EXTREMES))
        high = EXTREMES > 0
        assert np.array_equal(fwd[high], np.ones(high.sum()) if kind is ActivationKind.SIGMOID else EXTREMES[high])
        if kind is ActivationKind.SWISH:
            assert np.all(deriv[high] == 1.0)

    @pytest.mark.parametrize("kind", SMOOTH, ids=lambda k: k.value)
    def test_smooth_kinds_track_float64_where_normal(self, kind):
        xs = np.linspace(-88.0, 88.0, 200_001, dtype=np.float32)
        assert_tracks(activate_batch(kind, xs), ref64(kind, xs))
        if kind is ActivationKind.SIGMOID:  # Swish' has a root near -1.28, so no relative bound there
            assert_tracks(activate_batch_backward(kind, xs, np.ones_like(xs)), ref64_deriv(kind, xs))


class TestApproximationAnalyzer:
    """Dense-grid max gap between two activations."""

    def test_swish_vs_hardswish_peak(self):
        x_at_max, err = max_approx_error(
            ActivationKind.SWISH, ActivationKind.HARDSWISH, lo=-10.0, hi=10.0, step=1e-4
        )
        assert abs(err - 0.1422776) < 1e-4
        assert abs(abs(x_at_max) - 3.0) < 1e-3

    def test_identical_kinds_zero_error(self):
        x_at_max, err = max_approx_error(
            ActivationKind.RELU, ActivationKind.RELU, lo=-5.0, hi=5.0, step=0.01
        )
        assert err == 0.0

    def test_relu_vs_relu6_gap_grows_past_six(self):
        _, err = max_approx_error(
            ActivationKind.RELU, ActivationKind.RELU6, lo=-5.0, hi=10.0, step=0.01
        )
        assert abs(err - 4.0) < 1e-9  # relu(10) - relu6(10) = 10 - 6

    def test_grid_includes_endpoints(self):
        x_at_max, err = max_approx_error(
            ActivationKind.RELU, ActivationKind.RELU6, lo=7.0, hi=9.0, step=1.0
        )
        assert x_at_max == 9.0
        assert abs(err - 3.0) < 1e-9

    def test_tie_across_blocks_first_point_wins(self):
        """|relu - hardswish| peaks at 0.375 at both -1.5 and 1.5, which fall in different blocks."""
        assert 4 * 2**15 + 1 > kernels._BLOCK
        assert max_approx_error(ActivationKind.RELU, ActivationKind.HARDSWISH, -2.0, 2.0, 2**-15) == (-1.5, 0.375)

    @pytest.mark.parametrize("block", [1, 7, 2**30])
    def test_block_size_does_not_change_the_result(self, block, monkeypatch):
        want = max_approx_error(ActivationKind.SWISH, ActivationKind.HARDSWISH, -4.0, 4.0, 1 / 64)
        monkeypatch.setattr(kernels, "_BLOCK", block)
        assert max_approx_error(ActivationKind.SWISH, ActivationKind.HARDSWISH, -4.0, 4.0, 1 / 64) == want

    def test_bad_range_rejected(self):
        with pytest.raises(DomainError):
            max_approx_error(ActivationKind.RELU, ActivationKind.RELU6, lo=1.0, hi=0.0, step=0.1)
        with pytest.raises(DomainError):
            max_approx_error(ActivationKind.RELU, ActivationKind.RELU6, lo=0.0, hi=1.0, step=0.0)
        # 20 / 1e-320 overflows to an infinite point count, rejected before anything is allocated
        with pytest.raises(DomainError, match=r"^grid of inf points is above MAX_GRID_POINTS=\d+$"):
            max_approx_error(ActivationKind.SWISH, ActivationKind.HARDSWISH, lo=-10.0, hi=10.0, step=1e-320)


class TestValidation:
    """Non-finite inputs and mismatched shapes produce typed errors."""

    def test_scalar_rejects_nan_and_inf(self):
        with pytest.raises(DomainError):
            activate(ActivationKind.RELU, float("nan"))
        with pytest.raises(DomainError):
            activate_derivative(ActivationKind.SWISH, float("inf"))

    def test_scalar_rejects_values_beyond_float32(self):
        """-1e39 is finite in float64 but -inf in float32, where Swish would give -inf * 0 = nan."""
        for x in (-1e39, 1e39):
            with pytest.raises(DomainError, match="finite in float32"):
                activate(ActivationKind.SWISH, x)
            with pytest.raises(DomainError, match="finite in float32"):
                activate_derivative(ActivationKind.SWISH, x)
        assert activate(ActivationKind.SWISH, -FMAX) == 0.0

    def test_batch_rejects_nan(self):
        xs = np.array([1.0, np.nan, 2.0], dtype=np.float32)
        with pytest.raises(DomainError):
            activate_batch(ActivationKind.SIGMOID, xs)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({(0, 1, 2): np.nan, (1, 0, 0): np.inf, (1, 2, 3): -np.inf}, "3 non-finite elements, first nan at flat index 6"),
            ({(0, 0, 0): -np.inf}, "1 non-finite elements, first -inf at flat index 0"),
        ],
    )
    def test_batch_error_names_kind_shape_count_and_first(self, bad, message):
        xs = np.ones((2, 3, 4), dtype=np.float32)
        for at, v in bad.items():
            xs[at] = v
        with pytest.raises(DomainError) as err:
            activate_batch(ActivationKind.SWISH, xs)
        assert str(err.value) == f"swish batch (2, 3, 4) has {message}"

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("x", [1e39, -1e39])
    def test_batch_rejects_values_beyond_float32_as_given(self, kind, x):
        """A float64 value that float32 cannot hold is rejected as the scalar rejects it, and
        named as the caller wrote it, not as the inf it casts to; the cast raises no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                activate_batch(kind, np.array([1.0, x]))
        assert str(err.value) == f"{kind.value} batch (2,) has 1 non-finite elements, first {x} at flat index 1"
        assert activate_batch(kind, np.array([1.0, -FMAX])).tobytes() == activate_batch(
            kind, np.array([1.0, -FMAX], dtype=np.float32)
        ).tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("operand", ["input", "upstream"])
    @pytest.mark.parametrize("x", [1e39, -1e39])
    def test_backward_rejects_values_beyond_float32_as_given(self, kind, operand, x):
        """A float64 operand of the backward that float32 cannot hold raises a DomainError
        naming the operand and the value as given, with no overflow warning from the cast;
        NaN and +-inf themselves still pass unchecked, and so does every float32 operand."""
        ops = {"input": np.array([1.0, 2.0, x]), "upstream": np.array([1.0, 1.0, 1.0])}
        if operand == "upstream":
            ops = {"input": ops["upstream"], "upstream": ops["input"]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                activate_batch_backward(kind, ops["input"], ops["upstream"])
        assert str(err.value) == (
            f"{kind.value} backward {operand} (3,) has 1 elements beyond float32, first {x} at flat index 2"
        )
        ok = np.array([1.0, np.inf, np.nan, -FMAX])
        xs = np.array([1.0, 2.0, 3.0, -4.0])  # |f'(-4)| <= 1, so -FMAX times it stays finite
        got = activate_batch_backward(kind, xs, ok)
        assert got.tobytes() == activate_batch_backward(kind, xs.astype(np.float32), ok.astype(np.float32)).tobytes()

    def test_backward_rejects_shape_mismatch(self):
        xs = np.zeros((2, 3), dtype=np.float32)
        up = np.zeros((3, 2), dtype=np.float32)
        with pytest.raises(ShapeError):
            activate_batch_backward(ActivationKind.RELU, xs, up)

    def test_from_name_round_trip_and_unknown(self):
        for kind in ALL_KINDS:
            assert ActivationKind.from_name(kind.value) is kind
        assert ActivationKind.from_name(" ReLU ") is ActivationKind.RELU
        with pytest.raises(DomainError):
            ActivationKind.from_name("gelu")

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_inputs_left_unmodified(self, kind):
        rs = np.random.RandomState(29)
        xs = rs.uniform(-8.0, 8.0, size=(3, 50)).astype(np.float32)
        up = rs.uniform(-2.0, 2.0, size=(3, 50)).astype(np.float32)
        xs0, up0 = xs.copy(), up.copy()
        activate_batch(kind, xs)
        activate_batch_backward(kind, xs, up)
        assert np.array_equal(xs, xs0) and np.array_equal(up, up0)

    def test_batch_preserves_shape_and_dtype(self):
        xs = np.zeros((3, 4, 5), dtype=np.float32)
        out = activate_batch(ActivationKind.SWISH, xs)
        assert out.shape == xs.shape
        assert out.dtype == np.float32
        # a 0-d array and a Python float give 0-d results, the bytes of the 1-element calls
        for kind in ALL_KINDS:
            want = activate_batch(kind, np.float32([2.0])), activate_batch_backward(kind, np.float32([2.0]), [0.5])
            for x, up in ((np.float32(2.0), np.float32(0.5)), (2.0, 0.5)):
                for got, one in zip((activate_batch(kind, x), activate_batch_backward(kind, x, up)), want):
                    assert got.shape == () and got.dtype == np.float32 and got.tobytes() == one.tobytes()


def block_inputs(block: int):
    """(x, upstream) pairs: sizes 0, 1 and 3 blocks plus a ragged 5, a 0-d array and a 4-D
    shape, with every knot present where there is room."""
    rs = np.random.RandomState(31)
    for shape in [(0,), (1,), (3 * block + 5,), (), (2, 3, 5, 7)]:
        x = np.asarray(rs.uniform(-8.0, 8.0, size=shape), dtype=np.float32)
        knots = np.array([-3.0, 0.0, 3.0, 6.0], dtype=np.float32)[: x.size]
        x.flat[: knots.size] = knots
        yield x, np.asarray(rs.uniform(-2.0, 2.0, size=shape), dtype=np.float32)


class TestBlocks:
    """Batched kernels walk the flat input in blocks of kernels._BLOCK elements. The block
    size changes neither a bit of any result nor the non-finite input error."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_results_do_not_depend_on_block_size(self, kind, block, monkeypatch):
        def run():
            out = []
            for x, up in block_inputs(block):
                fwd = activate_batch(kind, x)
                bwd = activate_batch_backward(kind, x, up)
                assert fwd.shape == bwd.shape == x.shape and fwd.dtype == bwd.dtype == np.float32
                head = x.flat[:64]
                scalar = np.array([activate(kind, float(v)) for v in head], np.float32)
                deriv = np.array([activate_derivative(kind, float(v)) for v in head], np.float32)
                assert scalar.tobytes() == fwd.flat[:64].tobytes()
                out += [fwd.tobytes(), bwd.tobytes(), deriv.tobytes()]
            return out

        monkeypatch.setattr(kernels, "_BLOCK", block)
        blocked = run()
        monkeypatch.setattr(kernels, "_BLOCK", 2**30)  # the whole array in one block
        assert blocked == run()

    @pytest.mark.parametrize("block", [7, 1 << 16])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ({-3: np.nan}, "1 non-finite elements, first nan at flat index {}"),
            ({2: np.inf, -3: np.nan}, "2 non-finite elements, first inf at flat index 2"),
        ],
    )
    def test_non_finite_error_names_the_whole_array(self, block, bad, message, monkeypatch):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        xs = np.ones(3 * block + 5, dtype=np.float32)  # -3 is in the last, ragged block
        for at, v in bad.items():
            xs[at] = v
        with pytest.raises(DomainError) as err:
            activate_batch(ActivationKind.SWISH, xs)
        assert str(err.value) == f"swish batch ({xs.size},) has {message.format(xs.size - 3)}"

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_one_full_size_buffer_per_call(self, kind):
        """Only the 16 MiB result is full size; every temporary is one block."""
        x = np.linspace(-8.0, 8.0, 1 << 22, dtype=np.float32)
        up = np.full(x.shape, 0.5, dtype=np.float32)
        for call in (lambda: activate_batch(kind, x), lambda: activate_batch_backward(kind, x, up)):
            tracemalloc.start()
            try:
                result = call()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.1 * result.nbytes, (peak, result.nbytes)


# A span is kernels._SPAN_BLOCKS whole blocks; sizes in blocks, plus a ragged tail of elements.
SPAN_SIZES = {
    "one-span": (15, 0),  # 15 blocks: one span, run directly
    "two-spans-ragged": (15, 5),  # 16 blocks, the last one ragged: the smallest call cut in two
    "past-edge": (16, 1),  # spans of 8 and 9 blocks, the last one of 1 element
    "three-spans": (24, 3),
}


def span_input(blocks: int, tail: int):
    n = blocks * kernels._BLOCK + tail
    rs = np.random.RandomState(blocks * 97 + tail)
    return rs.uniform(-8.0, 8.0, n).astype(np.float32), rs.uniform(-2.0, 2.0, n).astype(np.float32)


def serial(monkeypatch, call):
    """call() with every array one span, run directly on this thread."""
    with monkeypatch.context() as m:
        m.setattr(kernels, "_SPAN_BLOCKS", 2**30)
        return call()


EXECUTOR_PATHS = ["one-core", "two-cores", "no-blas-controls"]


def channels_last(a):
    """a's values stored channels-last, as actkit.tensor's 4-D results are: the NCHW view of a
    C-contiguous NHWC copy."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def executor_path(monkeypatch, path):
    if path == "no-blas-controls":
        monkeypatch.setattr(chunks, "_openblas_threads", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if path == "one-core" else {0, 1})


class TestSpans:
    """A call of two or more spans of kernels._SPAN_BLOCKS blocks runs them through the chunk
    executor: on the caller's thread and a pool thread per other core, or on the caller's
    thread alone. Results and non-finite input errors are the same bytes as one span."""

    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    @pytest.mark.parametrize("size", list(SPAN_SIZES))
    def test_same_bytes_as_one_span(self, size, path, monkeypatch):
        x, up = span_input(*SPAN_SIZES[size])

        def run():
            return [activate_batch(k, x).tobytes() + activate_batch_backward(k, x, up).tobytes() for k in ALL_KINDS]

        want = serial(monkeypatch, run)
        executor_path(monkeypatch, path)
        assert run() == want

    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    @pytest.mark.parametrize(
        "bad", [{3: np.inf, -2: np.nan}, {-5: np.nan}, {10 * (1 << 16): -np.inf, -1: np.inf}],
        ids=["first-and-last-span", "last-span-only", "middle-and-last-span"],
    )
    def test_non_finite_error_same_bytes_as_one_span(self, bad, path, monkeypatch):
        x, _ = span_input(*SPAN_SIZES["three-spans"])
        for at, v in bad.items():
            x[at] = v

        def message():
            with pytest.raises(DomainError) as err:
                activate_batch(ActivationKind.SWISH, x)
            return str(err.value)

        want = serial(monkeypatch, message)
        assert want.startswith(f"swish batch ({x.size},) has {len(bad)} non-finite elements, first ")
        executor_path(monkeypatch, path)
        assert message() == want

    @pytest.mark.parametrize("path", EXECUTOR_PATHS)
    @pytest.mark.parametrize(
        "shape", [(3, 8, 160, 128), (7, 9, 127, 131), (11, 9, 127, 125)], ids=["one-span", "two-spans", "three-spans"]
    )
    def test_channels_last_same_bytes_in_memory_order(self, shape, path, monkeypatch):
        """A channels-last input (see actkit.tensor), like a Fortran-order, reversed-stride or
        strided-slice one, gives its result stored as np.empty_like(x) stores it, the same bytes
        as the C-order call's; so does a backward whose upstream is in another layout, either way
        round. A broadcast view gives the bytes of its C-order copy."""
        rs = np.random.RandomState(sum(shape))
        x, up = (rs.uniform(-8.0, 8.0, shape).astype(np.float32) for _ in range(2))
        layouts = {
            "channels-last": channels_last,
            "fortran": np.asfortranarray,
            "reversed": lambda a: np.ascontiguousarray(a[::-1, :, ::-1])[::-1, :, ::-1],
            "strided-slice": lambda a: np.repeat(a, 2, axis=3)[:, :, :, ::2],
        }
        executor_path(monkeypatch, path)
        for kind in ALL_KINDS:
            fwd, bwd = activate_batch(kind, x), activate_batch_backward(kind, x, up)
            assert fwd.flags.c_contiguous and bwd.flags.c_contiguous
            for name, layout in layouts.items():
                x_l, up_l = layout(x), layout(up)
                assert np.array_equal(x_l, x) and not x_l.flags.c_contiguous
                calls = [
                    (x_l, fwd, activate_batch(kind, x_l)),
                    (x_l, bwd, activate_batch_backward(kind, x_l, up_l)),
                    (x_l, bwd, activate_batch_backward(kind, x_l, up)),
                    (x, bwd, activate_batch_backward(kind, x, up_l)),
                ]
                for given, want, got in calls:
                    assert got.strides == np.empty_like(given).strides, name
                    assert got.tobytes() == want.tobytes(), name
            # a broadcast view (stride 0), as input or upstream, gives the bytes of its C-order copy
            bc = np.broadcast_to(x[:, :1], shape)
            bc_c = np.ascontiguousarray(bc)
            assert activate_batch(kind, bc).tobytes() == activate_batch(kind, bc_c).tobytes()
            for got, want in ((bc, bc_c), (x, x)):
                assert (activate_batch_backward(kind, got, bc).tobytes()
                        == activate_batch_backward(kind, want, bc_c).tobytes())

    def test_channels_last_error_text_equals_c_order(self):
        """A channels-last pre-activation's DomainError names the NCHW shape and the C-order
        flat index, as the C-order array's does."""
        x = np.ones((2, 8, 5, 6), dtype=np.float32)
        x[0, 7, 0, 0], x[0, 0, 0, 1] = np.nan, -np.inf  # channels-last memory holds the nan first
        messages = []
        for xs in (x, channels_last(x)):
            with pytest.raises(DomainError) as err:
                activate_batch(ActivationKind.RELU, xs)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "relu batch (2, 8, 5, 6) has 2 non-finite elements, first -inf at flat index 1"

    def test_large_calls_share_one_pool(self, pool_spy):
        """A call of one span makes no pool; calls of two or more spans share the one pool that
        the process keeps, with one helper work loop each."""
        small, up_small = span_input(*SPAN_SIZES["one-span"])
        activate_batch(ActivationKind.SWISH, small)
        activate_batch_backward(ActivationKind.SWISH, small, up_small)
        assert pool_spy.pools == []
        x, up = span_input(*SPAN_SIZES["three-spans"])
        activate_batch(ActivationKind.SWISH, x)
        activate_batch_backward(ActivationKind.SWISH, x, up)
        assert len(pool_spy.pools) == 1 and len(pool_spy.submits) == 2
