"""Activation kernel tests: golden values against a 64-bit reference, knot
continuity, tail exactness, derivative conventions, and the approximation
analyzer."""

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

    def test_bad_range_rejected(self):
        with pytest.raises(DomainError):
            max_approx_error(ActivationKind.RELU, ActivationKind.RELU6, lo=1.0, hi=0.0, step=0.1)
        with pytest.raises(DomainError):
            max_approx_error(ActivationKind.RELU, ActivationKind.RELU6, lo=0.0, hi=1.0, step=0.0)


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
