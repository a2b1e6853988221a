"""The five activation functions: scalar and batched forward, derivatives, gap analysis.

Each kind has one forward and one derivative. Both return a fresh array built with
in-place ops, so a call makes at most two full-size float buffers. Public kernels compute in
32-bit floats. The forwards keep a float64 input in float64, so the approximation
analyzer runs its grid scan in 64-bit and the reported gap is trustworthy at 1e-7.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DomainError, ShapeError


class ActivationKind(enum.Enum):
    """The supported nonlinearities. Values double as their serialized names."""

    RELU = "relu"
    RELU6 = "relu6"
    SIGMOID = "sigmoid"
    SWISH = "swish"
    HARDSWISH = "hardswish"

    @classmethod
    def from_name(cls, name: str) -> "ActivationKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise DomainError(f"unknown activation kind {name!r} (expected one of: {valid})") from None


# Piecewise boundaries where each kind switches formula. Gradient checks and the
# knot-continuity tests key off these.
KNOTS: dict[ActivationKind, tuple[float, ...]] = {
    ActivationKind.RELU: (0.0,),
    ActivationKind.RELU6: (0.0, 6.0),
    ActivationKind.SIGMOID: (),
    ActivationKind.SWISH: (),
    ActivationKind.HARDSWISH: (-3.0, 3.0),
}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)): below x = -88.7 exp overflows to inf, and 1/inf is exactly 0
    s = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def _swish(x):
    s = _sigmoid(x)
    s *= x
    return s


def _hardswish(x):
    # x * clip((x+3)/6, 0, 1): exactly x for x >= 3 and 0 for x <= -3
    t = x + 3.0
    t /= 6.0
    np.clip(t, 0.0, 1.0, out=t)
    t *= x
    return t


_FORWARD = {
    ActivationKind.RELU: lambda x: np.maximum(x, 0.0),
    ActivationKind.RELU6: lambda x: np.clip(x, 0.0, 6.0),
    ActivationKind.SIGMOID: _sigmoid,
    ActivationKind.SWISH: _swish,
    ActivationKind.HARDSWISH: _hardswish,
}


def _sigmoid_deriv(x):
    # sigma(x) * sigma(-x) = 0.5/(1 + cosh x): one buffer, and no 1 - sigma cancellation in the
    # tails; past |x| = 89 cosh overflows to inf, and 1/inf is exactly 0
    with np.errstate(over="ignore"):
        d = np.cosh(x)
    d += 1.0
    np.reciprocal(d, out=d)
    d *= 0.5
    return d


def _swish_deriv(x):
    # d/dx x*sigma(x) = sigma(x) * (1 + x * (1 - sigma(x)))
    s = _sigmoid(x)
    d = 1.0 - s
    d *= x
    d += 1.0
    d *= s
    return d


def _hardswish_deriv(x):
    # 0 for x <= -3, (2x+3)/6 on the quadratic piece (closed at x=3), 1 for x > 3.
    # (x+1.5)/3 is (2x+3)/6 bit for bit and stays finite at +-float32 max, so the
    # mask product is never inf*0.
    d = x + 1.5
    d /= 3.0
    high = x > 3.0
    quad = x > -3.0
    quad ^= high  # -3 < x <= 3
    d *= quad
    d += high
    return d


_DERIV = {
    ActivationKind.RELU: lambda x: (x > 0.0).astype(np.float32),
    ActivationKind.RELU6: lambda x: ((x > 0.0) & (x < 6.0)).astype(np.float32),
    ActivationKind.SIGMOID: _sigmoid_deriv,
    ActivationKind.SWISH: _swish_deriv,
    ActivationKind.HARDSWISH: _hardswish_deriv,
}


def _at_point(fn, x: float) -> float:
    # the batch kernels on a length-1 float32 array: in-place ops need an array, not a scalar
    if not abs(x) <= float(np.finfo(np.float32).max):  # NaN, inf, and finite values beyond float32
        raise DomainError(f"activation input must be finite in float32, got {x!r}")
    return float(fn(np.array([x], dtype=np.float32))[0])


def activate(kind: ActivationKind, x: float) -> float:
    """Evaluate one activation at a single point, in 32-bit arithmetic."""
    return _at_point(_FORWARD[kind], x)


def activate_derivative(kind: ActivationKind, x: float) -> float:
    """Closed-form derivative at a single point, in 32-bit arithmetic.

    At the piecewise knots the conventions are: ReLU'(0) = 0, ReLU6'(0) = ReLU6'(6) = 0,
    HardSwish'(-3) = 0 and HardSwish'(3) = 1.5 (the quadratic piece is closed on the right).
    """
    return _at_point(_DERIV[kind], x)


def activate_batch(kind: ActivationKind, xs: np.ndarray) -> np.ndarray:
    """Elementwise activation over a float32 array; output shape equals input shape.

    Rejects NaN and +-inf inputs with a DomainError naming the first one.
    """
    arr = np.ascontiguousarray(xs, dtype=np.float32)
    # NaN propagates through min and max, so two reductions cover every non-finite value
    if arr.size and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        bad = np.flatnonzero(~np.isfinite(arr))
        i = int(bad[0])
        raise DomainError(f"{kind.value} batch {arr.shape} has {bad.size} non-finite elements, "
                          f"first {arr.flat[i]} at flat index {i}")
    return _FORWARD[kind](arr)


def activate_batch_backward(kind: ActivationKind, xs: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """upstream * f'(x), elementwise. Shapes must match; finiteness is not checked."""
    arr = np.ascontiguousarray(xs, dtype=np.float32)
    up = np.ascontiguousarray(upstream, dtype=np.float32)
    if arr.shape != up.shape:
        raise ShapeError(f"input shape {arr.shape} != upstream shape {up.shape}")
    grad = _DERIV[kind](arr)
    grad *= up
    return grad


def max_approx_error(
    a: ActivationKind,
    b: ActivationKind,
    lo: float,
    hi: float,
    step: float,
) -> tuple[float, float]:
    """Scan |a(x) - b(x)| on the grid lo, lo+step, ... and return (argmax, max).

    The scan runs in 64-bit. The first grid point attaining the max wins.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise DomainError("grid bounds and step must be finite")
    if step <= 0:
        raise DomainError(f"grid step must be positive, got {step}")
    if lo >= hi:
        raise DomainError(f"empty grid: lo={lo} must be below hi={hi}")
    n = int(math.floor((hi - lo) / step + 1e-12)) + 1
    xs = lo + np.arange(n, dtype=np.float64) * step
    gap = np.abs(_FORWARD[a](xs) - _FORWARD[b](xs))
    i = int(np.argmax(gap))
    return float(xs[i]), float(gap[i])
