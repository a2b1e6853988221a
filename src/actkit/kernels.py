"""The five activation functions: scalar and batched forward, derivatives, gap analysis.

Public kernels compute in 32-bit floats. The approximation analyzer runs its grid
scan in 64-bit so the reported gap is trustworthy at the 1e-7 level.
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


def _sigmoid32(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; pick the algebraically equal branch per sign
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _relu32(x):
    return np.maximum(x, np.float32(0.0))


def _relu6_32(x):
    return np.minimum(np.maximum(x, np.float32(0.0)), np.float32(6.0))


def _swish32(x):
    return x * _sigmoid32(x)


def _hardswish32(x):
    return x * np.clip((x + np.float32(3.0)) / np.float32(6.0), np.float32(0.0), np.float32(1.0))


# The float32 constants never narrow a float64 input, so max_approx_error runs these in 64-bit.
_FORWARD = {
    ActivationKind.RELU: _relu32,
    ActivationKind.RELU6: _relu6_32,
    ActivationKind.SIGMOID: _sigmoid32,
    ActivationKind.SWISH: _swish32,
    ActivationKind.HARDSWISH: _hardswish32,
}


def _relu_deriv32(x):
    return np.where(x > 0, np.float32(1.0), np.float32(0.0))


def _relu6_deriv32(x):
    return np.where((x > 0) & (x < 6), np.float32(1.0), np.float32(0.0))


def _sigmoid_deriv32(x):
    s = _sigmoid32(x)
    return s * (np.float32(1.0) - s)


def _swish_deriv32(x):
    # d/dx x*sigma(x) = sigma(x) * (1 + x * (1 - sigma(x)))
    s = _sigmoid32(x)
    return s * (np.float32(1.0) + x * (np.float32(1.0) - s))


def _hardswish_deriv32(x):
    # 0 for x <= -3, (2x+3)/6 on the quadratic piece (closed at x=3), 1 for x > 3
    mid = (np.float32(2.0) * x + np.float32(3.0)) / np.float32(6.0)
    out = np.where(x <= 3, mid, np.float32(1.0))
    return np.where(x <= -3, np.float32(0.0), out)


_DERIV32 = {
    ActivationKind.RELU: _relu_deriv32,
    ActivationKind.RELU6: _relu6_deriv32,
    ActivationKind.SIGMOID: _sigmoid_deriv32,
    ActivationKind.SWISH: _swish_deriv32,
    ActivationKind.HARDSWISH: _hardswish_deriv32,
}


def activate(kind: ActivationKind, x: float) -> float:
    """Evaluate one activation at a single point, in 32-bit arithmetic."""
    if not math.isfinite(x):
        raise DomainError(f"activation input must be finite, got {x!r}")
    return float(_FORWARD[kind](np.float32(x)))


def activate_derivative(kind: ActivationKind, x: float) -> float:
    """Closed-form derivative at a single point, in 32-bit arithmetic.

    At the piecewise knots the conventions are: ReLU'(0) = 0, ReLU6'(0) = ReLU6'(6) = 0,
    HardSwish'(-3) = 0 and HardSwish'(3) = 1.5 (the quadratic piece is closed on the right).
    """
    if not math.isfinite(x):
        raise DomainError(f"activation input must be finite, got {x!r}")
    return float(_DERIV32[kind](np.float32(x)))


def activate_batch(kind: ActivationKind, xs: np.ndarray) -> np.ndarray:
    """Elementwise activation over a float32 array; output shape equals input shape."""
    arr = np.ascontiguousarray(xs, dtype=np.float32)
    if not np.isfinite(arr).all():
        raise DomainError(f"activation batch contains non-finite elements ({kind.value})")
    return np.ascontiguousarray(_FORWARD[kind](arr))


def activate_batch_backward(kind: ActivationKind, xs: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """upstream * f'(x), elementwise. Shapes of xs and upstream must match."""
    arr = np.ascontiguousarray(xs, dtype=np.float32)
    up = np.ascontiguousarray(upstream, dtype=np.float32)
    if arr.shape != up.shape:
        raise ShapeError(f"input shape {arr.shape} != upstream shape {up.shape}")
    return np.ascontiguousarray(up * _DERIV32[kind](arr))


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
