"""The five activation functions: scalar and batched forward, derivatives, gap analysis.

Each kind has one forward and one derivative, in-place ops into a given output block. A call
makes one full-size buffer, its result, in its input's memory order, and fills it block by block
in that order, with temporaries per block; an operand stored otherwise is first copied into it.
Public kernels compute in 32-bit floats. The forwards keep a float64 input in float64, so the
approximation analyzer runs its grid scan in 64-bit and the reported gap is trustworthy at 1e-7.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .chunks import _cut, _run_chunks
from .errors import DomainError, ShapeError
from .tensor import _real

MAX_GRID_POINTS = 10**8  # bounds max_approx_error's run time (~1 s); it holds a few blocks at a time
# Elements per block: one block's input, output and temporaries fit one core's 2 MiB L2.
_BLOCK = 1 << 16
# Fewest blocks in a span; a call of two or more spans runs them on every core. A lone call on a
# 2-vCPU KVM guest breaks even at 2^20 elements, saves ~20% from 2^21; 2^19 in 2 spans lost ~30%.
_SPAN_BLOCKS = 8


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


def _sigmoid(x: np.ndarray, out: np.ndarray) -> None:
    # 1/(1+exp(-x)): below x = -88.7 exp overflows to inf, and 1/inf is exactly 0
    np.negative(x, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    np.reciprocal(out, out=out)


def _swish(x, out):
    _sigmoid(x, out)
    out *= x


def _hardswish(x, out):
    # x * clip((x+3)/6, 0, 1): exactly x for x >= 3 and 0 for x <= -3
    np.add(x, 3.0, out=out)
    out /= 6.0
    np.clip(out, 0.0, 1.0, out=out)
    out *= x


_FORWARD = {
    ActivationKind.RELU: lambda x, out: np.maximum(x, 0.0, out=out),
    ActivationKind.RELU6: lambda x, out: np.clip(x, 0.0, 6.0, out=out),
    ActivationKind.SIGMOID: _sigmoid,
    ActivationKind.SWISH: _swish,
    ActivationKind.HARDSWISH: _hardswish,
}


def _sigmoid_deriv(x, out):
    # sigma(x) * sigma(-x) = 0.5/(1 + cosh x): no 1 - sigma cancellation in the tails;
    # past |x| = 89 cosh overflows to inf, and 1/inf is exactly 0
    with np.errstate(over="ignore"):
        np.cosh(x, out=out)
    out += 1.0
    np.reciprocal(out, out=out)
    out *= 0.5


def _swish_deriv(x, out):
    # d/dx x*sigma(x) = sigma(x) * (1 + x * (1 - sigma(x)))
    _sigmoid(x, out)
    d = 1.0 - out
    d *= x
    d += 1.0
    np.multiply(d, out, out=out)


def _hardswish_deriv(x, out):
    # 0 for x <= -3, (2x+3)/6 on the quadratic piece (closed at x=3), 1 for x > 3.
    # (x+1.5)/3 is (2x+3)/6 bit for bit and stays finite at +-float32 max, so the
    # mask product is never inf*0.
    np.add(x, 1.5, out=out)
    out /= 3.0
    high = x > 3.0
    quad = x > -3.0
    quad ^= high  # -3 < x <= 3
    out *= quad
    out += high


_DERIV = {
    ActivationKind.RELU: lambda x, out: np.greater(x, 0.0, out=out),
    ActivationKind.RELU6: lambda x, out: np.logical_and(x > 0.0, x < 6.0, out=out),
    ActivationKind.SIGMOID: _sigmoid_deriv,
    ActivationKind.SWISH: _swish_deriv,
    ActivationKind.HARDSWISH: _hardswish_deriv,
}


def _at_point(fn, x: float) -> float:
    # the batch kernels on a length-1 float32 array: in-place ops need an array, not a scalar
    if not abs(x) <= float(np.finfo(np.float32).max):  # NaN, inf, and finite values beyond float32
        raise DomainError(f"activation input must be finite in float32, got {x!r}")
    out = np.empty(1, dtype=np.float32)
    fn(np.array([x], dtype=np.float32), out)
    return float(out[0])


def activate(kind: ActivationKind, x: float) -> float:
    """Evaluate one activation at a single point, in 32-bit arithmetic."""
    return _at_point(_FORWARD[kind], x)


def activate_derivative(kind: ActivationKind, x: float) -> float:
    """Closed-form derivative at a single point, in 32-bit arithmetic.

    At the piecewise knots the conventions are: ReLU'(0) = 0, ReLU6'(0) = ReLU6'(6) = 0,
    HardSwish'(-3) = 0 and HardSwish'(3) = 1.5 (the quadratic piece is closed on the right).
    """
    return _at_point(_DERIV[kind], x)


def _blocked(kind: ActivationKind, given: np.ndarray, up: np.ndarray | None = None) -> np.ndarray:
    """kind's forward of given in float32 (up None) or up * f'(given), block by block in memory
    order into np.empty_like(given); two or more spans run on every core. Each block is checked for
    finiteness (forward, naming the element as given, by its C-order flat index) or multiplied by
    up (backward) while in cache."""
    with np.errstate(over="ignore"):  # a value beyond float32 casts to inf, which the forward rejects
        arr = np.asarray(given, dtype=np.float32)
    out = np.empty_like(arr)

    def walk(a: np.ndarray) -> np.ndarray:  # a flat in out's memory order: a view if stored as out is
        if a.strides != out.strides:
            copy = np.empty_like(out)
            copy[...] = a
            a = copy
        return a.ravel(order="K")

    xs, res, ups = walk(arr), walk(out), None if up is None else walk(up)
    fn = _FORWARD[kind] if up is None else _DERIV[kind]

    def span(lo: int, hi: int) -> None:
        for a in range(lo, hi, _BLOCK):
            x, r = xs[a : a + _BLOCK], res[a : a + _BLOCK]
            # NaN propagates through min and max, so two reductions cover every non-finite value
            if up is None and not (math.isfinite(x.min()) and math.isfinite(x.max())):
                bad = np.flatnonzero(~np.isfinite(arr))
                i = int(bad[0])
                raise DomainError(f"{kind.value} batch {arr.shape} has {bad.size} non-finite elements, "
                                  f"first {given.flat[i]} at flat index {i}")
            fn(x, r)
            if up is not None:
                r *= ups[a : a + _BLOCK]

    spans = [(lo * _BLOCK, min(hi * _BLOCK, xs.size)) for lo, hi in _cut(-(-xs.size // _BLOCK), _SPAN_BLOCKS)]
    _run_chunks(span, spans)
    return out


def activate_batch(kind: ActivationKind, xs: np.ndarray) -> np.ndarray:
    """Elementwise activation over a float32 array; output shape and memory order equal the input's.

    Rejects NaN, +-inf and values beyond float32 with a DomainError naming the first as given.
    """
    return _blocked(kind, np.asarray(xs))


def activate_batch_backward(kind: ActivationKind, xs: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """upstream * f'(x), elementwise, in xs's memory order. Shapes must match. NaN and +-inf
    are not checked, but a value beyond float32 in either operand raises a DomainError naming
    the first as given, as the forward does."""
    arr = _real(xs, f"{kind.value} backward input")
    up = _real(upstream, f"{kind.value} backward upstream")
    if arr.shape != up.shape:
        raise ShapeError(f"input shape {arr.shape} != upstream shape {up.shape}")
    return _blocked(kind, arr, up)


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
    count = (hi - lo) / step + 1e-12  # inf when the step is tiny against the range
    if not count < MAX_GRID_POINTS:
        raise DomainError(f"grid of {count + 1:.6g} points is above MAX_GRID_POINTS={MAX_GRID_POINTS}")
    n = int(math.floor(count)) + 1
    best_x, best = lo, -1.0
    for start in range(0, n, _BLOCK):
        # bit-equal to the same slice of lo + arange(n) * step
        xs = lo + np.arange(start, min(start + _BLOCK, n), dtype=np.float64) * step
        fa, fb = np.empty_like(xs), np.empty_like(xs)
        _FORWARD[a](xs, fa)
        _FORWARD[b](xs, fb)
        gap = np.abs(fa - fb)
        i = int(np.argmax(gap))
        if gap[i] > best:  # strict, so the first grid point attaining the max wins
            best_x, best = float(xs[i]), float(gap[i])
    return best_x, best
