"""Dense float32 tensors, a SplitMix64 PRNG, and the layer ops for staged CNNs.

Tensors are plain C-contiguous float32 numpy arrays of rank <= 4 (NCHW for images).
Every op here is pure: inputs are never mutated, outputs are fresh arrays, and the
same inputs produce bit-identical outputs.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, ShapeError

REAL = np.float32

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SM64_GOLDEN = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB


class Rng:
    """SplitMix64 stream: identical seed gives an identical, platform-independent
    sequence of draws, whether pulled one at a time or in vectorized blocks."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = int(seed) & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _SM64_GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _SM64_MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _SM64_MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_uniform(self) -> float:
        """One draw in [0, 1): the top 53 bits of the next output word."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniforms(self, n: int) -> np.ndarray:
        """The next n draws as a float64 array, bit-equal to n next_uniform() calls."""
        if n < 0:
            raise DomainError(f"draw count must be nonnegative, got {n}")
        base = np.uint64(self._state)
        states = base + np.uint64(_SM64_GOLDEN) * np.arange(1, n + 1, dtype=np.uint64)
        z = states
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM64_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM64_MIX2)
        z = z ^ (z >> np.uint64(31))
        self._state = (self._state + n * _SM64_GOLDEN) & _MASK64
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def he_init(shape: tuple[int, ...], fan_in: int, rng: Rng) -> np.ndarray:
    """Uniform fill over [-sqrt(6/fan_in), +sqrt(6/fan_in)], float32."""
    if fan_in < 1:
        raise DomainError(f"fan_in must be >= 1, got {fan_in}")
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape) or len(shape) > 4:
        raise ShapeError(f"bad tensor shape {shape}")
    bound = math.sqrt(6.0 / fan_in)
    u = rng.uniforms(int(np.prod(shape)))
    return ((2.0 * u - 1.0) * bound).astype(REAL).reshape(shape)


def _as_real(x: np.ndarray, rank: int, what: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=REAL)
    if arr.ndim != rank:
        raise ShapeError(f"{what} must have rank {rank}, got shape {arr.shape}")
    return arr


def conv2d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, stride: int) -> np.ndarray:
    """Cross-correlation with 'same' zero padding, then striding.

    x is NCHW, weights are (out_ch, in_ch, K, K) with K odd, bias is (out_ch,).
    Output spatial dims are ceil(H/stride) x ceil(W/stride).
    """
    x = _as_real(x, 4, "conv input")
    w = _as_real(weights, 4, "conv weights")
    b = _as_real(bias, 1, "conv bias")
    n, c, h, wid = x.shape
    o, i, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError(f"kernel must be square with odd size, got {k}x{k2}")
    if i != c:
        raise ShapeError(f"weight input channels {i} != input channels {c}")
    if b.shape[0] != o:
        raise ShapeError(f"bias length {b.shape[0]} != output channels {o}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    out = _patches(x.transpose(0, 2, 3, 1), k, stride) @ w.transpose(0, 2, 3, 1).reshape(o, -1).T + b
    return np.ascontiguousarray(out.reshape(n, -(-h // stride), -(-wid // stride), o).transpose(0, 3, 1, 2))


def _patches(x_nhwc: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Patch matrix (N*Ho*Wo, K*K*C) of a same-padded strided window, channels innermost."""
    n, h, w, c = x_nhwc.shape
    pad = (k - 1) // 2
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=REAL)
    xp[:, pad : pad + h, pad : pad + w] = x_nhwc
    win = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::stride, ::stride]  # N,Ho,Wo,C,K,K
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, k * k * c)


def conv2d_backward(
    x: np.ndarray, weights: np.ndarray, upstream: np.ndarray, stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of conv2d_forward: (grad_input, grad_weights, grad_bias).

    grad_weights is upstream^T @ patches(x). grad_input needs no scatter: for a
    same-padded odd-K correlation it is the stride-1 same-padded correlation of the
    upstream, dilated by the stride (zeros between rows and columns) to H x W, with
    the kernel rotated 180 degrees and its in/out channels swapped.
    """
    x = _as_real(x, 4, "conv input")
    w = _as_real(weights, 4, "conv weights")
    up = _as_real(upstream, 4, "conv upstream")
    n, c, h, wid = x.shape
    o, i, k, _ = w.shape
    if i != c:
        raise ShapeError(f"weight input channels {i} != input channels {c}")
    ho, wo = -(-h // stride), -(-wid // stride)
    if up.shape != (n, o, ho, wo):
        raise ShapeError(f"upstream shape {up.shape} != forward output shape {(n, o, ho, wo)}")

    up_nhwc = up.transpose(0, 2, 3, 1)
    grad_b = up.sum(axis=(0, 2, 3))
    grad_w = up_nhwc.reshape(-1, o).T @ _patches(x.transpose(0, 2, 3, 1), k, stride)  # patches(x) freed here
    dilated = np.zeros((n, h, wid, o), dtype=REAL)
    dilated[:, ::stride, ::stride] = up_nhwc
    w_flip = w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * o, c)
    grad_x = (_patches(dilated, k, 1) @ w_flip).reshape(n, h, wid, c).transpose(0, 3, 1, 2)
    grad_w = grad_w.reshape(o, k, k, c).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(grad_x), np.ascontiguousarray(grad_w), np.ascontiguousarray(grad_b)


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map: (N,F) @ (F,G) + (G,)."""
    x = _as_real(x, 2, "dense input")
    w = _as_real(weights, 2, "dense weights")
    b = _as_real(bias, 1, "dense bias")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"input features {x.shape[1]} != weight rows {w.shape[0]}")
    if b.shape[0] != w.shape[1]:
        raise ShapeError(f"bias length {b.shape[0]} != weight cols {w.shape[1]}")
    return np.ascontiguousarray(x @ w + b)


def dense_backward(
    x: np.ndarray, weights: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of dense_forward: (grad_input, grad_weights, grad_bias)."""
    x = _as_real(x, 2, "dense input")
    w = _as_real(weights, 2, "dense weights")
    up = _as_real(upstream, 2, "dense upstream")
    if up.shape != (x.shape[0], w.shape[1]):
        raise ShapeError(f"upstream shape {up.shape} != output shape {(x.shape[0], w.shape[1])}")
    return (
        np.ascontiguousarray(up @ w.T),
        np.ascontiguousarray(x.T @ up),
        np.ascontiguousarray(up.sum(axis=0)),
    )


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over the spatial dims: NCHW -> (N, C)."""
    x = _as_real(x, 4, "pool input")
    return np.ascontiguousarray(x.mean(axis=(2, 3), dtype=REAL))


def global_avg_pool_backward(upstream: np.ndarray, height: int, width: int) -> np.ndarray:
    """Spread each (N, C) gradient uniformly over height x width positions."""
    up = _as_real(upstream, 2, "pool upstream")
    if height < 1 or width < 1:
        raise ShapeError(f"bad spatial dims {height}x{width}")
    scale = REAL(1.0 / (height * width))
    n, c = up.shape
    return np.ascontiguousarray(np.broadcast_to((up * scale)[:, :, None, None], (n, c, height, width)))


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy with max-subtraction, plus grad = (softmax - onehot) / N."""
    z = _as_real(logits, 2, "logits")
    y = np.asarray(labels, dtype=np.int64)
    n, c = z.shape
    if y.shape != (n,):
        raise ShapeError(f"labels shape {y.shape} != ({n},)")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise DomainError(f"labels must lie in [0, {c})")
    zs = z - z.max(axis=1, keepdims=True)
    ez = np.exp(zs)
    denom = ez.sum(axis=1, keepdims=True)
    # log-sum-exp form: denom >= 1 because the row max maps to exp(0)
    loss = float(np.mean(np.log(denom[:, 0]) - zs[np.arange(n), y], dtype=np.float64))
    grad = ez / denom
    grad[np.arange(n), y] -= REAL(1.0)
    grad /= REAL(n)
    return loss, np.ascontiguousarray(grad)


def sgd_momentum_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    velocity: dict[str, np.ndarray],
    lr: float,
    momentum: float,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """v <- momentum*v + g; p <- p - lr*v, per parameter name. Pure: returns fresh
    dicts of fresh arrays, in the order of params. A ShapeError names the parameter
    (the least name, if several) whose name set or shape disagrees."""
    for what, other in (("grads", grads), ("velocity", velocity)):
        if other.keys() != params.keys():
            raise ShapeError(f"{what} and params differ at parameter {min(other.keys() ^ params.keys())!r}")
    new_params, new_velocity = {}, {}
    for name, p in params.items():
        g, v = grads[name], velocity[name]
        if p.shape != g.shape or p.shape != v.shape:
            raise ShapeError(f"parameter {name!r} has mismatched shapes {p.shape}/{g.shape}/{v.shape}")
        new_velocity[name] = nv = REAL(momentum) * v + g
        new_params[name] = p - REAL(lr) * nv
    return new_params, new_velocity
