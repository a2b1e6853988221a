"""Dense float32 tensors, a SplitMix64 PRNG, and the layer ops for staged CNNs.

Tensors are float32 numpy arrays of rank <= 4, NCHW shape for images. The ops take operands in
any memory order, and one layout rule holds for their results: a 4-D result is channels-last,
the transpose(0, 3, 1, 2) view of a C-contiguous NHWC array, and every other result is
C-contiguous. No op's values depend on its operands' layout: every layout gets the bits of the
C-order call. Every op here is pure: inputs are never mutated, outputs are fresh arrays, and
the same inputs produce bit-identical outputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ShapeError

REAL = np.float32

_MASK64 = 0xFFFFFFFFFFFFFFFF
_SM64_GOLDEN = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB

# Rng.uniforms works in blocks of this many draws; _GOLDEN_STEPS[i] = (i + 1) * golden mod 2^64
# is a block's counter offsets (256 KB). The uint64 scalars keep numpy 1.x's value-based
# casting from turning uint64-with-Python-int arithmetic into float64.
_UNIFORM_BLOCK = 1 << 15
_GOLDEN_STEPS = np.uint64(_SM64_GOLDEN) * np.arange(1, _UNIFORM_BLOCK + 1, dtype=np.uint64)
_U11, _U27, _U30, _U31 = (np.uint64(s) for s in (11, 27, 30, 31))
_U_MIX1, _U_MIX2 = np.uint64(_SM64_MIX1), np.uint64(_SM64_MIX2)


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
        """The next n draws as a float64 array, bit-equal to n next_uniform() calls. Draws are
        made _UNIFORM_BLOCK at a time, so a block's passes stay in cache and a call holds its
        result plus a few block-sized temporaries."""
        if n < 0:
            raise DomainError(f"draw count must be nonnegative, got {n}")
        out = np.empty(n, dtype=np.float64)
        for lo in range(0, n, _UNIFORM_BLOCK):
            z = _GOLDEN_STEPS[: n - lo] + np.uint64(self._state)  # the state after each draw
            self._state = (self._state + z.size * _SM64_GOLDEN) & _MASK64
            z ^= z >> _U30
            z *= _U_MIX1
            z ^= z >> _U27
            z *= _U_MIX2
            z ^= z >> _U31
            np.multiply(z >> _U11, 2.0**-53, out[lo : lo + z.size])
        return out


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
    """float32 x of the given rank (else a ShapeError). A 4-D x keeps its layout, which the 4-D ops
    read with the C-order bits; other ranks come C-contiguous, since a GEMM's or a row sum's
    summation order follows its operands' memory."""
    arr = _real(x, what)
    if arr.ndim != rank:
        raise ShapeError(f"{what} must have rank {rank}, got shape {arr.shape}")
    return arr if rank == 4 else np.ascontiguousarray(arr)


def _real(x: np.ndarray, what: str) -> np.ndarray:
    """x as float32; a DomainError names what, its shape and its first finite value beyond
    float32 as given, if a wider float x holds one. A float32 x passes as it is."""
    given = np.asarray(x)
    if given.dtype == REAL:
        return given
    with np.errstate(over="ignore"):  # a value beyond float32 casts to inf, named below as given
        arr = given.astype(REAL)
    if given.dtype.kind == "f" and given.dtype.itemsize > 4:  # only a wider float can overflow the cast
        beyond = np.isinf(arr) & np.isfinite(given)
        if beyond.any():
            i = int(beyond.argmax())
            raise DomainError(f"{what} {arr.shape} has {np.count_nonzero(beyond)} elements beyond float32, "
                              f"first {given.flat[i]} at flat index {i}")
    return arr


def _finite(what: str, a: np.ndarray) -> np.ndarray:
    """a, or a DomainError naming what, a's shape and its first non-finite element by C-order flat
    index, in the form of an activation site's message."""
    ok = np.isfinite(a)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        i = int(bad[0])
        raise DomainError(f"{what} {a.shape} has {bad.size} non-finite elements, first {a.flat[i]} at flat index {i}")
    return a


def _is_integer(value: object) -> bool:  # a stride's or pool size's type: a Python or numpy int, no bool
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# Bytes of patch matrix that conv2d_forward builds per batch slice: about one core's L2.
_SLICE_PATCH_BYTES = 2 << 20


def _conv_operands(x: np.ndarray, weights: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The conv rules both directions share: x NCHW with channels, height and width >= 1 (a
    batch of zero images is fine), weights (out_ch >= 1, in_ch, K, K) with K odd and in_ch
    matching x, stride an integer >= 1. Returns float32 x and weights and the output's Ho, Wo."""
    x = _as_real(x, 4, "conv input")
    w = _as_real(weights, 4, "conv weights")
    _, c, h, wid = x.shape
    o, i, k, k2 = w.shape
    if k != k2 or k % 2 == 0:
        raise ShapeError(f"kernel must be square with odd size, got {k}x{k2}")
    if i != c:
        raise ShapeError(f"weight input channels {i} != input channels {c}")
    if 0 in x.shape[1:]:
        raise ShapeError(f"conv input needs channels, height and width >= 1, got shape {x.shape}")
    if o == 0:
        raise ShapeError(f"conv weights need output channels >= 1, got shape {w.shape}")
    if not _is_integer(stride):
        raise DomainError(f"stride must be an integer, got {stride!r}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    return x, w, -(-h // stride), -(-wid // stride)


def conv2d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, stride: int) -> np.ndarray:
    """Cross-correlation with 'same' zero padding, then striding.

    x is NCHW, weights are (out_ch, in_ch, K, K) with K odd, bias is (out_ch,).
    Output spatial dims are ceil(H/stride) x ceil(W/stride); the output is channels-last.

    The forward is one GEMM per batch slice: the batch is cut into the fewest
    slices of whole images whose channels-innermost (rows, K*K*C) patch matrix
    stays under _SLICE_PATCH_BYTES (one image per slice if a single image is
    larger), with image counts that differ by at most one. Each GEMM writes its rows
    of the NHWC output in place, so every output is the same dot product over the
    same K*K*C columns as in one whole-batch GEMM, bit for bit. Near-equal slices
    each hold about half the limit or more, which keeps them clear of the
    small-matrix kernels (another summation order) that BLAS may pick for tiny
    GEMMs; a lone last image could fall into them. The output is the NHWC array the
    GEMMs write; the patches are copied from x in any layout, with no transposing copy
    of a channels-last x, and the same bits for every layout.
    """
    x, w, ho, wo = _conv_operands(x, weights, stride)
    b = _as_real(bias, 1, "conv bias")
    n, c = x.shape[:2]
    o, _, k, _ = w.shape
    if b.shape[0] != o:
        raise ShapeError(f"bias length {b.shape[0]} != output channels {o}")
    x_nhwc = x.transpose(0, 2, 3, 1)
    w_mat = w.transpose(0, 2, 3, 1).reshape(o, -1).T
    out = np.empty((n, ho, wo, o), dtype=REAL)
    per_slice = max(1, _SLICE_PATCH_BYTES // (ho * wo * k * k * c * out.itemsize))
    slices = -(-n // per_slice)
    for j in range(slices):
        lo, hi = n * j // slices, n * (j + 1) // slices
        out_rows = out[lo:hi].reshape(-1, o)
        np.matmul(_patches(x_nhwc[lo:hi], k, stride), w_mat, out=out_rows)
        out_rows += b
    return out.transpose(0, 3, 1, 2)


def _patches(x_nhwc: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Patch matrix (N*Ho*Wo, K*K*C) of a same-padded strided window, channels innermost."""
    n, h, w, c = x_nhwc.shape
    pad = (k - 1) // 2
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=REAL)
    xp[:, pad : pad + h, pad : pad + w] = x_nhwc
    return _windows(xp, 0, 0, -(-h // stride), -(-w // stride), k, k, stride)


def _windows(xp: np.ndarray, y0: int, x0: int, rows: int, cols: int, ky: int, kx: int, stride: int) -> np.ndarray:
    """Patch matrix (N*rows*cols, ky*kx*C) of C-contiguous NHWC xp, channels innermost: row (i, j)
    of an image is its ky x kx window at (y0 + stride*i, x0 + stride*j), copied from one view."""
    n, _, _, c = xp.shape
    s0, s1, s2, s3 = xp.strides
    view = np.ndarray(
        (n, rows, cols, ky, kx, c), REAL, xp, y0 * s1 + x0 * s2, (s0, stride * s1, stride * s2, s1, s2, s3)
    )
    return view.reshape(-1, ky * kx * c)


def conv2d_backward(
    x: np.ndarray, weights: np.ndarray, upstream: np.ndarray, stride: int, *, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Exact gradients of conv2d_forward: (grad_input, grad_weights, grad_bias).

    grad_weights is upstream^T @ patches(x). grad_input is split into the stride^2
    sub-pixel phases (py, px): with pad = (K - 1) / 2, the input rows and columns
    congruent to (py, px) mod stride see only the kernel taps congruent to
    (py + pad, px + pad) mod stride. So each phase is a stride-1 correlation of the
    upstream with that sub-kernel, rotated 180 degrees with its in/out channels
    swapped, written to grad_input[:, :, py::stride, px::stride]. A phase with no
    taps (K < stride) gets zeros. grad_input is channels-last, and grad_bias sums
    the upstream in C order, whatever its layout. With input_grad=False
    grad_input is None and not computed. It rejects exactly the x, weights and
    stride that conv2d_forward rejects, with the same errors, and an upstream not
    shaped like that forward's output.
    """
    x, w, ho, wo = _conv_operands(x, weights, stride)
    up = _as_real(upstream, 4, "conv upstream")
    n, c, h, wid = x.shape
    o, _, k, _ = w.shape
    if up.shape != (n, o, ho, wo):
        raise ShapeError(f"upstream shape {up.shape} != forward output shape {(n, o, ho, wo)}")

    up_nhwc = up.transpose(0, 2, 3, 1)
    # A C-order copy's sum: summing the NHWC rows skips the copy but takes ~2x as long over a mini-x3d
    # step (at 8-16 channels up to ~4x; see CHANGES.md), and would change grad_b's bits.
    grad_b = np.ascontiguousarray(up).sum(axis=(0, 2, 3))
    grad_w = up_nhwc.reshape(-1, o).T @ _patches(x.transpose(0, 2, 3, 1), k, stride)  # patches(x) freed here
    grad_w = np.ascontiguousarray(grad_w.reshape(o, k, k, c).transpose(0, 3, 1, 2))
    if not input_grad:
        return None, grad_w, grad_b

    # With (qy, ry) = divmod(py + pad, stride), input row py + stride*j takes tap
    # ry + stride*t from upstream row j + qy - t, so no phase reads more than e rows
    # past either edge of the upstream.
    pad = (k - 1) // 2
    e = -(-pad // stride)
    up_pad = np.zeros((n, ho + 2 * e, wo + 2 * e, o), dtype=REAL)
    up_pad[:, e : e + ho, e : e + wo] = up_nhwc
    grad_x = np.zeros((n, h, wid, c), dtype=REAL)
    for py in range(stride):
        qy, ry = divmod(py + pad, stride)
        for px in range(stride):
            qx, rx = divmod(px + pad, stride)
            w_sub = w[:, :, ry::stride, rx::stride]
            _, _, ty, tx = w_sub.shape
            jy, jx = len(range(py, h, stride)), len(range(px, wid, stride))
            if not (n and ty and tx and jy and jx):  # (an empty up_pad takes no view offset)
                continue
            patches = _windows(up_pad, e + qy - ty + 1, e + qx - tx + 1, jy, jx, ty, tx, 1)
            w_flip = w_sub[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(ty * tx * o, c)
            grad_x[:, py::stride, px::stride] = (patches @ w_flip).reshape(n, jy, jx, c)
    return grad_x.transpose(0, 3, 1, 2), grad_w, grad_b


def _dense_operands(x: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float32 x (N,F) and weights (F,G), the rules both dense directions share."""
    x = _as_real(x, 2, "dense input")
    w = _as_real(weights, 2, "dense weights")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"input features {x.shape[1]} != weight rows {w.shape[0]}")
    return x, w


def dense_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Affine map: (N,F) @ (F,G) + (G,)."""
    x, w = _dense_operands(x, weights)
    b = _as_real(bias, 1, "dense bias")
    if b.shape[0] != w.shape[1]:
        raise ShapeError(f"bias length {b.shape[0]} != weight cols {w.shape[1]}")
    return np.ascontiguousarray(x @ w + b)


def dense_backward(
    x: np.ndarray, weights: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of dense_forward: (grad_input, grad_weights, grad_bias). It rejects
    exactly the x and weights that dense_forward rejects, with the same errors, and an
    upstream not shaped like that forward's output."""
    x, w = _dense_operands(x, weights)
    up = _as_real(upstream, 2, "dense upstream")
    if up.shape != (x.shape[0], w.shape[1]):
        raise ShapeError(f"upstream shape {up.shape} != output shape {(x.shape[0], w.shape[1])}")
    return (
        np.ascontiguousarray(up @ w.T),
        np.ascontiguousarray(x.T @ up),
        np.ascontiguousarray(up.sum(axis=0)),
    )


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over the spatial dims (each >= 1): NCHW -> (N, C), summed in C order whatever x's layout."""
    # A C-order copy's mean: the NHWC mean saves only ~10-20 us a call, and changes bits.
    x = np.ascontiguousarray(_as_real(x, 4, "pool input"))
    if 0 in x.shape[2:]:
        raise ShapeError(f"pool input needs height and width >= 1, got shape {x.shape}")
    return np.ascontiguousarray(x.mean(axis=(2, 3), dtype=REAL))


def global_avg_pool_backward(upstream: np.ndarray, height: int, width: int) -> np.ndarray:
    """Spread each (N, C) gradient uniformly over height x width positions (integers >= 1), channels-last."""
    up = _as_real(upstream, 2, "pool upstream")
    if not (_is_integer(height) and _is_integer(width)) or height < 1 or width < 1:
        raise ShapeError(f"bad spatial dims {height}x{width}")
    scale = REAL(1.0 / (height * width))
    n, c = up.shape
    grad = np.ascontiguousarray(np.broadcast_to((up * scale)[:, None, None, :], (n, height, width, c)))
    return grad.transpose(0, 3, 1, 2)


def check_integer_labels(labels: np.ndarray, what: str, unit: str) -> None:
    """Raise DomainError naming the first label that is fractional, NaN or infinite, e.g.
    "truth labels must be integers, got 0.5 at frame 3", or a dtype neither integer nor float
    ("labels must be integers, got dtype bool"). An integer dtype passes without a scan."""
    if labels.dtype.kind in "iu":
        return
    if labels.dtype.kind != "f":
        raise DomainError(f"{what} must be integers, got dtype {labels.dtype}")
    whole = np.isfinite(labels) & (labels == np.trunc(labels))
    if not whole.all():
        i = int(np.argmin(whole))
        raise DomainError(f"{what} must be integers, got {labels[i]} at {unit} {i}")


def class_labels(labels: np.ndarray, n: int, c: int, what: str = "labels", unit: str = "index") -> np.ndarray:
    """labels as int64 class indices for n rows of c classes: a ShapeError unless the shape
    is (n,), a DomainError naming the first label that is fractional, NaN or infinite or
    outside [0, c), e.g. "truth labels must lie in [0, 2), got 5 at frame 1"."""
    y = np.asarray(labels)
    if y.shape != (n,):
        raise ShapeError(f"{what} shape {y.shape} != ({n},)")
    check_integer_labels(y, what, unit)
    if y.size and (y.min() < 0 or y.max() >= c):
        i = int(((y < 0) | (y >= c)).argmax())
        raise DomainError(f"{what} must lie in [0, {c}), got {y[i]} at {unit} {i}")
    return y.astype(np.int64, copy=False)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy with max-subtraction, plus grad = (softmax - onehot) / N. The labels are
    checked by class_labels; a DomainError names logits with no rows or a non-finite element, and a
    non-finite loss (from finite logits whose row spread passes float32's range)."""
    z = _as_real(logits, 2, "logits")
    n, c = z.shape
    if n == 0:
        raise DomainError(f"cross-entropy needs at least one row of logits, got shape {z.shape}")
    y = class_labels(labels, n, c)
    _finite("logits", z)
    with np.errstate(over="ignore"):  # a spread past float32 gives an infinite loss, named below
        zs = z - z.max(axis=1, keepdims=True)
    ez = np.exp(zs)
    denom = ez.sum(axis=1, keepdims=True)
    # log-sum-exp form: denom >= 1 because the row max maps to exp(0)
    loss = float(np.mean(np.log(denom[:, 0]) - zs[np.arange(n), y], dtype=np.float64))
    if not math.isfinite(loss):
        raise DomainError(f"loss: cross-entropy {loss} over {n} images is not finite")
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
    (the least name, if several) whose name set or shape disagrees; a DomainError
    names the first whose update is not finite, e.g. "update of head.b (10,) has ..."."""
    for what, other in (("grads", grads), ("velocity", velocity)):
        if other.keys() != params.keys():
            raise ShapeError(f"{what} and params differ at parameter {min(other.keys() ^ params.keys())!r}")
    new_params, new_velocity = {}, {}
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite update is named below
        for name, p in params.items():
            g, v = grads[name], velocity[name]
            if p.shape != g.shape or p.shape != v.shape:
                raise ShapeError(f"parameter {name!r} has mismatched shapes {p.shape}/{g.shape}/{v.shape}")
            new_velocity[name] = nv = REAL(momentum) * v + g
            new_params[name] = _finite(f"update of {name}", p - REAL(lr) * nv)
    return new_params, new_velocity
