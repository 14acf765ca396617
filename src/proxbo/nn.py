"""Minimal dense-tensor layers with explicit reverse-mode gradients.

Just enough machinery for the two regressor architectures: 1D convolution
(stride 1, same padding), rectified-linear, dense layers, mean pooling over
positions and mean-squared-error; the tanh recurrence lives with its
regressor. Every kernel computes in the dtype of its inputs: the ensemble
trains and runs its networks in float32, and the finite-difference gradient
check builds a float64 network.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Mapping, MutableMapping

import numpy as np


def he_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# layers: each forward returns (output, cache); backward takes (cache, dout).
# Every layer also accepts leading axes in front of the shapes given below;
# an ensemble puts its member axis there and runs all members in lockstep.
# Each member's slice goes through the same matrix product as a lone
# network's, so stacking does not change a single bit of the result.

# Two shortcuts in the conv kernels, each giving the bits of the one product
# it replaces. With one thread on its SkylakeX core, OpenBLAS's gemm runs a
# small-matrix kernel while M·N·K <= 100³ and packs its operands above that.
# A row gets the same bits from both kernels, wherever it sits in the
# product, only if the output width N is a multiple of the items in an
# AVX-512 register (8 doubles, 16 floats: `_lanes`) and the depth K is at
# most `_PANEL_K` (the packed kernel sums deeper products in K panels, 384
# deep for doubles and deeper for floats, the small-matrix kernel in one
# pass). Both shortcuts are taken only there, and only on the core these
# rules were measured on (`_VERIFIED_CORE`, read by `blas_core`): OpenBLAS's
# Haswell core, for one, rounds both shortcuts differently from the one
# product. On any other core, and under any other BLAS, every kernel runs
# the one product.
# - Forward row blocks (`_row_blocks`): the layer-1 product of a 64-row
#   minibatch (640 rows, K = 144, N = 16) lies just above the small-matrix
#   limit, and the time per row doubles between 400 and 480 rows. Larger
#   products run in row blocks under the limit, up to `_BLOCKED_WIDTH_MAX`
#   output columns: 640- and 9000-row products at K = 144 and 384 ran up to
#   2x faster in blocks at 16-64 columns, and up to 1.5x slower at 128-256.
# - The input gradient tap by tap (see `stacked_conv1d_backward`).
_SMALL_GEMM_MAX = 100**3
_PANEL_K = 384
_BLOCKED_WIDTH_MAX = 64
_VERIFIED_CORE = "SkylakeX"


def _lanes(dtype) -> int:
    """Items of `dtype` in one AVX-512 register."""
    return 64 // np.dtype(dtype).itemsize


@functools.cache
def blas_core() -> str:
    """The core name numpy's bundled OpenBLAS reports, or "" for any other BLAS.

    Read through `ctypes` on the first call, not at import.
    """
    import ctypes
    import glob

    for path in sorted(glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return ""


def _row_blocks(rows: int, depth: int, width: int, dtype=np.float64) -> int:
    """How many near-equal row blocks a (rows, depth) @ (depth, width) product runs in.

    Each block stays within `_SMALL_GEMM_MAX` multiply-adds. Where a product
    is blocked, that allows 40 rows or more, so every block of a near-equal
    split holds 20 or more: none is a 1-row product, which numpy hands to
    gemv, and gemv rounds differently.
    """
    if width % _lanes(dtype) or width > _BLOCKED_WIDTH_MAX or depth > _PANEL_K:
        return 1
    return -(-rows // (_SMALL_GEMM_MAX // (depth * width)))


def stacked_conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Same-padded 1D convolution via im2col and a (batched) matmul in row blocks.

    x: (..., B, L, Cin); w: (..., k, Cin, Cout) with k odd; b: (..., Cout)
    -> (..., B, L, Cout). An x without the leading axes is shared by every
    stacked filter bank.
    """
    k, cin, cout = w.shape[-3:]
    pad = (k - 1) // 2
    *lead, bsz, l, _ = x.shape
    xp = np.zeros((*lead, bsz, l + 2 * pad, cin), x.dtype)
    xp[..., pad:pad + l, :] = x
    # (..., B, L, k, Cin) windows over the padded positions, copied once into
    # the im2col matrix
    *lead_strides, s_b, s_l, s_c = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (*lead, bsz, l, k, cin), (*lead_strides, s_b, s_l, s_l, s_c), writeable=False)
    rows = bsz * l
    col = win.reshape(*lead, rows, k * cin)
    w2 = w.reshape(*w.shape[:-3], k * cin, cout)
    dtype = np.result_type(col, w2)
    blocks = _row_blocks(rows, k * cin, cout, dtype) if blas_core() == _VERIFIED_CORE else 1
    if blocks <= 1:
        out = col @ w2
    else:
        out = np.empty(np.broadcast_shapes(col.shape[:-2], w2.shape[:-2]) + (rows, cout), dtype)
        for i in range(blocks):
            r0, r1 = i * rows // blocks, (i + 1) * rows // blocks
            np.matmul(col[..., r0:r1, :], w2, out=out[..., r0:r1, :])
    out += b[..., None, :]
    return out.reshape(*out.shape[:-2], bsz, l, cout), (col, w, (bsz, l))


def stacked_conv1d_backward(cache, dout: np.ndarray, need_dx: bool = True,
                            dw: np.ndarray | None = None, db: np.ndarray | None = None):
    """Gradients (dx, dw, db) of `stacked_conv1d_forward`; dx is None unless `need_dx`.

    `dw` and `db`, when given, are C-contiguous arrays the gradients are
    written into (an arena's views); otherwise they are allocated.
    """
    col, w, (bsz, l) = cache
    k, cin, cout = w.shape[-3:]
    pad = (k - 1) // 2
    lead = dout.shape[:-3]
    dout2 = dout.reshape(*lead, bsz * l, cout)
    dw2 = None if dw is None else dw.reshape(*lead, k * cin, cout)
    dw = np.matmul(np.swapaxes(col, -1, -2), dout2, out=dw2).reshape(*lead, k, cin, cout)
    db = np.sum(dout2, axis=-2, out=db)
    if not need_dx:
        return None, dw, db
    wt = np.ascontiguousarray(np.swapaxes(w, -1, -2))  # (..., k, Cout, Cin)
    # Both ways below sum each input position's taps in ascending order from
    # zero, as a scatter onto the padded input would, and each tap's product
    # is the same K = Cout dot product: where the shortcut is taken (see
    # the note above) they give the same bits.
    dtype = np.result_type(dout, wt)
    if (cin % _lanes(dtype) or cout > _PANEL_K or bsz == 1
            or blas_core() != _VERIFIED_CORE):
        # one product for every tap, padding included: tap-major window
        # gradients (..., k, B, L, Cin), each tap's block added onto the input
        # positions its outputs read. A lone sequence never goes tap by tap:
        # a one-position block would be a 1-row product.
        dcol = (dout2[..., None, :, :] @ wt).reshape(*lead, k, bsz, l, cin)
        dx = np.zeros((*lead, bsz, l, cin), dtype)
        for j in range(k):
            lo, hi = max(0, j - pad), min(l, l + j - pad)
            if lo < hi:
                dx[..., lo:hi, :] += dcol[..., j, :, lo + pad - j:hi + pad - j, :]
        return dx, dw, db
    # tap by tap in position-major (..., L*B, C) layouts, where the B rows of a
    # run of positions are contiguous: tap j multiplies only the outputs that
    # read real input
    rows = bsz * l
    dpos = np.swapaxes(dout, -3, -2).reshape(*lead, rows, cout)
    dx = np.zeros((*lead, rows, cin), dtype)
    for j in range(k):
        # output rows [lo, hi) read input rows [lo + s, hi + s)
        lo, hi = max(0, pad - j) * bsz, min(l, l + pad - j) * bsz
        if lo < hi:
            s = (j - pad) * bsz
            dx[..., lo + s:hi + s, :] += dpos[..., lo:hi, :] @ wt[..., j, :, :]
    return np.swapaxes(dx.reshape(*lead, l, bsz, cin), -3, -2), dw, db


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """One network's convolution: x (B, L, Cin), w (k, Cin, Cout), b (Cout,)."""
    return stacked_conv1d_forward(x, w, b)


def conv1d_backward(cache, dout: np.ndarray):
    """Gradients (dx, dw, db) of `conv1d_forward`."""
    return stacked_conv1d_backward(cache, dout)


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (..., B, Din); w: (..., Din, Dout); b: (..., Dout) -> (..., B, Dout)."""
    out = x @ w
    out += b[..., None, :]
    return out, (x, w)


def dense_backward(cache, dout: np.ndarray, dw: np.ndarray | None = None,
                   db: np.ndarray | None = None):
    """(dx, dw, db); `dw` and `db`, when given, are the arrays written into."""
    x, w = cache
    dw = np.matmul(np.swapaxes(x, -1, -2), dout, out=dw)
    db = np.sum(dout, axis=-2, out=db)
    return dout @ np.swapaxes(w, -1, -2), dw, db


def relu_forward(x: np.ndarray):
    """(max(x, 0), mask x > 0); overwrites x with the output, so pass a fresh array."""
    mask = x > 0.0
    return np.maximum(x, 0.0, out=x), mask


def relu_backward(cache, dout: np.ndarray):
    return dout * cache


def mean_pool_forward(x: np.ndarray):
    """Mean over the position axis: (..., B, L, C) -> (..., B, C)."""
    return x.mean(axis=-2), x.shape


def mse_forward(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over the last axis: a scalar for (B,), one per row for (M, B)."""
    diff = pred - target
    return np.mean(diff * diff, axis=-1), diff


def mse_backward(cache: np.ndarray):
    diff = cache
    return 2.0 * diff / diff.shape[-1]


class Arena(MutableMapping):
    """Named arrays of one dtype laid out back to back in one flat buffer.

    `flat` is the buffer and each entry is a C-contiguous view of its slice,
    in `layout` order, so one ufunc call over `flat` acts on every entry.
    Entries are never rebound: assigning one casts the value to the arena's
    dtype and copies it into its view (the shapes must match), and deleting
    one is an error.
    """

    def __init__(self, shapes: Mapping[str, tuple[int, ...]], dtype=np.float64):
        self.layout = tuple((name, tuple(shape)) for name, shape in shapes.items())
        self.flat = np.zeros(sum(math.prod(shape) for _, shape in self.layout), dtype)
        self._bind()

    @classmethod
    def like(cls, arrays: Mapping[str, np.ndarray]) -> "Arena":
        """A zero-filled arena with the names and shapes of `arrays`, in their common dtype."""
        return cls({name: arr.shape for name, arr in arrays.items()},
                   np.result_type(*arrays.values()))

    def _bind(self) -> None:
        self._views = {}
        start = 0
        for name, shape in self.layout:
            size = math.prod(shape)
            self._views[name] = self.flat[start:start + size].reshape(shape)
            start += size

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        view = self._views[name]
        if np.shape(value) != view.shape:
            raise ValueError(f"{name}: shape {np.shape(value)} does not match {view.shape}")
        view[...] = value

    def __delitem__(self, name: str) -> None:
        raise TypeError("arena entries cannot be deleted")

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    # copies and pickles carry the buffer; the views are rebuilt over it
    def __getstate__(self):
        return {"layout": self.layout, "flat": self.flat}

    def __setstate__(self, state) -> None:
        self.layout, self.flat = state["layout"], state["flat"]
        self._bind()


class Adam:
    """Adaptive moment estimation over a dict of parameter arrays.

    The update is elementwise, so one optimizer over stacked parameters steps
    every member exactly as separate per-member optimizers would.

    The moments `m` and `v` are arenas with the parameters' layout and
    dtype, and the two work arrays are flat buffers of the same size and
    dtype. When `step` gets its parameters and gradients as two arenas of
    that layout, it runs its operations once over the flat buffers, whatever
    the number of entries; given plain dicts, it runs them once per gradient
    entry, on views of the work buffers. Either way `step` updates the
    moments and the parameters in place, in this order of operations:

        m = b1*m + (1-b1)*g
        v = b2*v + ((1-b2)*g)*g
        p -= lr*(m/bias1) / (sqrt(v/bias2) + eps)

    Every operation rounds as the same out-of-place expression does, so the
    result equals the allocating textbook update bit for bit.
    """

    def __init__(self, params: Mapping[str, np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = Arena.like(params)
        self.v = Arena.like(params)
        self._work = (np.empty_like(self.m.flat), np.empty_like(self.m.flat))

    def step(self, params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        a, b = self._work
        if (isinstance(params, Arena) and isinstance(grads, Arena)
                and params.layout == grads.layout == self.m.layout):
            self._update(params.flat, grads.flat, self.m.flat, self.v.flat, a, b, bias1, bias2)
            return
        for k, g in grads.items():
            self._update(params[k], g, self.m[k], self.v[k], a[:g.size].reshape(g.shape),
                         b[:g.size].reshape(g.shape), bias1, bias2)

    def _update(self, p, g, m, v, a, b, bias1: float, bias2: float) -> None:
        b1, b2 = self.beta1, self.beta2
        m *= b1
        m += np.multiply(1.0 - b1, g, out=a)
        v *= b2
        np.multiply(1.0 - b2, g, out=a)
        a *= g
        v += a
        np.divide(v, bias2, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, bias1, out=b)
        b *= self.lr
        b /= a
        p -= b
