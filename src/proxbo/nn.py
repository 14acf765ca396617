"""Minimal dense-tensor layers with explicit reverse-mode gradients.

Just enough machinery for the two regressor architectures: 1D convolution
(stride 1, same padding) in position-major layout, rectified-linear, dense
layers and mean-squared-error; the tanh recurrence and the mean pool live
with their regressors. Every kernel computes in the dtype of its inputs:
the ensemble trains and runs its networks in float32, and the
finite-difference gradient check builds a float64 network. There is one
code path on every BLAS and every CPU.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, MutableMapping

import numpy as np


def he_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# layers: each forward returns (output, cache); backward takes (cache, dout).
# Every layer also accepts leading axes in front of the shapes given below;
# an ensemble puts its member axis there and runs all members in lockstep.
# Each member's slice goes through the same matrix products as a lone
# network's, so stacking does not change a single bit of the result.

# The conv layers run position-major: activations are (..., L, B, C), so
# the B rows of a run of positions are one contiguous block. Tap j of a
# same-padded k-tap conv multiplies only the block of output positions
# whose input position is real, and adds the product onto the output (or,
# for the input gradient, onto the input positions it came from): one
# product per tap, none spent on padding, and no padded or im2col copy. The
# first layer instead reads im2col columns of the one-hot input
# (`conv1d_columns`), built once per input: with few input channels one
# product of depth k*Cin beats k products of depth Cin. The mean pool over
# positions then sums L contiguous (B, C) blocks.


def _taps(k: int, length: int):
    """(j, lo, hi, s) for each tap j that reads real input.

    Output positions [lo, hi) read input positions [lo + s, hi + s) through tap j.
    """
    pad = (k - 1) // 2
    for j in range(k):
        s = j - pad
        lo, hi = max(0, -s), min(length, length - s)
        if lo < hi:
            yield j, lo, hi, s


def conv1d_columns(x: np.ndarray, k: int) -> np.ndarray:
    """Position-major im2col columns of x (..., B, L, Cin) for a same-padded k-tap conv.

    Returns (..., L, B, k*Cin): row (l, b) holds the k input windows of
    sequence b around position l, tap by tap, zero where a tap reads padding.
    In the zero-padded input those k*Cin items lie back to back, so the
    columns are one strided copy.
    """
    *lead, bsz, l, cin = x.shape
    pad = (k - 1) // 2
    xp = np.zeros((*lead, bsz, l + 2 * pad, cin), x.dtype)
    xp[..., pad:pad + l, :] = x
    *lead_strides, s_b, s_l, s_c = xp.strides
    win = np.lib.stride_tricks.as_strided(xp, (*lead, l, bsz, k * cin),
                                          (*lead_strides, s_l, s_b, s_c), writeable=False)
    return win.copy()


def stacked_conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Same-padded 1D convolution in position-major layout.

    x: (..., L, B, Cin) activations, or (..., L, B, k*Cin) columns from
    `conv1d_columns`; w: (..., k, Cin, Cout) with k odd; b: (..., Cout)
    -> (..., L, B, Cout). An x without the leading axes is shared by every
    stacked filter bank. Columns run as one product; activations run one
    product per tap (for k = 1 the two are the same product).
    """
    k, cin, cout = w.shape[-3:]
    *_, l, bsz, width = x.shape
    x2 = x.reshape(*x.shape[:-3], l * bsz, width)
    if width == k * cin:
        out = x2 @ w.reshape(*w.shape[:-3], k * cin, cout)
    else:
        pad = (k - 1) // 2
        out = x2 @ w[..., pad, :, :]  # the centre tap reads real input at every position
        for j, lo, hi, s in _taps(k, l):
            if j != pad:
                out[..., lo * bsz:hi * bsz, :] += (x2[..., (lo + s) * bsz:(hi + s) * bsz, :]
                                                   @ w[..., j, :, :])
    out += b[..., None, :]
    return out.reshape(*out.shape[:-2], l, bsz, cout), (x2, w, (l, bsz))


def stacked_conv1d_backward(cache, dout: np.ndarray, need_dx: bool = True,
                            dw: np.ndarray | None = None, db: np.ndarray | None = None):
    """Gradients (dx, dw, db) of `stacked_conv1d_forward`; dx is None unless `need_dx`.

    dout: (..., L, B, Cout). dx is the gradient w.r.t. activations,
    (..., L, B, Cin); it depends on dout and w only. `dw` and `db`, when
    given, are C-contiguous arrays the gradients are written into (an
    arena's views); otherwise they are allocated.
    """
    x2, w, (l, bsz) = cache
    k, cin, cout = w.shape[-3:]
    lead = dout.shape[:-3]
    rows = l * bsz
    dout2 = dout.reshape(*lead, rows, cout)
    xt = np.swapaxes(x2, -1, -2)
    if x2.shape[-1] == k * cin:
        dw2 = None if dw is None else dw.reshape(*lead, k * cin, cout)
        dw = np.matmul(xt, dout2, out=dw2).reshape(*lead, k, cin, cout)
    else:
        if dw is None:
            dw = np.empty((*lead, k, cin, cout), dout.dtype)
        if l <= (k - 1) // 2:
            dw[...] = 0.0  # the outer taps read padding only: they have no gradient
        for j, lo, hi, s in _taps(k, l):
            np.matmul(xt[..., (lo + s) * bsz:(hi + s) * bsz], dout2[..., lo * bsz:hi * bsz, :],
                      out=dw[..., j, :, :])
    db = np.matmul(np.ones(rows, dout.dtype), dout2, out=db)
    if not need_dx:
        return None, dw, db
    pad = (k - 1) // 2
    wt = np.ascontiguousarray(np.swapaxes(w, -1, -2))  # (..., k, Cout, Cin)
    dx = dout2 @ wt[..., pad, :, :]
    for j, lo, hi, s in _taps(k, l):
        if j != pad:
            dx[..., (lo + s) * bsz:(hi + s) * bsz, :] += (dout2[..., lo * bsz:hi * bsz, :]
                                                          @ wt[..., j, :, :])
    return dx.reshape(*dx.shape[:-2], l, bsz, cin), dw, db


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """One network's convolution, batch-major: x (B, L, Cin), w (k, Cin, Cout), b (Cout,).

    Runs `stacked_conv1d_forward` on the columns of x and returns the
    (B, L, Cout) output and its cache, whose first item is the (L*B, k*Cin)
    column matrix.
    """
    out, cache = stacked_conv1d_forward(conv1d_columns(x, w.shape[0]), w, b)
    return np.swapaxes(out, 0, 1), cache


def conv1d_backward(cache, dout: np.ndarray):
    """Gradients (dx, dw, db) of `conv1d_forward`, with dout and dx batch-major."""
    dx, dw, db = stacked_conv1d_backward(cache, np.ascontiguousarray(np.swapaxes(dout, 0, 1)))
    return np.swapaxes(dx, 0, 1), dw, db


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
