"""Minimal dense-tensor layers with explicit reverse-mode gradients.

Just enough machinery for the two regressor architectures: 1D convolution
(stride 1, same padding), rectified-linear, dense layers, mean pooling over
positions and mean-squared-error; the tanh recurrence lives with its
regressor. Everything is float64.
"""

from __future__ import annotations

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


def stacked_conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """Same-padded 1D convolution via im2col and a single (batched) matmul.

    x: (..., B, L, Cin); w: (..., k, Cin, Cout) with k odd; b: (..., Cout)
    -> (..., B, L, Cout). An x without the leading axes is shared by every
    stacked filter bank.
    """
    k, cin, cout = w.shape[-3:]
    pad = (k - 1) // 2
    *lead, bsz, l, _ = x.shape
    xp = np.pad(x, [(0, 0)] * len(lead) + [(0, 0), (pad, pad), (0, 0)])
    # (..., B, L, k, Cin) windows flattened to an im2col matrix
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=-2)  # (..., B, L, Cin, k)
    col = np.swapaxes(win, -1, -2).reshape(*lead, bsz * l, k * cin)
    out = col @ w.reshape(*w.shape[:-3], k * cin, cout) + b[..., None, :]
    return out.reshape(*out.shape[:-2], bsz, l, cout), (col, w, (bsz, l))


def stacked_conv1d_backward(cache, dout: np.ndarray, need_dx: bool = True):
    """Gradients (dx, dw, db) of `stacked_conv1d_forward`; dx is None unless `need_dx`."""
    col, w, (bsz, l) = cache
    k, cin, cout = w.shape[-3:]
    pad = (k - 1) // 2
    dout2 = dout.reshape(*dout.shape[:-3], bsz * l, cout)
    dw = (np.swapaxes(col, -1, -2) @ dout2).reshape(*dout.shape[:-3], k, cin, cout)
    db = dout2.sum(axis=-2)
    if not need_dx:
        return None, dw, db
    w2 = w.reshape(*w.shape[:-3], k * cin, cout)
    dcol = (dout2 @ np.swapaxes(w2, -1, -2)).reshape(*dout.shape[:-3], bsz, l, k, cin)
    # scatter the window gradients back onto the padded input
    dxp = np.zeros((*dout.shape[:-3], bsz, l + 2 * pad, cin))
    for j in range(k):
        dxp[..., j:j + l, :] += dcol[..., j, :]
    return dxp[..., pad:pad + l, :], dw, db


def conv1d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """One network's convolution: x (B, L, Cin), w (k, Cin, Cout), b (Cout,)."""
    return stacked_conv1d_forward(x, w, b)


def conv1d_backward(cache, dout: np.ndarray):
    """Gradients (dx, dw, db) of `conv1d_forward`."""
    return stacked_conv1d_backward(cache, dout)


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x: (..., B, Din); w: (..., Din, Dout); b: (..., Dout) -> (..., B, Dout)."""
    return x @ w + b[..., None, :], (x, w)


def dense_backward(cache, dout: np.ndarray):
    x, w = cache
    dw = np.swapaxes(x, -1, -2) @ dout
    db = dout.sum(axis=-2)
    return dout @ np.swapaxes(w, -1, -2), dw, db


def relu_forward(x: np.ndarray):
    out = np.maximum(x, 0.0)
    return out, (x > 0.0)


def relu_backward(cache, dout: np.ndarray):
    return dout * cache


def mean_pool_forward(x: np.ndarray):
    """Mean over the position axis: (..., B, L, C) -> (..., B, C)."""
    return x.mean(axis=-2), x.shape


def mean_pool_backward(cache, dout: np.ndarray):
    shape = cache
    return np.broadcast_to(dout[..., None, :] / shape[-2], shape).copy()


def mse_forward(pred: np.ndarray, target: np.ndarray):
    """Mean squared error over the last axis: a scalar for (B,), one per row for (M, B)."""
    diff = pred - target
    return np.mean(diff * diff, axis=-1), diff


def mse_backward(cache: np.ndarray):
    diff = cache
    return 2.0 * diff / diff.shape[-1]


class Adam:
    """Adaptive moment estimation over a dict of parameter arrays.

    The update is elementwise, so one optimizer over stacked parameters steps
    every member exactly as separate per-member optimizers would.

    `step` updates the moments and the parameters in place, through two work
    arrays per parameter allocated once, in this order of operations:

        m = b1*m + (1-b1)*g
        v = b2*v + ((1-b2)*g)*g
        p -= lr*(m/bias1) / (sqrt(v/bias2) + eps)

    Every operation rounds as the same out-of-place expression does, so the
    result equals the allocating textbook update bit for bit.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._work = {k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for k, g in grads.items():
            m, v = self.m[k], self.v[k]
            a, b = self._work[k]
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
            params[k] -= b
