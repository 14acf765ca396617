"""The stacked convolution of release 0.3.0, batch-major: the oracle for the `nn` conv kernels.

`np.pad`, a `sliding_window_view` im2col, one product over every tap, and
a strided scatter of the window gradients onto the padded input, cropped at
the end. Every array is computed in the dtype of the inputs, as the kernels
are.
"""

import numpy as np


def stacked_conv1d_forward(x, w, b):
    k, cin, cout = w.shape[-3:]
    pad = (k - 1) // 2
    *lead, bsz, l, _ = x.shape
    xp = np.pad(x, [(0, 0)] * len(lead) + [(0, 0), (pad, pad), (0, 0)])
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=-2)  # (..., B, L, Cin, k)
    col = np.swapaxes(win, -1, -2).reshape(*lead, bsz * l, k * cin)
    out = col @ w.reshape(*w.shape[:-3], k * cin, cout) + b[..., None, :]
    return out.reshape(*out.shape[:-2], bsz, l, cout), (col, w, (bsz, l))


def stacked_conv1d_backward(cache, dout, need_dx=True):
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
    dxp = np.zeros((*dout.shape[:-3], bsz, l + 2 * pad, cin), dcol.dtype)
    for j in range(k):
        dxp[..., j:j + l, :] += dcol[..., j, :]
    return dxp[..., pad:pad + l, :], dw, db
