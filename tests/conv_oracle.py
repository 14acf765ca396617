"""The stacked convolution as it was written before the copy-light kernels: the oracle for them.

`nn.stacked_conv1d_forward` now builds its padded input in a zeroed buffer
and reads its windows through `as_strided`, and `nn.stacked_conv1d_backward`
computes the input gradient tap by tap and adds each tap's block straight
onto the input positions. This is the code they replaced: `np.pad`, a
`sliding_window_view` im2col, and a strided scatter of the window
gradients onto the padded input, cropped at the end.

`tap_major_input_gradient` is the input gradient of release 0.3.0: one
product of the output gradient and the contiguous transposed filters for
every tap, scattered tap by tap. At widths where the oracle's single product
rounds differently from both (see `test_input_gradient_keeps_0_3_0_bits`),
it is the reference.

Every array is computed in the dtype of the inputs, as the kernels are.
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


def tap_major_input_gradient(cache, dout):
    col, w, (bsz, l) = cache
    k, cin, cout = w.shape[-3:]
    pad = (k - 1) // 2
    lead = dout.shape[:-3]
    wt = np.ascontiguousarray(np.swapaxes(w, -1, -2))
    dcol = (dout.reshape(*lead, 1, bsz * l, cout) @ wt).reshape(*lead, k, bsz, l, cin)
    dx = np.zeros((*lead, bsz, l, cin), dcol.dtype)
    for j in range(k):
        lo, hi = max(0, j - pad), min(l, l + j - pad)
        if lo < hi:
            dx[..., lo:hi, :] += dcol[..., j, :, lo + pad - j:hi + pad - j, :]
    return dx
