"""The batch-major tanh recurrence: the oracle for `RecurrentRegressor`'s position-major one.

These are the recurrence's forward and backward passes as the regressor ran
them on (..., B, L, V) one-hot input, before both regressors took
position-major input. They read a stacked parameter mapping (`wx`, `wh`,
`bh`, each with a leading member axis), not a network, and run the same
products in the same order as `RecurrentRegressor._body` and
`_body_backward`, so the two agree bit for bit.
"""

import numpy as np


def features(params, x):
    """(M, B, h) final hidden state of batch-major one-hot x (..., B, L, V), and the cache."""
    wx, wh, bh = params["wx"], params["wh"], params["bh"]
    hs = [np.zeros((len(wx), x.shape[-3], wh.shape[-1]), np.result_type(x, wx))]
    for t in range(x.shape[-2]):
        a = x[..., t, :] @ wx
        if t:  # the initial state is zero: no product with it
            a += hs[-1] @ wh
        hs.append(np.tanh(a + bh[:, None, :]))
    return hs[-1], (x, hs)


def backward(params, cache, dh, grads):
    """Write the gradients of `wx`, `wh` and `bh` into `grads`, summed over positions."""
    x, hs = cache
    wh = params["wh"]
    gwx, gwh, gbh = grads["wx"], grads["wh"], grads["bh"]
    for g in (gwx, gwh, gbh):
        g.fill(0.0)
    for t in reversed(range(x.shape[-2])):
        da = dh * (1.0 - hs[t + 1] ** 2)  # through tanh
        gwx += np.swapaxes(x[..., t, :], -1, -2) @ da
        gbh += da.sum(axis=-2)
        if t:  # the initial state is a zero constant: no product with it
            gwh += np.swapaxes(hs[t], -1, -2) @ da
            dh = da @ np.swapaxes(wh, -1, -2)
