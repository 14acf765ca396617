"""The position-major recurrence against the batch-major oracle (tests/recurrent_oracle.py).

`RecurrentRegressor._body` and `_body_backward` read one contiguous (B, V)
block per position where the oracle reads a strided one, and run the same
products in the same order: the final hidden state and every gradient must
equal the oracle's bit for bit. The shapes are the benchmark's recurrent
fits: 5 stacked members, L = 4, V = 20, h = 64, and every minibatch size
that a fit at minibatch 64 on 17, 33, 49, 65, ... rows (16 more each
round) takes.
"""

import numpy as np
import pytest

import proxbo.nn as nn
from proxbo.sequences import encode_batch
from proxbo.surrogate import RecurrentRegressor, RecurrentRegressorConfig

import recurrent_oracle

MEMBERS, LENGTH, VOCAB, HIDDEN, ROWS = 5, 4, 20, 64, 64
DTYPES = [np.float32, np.float64]


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _net(dtype):
    rngs = [np.random.default_rng(seed) for seed in range(MEMBERS)]
    return RecurrentRegressor(RecurrentRegressorConfig(hidden_size=HIDDEN), VOCAB, rngs, dtype)


def _one_hot(dtype):
    """(ROWS, L, V) one-hot sequences, batch-major, as `Ensemble.fit` encodes them."""
    codes = np.random.default_rng(1).integers(0, VOCAB, (ROWS, LENGTH)).astype(np.uint8)
    return encode_batch(codes, VOCAB).astype(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", [1, 17, 33, 49, 64])
def test_stacked_minibatch_equals_the_oracle(dtype, batch):
    net, x = _net(dtype), _one_hot(dtype)
    rng = np.random.default_rng(batch)
    rows = rng.integers(0, ROWS, (MEMBERS, batch))  # a bootstrap resample's rows, per member
    hid, cache = net._body(net.take(net.inputs(x), rows))
    want, want_cache = recurrent_oracle.features(net.params, x[rows])
    assert_same_bits(hid, want)

    dh = rng.standard_normal(hid.shape).astype(dtype)
    grads, want_grads = nn.Arena.like(net.params), nn.Arena.like(net.params)
    net._body_backward(cache, dh, grads)
    recurrent_oracle.backward(net.params, want_cache, dh, want_grads)
    for name in ("wx", "wh", "bh"):
        assert_same_bits(grads[name], want_grads[name])


@pytest.mark.parametrize("dtype", DTYPES)
def test_each_member_on_shared_rows_equals_the_oracle(dtype):
    """`Ensemble._design`'s path: one member at a time on input without a member axis."""
    net, x = _net(dtype), _one_hot(dtype)
    inputs = net.inputs(x)
    for m in range(MEMBERS):
        one = net.member(m)
        assert_same_bits(one.last_hidden(inputs), recurrent_oracle.features(one.params, x)[0])
