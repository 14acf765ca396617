"""The copy-light stacked convolution against the pad/sliding-window/scatter code it replaced.

Every comparison is bit for bit: the arrays must have the same bytes, which
also catches a flipped sign of zero.
"""

import itertools

import numpy as np
import pytest

import proxbo.nn as nn

import conv_oracle

# (k, L): L >= k, and L < k (the padding is wider than the sequence)
SIZES = [(1, 1), (1, 5), (3, 2), (3, 7), (9, 4), (9, 10)]
LEADS = [(), (3,), (2, 3)]


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _problem(k, length, cin, lead, shared_x, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((() if shared_x else lead) + (5, length, cin))
    x[x < -0.8] = 0.0  # exact zeros, as after a ReLU
    w = rng.standard_normal(lead + (k, cin, 6))
    b = rng.standard_normal(lead + (6,))
    dout = rng.standard_normal(lead + (5, length, 6))
    dout[dout < -0.5] = -0.0  # signed zeros, as a ReLU mask leaves them
    dout[dout > 1.2] = 0.0
    return x, w, b, dout


@pytest.mark.parametrize("k,length", SIZES)
@pytest.mark.parametrize("cin", [2, 16])
@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("need_dx", [True, False])
def test_matches_oracle_bit_for_bit(k, length, cin, lead, need_dx):
    x, w, b, dout = _problem(k, length, cin, lead, shared_x=False, seed=k * 100 + length + cin)
    out, cache = nn.stacked_conv1d_forward(x, w, b)
    ref_out, ref_cache = conv_oracle.stacked_conv1d_forward(x, w, b)
    assert_same_bits(out, ref_out)
    grads = nn.stacked_conv1d_backward(cache, dout, need_dx=need_dx)
    ref = conv_oracle.stacked_conv1d_backward(ref_cache, dout, need_dx=need_dx)
    if need_dx:
        assert_same_bits(grads[0], ref[0])
    else:
        assert grads[0] is None and ref[0] is None
    assert_same_bits(grads[1], ref[1])
    assert_same_bits(grads[2], ref[2])


@pytest.mark.parametrize("k,length", SIZES)
@pytest.mark.parametrize("lead", LEADS[1:])
def test_shared_input_matches_oracle(k, length, lead):
    """An x without the leading axes, as the first layer gets it, against stacked filters."""
    x, w, b, dout = _problem(k, length, 2, lead, shared_x=True, seed=k + length)
    out, cache = nn.stacked_conv1d_forward(x, w, b)
    ref_out, ref_cache = conv_oracle.stacked_conv1d_forward(x, w, b)
    assert_same_bits(out, ref_out)
    for got, want in zip(nn.stacked_conv1d_backward(cache, dout),
                         conv_oracle.stacked_conv1d_backward(ref_cache, dout)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("lead", LEADS)
def test_gradients_written_into_arena_views(lead):
    """`dw`/`db` given as arena views get the bits of the allocating path."""
    x, w, b, dout = _problem(9, 10, 16, lead, shared_x=False, seed=7)
    _, cache = nn.stacked_conv1d_forward(x, w, b)
    arena = nn.Arena({"b": b.shape, "w": w.shape})
    dx, dw, db = nn.stacked_conv1d_backward(cache, dout, dw=arena["w"], db=arena["b"])
    assert np.shares_memory(dw, arena.flat) and np.shares_memory(db, arena.flat)
    ref = conv_oracle.stacked_conv1d_backward(
        conv_oracle.stacked_conv1d_forward(x, w, b)[1], dout)
    for got, want in zip((dx, arena["w"], arena["b"]), ref):
        assert_same_bits(got, want)


def test_single_network_wrappers_match_oracle():
    x, w, b, dout = _problem(3, 6, 4, (), shared_x=False, seed=3)
    out, cache = nn.conv1d_forward(x, w, b)
    ref_out, ref_cache = conv_oracle.stacked_conv1d_forward(x, w, b)
    assert_same_bits(out, ref_out)
    for got, want in itertools.zip_longest(nn.conv1d_backward(cache, dout),
                                           conv_oracle.stacked_conv1d_backward(ref_cache, dout)):
        assert_same_bits(got, want)


def test_relu_forward_in_place_matches_the_allocating_maximum():
    """The output overwrites x, with the bits of `np.maximum` on a copy, and the mask is x > 0."""
    x = np.array([[1.5, -2.0, 0.0, -0.0], [3e-300, -3e-300, np.inf, -np.inf]])
    ref = x.copy()
    out, mask = nn.relu_forward(x)
    assert out is x
    assert_same_bits(out, np.maximum(ref, 0.0))
    assert_same_bits(mask, ref > 0.0)
