"""The position-major conv kernels against release 0.3.0's im2col product (tests/conv_oracle.py).

The kernels take one product per tap where the oracle takes one product
over every tap, so a sum runs in another order: outputs and gradients must
agree with the oracle's to 1e-12 (float64) or 1e-5 (float32) of the largest
magnitude in the oracle's array. The oracle works batch-major, (..., B, L, C);
the kernels position-major, (..., L, B, C).
"""

import itertools

import numpy as np
import pytest

import proxbo.nn as nn

import conv_oracle

# (k, L): L >= k, L < k, and L <= (k - 1) / 2, where the outer taps read only padding
SIZES = [(1, 1), (1, 5), (3, 1), (3, 2), (3, 7), (9, 3), (9, 4), (9, 10)]
LEADS = [(), (3,), (2, 3)]
DTYPES = [np.float64, np.float32]
TOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-5}


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_close(got, want):
    """Same shape and dtype; every entry within the dtype's tolerance of the oracle's scale."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    err = np.abs(got.astype(np.float64) - want).max(initial=0.0)
    assert err <= TOL[want.dtype] * np.abs(want).max(initial=0.0), err


def position_major(a):
    return np.ascontiguousarray(np.swapaxes(a, -3, -2))


def _problem(k, length, cin, lead, shared_x, seed, bsz=5, cout=6, dtype=np.float64):
    """(x, w, b, dout) in `dtype`, batch-major, drawn in float64 and cast."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((() if shared_x else lead) + (bsz, length, cin))
    x[x < -0.8] = 0.0  # exact zeros, as after a ReLU
    w = rng.standard_normal(lead + (k, cin, cout))
    b = rng.standard_normal(lead + (cout,))
    dout = rng.standard_normal(lead + (bsz, length, cout))
    dout[dout < -0.5] = -0.0  # signed zeros, as a ReLU mask leaves them
    dout[dout > 1.2] = 0.0
    return tuple(a.astype(dtype) for a in (x, w, b, dout))


def check_against_oracle(x, w, b, dout, columns, need_dx=True):
    """Run the kernels on activations or on columns of x, and compare them with the oracle."""
    xin = nn.conv1d_columns(x, w.shape[-3]) if columns else position_major(x)
    out, cache = nn.stacked_conv1d_forward(xin, w, b)
    dx, dw, db = nn.stacked_conv1d_backward(cache, position_major(dout), need_dx=need_dx)
    ref_out, ref_cache = conv_oracle.stacked_conv1d_forward(x, w, b)
    ref_dx, ref_dw, ref_db = conv_oracle.stacked_conv1d_backward(ref_cache, dout,
                                                                 need_dx=need_dx)
    assert_close(np.swapaxes(out, -3, -2), ref_out)
    assert_close(dw, ref_dw)
    assert_close(db, ref_db)
    if need_dx:
        assert_close(np.swapaxes(dx, -3, -2), ref_dx)
    else:
        assert dx is None and ref_dx is None


@pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
@pytest.mark.parametrize("columns", [False, True], ids=["taps", "columns"])
@pytest.mark.parametrize("k,length", SIZES)
@pytest.mark.parametrize("cin", [2, 16])
@pytest.mark.parametrize("lead", LEADS)
@pytest.mark.parametrize("need_dx", [True, False])
def test_matches_oracle(k, length, cin, lead, need_dx, columns, dtype):
    x, w, b, dout = _problem(k, length, cin, lead, shared_x=False,
                             seed=k * 100 + length + cin, dtype=dtype)
    check_against_oracle(x, w, b, dout, columns, need_dx)


@pytest.mark.parametrize("columns", [False, True], ids=["taps", "columns"])
@pytest.mark.parametrize("k,length", SIZES)
@pytest.mark.parametrize("lead", LEADS[1:])
def test_shared_input_matches_oracle(k, length, lead, columns):
    """An x without the leading axes, as the first layer gets it, against stacked filters."""
    x, w, b, dout = _problem(k, length, 2, lead, shared_x=True, seed=k + length)
    check_against_oracle(x, w, b, dout, columns)


# The shapes of a `kg-nk10` campaign (L = 10, 16 -> 16 channels, k = 9, and
# also k = 1 and 3): the 5 members' minibatches of 1, 17, 33, 49 and 64
# sequences, and a 900-sequence pool predicted one member at a time, whose
# first layer reads the columns of the one-hot input shared by the members
# (2 -> 16) and needs no input gradient.
CAMPAIGN_SHAPES = {
    "minibatch-1": ((5,), 1, 16, False),
    "minibatch-17": ((5,), 17, 16, False),
    "minibatch-33": ((5,), 33, 16, False),
    "minibatch-49": ((5,), 49, 16, False),
    "minibatch-64": ((5,), 64, 16, False),
    "minibatch-64-first-layer": ((5,), 64, 2, False),
    "pool-900": ((1,), 900, 16, False),
    "pool-900-first-layer": ((1,), 900, 2, True),
}


@pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
@pytest.mark.parametrize("k", [1, 3, 9])
@pytest.mark.parametrize("lead,bsz,cin,shared_x", CAMPAIGN_SHAPES.values(),
                         ids=CAMPAIGN_SHAPES.keys())
def test_matches_oracle_at_campaign_shapes(lead, bsz, cin, shared_x, k, dtype):
    x, w, b, dout = _problem(k, 10, cin, lead, shared_x, seed=bsz + cin + k, bsz=bsz,
                             cout=16, dtype=dtype)
    first_layer = cin == 2
    check_against_oracle(x, w, b, dout, columns=first_layer, need_dx=not first_layer)


# Narrow inputs into wide outputs, where a single product over every tap
# and one product per tap round differently; deep and wide products; odd
# widths; and sequences shorter than the padding at campaign widths.
@pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
@pytest.mark.parametrize("bsz,length,cin,cout", [
    (33, 10, 1, 16), (33, 10, 2, 16), (33, 10, 3, 16), (33, 10, 4, 16), (64, 10, 1, 32),
    (64, 10, 4, 48), (33, 10, 10, 16), (33, 10, 8, 400), (900, 10, 48, 16),
    (200, 10, 16, 8), (64, 15, 24, 24), (49, 15, 24, 64), (17, 3, 16, 16), (64, 4, 3, 16)])
def test_matches_oracle_at_other_widths(bsz, length, cin, cout, dtype):
    x, w, b, dout = _problem(9, length, cin, (5,), False, seed=cin * cout + length, bsz=bsz,
                             cout=cout, dtype=dtype)
    check_against_oracle(x, w, b, dout, columns=False)


@pytest.mark.parametrize("k,length", SIZES)
@pytest.mark.parametrize("lead", LEADS)
def test_columns_are_the_oracles_im2col_rows(k, length, lead):
    """`conv1d_columns` holds the oracle's im2col rows, position-major, bit for bit."""
    x, w, b, _ = _problem(k, length, 3, lead, shared_x=False, seed=k * length)
    cols = nn.conv1d_columns(x, k)
    ref_col = conv_oracle.stacked_conv1d_forward(x, w, b)[1][0]
    assert_same_bits(np.swapaxes(cols, -3, -2).reshape(ref_col.shape), ref_col)


@pytest.mark.parametrize("columns", [False, True], ids=["taps", "columns"])
@pytest.mark.parametrize("k,length", [(9, 10), (9, 3), (3, 1)])
@pytest.mark.parametrize("lead", LEADS)
def test_gradients_written_into_arena_views(lead, k, length, columns):
    """`dw`/`db` given as dirty arena views get the bits of the allocating path."""
    x, w, b, dout = _problem(k, length, 16, lead, shared_x=False, seed=7)
    xin = nn.conv1d_columns(x, k) if columns else position_major(x)
    _, cache = nn.stacked_conv1d_forward(xin, w, b)
    arena = nn.Arena({"b": b.shape, "w": w.shape})
    arena.flat[:] = np.nan
    dout = position_major(dout)
    dx, dw, db = nn.stacked_conv1d_backward(cache, dout, dw=arena["w"], db=arena["b"])
    assert np.shares_memory(dw, arena.flat) and np.shares_memory(db, arena.flat)
    for got, want in zip((dx, arena["w"], arena["b"]), nn.stacked_conv1d_backward(cache, dout)):
        assert_same_bits(got, want)


def test_single_network_wrappers_match_oracle():
    """Batch-major in and out; the cache starts with the (B*L, k*Cin) column matrix."""
    x, w, b, dout = _problem(3, 6, 4, (), shared_x=False, seed=3)
    out, cache = nn.conv1d_forward(x, w, b)
    col, cache_w, _ = cache
    assert col.shape == (5 * 6, 3 * 4) and cache_w is w
    ref_out, ref_cache = conv_oracle.stacked_conv1d_forward(x, w, b)
    assert_close(out, ref_out)
    for got, want in itertools.zip_longest(nn.conv1d_backward(cache, dout),
                                           conv_oracle.stacked_conv1d_backward(ref_cache, dout)):
        assert_close(got, want)


def test_relu_forward_in_place_matches_the_allocating_maximum():
    """The output overwrites x, with the bits of `np.maximum` on a copy, and the mask is x > 0."""
    x = np.array([[1.5, -2.0, 0.0, -0.0], [3e-300, -3e-300, np.inf, -np.inf]])
    ref = x.copy()
    out, mask = nn.relu_forward(x)
    assert out is x
    assert_same_bits(out, np.maximum(ref, 0.0))
    assert_same_bits(mask, ref > 0.0)
