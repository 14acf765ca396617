"""The copy-light stacked convolution against the pad/sliding-window/scatter code it replaced.

Every comparison is bit for bit: the arrays must have the same bytes, which
also catches a flipped sign of zero.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

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


def _problem(k, length, cin, lead, shared_x, seed, bsz=5, cout=6, dtype=np.float64):
    """(x, w, b, dout) in `dtype`, drawn in float64 and cast."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((() if shared_x else lead) + (bsz, length, cin))
    x[x < -0.8] = 0.0  # exact zeros, as after a ReLU
    w = rng.standard_normal(lead + (k, cin, cout))
    b = rng.standard_normal(lead + (cout,))
    dout = rng.standard_normal(lead + (bsz, length, cout))
    dout[dout < -0.5] = -0.0  # signed zeros, as a ReLU mask leaves them
    dout[dout > 1.2] = 0.0
    return tuple(a.astype(dtype) for a in (x, w, b, dout))


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


# The shapes of a `kg-nk10` campaign (k = 9, L = 10, 16 -> 16 channels): the
# 5 members' minibatches of 1, 17, 33, 49 and 64 sequences, and a 900-sequence pool
# predicted one member at a time, whose first layer reads the one-hot input
# shared by the members (2 -> 16) and needs no input gradient. The 64-row
# minibatch and the pool go over BLAS's small-matrix limit, so the forward
# runs in row blocks; from 2 sequences on, the input gradient goes tap by tap.
# 29 sequences of 15 positions make 435 rows, one more than a block may hold
# at these widths: blocks of the largest size would leave a 1-row block. The
# ensemble trains in float32; the float64 kernels serve the gradient check.
CAMPAIGN_SHAPES = {
    "minibatch-1": ((5,), 1, 10, 16, False),
    "minibatch-17": ((5,), 17, 10, 16, False),
    "minibatch-33": ((5,), 33, 10, 16, False),
    "minibatch-49": ((5,), 49, 10, 16, False),
    "minibatch-64": ((5,), 64, 10, 16, False),
    "pool-900": ((1,), 900, 10, 16, False),
    "pool-900-first-layer": ((1,), 900, 10, 2, True),
    "435-rows": ((5,), 29, 15, 16, False),
}


DTYPES = [np.float64, np.float32]


@pytest.mark.parametrize("dtype", DTYPES, ids=["float64", "float32"])
@pytest.mark.parametrize("lead,bsz,length,cin,shared_x", CAMPAIGN_SHAPES.values(),
                         ids=CAMPAIGN_SHAPES.keys())
def test_matches_oracle_at_campaign_shapes(lead, bsz, length, cin, shared_x, dtype):
    x, w, b, dout = _problem(9, length, cin, lead, shared_x, seed=bsz + cin, bsz=bsz, cout=16,
                             dtype=dtype)
    out, cache = nn.stacked_conv1d_forward(x, w, b)
    ref_out, ref_cache = conv_oracle.stacked_conv1d_forward(x, w, b)
    assert_same_bits(out, ref_out)
    dx, dw, db = nn.stacked_conv1d_backward(cache, dout, need_dx=not shared_x)
    ref_dx, ref_dw, ref_db = conv_oracle.stacked_conv1d_backward(ref_cache, dout,
                                                                 need_dx=not shared_x)
    assert_same_bits(dw, ref_dw)
    assert_same_bits(db, ref_db)
    if shared_x:
        assert dx is None and ref_dx is None
        return
    # the input gradient has the bits of release 0.3.0's product, one per tap;
    # the oracle's single product over every tap gives them too, except in
    # float32 on cores other than the verified one (Haswell, for one). On
    # Haswell the float64 case holds with one BLAS thread only: with two, the
    # 33- and 49-sequence minibatches and the 435 rows round differently.
    assert_same_bits(dx, conv_oracle.tap_major_input_gradient(cache, dout))
    if dtype == np.float64 or nn.blas_core() == nn._VERIFIED_CORE:
        assert_same_bits(dx, ref_dx)


# On OpenBLAS's SkylakeX core, products whose output width is not a multiple
# of 8 round some rows differently in row blocks, or with the rows in another
# order, and so do products deeper than the 384-long K panels of its packed
# kernel (forward K = 9 * 48, input-gradient K = Cout = 400); the kernels keep
# one product, and the 0.3.0 tap order, there.
@pytest.mark.parametrize("cin,cout", [(16, 4), (16, 12), (16, 20), (48, 16)])
def test_forward_stays_one_product(cin, cout):
    x, w, b, _ = _problem(9, 10, cin, (1,), False, seed=cout, bsz=900, cout=cout)
    assert_same_bits(nn.stacked_conv1d_forward(x, w, b)[0],
                     conv_oracle.stacked_conv1d_forward(x, w, b)[0])


@pytest.mark.parametrize("cin,cout", [(1, 16), (2, 16), (3, 16), (10, 16), (8, 400)])
def test_input_gradient_keeps_0_3_0_bits(cin, cout):
    """33-sequence minibatch: at Cin mod 8 in 1-3 the oracle rounds differently from both kernels."""
    x, w, b, dout = _problem(9, 10, cin, (5,), False, seed=cin, bsz=33, cout=cout)
    _, cache = nn.stacked_conv1d_forward(x, w, b)
    assert_same_bits(nn.stacked_conv1d_backward(cache, dout)[0],
                     conv_oracle.tap_major_input_gradient(cache, dout))


# In float32 an AVX-512 register holds 16 items, and a width that is a
# multiple of 8 but not of 16 rounds some rows differently in row blocks or
# tap by tap: each of these cases did on SkylakeX when the float64 rule of 8
# was applied to floats.
@pytest.mark.parametrize("bsz,length,cin,cout", [(200, 10, 16, 8), (64, 10, 16, 24),
                                                 (64, 15, 24, 24)])
def test_float32_forward_blocks_only_at_sixteen_lanes(bsz, length, cin, cout):
    x, w, b, _ = _problem(9, length, cin, (1,), False, seed=cout, bsz=bsz, cout=cout,
                          dtype=np.float32)
    assert_same_bits(nn.stacked_conv1d_forward(x, w, b)[0],
                     conv_oracle.stacked_conv1d_forward(x, w, b)[0])


@pytest.mark.parametrize("bsz,length,cin,cout", [(200, 15, 8, 48), (200, 10, 8, 64),
                                                 (49, 15, 24, 64), (100, 10, 24, 64)])
def test_float32_input_gradient_goes_tap_by_tap_only_at_sixteen_lanes(bsz, length, cin, cout):
    x, w, b, dout = _problem(9, length, cin, (5,), False, seed=cin, bsz=bsz, cout=cout,
                             dtype=np.float32)
    _, cache = nn.stacked_conv1d_forward(x, w, b)
    assert_same_bits(nn.stacked_conv1d_backward(cache, dout)[0],
                     conv_oracle.tap_major_input_gradient(cache, dout))


def test_row_blocks():
    """Blocks only where they were measured faster, and never a 1-row block."""
    assert nn._row_blocks(640, 144, 16) == 2  # a 64-sequence kg-nk10 minibatch
    assert nn._row_blocks(434, 144, 16) == 1
    assert nn._row_blocks(435, 144, 16) == 2
    assert nn._row_blocks(640, 144, 16, np.float32) == 2
    assert nn._row_blocks(9000, 144, 8) > 1 and nn._row_blocks(9000, 144, 8, np.float32) == 1
    for depth, width in [(9 * 16, 128), (9 * 256, 256), (9 * 48, 16), (144, 12)]:
        assert nn._row_blocks(9000, depth, width) == 1
    for depth, width in [(144, 16), (160, 32), (384, 64)]:
        for rows in range(1, 3000):
            blocks = nn._row_blocks(rows, depth, width)
            assert blocks == 1 or rows // blocks >= 2


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


def test_blas_core_is_read_on_first_use_not_at_import():
    code = ("import proxbo, proxbo.nn as nn\n"
            "assert nn.blas_core.cache_info().currsize == 0\n"
            "print(nn.blas_core())\n")
    env = dict(os.environ, PYTHONPATH=str(Path(nn.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.strip() == nn.blas_core()


@pytest.mark.skipif(nn.blas_core() != nn._VERIFIED_CORE,
                    reason="the override needs a host whose OpenBLAS picks the verified core")
def test_other_core_takes_the_one_product():
    """Under OpenBLAS's Haswell core, which rounds both shortcuts differently, the
    campaign shapes get the oracle's bits in both dtypes, with BLAS on one thread as
    the bit-for-bit runs (CI, the benchmark) pin it."""
    code = ("import proxbo.nn as nn, test_conv_oracle as t\n"
            "assert nn.blas_core() == 'Haswell', nn.blas_core()\n"
            "for shape in t.CAMPAIGN_SHAPES.values():\n"
            "    for dtype in t.DTYPES:\n"
            "        t.test_matches_oracle_at_campaign_shapes(*shape, dtype)\n")
    path = os.pathsep.join([str(Path(nn.__file__).parents[1]), str(Path(__file__).parent)])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", code], env=env, timeout=120, check=True)
