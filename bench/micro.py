"""Micro-timings of single kernels at shapes recorded from the kg-nk10 workload.

Each kernel is timed in blocks of calls after a warm-up; the reported time is
the median block's time per call. Next to each time stands its operation
count and bytes moved, computed from the shapes:

- flop counts multiply-adds as two operations and elementwise arithmetic as
  one per element;
- bytes moved count every float64 array the kernel reads or writes once
  (inputs, temporaries the code materialises, outputs), ignoring caches.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Shapes from kg-nk10 (N=10, V=2, conv channels (16, 16), kernel 9, dense 32,
# 5 members): the two conv layers on a full minibatch of 64 are the most
# frequent conv calls, and the second (16 -> 16) is timed. The fantasy call
# is a mid-campaign KG slot: 81 measured sequences, a partial batch of 8,
# 8 candidates x 4 fantasies x 5 members, 128 inner-pool sequences, 6 head
# steps.
CONV_X = (64, 10, 16)
CONV_W = (9, 16, 16)
FANTASY_DATA, FANTASY_WIDTH, FANTASY_CANDIDATES = 81, 8, 8
MUTANT_RADIUS, MUTANT_COUNT = 4, 16
F64 = 8


def _per_call(fn, calls: int, blocks: int = 7) -> float:
    fn()
    times = []
    for _ in range(blocks):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return statistics.median(times)


def _conv(nn, rng):
    x = rng.standard_normal(CONV_X)
    w = rng.standard_normal(CONV_W)
    b = rng.standard_normal(CONV_W[2])
    bsz, length, cin = CONV_X
    k, _, cout = CONV_W
    rows, pad = bsz * length, (k - 1) // 2
    padded = bsz * (length + 2 * pad) * cin
    out, cache = nn.conv1d_forward(x, w, b)
    dout = rng.standard_normal(out.shape)
    fwd_us = _per_call(lambda: nn.conv1d_forward(x, w, b), 200) * 1e6
    bwd_us = _per_call(lambda: nn.conv1d_backward(cache, dout), 200) * 1e6
    col = rows * k * cin
    return {
        "nn.conv1d_forward_us": (fwd_us, "us"),
        "nn.conv1d_forward_flop": (2 * rows * k * cin * cout + rows * cout, "flop"),
        # x, padded copy written and read, im2col written and read, w, b, out
        "nn.conv1d_forward_bytes": (F64 * (x.size + 2 * padded + 2 * col + w.size
                                           + cout + rows * cout), "B"),
        "nn.conv1d_backward_us": (bwd_us, "us"),
        "nn.conv1d_backward_flop": (4 * rows * k * cin * cout + rows * cout
                                    + k * rows * cin, "flop"),
        # col and dout read twice, w, dw, db, dcol written, k read-add-write
        # passes over the padded gradient, the cropped gradient
        "nn.conv1d_backward_bytes": (F64 * (2 * col + 2 * rows * cout + 2 * w.size + cout
                                            + col + 2 * k * rows * cin + padded
                                            + rows * cin), "B"),
    }


def _member(proxbo, rng):
    cfg = proxbo.ConvRegressorConfig(channels=(16, 16), kernel_size=9, hidden_dense=32)
    ens = proxbo.Ensemble("conv", cfg, n_members=5, seed=0)
    land = proxbo.make_nk(10, 2, 2, 7)
    data = proxbo.Dataset()
    while len(data) < FANTASY_DATA:
        s = proxbo.Sequence(tuple(int(r) for r in rng.integers(0, 2, 10)), land.alphabet)
        if s not in data:
            data.add(s, land.fitness(s))
    ens.fit(data, proxbo.TrainConfig(epochs=1, minibatch=64, learning_rate=5e-3), rng)
    return ens, data, land


def _adam(nn, ens, rng):
    params = {k: v.copy() for k, v in ens.members[0].params.items()}
    grads = {k: rng.standard_normal(v.shape) * 1e-3 for k, v in params.items()}
    opt = nn.Adam(params, lr=5e-3)
    size = sum(v.size for v in params.values())
    us = _per_call(lambda: opt.step(params, grads), 500) * 1e6
    # per element: m (3), v (4), bias corrections (2), sqrt, +eps, divide,
    # scale, subtract; reads p, g, m, v and writes m, v, p
    return {"nn.adam_step_us": (us, "us"),
            "nn.adam_step_flop": (14 * size, "flop"),
            "nn.adam_step_bytes": (F64 * 7 * size, "B")}


def _fantasy(proxbo, ens, data, land, rng, kg):
    pool = []
    for code in rng.permutation(2 ** 10):
        s = proxbo.Sequence(tuple((int(code) >> (9 - i)) & 1 for i in range(10)),
                            land.alphabet)
        if s not in data:
            pool.append(s)
    chosen = pool[:FANTASY_WIDTH - 1]
    candidates = pool[FANTASY_WIDTH - 1:FANTASY_WIDTH - 1 + FANTASY_CANDIDATES]
    inner = pool[-kg.inner_pool_size:]
    batches = [chosen + [c] for c in candidates]
    ys = rng.standard_normal((len(batches), kg.n_fantasies, FANTASY_WIDTH)) * 0.1 + 0.6

    def call():
        ens.fantasy_inner_means_multi(batches, ys, inner, data,
                                      steps=kg.update_steps, lr=kg.update_lr)

    ms = _per_call(call, 3) * 1e3
    copies = len(batches) * kg.n_fantasies * ens.n_members
    rows = FANTASY_DATA + FANTASY_WIDTH
    d, h = ens.config.channels[-1], ens.config.hidden_dense
    head = d * h + 2 * h + 1
    # per step: forward 2*rows*(d*h + h), backward 2*rows*(2*d*h + 3*h) per
    # copy, then Adam (14 per parameter); then one forward over the inner pool
    flop = (kg.update_steps * copies * (2 * rows * (3 * d * h + 4 * h) + 14 * head)
            + copies * 2 * kg.inner_pool_size * (d * h + h))
    # per step: features read twice, pre-activation, hidden and hidden grad
    # written and read, Adam state; plus the tiled features and inner pool
    step_bytes = copies * (2 * rows * d + 6 * rows * h + 7 * head)
    bytes_moved = F64 * (kg.update_steps * step_bytes
                         + copies * rows * d + copies * kg.inner_pool_size * (d + h))
    return {"surrogate.fantasy_call_ms": (ms, "ms"),
            "surrogate.fantasy_call_flop": (float(flop), "flop"),
            "surrogate.fantasy_call_bytes": (float(bytes_moved), "B")}


def _mutants(proxbo, land, rng):
    anchor = proxbo.Sequence((0,) * 10, land.alphabet)
    us = _per_call(lambda: proxbo.sample_mutants(anchor, MUTANT_RADIUS, MUTANT_COUNT, rng),
                   300) * 1e6
    # one residue written per position of each mutant, held as a tuple slot
    return {"sequences.sample_mutants_us": (us, "us"),
            "sequences.sample_mutants_ops": (MUTANT_COUNT * 10, "count"),
            "sequences.sample_mutants_bytes": (F64 * MUTANT_COUNT * 10, "B")}


def micro_metrics() -> dict[str, tuple[float, str]]:
    import proxbo
    from proxbo import nn

    rng = np.random.default_rng(0)
    kg = proxbo.KGConfig(n_fantasies=4, inner_pool_size=128, update_steps=6,
                         update_lr=8e-2, inner_eval_size=8)
    ens, data, land = _member(proxbo, rng)
    out = {}
    out.update(_conv(nn, rng))
    out.update(_adam(nn, ens, rng))
    out.update(_fantasy(proxbo, ens, data, land, rng, kg))
    out.update(_mutants(proxbo, land, rng))
    return out
