"""Parameter arenas: the layout, Adam over a whole arena and gradient checks.

Every comparison of numbers is bit for bit: the arrays must have the same
bytes, which also catches a flipped sign of zero.
"""

import copy
import pickle

import numpy as np
import pytest

import proxbo.nn as nn
import proxbo.surrogate as surrogate
from proxbo.surrogate import Ensemble, TrainConfig, gradient_check

from sequential_fit import Adam as AllocatingAdam
from test_surrogate import SMALL_CONV, SMALL_RNN, random_dataset

SHAPES = {"dense_w": (4, 3, 5, 6), "dense_b": (4, 3, 6), "out_w": (4, 3, 6, 1),
          "out_b": (4, 3, 1)}


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def assert_arena_views(arena):
    """Every entry is a C-contiguous view of its own slice of `arena.flat`, in layout order."""
    start = 0
    for name, shape in arena.layout:
        view = arena[name]
        assert view.shape == shape and view.flags.c_contiguous
        size = int(np.prod(shape))
        assert np.shares_memory(view, arena.flat[start:start + size])
        start += size
    assert start == arena.flat.size


class TestArena:
    def test_entries_are_views_of_one_buffer(self):
        arena = nn.Arena(SHAPES)
        assert list(arena) == list(SHAPES) and len(arena) == len(SHAPES)
        assert_arena_views(arena)
        arena.flat[:] = np.arange(arena.flat.size)
        assert arena["dense_b"][0, 0, 0] == 4 * 3 * 5 * 6

    def test_assignment_copies_into_the_view(self):
        arena = nn.Arena(SHAPES)
        view = arena["out_w"]
        arena["out_w"] = np.ones(SHAPES["out_w"])
        assert arena["out_w"] is view and view.sum() == view.size
        with pytest.raises(ValueError, match="shape"):
            arena["out_w"] = np.ones((4, 3, 6))
        with pytest.raises(TypeError):
            del arena["out_w"]

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda a: pickle.loads(pickle.dumps(a))])
    def test_copies_keep_their_views_on_their_buffer(self, clone):
        arena = nn.Arena(SHAPES)
        arena.flat[:] = np.random.default_rng(0).standard_normal(arena.flat.size)
        other = clone(arena)
        assert other.layout == arena.layout
        assert_arena_views(other)
        for name in SHAPES:
            assert_same_bits(other[name], arena[name])


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_like_takes_the_dtype_of_its_arrays(self, dtype):
        arrays = {name: np.ones(shape, dtype) for name, shape in SHAPES.items()}
        arena = nn.Arena.like(arrays)
        assert arena.flat.dtype == dtype and arena.layout == nn.Arena(SHAPES).layout
        arena["out_b"] = np.full(SHAPES["out_b"], 0.1)  # a float64 value, cast on the way in
        assert_same_bits(arena["out_b"], np.full(SHAPES["out_b"], 0.1).astype(dtype))


class TestArenaAdam:
    @pytest.mark.parametrize("hyper", [dict(lr=8e-2),
                                       dict(lr=1e-3, beta1=0.5, beta2=0.9, eps=1e-6)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_per_key_oracle_bit_for_bit(self, hyper, dtype):
        rng = np.random.default_rng(1)
        params = nn.Arena(SHAPES, dtype)
        params.flat[:] = rng.standard_normal(params.flat.size)
        grads = nn.Arena(SHAPES, dtype)
        ref = {k: v.copy() for k, v in params.items()}
        opt, ref_opt = nn.Adam(params, **hyper), AllocatingAdam(ref, **hyper)
        for step in range(8):
            grads.flat[:] = rng.standard_normal(grads.flat.size) * 10.0 ** -step
            grads["out_b"] = np.zeros(SHAPES["out_b"])  # never any gradient
            if step == 3:
                grads.flat[:] = 0.0
            opt.step(params, grads)
            ref_opt.step(ref, {k: v.copy() for k, v in grads.items()})
            assert opt.m.flat.dtype == opt.v.flat.dtype == opt._work[0].dtype == dtype
            for k in SHAPES:
                assert_same_bits(params[k], ref[k])
                assert_same_bits(opt.m[k], ref_opt.m[k])
                assert_same_bits(opt.v[k], ref_opt.v[k])
        assert_arena_views(params)

    def test_steps_the_whole_arena_in_one_pass(self, monkeypatch):
        calls = []
        original = nn.Adam._update
        monkeypatch.setattr(nn.Adam, "_update",
                            lambda self, p, *rest: calls.append(p.shape) or original(self, p, *rest))
        params, grads = nn.Arena(SHAPES), nn.Arena(SHAPES)
        nn.Adam(params).step(params, grads)
        assert calls == [params.flat.shape]
        # plain dicts are stepped one entry at a time
        calls.clear()
        plain = {k: v.copy() for k, v in params.items()}
        nn.Adam(plain).step(plain, dict(grads))
        assert calls == list(SHAPES.values())


class TestNetArena:
    @pytest.mark.parametrize("kind,cfg", [("conv", SMALL_CONV), ("recurrent", SMALL_RNN)])
    def test_fit_trains_in_float32_and_predicts_in_float64(self, kind, cfg, monkeypatch):
        optimizers = []

        class RecordingAdam(nn.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(nn, "Adam", RecordingAdam)
        data = random_dataset(10, seed=1)
        ens = Ensemble(kind, cfg, n_members=3, seed=0)
        losses = ens.fit(data, TrainConfig(epochs=2, minibatch=4), np.random.default_rng(0))
        assert all(type(loss) is float for loss in losses)
        assert ens.net.params.flat.dtype == np.float32
        assert all(arr.dtype == np.float32 for arr in ens.net.params.values())
        (opt,) = optimizers
        assert opt.m.flat.dtype == opt.v.flat.dtype == np.float32
        assert all(work.dtype == np.float32 for work in opt._work)
        hidden = []
        last_hidden = type(ens.net).last_hidden

        def recording(net, x):
            hidden.append(last_hidden(net, x))
            return hidden[-1]

        monkeypatch.setattr(type(ens.net), "last_hidden", recording)
        pool = random_dataset(12, seed=2).codes
        assert ens.predict_batch(pool).dtype == np.float64
        assert len(hidden) == 3 and all(h.dtype == np.float32 for h in hidden)
        assert ens._predicted_design.dtype == np.float64
        means = ens.fantasy_inner_means_multi(np.array([[0, 1]]), np.zeros((1, 3, 2)),
                                              np.arange(2, 12), data)
        assert means.dtype == np.float64 and means.shape == (1, 3, 10)

    @pytest.mark.parametrize("kind,cfg", [("conv", SMALL_CONV), ("recurrent", SMALL_RNN)])
    def test_fit_keeps_params_in_one_arena(self, kind, cfg):
        ens = Ensemble(kind, cfg, n_members=3, seed=0)
        ens.fit(random_dataset(10, seed=1), TrainConfig(epochs=2, minibatch=4),
                np.random.default_rng(0))
        assert isinstance(ens.net.params, nn.Arena)
        assert_arena_views(ens.net.params)

    @pytest.mark.parametrize("kind,cfg", [("conv", SMALL_CONV), ("recurrent", SMALL_RNN)])
    def test_load_writes_into_the_arena(self, kind, cfg):
        """Parameters assigned into a trained ensemble's arena, then a warm-start fit
        and predict: the same bits as the ensemble they came from."""
        data = random_dataset(16, seed=2)
        ens = Ensemble(kind, cfg, n_members=3, seed=5)
        ens.fit(data, TrainConfig(epochs=6, minibatch=8), np.random.default_rng(6))
        loaded = Ensemble(kind, cfg, n_members=3, seed=5)
        loaded.fit(data, TrainConfig(epochs=2, minibatch=4), np.random.default_rng(9))
        buffer = loaded.net.params.flat
        for name, arr in ens.net.params.items():
            loaded.net.params[name] = arr.copy()
        assert loaded.net.params.flat is buffer
        assert_arena_views(loaded.net.params)
        assert_same_bits(loaded.net.params.flat, ens.net.params.flat)

        extra = [r for r in random_dataset(30, seed=3).codes.tolist() if tuple(r) not in data][:5]
        data.add_rows(np.array(extra), [0.2 * i for i in range(len(extra))], data.alphabet)
        warm = TrainConfig(epochs=4, minibatch=8)
        losses = ens.fit(data, warm, np.random.default_rng(7), warm_start=True)
        assert loaded.fit(data, warm, np.random.default_rng(7), warm_start=True) == losses
        assert_same_bits(loaded.net.params.flat, ens.net.params.flat)
        assert_arena_views(loaded.net.params)
        pool = random_dataset(40, seed=4).codes
        assert np.array_equal(loaded.predict_batch(pool), ens.predict_batch(pool))

    @pytest.mark.parametrize("kind", ["conv", "recurrent"])
    def test_gradient_check_perturbs_through_the_views(self, kind, monkeypatch):
        """The entries the check perturbs are the arena's, and the network reads them."""
        nets = []
        config_cls, net_cls = surrogate.REGRESSORS[kind]

        def recording(*args):
            net = net_cls(*args)
            nets.append((net, net.params.flat.copy()))
            return net

        monkeypatch.setitem(surrogate.REGRESSORS, kind, (config_cls, recording))
        reads = []
        forward = nn.mse_forward

        def reading(pred, target):
            reads.append(nets[0][0].params.flat.copy())
            return forward(pred, target)

        monkeypatch.setattr(nn, "mse_forward", reading)
        report = gradient_check(kind)
        assert report.passed, f"{report.worst_param}: {report.max_rel_error}"
        net, initial = nets[0]
        assert initial.dtype == np.float64  # whatever dtype the ensemble trains in
        assert_arena_views(net.params)
        # one analytic pass, then two perturbed losses per parameter entry,
        # each with exactly one arena entry moved off its initial value
        assert len(reads) == 1 + 2 * initial.size
        for i, flat in enumerate(reads[1:]):
            moved = np.flatnonzero(flat != initial)
            assert moved.tolist() == [i // 2]
        assert_same_bits(net.params.flat, initial)
