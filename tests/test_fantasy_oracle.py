"""The KG fantasy head's fast paths against the slow paths they replaced (tests/fantasy_oracle.py).

Every comparison is bit for bit: the arrays must have the same bytes, which
also catches a flipped sign of zero.
"""

import numpy as np
import pytest

import proxbo.acquisition as acquisition
import proxbo.nn as nn
from proxbo.harness import CampaignConfig, run_campaign
from proxbo.sequences import hamming_distances
from proxbo.surrogate import (ConvRegressorConfig, Ensemble, RecurrentRegressorConfig,
                              TrainConfig)

import test_acceptance
from fantasy_oracle import per_candidate_slot_scores, tiled_fantasy_inner_means_multi
from sequential_fit import Adam as AllocatingAdam
from test_surrogate import random_dataset

KINDS = {"conv": ConvRegressorConfig(channels=(4, 4), kernel_size=3, hidden_dense=6),
         "recurrent": RecurrentRegressorConfig(hidden_size=6)}


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def fitted():
    """(ensemble, data, unmeasured sequences) per (kind, members), fitted once."""
    data = random_dataset(14, seed=21)
    unmeasured = [s for s in random_dataset(40, seed=22).sequences if s not in data]
    cache = {}

    def get(kind, n_members):
        if (kind, n_members) not in cache:
            ens = Ensemble(kind, KINDS[kind], n_members=n_members, seed=3)
            ens.fit(data, TrainConfig(epochs=8, minibatch=8, learning_rate=1e-2),
                    np.random.default_rng(4))
            cache[kind, n_members] = ens
        return cache[kind, n_members], data, unmeasured

    return get


def _problem(unmeasured, n_c, width, n_f, seed):
    batches = [unmeasured[c * width:(c + 1) * width] for c in range(n_c)]
    inner_pool = unmeasured[-9:]
    ys = np.random.default_rng(seed).normal(0.5, 0.3, (n_c, n_f, width))
    return batches, ys, inner_pool


class TestFantasyHead:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("n_c", [1, 3])
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("n_f", [1, 4])
    @pytest.mark.parametrize("n_members", [1, 3])
    def test_matches_tiled_stack_bit_for_bit(self, fitted, kind, n_c, width, n_f, n_members):
        ens, data, unmeasured = fitted(kind, n_members)
        batches, ys, inner_pool = _problem(unmeasured, n_c, width, n_f, seed=n_c + width + n_f)
        fast = ens.fantasy_inner_means_multi(batches, ys, inner_pool, data, steps=5, lr=5e-2)
        slow = tiled_fantasy_inner_means_multi(ens, batches, ys, inner_pool, data,
                                               steps=5, lr=5e-2)
        assert_same_bits(fast, slow)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_matches_through_shifted_model(self, fitted, kind, monkeypatch):
        """KG slot scores on the posterior shifted by a λ = 0.05 distance penalty."""
        ens, data, unmeasured = fitted(kind, 3)
        penalty = 0.05 * hamming_distances(unmeasured, data.sequences[0])
        cfg = acquisition.KGConfig(n_fantasies=4, update_steps=6, update_lr=8e-2)
        n = len(unmeasured)
        args = (ens, unmeasured, [0, 1], [2, 3, 4], list(range(n - 9, n)), data, cfg)
        fast = acquisition._kg_slot_scores(*args, np.random.default_rng(5), penalty)
        monkeypatch.setattr(Ensemble, "fantasy_inner_means_multi",
                            tiled_fantasy_inner_means_multi)
        slow = acquisition._kg_slot_scores(*args, np.random.default_rng(5), penalty)
        assert_same_bits(fast, slow)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_leaves_base_parameters_untouched(self, fitted, kind):
        ens, data, unmeasured = fitted(kind, 3)
        before = {name: arr.copy() for name, arr in ens.net.params.items()}
        batches, ys, inner_pool = _problem(unmeasured, 3, 2, 4, seed=6)
        ens.fantasy_inner_means_multi(batches, ys, inner_pool, data, steps=10, lr=1e-1)
        assert ens.net.params.keys() == before.keys()
        for name, arr in before.items():
            assert_same_bits(ens.net.params[name], arr)


class TestInPlaceAdam:
    SHAPES = {"dense_w": (4, 3, 5, 6), "dense_b": (4, 3, 6), "out_w": (4, 3, 6, 1),
              "out_b": (4, 3, 1)}

    @pytest.mark.parametrize("hyper", [dict(lr=8e-2),
                                       dict(lr=1e-3, beta1=0.5, beta2=0.9, eps=1e-6)])
    def test_matches_allocating_adam_bit_for_bit(self, hyper):
        rng = np.random.default_rng(0)
        params = {k: rng.standard_normal(shape) for k, shape in self.SHAPES.items()}
        ref = {k: v.copy() for k, v in params.items()}
        opt, ref_opt = nn.Adam(params, **hyper), AllocatingAdam(ref, **hyper)
        for step in range(7):
            grads = {k: rng.standard_normal(shape) * 10.0 ** -step
                     for k, shape in self.SHAPES.items()}
            grads["out_b"] = np.zeros(self.SHAPES["out_b"])  # never any gradient
            if step == 3:
                grads = {k: np.zeros(shape) for k, shape in self.SHAPES.items()}
            opt.step(params, grads)
            ref_opt.step(ref, grads)
            for k in self.SHAPES:
                assert_same_bits(params[k], ref[k])
                assert_same_bits(opt.m[k], ref_opt.m[k])
                assert_same_bits(opt.v[k], ref_opt.v[k])


def test_campaign_with_oracles_gives_identical_csvs(tmp_path, monkeypatch):
    """The reproducibility campaign, run on the fast paths and then on every oracle."""
    base = test_acceptance.TestReproducibility.CONFIG.__dict__
    blobs = []
    for name in ("fast", "oracle"):
        if name == "oracle":
            monkeypatch.setattr(Ensemble, "fantasy_inner_means_multi",
                                tiled_fantasy_inner_means_multi)
            monkeypatch.setattr(nn, "Adam", AllocatingAdam)
            monkeypatch.setattr(acquisition, "_kg_slot_scores", per_candidate_slot_scores)
        cfg = CampaignConfig(**{**base, "out": str(tmp_path / name)})
        run_campaign(cfg)
        blobs.append([(tmp_path / name / f"run_{s}.csv").read_bytes() for s in cfg.seeds])
    assert blobs[0] == blobs[1]
