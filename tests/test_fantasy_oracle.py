"""The KG fantasies' fast paths against the slow paths they replaced (tests/fantasy_oracle.py).

The closed-form fantasy means are compared with a looped oracle to a
relative 1e-9, because the looped oracle orders its floating-point work
differently, and bit for bit with a tiled-stack oracle that does the same
work in another layout. Both read the design rows Φ that `predict_batch`
stored, as the fast path does; those rows are compared bit for bit with
each member's design recomputed from its parameters, and a fantasy call is
checked to run no network layer. The KG slot scoring and the in-place Adam
are compared bit for bit too: the arrays must have the same bytes, which
also catches a flipped sign of zero.
"""

import collections
import itertools

import numpy as np
import pytest

import proxbo.acquisition as acquisition
import proxbo.explorer as explorer
import proxbo.nn as nn
import proxbo.surrogate as surrogate
from proxbo.harness import CampaignConfig, run_campaign
from proxbo.sequences import Sequence, hamming_distances
from proxbo.surrogate import (NOISE_VAR_FLOOR, ConvRegressorConfig, Ensemble,
                              RecurrentRegressorConfig, TrainConfig, evidence_posterior)

import test_acceptance
from fantasy_oracle import (log_evidence, looped_fantasy_inner_means_multi, member_design,
                            per_candidate_slot_scores, tiled_fantasy_inner_means_multi)
from sequential_fit import Adam as AllocatingAdam
from test_surrogate import random_dataset

KINDS = {"conv": ConvRegressorConfig(channels=(4, 4), kernel_size=3, hidden_dense=6),
         "recurrent": RecurrentRegressorConfig(hidden_size=6)}


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def _linear(s):
    return float(np.dot(s.residues, [0.3, -0.2, 0.5, 0.1, -0.4, 0.25, 0.15, -0.1]))


@pytest.fixture(scope="module")
def fitted():
    """(ensemble, data, unmeasured sequences) per (kind, members), fitted once.

    The targets have a signal the small networks learn, so that the evidence
    gives the first member's output layer a finite prior precision and the
    fantasies move the means; on targets that are pure noise it finds none
    and caps α, and every fantasy mean is then the prediction.
    """
    data = random_dataset(20, seed=21, fn=_linear)
    unmeasured = np.array([r for r in random_dataset(40, seed=22).codes.tolist()
                           if tuple(r) not in data])
    cache = {}

    def get(kind, n_members):
        if (kind, n_members) not in cache:
            ens = Ensemble(kind, KINDS[kind], n_members=n_members, seed=3)
            ens.fit(data, TrainConfig(epochs=100, minibatch=8, learning_rate=1e-2),
                    np.random.default_rng(4))
            cache[kind, n_members] = ens
        return cache[kind, n_members], data, unmeasured

    return get


def _problem(ens, unmeasured, n_c, width, n_f, seed):
    """Batches of the first unmeasured rows and an inner pool of the last 9, once predicted."""
    ens.predict_batch(unmeasured)
    batches = np.arange(n_c * width).reshape(n_c, width)
    inner_pool = np.arange(len(unmeasured) - 9, len(unmeasured))
    ys = np.random.default_rng(seed).normal(0.5, 0.3, (n_c, n_f, width))
    return batches, ys, inner_pool


class TestFantasyHead:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("n_c", [1, 3])
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("n_f", [1, 4])
    @pytest.mark.parametrize("n_members", [1, 3])
    def test_matches_looped_oracle(self, fitted, kind, n_c, width, n_f, n_members):
        ens, data, unmeasured = fitted(kind, n_members)
        batches, ys, inner_pool = _problem(ens, unmeasured, n_c, width, n_f,
                                           seed=n_c + width + n_f)
        fast = ens.fantasy_inner_means_multi(batches, ys, inner_pool, data)
        slow = looped_fantasy_inner_means_multi(ens, batches, ys, inner_pool, data)
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=0)
        moved = np.abs(fast - ens.predict_batch(unmeasured[inner_pool])[:, 0]).max()
        assert moved > 1e-3  # the comparison covers the update term, not just Φ_p w0

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("n_c", [1, 3])
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("n_f", [1, 4])
    @pytest.mark.parametrize("n_members", [1, 3])
    def test_matches_tiled_stack_bit_for_bit(self, fitted, kind, n_c, width, n_f, n_members):
        """The broadcast (member, candidate) layout against the tiled stack; steps/lr are no-ops."""
        ens, data, unmeasured = fitted(kind, n_members)
        batches, ys, inner_pool = _problem(ens, unmeasured, n_c, width, n_f,
                                           seed=n_c + width + n_f)
        fast = ens.fantasy_inner_means_multi(batches, ys, inner_pool, data, steps=5, lr=5e-2)
        slow = tiled_fantasy_inner_means_multi(ens, batches, ys, inner_pool, data)
        assert_same_bits(fast, slow)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_matches_through_shifted_model(self, fitted, kind, monkeypatch):
        """KG slot scores on the posterior shifted by a λ = 0.05 distance penalty."""
        ens, data, unmeasured = fitted(kind, 3)
        first = Sequence(tuple(data.codes[0].tolist()), data.alphabet)
        penalty = 0.05 * hamming_distances(unmeasured, first)
        cfg = acquisition.KGConfig(n_fantasies=4)
        n = len(unmeasured)
        mean, std = acquisition._mean_std(ens, unmeasured, penalty)
        args = (ens, mean, std, [0, 1], [2, 3, 4], np.arange(n - 9, n), data, cfg)
        fast = acquisition._kg_slot_scores(*args, np.random.default_rng(5), penalty)
        monkeypatch.setattr(Ensemble, "fantasy_inner_means_multi",
                            looped_fantasy_inner_means_multi)
        slow = acquisition._kg_slot_scores(*args, np.random.default_rng(5), penalty)
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_leaves_base_parameters_untouched(self, fitted, kind):
        ens, data, unmeasured = fitted(kind, 3)
        before = {name: arr.copy() for name, arr in ens.net.params.items()}
        batches, ys, inner_pool = _problem(ens, unmeasured, 3, 2, 4, seed=6)
        ens.fantasy_inner_means_multi(batches, ys, inner_pool, data)
        assert ens.net.params.keys() == before.keys()
        for name, arr in before.items():
            assert_same_bits(ens.net.params[name], arr)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_outcomes_on_the_mean_leave_the_means_unchanged(self, fitted, kind):
        """With one member, y = Φ_b w0 is the model's own prediction: nothing moves."""
        ens, data, unmeasured = fitted(kind, 1)
        predicted = ens.predict_batch(unmeasured)[:, 0]
        batch, inner_pool = np.arange(3), np.arange(len(unmeasured) - 9, len(unmeasured))
        ys = predicted[batch]
        means = ens.fantasy_inner_means_multi(batch[None], np.tile(ys, (1, 2, 1)), inner_pool,
                                              data)
        np.testing.assert_allclose(means[0], np.tile(predicted[inner_pool], (2, 1)),
                                   rtol=1e-12, atol=1e-12)

    def test_posterior_follows_the_data_it_is_given(self, fitted):
        """The head posterior is refitted when the observed data change without a refit."""
        ens, data, unmeasured = fitted("conv", 3)
        batches, ys, inner_pool = _problem(ens, unmeasured, 2, 2, 3, seed=8)
        first = ens.fantasy_inner_means_multi(batches, ys, inner_pool, data)
        smaller = random_dataset(12, seed=21, fn=_linear)
        fast = ens.fantasy_inner_means_multi(batches, ys, inner_pool, smaller)
        slow = looped_fantasy_inner_means_multi(ens, batches, ys, inner_pool, smaller)
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=0)
        assert not np.allclose(fast, first, rtol=1e-6, atol=0)
        assert_same_bits(ens.fantasy_inner_means_multi(batches, ys, inner_pool, data), first)


class TestStoredDesign:
    """`predict_batch` keeps each row's Φ once; the fantasies index it."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("n_members", [1, 3])
    def test_rows_equal_each_members_design_bit_for_bit(self, fitted, kind, n_members):
        ens, _, unmeasured = fitted(kind, n_members)
        ens.predict_batch(unmeasured)
        design = ens._predicted_design
        assert design.shape[:2] == (n_members, len(unmeasured))
        for m in range(n_members):
            assert_same_bits(design[m], member_design(ens, m, unmeasured))

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_fantasies_run_no_network_layer(self, fitted, kind, monkeypatch):
        ens, data, unmeasured = fitted(kind, 3)
        batches, ys, inner_pool = _problem(ens, unmeasured, 3, 2, 4, seed=9)
        ens._head_posterior(data)  # built once per dataset, not per fantasy call
        calls = collections.Counter()

        def spy(owner, name):
            real = getattr(owner, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in ((type(ens.net), "last_hidden"), (type(ens.net), "_body"),
                            (surrogate, "encode_batch")):
            spy(owner, name)
        ens.fantasy_inner_means_multi(batches, ys, inner_pool, data)
        assert not calls
        ens.predict_batch(unmeasured)  # the spies see the layers where they do run
        assert calls == {"last_hidden": 3, "_body": 3, "encode_batch": 1}


class TestEvidence:
    """`evidence_posterior` against a brute-force search of the log evidence."""

    @staticmethod
    def _problem(noise):
        rng = np.random.default_rng(11)
        phi = np.hstack([rng.standard_normal((12, 3)), np.ones((12, 1))])
        t = phi @ rng.normal(0.0, 0.7, 4) + noise * rng.standard_normal(12)
        return phi, (t - t.mean()) / t.std()

    def test_fixed_point_maximises_the_evidence_over_a_grid(self):
        phi, t = self._problem(noise=0.4)
        alpha, beta, cov = evidence_posterior(phi, t)
        grid = np.linspace(-7.0, 7.0, 141)  # log α and log β, steps of 0.1
        values = np.array([[log_evidence(phi, t, np.exp(a), np.exp(b)) for b in grid]
                           for a in grid])
        i, j = np.unravel_index(np.argmax(values), values.shape)
        assert 0 < i < len(grid) - 1 and 0 < j < len(grid) - 1  # an interior maximum
        assert abs(np.log(alpha) - grid[i]) <= 0.1 and abs(np.log(beta) - grid[j]) <= 0.1
        assert log_evidence(phi, t, alpha, beta) >= values.max() - 1e-12
        for da, db in itertools.product((-1e-3, 0.0, 1e-3), repeat=2):
            assert (log_evidence(phi, t, alpha * np.exp(da), beta * np.exp(db))
                    <= log_evidence(phi, t, alpha, beta) + 1e-12)
        np.testing.assert_allclose(
            cov, np.linalg.inv(alpha * np.eye(4) + beta * phi.T @ phi), rtol=1e-10, atol=1e-14)

    def test_noise_floor_caps_beta_on_noise_free_targets(self):
        phi, t = self._problem(noise=0.0)
        alpha, beta, _ = evidence_posterior(phi, t)
        assert beta == 1.0 / NOISE_VAR_FLOOR
        grid = alpha * np.exp(np.linspace(-3.0, 3.0, 61))
        assert log_evidence(phi, t, alpha, beta) >= max(
            log_evidence(phi, t, a, beta) for a in grid) - 1e-12

    def test_constant_targets_give_finite_precisions(self):
        phi, _ = self._problem(noise=0.4)
        alpha, beta, cov = evidence_posterior(phi, np.zeros(len(phi)))
        assert np.isfinite([alpha, beta]).all() and np.isfinite(cov).all()


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
    """The reproducibility campaign, run on the fast paths and then on the bit-exact oracles."""
    base = test_acceptance.TestReproducibility.CONFIG.__dict__
    select_batch = acquisition.select_batch

    def select_with_per_candidate_slots(strategy, model, pool, *args, **kwargs):
        monkeypatch.setattr(acquisition, "_kg_slot_scores", per_candidate_slot_scores(pool))
        return select_batch(strategy, model, pool, *args, **kwargs)

    blobs = []
    for name in ("fast", "oracle"):
        if name == "oracle":
            monkeypatch.setattr(nn, "Adam", AllocatingAdam)
            monkeypatch.setattr(explorer, "select_batch", select_with_per_candidate_slots)
            monkeypatch.setattr(Ensemble, "fantasy_inner_means_multi",
                                tiled_fantasy_inner_means_multi)
        cfg = CampaignConfig(**{**base, "out": str(tmp_path / name)})
        run_campaign(cfg)
        blobs.append([(tmp_path / name / f"run_{s}.csv").read_bytes() for s in cfg.seeds])
    assert blobs[0] == blobs[1]


def test_kg_campaign_with_penalty_runs_on_the_recurrent_surrogate(tmp_path):
    """KG at λ > 0 with the recurrent surrogate: a full budget, byte-identical on a rerun."""
    base = {**test_acceptance.TestReproducibility.CONFIG.__dict__,
            "surrogate_kind": "recurrent", "hidden_size": 6,
            "lambda_kind": "fixed", "lambda_value": 0.05}
    blobs = []
    for name in ("first", "second"):
        cfg = CampaignConfig(**{**base, "out": str(tmp_path / name)})
        records = run_campaign(cfg)
        assert all(len(records[s]) == cfg.rounds for s in cfg.seeds)
        blobs.append([(tmp_path / name / f"run_{s}.csv").read_bytes() for s in cfg.seeds])
    assert blobs[0] == blobs[1]
