"""Tests for the ensemble regressors: gradients, training, prediction, checkpoints."""

import numpy as np
import pytest

import proxbo.nn as nn
from proxbo.errors import DataError, TrainingError
from proxbo.landscape import make_nk
from proxbo.sequences import Sequence, residue_array, small_alphabet
from proxbo.surrogate import (
    ConvRegressor,
    ConvRegressorConfig,
    Dataset,
    Ensemble,
    RecurrentRegressorConfig,
    TrainConfig,
    gradient_check,
)
from fantasy_oracle import sequential_fantasy_inner_means
from sequential_fit import SequentialEnsemble

AB2 = small_alphabet(2)
AB4 = small_alphabet(4)

SMALL_CONV = ConvRegressorConfig(channels=(4, 4), kernel_size=3, hidden_dense=6)
SMALL_RNN = RecurrentRegressorConfig(hidden_size=6)


def random_dataset(n, length=8, vocab=2, seed=0, fn=None):
    rng = np.random.default_rng(seed)
    ab = small_alphabet(vocab)
    data = Dataset()
    seen = set()
    while len(seen) < n:
        s = Sequence(tuple(rng.integers(0, vocab, length)), ab)
        if s in seen:
            continue
        seen.add(s)
        data.add(s, float(fn(s)) if fn else float(rng.random()))
    return data


class TestDataset:
    def test_append_and_dedup(self):
        data = Dataset()
        s = Sequence((0, 1), AB2)
        data.add(s, 1.0)
        data.add(s, 1.0)  # consistent repeat is a no-op
        assert len(data) == 1
        assert data.max_score() == 1.0

    def test_conflicting_score_raises(self):
        data = Dataset()
        s = Sequence((0, 1), AB2)
        data.add(s, 1.0)
        with pytest.raises(DataError):
            data.add(s, 2.0)

    def test_rows_are_arrays_in_insertion_order(self):
        data = Dataset()
        data.extend([(Sequence((1, 0, 1), AB4), 0.5), (Sequence((3, 2, 0), AB4), -1.0),
                     (Sequence((1, 0, 1), AB4), 0.5)])
        data.add(Sequence((0, 0, 0), AB4), 2.0)
        assert data.codes.dtype == np.uint8
        assert data.codes.tolist() == [[1, 0, 1], [3, 2, 0], [0, 0, 0]]
        assert data.scores.tolist() == [0.5, -1.0, 2.0]
        assert data.sequences == [Sequence(tuple(r), AB4) for r in data.codes.tolist()]
        assert Sequence((3, 2, 0), AB4) in data and Sequence((3, 2, 1), AB4) not in data

    def test_a_conflict_keeps_the_pairs_before_it(self):
        data = Dataset()
        data.add(Sequence((0, 1), AB2), 1.0)
        with pytest.raises(DataError):
            data.extend([(Sequence((1, 1), AB2), 3.0), (Sequence((0, 1), AB2), 2.0)])
        assert data.codes.tolist() == [[0, 1], [1, 1]]
        assert data.scores.tolist() == [1.0, 3.0]

    @pytest.mark.parametrize("first, second", [(AB2, AB4), (AB4, AB2)],
                             ids=["smaller-first", "larger-first"])
    def test_rejects_mixed_alphabet_sizes(self, first, second):
        # a row of another alphabet would one-hot encode past or short of the fitted vocab
        data = Dataset()
        data.extend([(Sequence((0, 1, 1), first), 1.0), (Sequence((1, 0, 0), first), 2.0)])
        with pytest.raises(DataError, match="does not fit"):
            data.add(Sequence((1, 1, 1), second), 0.5)
        assert data.codes.tolist() == [[0, 1, 1], [1, 0, 0]]
        ens = Ensemble("conv", SMALL_CONV, n_members=2, seed=0)
        ens.fit(data, TrainConfig(epochs=2, minibatch=2), np.random.default_rng(0))
        assert ens.net.vocab == first.size

    def test_rejects_mixed_lengths(self):
        data = Dataset()
        data.add(Sequence((0, 1), AB2), 1.0)
        with pytest.raises(DataError, match="length-2 sequences"):
            data.add(Sequence((0, 1, 1), AB2), 2.0)
        assert data.codes.tolist() == [[0, 1]]
        ens = Ensemble("conv", SMALL_CONV, n_members=2, seed=0)
        ens.fit(data, TrainConfig(epochs=2, minibatch=2), np.random.default_rng(0))
        assert ens.predict_batch(data.codes).shape == (1, 2)


class TestGradients:
    def test_conv_gradients_match_finite_differences(self):
        report = gradient_check("conv")
        assert report.passed, f"{report.worst_param}: {report.max_rel_error}"
        assert report.max_rel_error <= 1e-4

    def test_recurrent_gradients_match_finite_differences(self):
        report = gradient_check("recurrent")
        assert report.passed, f"{report.worst_param}: {report.max_rel_error}"
        assert report.max_rel_error <= 1e-4

    def test_corrupted_backward_is_caught(self, monkeypatch):
        # negative control: a deliberately wrong gradient in the stacked
        # backward that training uses must fail the check
        original = ConvRegressor.backward

        def corrupted(self, cache, dpred):
            grads = original(self, cache, dpred)
            grads["out_b"] = grads["out_b"] + 0.5
            return grads

        monkeypatch.setattr(ConvRegressor, "backward", corrupted)
        assert not gradient_check("conv").passed


class TestTraining:
    def test_constant_target_converges(self):
        data = random_dataset(16, fn=lambda s: 3.25)
        ens = Ensemble("conv", SMALL_CONV, n_members=2, seed=0)
        ens.fit(data, TrainConfig(epochs=100, minibatch=8, learning_rate=1e-2, bootstrap=False),
                np.random.default_rng(1))
        preds = [m for m, _ in ens.predict_batch(data.codes)]
        assert np.allclose(preds, 3.25, atol=1e-2)

    def test_additive_landscape_r2(self):
        # site-separable target is exactly representable; expect near-perfect fit
        land = make_nk(10, 0, 2, 11)
        rng = np.random.default_rng(2)
        seen = set()
        while len(seen) < 320:
            seen.add(Sequence(tuple(rng.integers(0, 2, 10)), AB2))
        seqs = sorted(seen, key=lambda s: s.residues)
        train, test = seqs[:256], seqs[256:320]
        data = Dataset()
        for s in train:
            data.add(s, land.fitness(s))
        ens = Ensemble("conv", ConvRegressorConfig(channels=(8, 8), kernel_size=5, hidden_dense=16),
                       n_members=2, seed=3)
        ens.fit(data, TrainConfig(epochs=150, minibatch=32, learning_rate=3e-3),
                np.random.default_rng(4))
        y = np.array([land.fitness(s) for s in test])
        mu = np.array([m for m, _ in ens.predict_batch(residue_array(test))])
        r2 = 1.0 - np.sum((y - mu) ** 2) / np.sum((y - y.mean()) ** 2)
        assert r2 >= 0.9

    def test_refit_bitwise_deterministic(self):
        data = random_dataset(24, seed=5)
        preds = []
        for _ in range(2):
            ens = Ensemble("conv", SMALL_CONV, n_members=3, seed=7)
            ens.fit(data, TrainConfig(epochs=20, minibatch=8), np.random.default_rng(9))
            preds.append(np.array([m for m, _ in ens.predict_batch(data.codes)]))
        assert np.array_equal(preds[0], preds[1])

    def test_warm_start_keeps_standardization(self):
        data = random_dataset(24, seed=5)
        ens = Ensemble("conv", SMALL_CONV, n_members=2, seed=7)
        ens.fit(data, TrainConfig(epochs=5, minibatch=8), np.random.default_rng(0))
        mean, std = ens.y_mean, ens.y_std
        data.add(Sequence((1,) * 8, AB2), 100.0)
        ens.fit(data, TrainConfig(epochs=5, minibatch=8), np.random.default_rng(1),
                warm_start=True)
        assert (ens.y_mean, ens.y_std) == (mean, std)

    def test_fit_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            Ensemble("conv", SMALL_CONV, seed=0).fit(Dataset(), TrainConfig(epochs=1))

    def test_unknown_kind_raises_at_construction(self):
        with pytest.raises(ValueError, match="unknown regressor kind 'cnn'"):
            Ensemble("cnn")
        with pytest.raises(ValueError, match="unknown regressor kind 'cnn'"):
            gradient_check("cnn")

    def test_recurrent_kind_trains(self):
        data = random_dataset(16, seed=6)
        ens = Ensemble("recurrent", SMALL_RNN, n_members=2, seed=1)
        losses = ens.fit(data, TrainConfig(epochs=30, minibatch=8), np.random.default_rng(2))
        assert len(losses) == 2 and all(np.isfinite(losses))


class TestLockstepFit:
    """The stacked fit against the member-by-member loop it replaced (tests/sequential_fit.py)."""

    @pytest.mark.parametrize("kind,cfg", [("conv", SMALL_CONV), ("recurrent", SMALL_RNN)])
    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("n_members", [1, 3])
    def test_matches_sequential_fit_bit_for_bit(self, kind, cfg, bootstrap, n_members):
        # 13 and then 16 rows in minibatches of 5: the last minibatch is ragged
        data = random_dataset(13, seed=11)
        extra = [s for s in random_dataset(24, seed=12).sequences if s not in data][:3]
        train = TrainConfig(epochs=4, minibatch=5, learning_rate=1e-2, bootstrap=bootstrap)
        ens = Ensemble(kind, cfg, n_members=n_members, seed=4)
        ref = SequentialEnsemble(kind, cfg, n_members, seed=4)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        for warm in (False, True):
            if warm:
                for i, s in enumerate(extra):
                    data.add(s, 0.1 * i)
            losses = ens.fit(data, train, rng, warm_start=warm)
            assert losses == ref.fit(data, train, ref_rng, warm_start=warm)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert (ens.y_mean, ens.y_std) == (ref.y_mean, ref.y_std)
            for m, member in enumerate(ref.members):
                for name, arr in member.params.items():
                    assert np.array_equal(ens.net.params[name][m], arr), (warm, m, name)
        # prediction runs the stacked network one member at a time
        assert np.array_equal(ens.predict_batch(data.codes), ref.predict(data.codes))

    def test_matches_sequential_fit_at_campaign_shapes(self):
        """The two benchmark networks on minibatches of 64 sequences; 65 rows leave a 1-row one.

        kg-nk10's conv network (16 -> 16 channels, k = 9, L = 10): the lockstep
        fit gathers each minibatch's first-layer columns from the columns it
        built once, where the sequential one builds them per minibatch, and
        pools L blocks of every member at once. ucb-lookup-l4v20's
        recurrent network (hidden 64, L = 4, V = 20): the lockstep one skips the
        products with the zero initial state, which the sequential one keeps.
        """
        for kind, cfg, length, vocab in [
                ("conv", ConvRegressorConfig(channels=(16, 16), kernel_size=9, hidden_dense=32),
                 10, 2),
                ("recurrent", RecurrentRegressorConfig(hidden_size=64), 4, 20)]:
            data = random_dataset(65, length=length, vocab=vocab, seed=21)
            train = TrainConfig(epochs=2, minibatch=64, learning_rate=5e-3)
            ens = Ensemble(kind, cfg, n_members=5, seed=4)
            ref = SequentialEnsemble(kind, cfg, 5, seed=4)
            rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
            assert ens.fit(data, train, rng) == ref.fit(data, train, ref_rng), kind
            for m, member in enumerate(ref.members):
                for name, arr in member.params.items():
                    assert np.array_equal(ens.net.params[name][m], arr), (kind, m, name)
            assert np.array_equal(ens.predict_batch(data.codes), ref.predict(data.codes))

    def test_divergence_raises_training_error(self):
        """The loss check reports the divergence; NumPy's overflow warnings stay silent."""
        data = random_dataset(8, seed=2)
        ens = Ensemble("conv", SMALL_CONV, n_members=2, seed=0)
        with pytest.raises(TrainingError, match="diverged"):
            ens.fit(data, TrainConfig(epochs=5, minibatch=4, learning_rate=1e300),
                    np.random.default_rng(0))

    def test_member_views_read_the_stack(self):
        data = random_dataset(8, seed=2)
        ens = Ensemble("recurrent", SMALL_RNN, n_members=3, seed=0)
        assert ens.members == []
        ens.fit(data, TrainConfig(epochs=1, minibatch=8), np.random.default_rng(0))
        for m, member in enumerate(ens.members):
            for name, arr in member.params.items():
                assert np.shares_memory(arr, ens.net.params[name])
                assert np.array_equal(arr, ens.net.params[name][m:m + 1])


class TestPrediction:
    def test_single_member_has_zero_variance(self):
        data = random_dataset(12, seed=8)
        ens = Ensemble("conv", SMALL_CONV, n_members=1, seed=0)
        ens.fit(data, TrainConfig(epochs=10, minibatch=8), np.random.default_rng(0))
        for _, var in ens.predict_batch(data.codes):
            assert var == 0.0

    def test_mean_and_population_variance_of_member_outputs(self):
        # hand-set member predictions {1..5} -> mean 3, population variance 2.
        # The standardization is set to constants that make each standardized
        # target exact in the float32 output bias, so each member predicts it exactly.
        data = random_dataset(8, seed=1)
        ens = Ensemble("conv", SMALL_CONV, n_members=5, seed=0)
        ens.fit(data, TrainConfig(epochs=1, minibatch=8), np.random.default_rng(0))
        ens.y_mean, ens.y_std = 0.5, 0.25
        targets = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        for i in range(ens.n_members):
            ens.net.params["out_w"][i] = 0.0
            ens.net.params["out_b"][i] = (targets[i] - ens.y_mean) / ens.y_std
        mean, var = ens.predict_batch(data.codes[:1])[0]
        assert mean == pytest.approx(3.0, abs=1e-9)
        assert var == pytest.approx(2.0, abs=1e-9)

    def test_standardization_guard_for_constant_targets(self):
        data = Dataset()
        rng = np.random.default_rng(0)
        for _ in range(8):
            s = Sequence(tuple(rng.integers(0, 2, 8)), AB2)
            if s not in data:
                data.add(s, 1.0)
        ens = Ensemble("conv", SMALL_CONV, n_members=1, seed=0)
        ens.fit(data, TrainConfig(epochs=1, minibatch=8), np.random.default_rng(0))
        assert ens.y_std == 1.0  # zero spread must not divide by ~0

    def test_untrained_predict_raises(self):
        ens = Ensemble("conv", SMALL_CONV, seed=0)
        with pytest.raises(Exception):
            ens.predict_batch(np.zeros((1, 8), dtype=np.uint8))


class TestFantasyUpdates:
    def test_fantasy_update_moves_prediction_toward_outcome(self):
        data = random_dataset(16, seed=3)
        ens = Ensemble("conv", SMALL_CONV, n_members=2, seed=2)
        ens.fit(data, TrainConfig(epochs=30, minibatch=8), np.random.default_rng(3))
        before, _ = ens.predict_batch(data.codes[:1])[0]
        target = before + 1.0
        after = ens.fantasy_inner_means_multi(np.array([[0]]), np.array([[target]])[None],
                                              np.array([0]), data)[0][0, 0]
        assert abs(after - target) < abs(before - target)

    def test_batched_fantasies_match_sequential_updates(self):
        """Conditioning on a whole batch equals conditioning on its rows one after another."""
        data = random_dataset(16, seed=4)
        for kind, cfg in [("conv", SMALL_CONV), ("recurrent", SMALL_RNN)]:
            ens = Ensemble(kind, cfg, n_members=3, seed=1)
            ens.fit(data, TrainConfig(epochs=20, minibatch=8), np.random.default_rng(5))
            ens.predict_batch(data.codes)
            batch, pool = np.arange(3), np.arange(5, 13)
            ys = np.random.default_rng(6).random((4, 3))
            batched = ens.fantasy_inner_means_multi(batch[None], ys[None], pool, data)[0]
            ref = sequential_fantasy_inner_means(ens, batch, ys, pool, data)
            np.testing.assert_allclose(batched, ref, rtol=1e-9, atol=1e-12)

    def test_multi_batch_fantasies_match_single_batch_calls(self):
        data = random_dataset(16, seed=4)
        ens = Ensemble("conv", SMALL_CONV, n_members=3, seed=1)
        ens.fit(data, TrainConfig(epochs=20, minibatch=8), np.random.default_rng(5))
        ens.predict_batch(data.codes)
        pool = np.arange(5, 13)
        batches = np.array([[i, i + 1] for i in range(3)])
        ys = np.random.default_rng(7).random((3, 4, 2))
        multi = ens.fantasy_inner_means_multi(batches, ys, pool, data)
        for c, batch in enumerate(batches):
            single = ens.fantasy_inner_means_multi(batch[None], ys[c][None], pool, data)[0]
            assert np.array_equal(multi[c], single)

    def test_multi_batch_fantasies_reject_bad_shapes(self):
        data = random_dataset(12, seed=4)
        ens = Ensemble("conv", SMALL_CONV, n_members=2, seed=1)
        ens.fit(data, TrainConfig(epochs=5, minibatch=8), np.random.default_rng(5))
        ens.predict_batch(data.codes)
        pool, batch = np.arange(4), np.array([[0, 1]])
        with pytest.raises(ValueError, match="ys must have shape"):
            ens.fantasy_inner_means_multi(batch, np.zeros((2, 3, 2)), pool, data)
        with pytest.raises(ValueError, match="ys must have shape"):
            ens.fantasy_inner_means_multi(batch[:, :1], np.zeros((1, 3, 2)), pool, data)
        with pytest.raises(ValueError, match="ys must have shape"):
            ens.fantasy_inner_means_multi(batch[0], np.zeros((1, 3, 2)), pool, data)

    def test_fantasies_need_predicted_rows(self):
        data = random_dataset(12, seed=4)
        ens = Ensemble("conv", SMALL_CONV, n_members=2, seed=1)
        ens.fit(data, TrainConfig(epochs=5, minibatch=8), np.random.default_rng(5))
        with pytest.raises(TrainingError, match="no rows predicted"):
            ens.fantasy_inner_means_multi(np.array([[0]]), np.zeros((1, 3, 1)), np.arange(4),
                                          data)

    def test_fantasy_update_leaves_base_model_unchanged(self):
        data = random_dataset(12, seed=9)
        ens = Ensemble("conv", SMALL_CONV, n_members=2, seed=0)
        ens.fit(data, TrainConfig(epochs=10, minibatch=8), np.random.default_rng(0))
        pool = np.arange(len(data))
        before = [m for m, _ in ens.predict_batch(data.codes)]
        ens.fantasy_inner_means_multi(np.array([[0]]), np.array([[5.0]])[None], pool, data)
        ens.fantasy_inner_means_multi(np.array([[0], [1]]), np.full((2, 3, 1), 5.0), pool, data)
        after = [m for m, _ in ens.predict_batch(data.codes)]
        assert before == after
