"""Tests for acquisition functions: UCB, EI, knowledge gradient, batch selection."""

import math
import warnings

import numpy as np
import pytest

from proxbo.acquisition import KGConfig, ei, kg_oneshot, select_batch
from proxbo.sequences import Sequence, small_alphabet
from proxbo.surrogate import Dataset

import select_oracle
from linear_model import two_feature_problem

AB2 = small_alphabet(2)


def all_seqs(length):
    """Every binary sequence of `length`, as a residue array in lexicographic order."""
    import itertools
    return np.array(list(itertools.product((0, 1), repeat=length)), dtype=np.uint8)


class TableModel:
    """(mean, variance) rows looked up per residue row."""

    def __init__(self, pool, mean, std):
        self.rows = {tuple(r): (mu, sd * sd) for r, mu, sd in zip(pool.tolist(), mean, std)}

    def predict_batch(self, codes):
        return np.array([self.rows[tuple(r)] for r in codes.tolist()])


class TestUCB:
    # UCB = mean + beta * std: [2.0, 1.5, 2.0, 1.4] at beta 0.5; the tie at 2.0
    # goes to the lexicographically smaller sequence
    POOL = all_seqs(2)
    MODEL = TableModel(POOL, [1.0, 1.5, 0.0, 0.9], [2.0, 0.0, 4.0, 1.0])

    def test_known_value(self):
        chosen = select_batch("ucb", self.MODEL, self.POOL, Dataset(), 4, beta=0.5)
        assert chosen.tolist() == [0, 2, 1, 3]

    def test_beta_zero_is_mean(self):
        chosen = select_batch("ucb", self.MODEL, self.POOL, Dataset(), 4, beta=0.0)
        assert chosen.tolist() == [1, 0, 3, 2]

    def test_monotone_in_mean_and_std(self):
        # equal scores go to the lexicographically smaller sequence, so the
        # last one wins only if its raised mean or std lifts its score
        flat = [1.0, 1.0, 1.0, 1.0]
        for mean, std in [([1.0, 1.0, 1.0, 1.5], flat), (flat, [1.0, 1.0, 1.0, 1.5])]:
            model = TableModel(self.POOL, mean, std)
            chosen = select_batch("ucb", model, self.POOL, Dataset(), 1, beta=1.0)
            assert chosen.tolist() == [3]
        chosen = select_batch("ucb", TableModel(self.POOL, flat, flat), self.POOL,
                              Dataset(), 1, beta=1.0)
        assert chosen.tolist() == [0]

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            select_batch("ucb", self.MODEL, self.POOL, Dataset(), 1, beta=-1.0)


class TestEI:
    def test_negative_std_rejected(self):
        with pytest.raises(ValueError, match="negative posterior std"):
            ei([0.0, 0.0], [1.0, -1.0], 0.0)

    @pytest.mark.parametrize("mean, std", [(float("nan"), 1.0), (0.0, float("inf")),
                                           (float("-inf"), 1.0)])
    def test_non_finite_rejected(self, mean, std):
        with pytest.raises(ValueError, match="non-finite posterior"):
            ei([1.0, mean], [1.0, std], 0.0)

    def test_non_finite_incumbent_rejected(self):
        with pytest.raises(ValueError, match="non-finite incumbent"):
            ei([0.0], [1.0], float("inf"))

    def test_zero_std_is_hinge(self):
        assert ei([2.0, 0.5], [0.0, 0.0], 1.0).tolist() == [1.0, 0.0]
        # max(-0.0, 0.0) is -0.0 on Python floats
        assert ei([-0.0], [0.0], 0.0).tobytes() == np.array(
            [select_oracle.ei(select_oracle.Posterior(-0.0, 0.0), 0.0)]).tobytes()

    def test_nonnegative_and_monotone_in_std(self):
        small, big = ei([0.0, 0.0], [0.5, 2.0], 1.0)
        assert 0.0 <= small < big

    def test_extreme_z_is_the_hinge_without_a_warning(self):
        # z = 1e300 overflows z * z to inf, as it does silently on Python floats
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = ei([1.0, -1.0], [1e-300, 1e-300], 0.0)
        assert value.tolist() == [1.0, 0.0]
        assert value[0] == select_oracle.ei(select_oracle.Posterior(1.0, 1e-300), 0.0)

    def test_matches_the_scalar_oracle_bit_for_bit(self):
        """30,000 triples, 5% zero stds, each value at a scale from 1e-300 to 1e150."""
        rng = np.random.default_rng(5)

        def draw(n):
            return rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 150, n)

        for best in draw(300).tolist():
            mean, std = draw(100), np.abs(draw(100))
            std[rng.random(100) < 0.05] = 0.0
            mean[:3] = best  # a zero gain, with and without a std
            std[0] = 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fast = ei(mean, std, best)
            slow = np.array([select_oracle.ei(select_oracle.Posterior(mu, sd), best)
                             for mu, sd in zip(mean.tolist(), std.tolist())])
            assert fast.tobytes() == slow.tobytes(), best

    def test_matches_monte_carlo(self):
        # closed form vs sampled improvement, 3 standard errors
        rng = np.random.default_rng(12)
        n = 200_000
        for _ in range(10):
            mean = rng.normal(0, 2)
            std = rng.uniform(0.1, 3)
            best = rng.normal(0, 2)
            draws = rng.normal(mean, std, size=n)
            imp = np.maximum(draws - best, 0.0)
            se = imp.std(ddof=1) / math.sqrt(n)
            # the 1e-7 floor covers triples so deep in the tail that no
            # sample improves, making the estimated standard error zero
            assert abs(ei(mean, std, best) - imp.mean()) <= 3 * se + 1e-7


class TestKnowledgeGradient:
    def test_zero_variance_gives_zero_kg(self):
        # conditioning on an already-known point cannot move the posterior
        model, pool, phi = two_feature_problem()
        measured = pool[:1]
        data = Dataset()
        cfg = KGConfig(n_fantasies=32)
        value = kg_oneshot(model, measured, pool, data, cfg, np.random.default_rng(0))
        assert abs(value) <= 1e-3

    def test_matches_gauss_hermite_quadrature(self):
        # single-candidate KG on the conjugate model has the closed form
        # E_z[max_x (a_x + b_x z)]; check Monte Carlo fantasies against it
        model, pool, phi = two_feature_problem()
        candidate = pool[1:2]  # unmeasured corner
        data = Dataset()
        stats = model.predict_batch(pool)
        a = np.array([m for m, _ in stats])
        mu_c, var_c = model.predict_batch(candidate)[0]
        phi_p = np.stack([phi(s) for s in pool])
        phi_c = phi(candidate[0])
        cov_pc = phi_p @ model.cov @ phi_c
        b = cov_pc / math.sqrt(var_c + model.noise_var)
        nodes, weights = np.polynomial.hermite.hermgauss(41)
        post_max = np.array([np.max(a + b * math.sqrt(2.0) * t) for t in nodes])
        reference = float(weights @ post_max / math.sqrt(math.pi)) - a.max()
        cfg = KGConfig(n_fantasies=20_000)
        value = kg_oneshot(model, candidate, pool, data, cfg, np.random.default_rng(1))
        assert reference > 0
        assert abs(value - reference) <= 0.05 * abs(reference)

    def test_rejects_empty_inputs(self):
        model, pool, _ = two_feature_problem()
        cfg = KGConfig()
        with pytest.raises(ValueError):
            kg_oneshot(model, pool[:0], pool, Dataset(), cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            kg_oneshot(model, pool[:1], pool[:0], Dataset(), cfg, np.random.default_rng(0))


class TestSelectBatch:
    def _model_and_pool(self):
        model, pool, _ = two_feature_problem()
        return model, all_seqs(2)

    def test_ucb_beta_zero_ranks_by_mean(self):
        model, pool = self._model_and_pool()
        data = Dataset()
        chosen = select_batch("ucb", model, pool, data, 2, beta=0.0)
        means = model.predict_batch(pool)[:, 0]
        assert set(chosen.tolist()) == set(np.argsort(-means, kind="stable")[:2].tolist())

    def test_ei_top_one_is_argmax(self):
        model, pool = self._model_and_pool()
        data = Dataset()
        best = 0.5
        data.add(Sequence(tuple(pool[0].tolist()), AB2), best)
        chosen = select_batch("ei", model, pool, data, 1)
        mean, var = model.predict_batch(pool).T
        scores = ei(mean, np.sqrt(np.maximum(var, 0.0)), best)
        assert chosen.tolist() == [int(np.argmax(scores))]

    def test_degenerate_whole_pool(self):
        model, pool = self._model_and_pool()
        chosen = select_batch("ucb", model, pool, Dataset(), len(pool))
        assert sorted(chosen.tolist()) == list(range(len(pool)))

    def test_kg_returns_distinct_batch(self):
        model, pool = self._model_and_pool()
        cfg = KGConfig(n_fantasies=8, inner_pool_size=4, inner_eval_size=4)
        chosen = select_batch("kg", model, pool, Dataset(), 3, kg_config=cfg,
                              rng=np.random.default_rng(3))
        assert len(set(chosen.tolist())) == 3

    def test_pool_smaller_than_batch_rejected(self):
        model, pool = self._model_and_pool()
        with pytest.raises(ValueError):
            select_batch("ucb", model, pool[:2], Dataset(), 3)

    def test_kg_rejects_non_finite_scores(self):
        model, pool = self._model_and_pool()

        class NaNFantasies:
            predict_batch = staticmethod(model.predict_batch)

            def fantasy_inner_means_multi(self, batches, ys, inner_pool, data):
                return np.full((len(batches), ys.shape[1], len(inner_pool)), np.nan)

        cfg = KGConfig(n_fantasies=4, inner_pool_size=4, inner_eval_size=4)
        with pytest.raises(ValueError, match="non-finite"):
            select_batch("kg", NaNFantasies(), pool, Dataset(), 2, kg_config=cfg,
                         rng=np.random.default_rng(0))

    def test_greedy_needs_the_wild_type(self):
        model, pool = self._model_and_pool()
        with pytest.raises(ValueError, match="wild type"):
            select_batch("greedy", model, pool, Dataset(), 1)
        with pytest.raises(ValueError, match="wild type"):
            select_batch("ucb", model, pool, Dataset(), 1, lam=0.1)

    def test_negative_lambda_rejected(self):
        model, pool = self._model_and_pool()
        with pytest.raises(ValueError, match="lambda"):
            select_batch("ucb", model, pool, Dataset(), 1, lam=-0.1,
                         wild_type=Sequence(tuple(pool[0].tolist()), AB2))

    def test_unknown_strategy_rejected(self):
        model, pool = self._model_and_pool()
        with pytest.raises(ValueError):
            select_batch("thompson", model, pool, Dataset(), 1)
