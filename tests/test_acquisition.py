"""Tests for acquisition functions: UCB, EI, knowledge gradient, batch selection."""

import math

import numpy as np
import pytest

from proxbo.acquisition import (
    KGConfig,
    Posterior,
    ei,
    kg_oneshot,
    select_batch,
    ucb,
)
from proxbo.sequences import Sequence, small_alphabet
from proxbo.surrogate import Dataset

from linear_model import two_feature_problem

AB2 = small_alphabet(2)


def all_seqs(length):
    import itertools
    return [Sequence(r, AB2) for r in itertools.product((0, 1), repeat=length)]


class TestPosterior:
    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            Posterior(0.0, -1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Posterior(float("nan"), 1.0)


class TestUCB:
    def test_known_value(self):
        assert ucb(Posterior(1.0, 2.0), 0.5) == 2.0

    def test_beta_zero_is_mean(self):
        assert ucb(Posterior(1.5, 3.0), 0.0) == 1.5

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            ucb(Posterior(0.0, 1.0), -1.0)

    def test_monotone_in_mean_and_std(self):
        assert ucb(Posterior(2.0, 1.0), 1.0) > ucb(Posterior(1.0, 1.0), 1.0)
        assert ucb(Posterior(1.0, 2.0), 1.0) > ucb(Posterior(1.0, 1.0), 1.0)


class TestEI:
    def test_zero_std_is_hinge(self):
        assert ei(Posterior(2.0, 0.0), 1.0) == 1.0
        assert ei(Posterior(0.5, 0.0), 1.0) == 0.0

    def test_nonnegative_and_monotone_in_std(self):
        p_small, p_big = Posterior(0.0, 0.5), Posterior(0.0, 2.0)
        assert 0.0 <= ei(p_small, 1.0) < ei(p_big, 1.0)

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
            assert abs(ei(Posterior(mean, std), best) - imp.mean()) <= 3 * se + 1e-7

    def test_non_finite_incumbent_rejected(self):
        with pytest.raises(ValueError):
            ei(Posterior(0.0, 1.0), float("inf"))


class TestKnowledgeGradient:
    def test_zero_variance_gives_zero_kg(self):
        # conditioning on an already-known point cannot move the posterior
        model, pool, phi = two_feature_problem()
        measured = pool[0]
        data = Dataset()
        cfg = KGConfig(n_fantasies=32)
        value = kg_oneshot(model, [measured], pool, data, cfg, np.random.default_rng(0))
        assert abs(value) <= 1e-3

    def test_matches_gauss_hermite_quadrature(self):
        # single-candidate KG on the conjugate model has the closed form
        # E_z[max_x (a_x + b_x z)]; check Monte Carlo fantasies against it
        model, pool, phi = two_feature_problem()
        candidate = pool[1]  # unmeasured corner
        data = Dataset()
        stats = model.predict_batch(pool)
        a = np.array([m for m, _ in stats])
        mu_c, var_c = model.predict_batch([candidate])[0]
        phi_p = np.stack([phi(s) for s in pool])
        phi_c = phi(candidate)
        cov_pc = phi_p @ model.cov @ phi_c
        b = cov_pc / math.sqrt(var_c + model.noise_var)
        nodes, weights = np.polynomial.hermite.hermgauss(41)
        post_max = np.array([np.max(a + b * math.sqrt(2.0) * t) for t in nodes])
        reference = float(weights @ post_max / math.sqrt(math.pi)) - a.max()
        cfg = KGConfig(n_fantasies=20_000)
        value = kg_oneshot(model, [candidate], pool, data, cfg, np.random.default_rng(1))
        assert reference > 0
        assert abs(value - reference) <= 0.05 * abs(reference)

    def test_rejects_empty_inputs(self):
        model, pool, _ = two_feature_problem()
        cfg = KGConfig()
        with pytest.raises(ValueError):
            kg_oneshot(model, [], pool, Dataset(), cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            kg_oneshot(model, pool[:1], [], Dataset(), cfg, np.random.default_rng(0))


class TestSelectBatch:
    def _model_and_pool(self):
        model, pool, _ = two_feature_problem()
        return model, all_seqs(2)

    def test_ucb_beta_zero_ranks_by_mean(self):
        model, pool = self._model_and_pool()
        data = Dataset()
        chosen = select_batch("ucb", model, pool, data, 2, beta=0.0)
        means = {s: m for s, (m, _) in zip(pool, model.predict_batch(pool))}
        top_two = sorted(pool, key=lambda s: -means[s])[:2]
        assert set(chosen) == set(top_two)

    def test_ei_top_one_is_argmax(self):
        model, pool = self._model_and_pool()
        data = Dataset()
        best = 0.5
        chosen = select_batch("ei", model, pool, data, 1, incumbent=best)
        scores = [ei(Posterior(m, math.sqrt(max(v, 0.0))), best)
                  for m, v in model.predict_batch(pool)]
        assert chosen[0] == pool[int(np.argmax(scores))]

    def test_degenerate_whole_pool(self):
        model, pool = self._model_and_pool()
        chosen = select_batch("ucb", model, pool, Dataset(), len(pool))
        assert sorted(s.residues for s in chosen) == sorted(s.residues for s in pool)

    def test_kg_returns_distinct_batch(self):
        model, pool = self._model_and_pool()
        cfg = KGConfig(n_fantasies=8, inner_pool_size=4, inner_eval_size=4)
        chosen = select_batch("kg", model, pool, Dataset(), 3, kg_config=cfg,
                              rng=np.random.default_rng(3))
        assert len(set(chosen)) == 3

    def test_pool_smaller_than_batch_rejected(self):
        model, pool = self._model_and_pool()
        with pytest.raises(ValueError):
            select_batch("ucb", model, pool[:2], Dataset(), 3)

    def test_kg_rejects_non_finite_scores(self):
        model, pool = self._model_and_pool()

        class NaNFantasies:
            predict_batch = staticmethod(model.predict_batch)

            def fantasy_inner_means_multi(self, batches, ys, inner_pool, data,
                                          steps=20, lr=1e-3):
                return np.full((len(batches), ys.shape[1], len(inner_pool)), np.nan)

        cfg = KGConfig(n_fantasies=4, inner_pool_size=4, inner_eval_size=4)
        with pytest.raises(ValueError, match="non-finite"):
            select_batch("kg", NaNFantasies(), pool, Dataset(), 2, kg_config=cfg,
                         rng=np.random.default_rng(0))

    def test_greedy_needs_the_wild_type(self):
        model, pool = self._model_and_pool()
        with pytest.raises(ValueError, match="wild type"):
            select_batch("greedy", model, pool, Dataset(), 1)

    def test_unknown_strategy_rejected(self):
        model, pool = self._model_and_pool()
        with pytest.raises(ValueError):
            select_batch("thompson", model, pool, Dataset(), 1)
