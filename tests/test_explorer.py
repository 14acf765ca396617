"""Tests for the proximal explorer: the derived frontier, pools, campaign rounds."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxbo.explorer as explorer
import proxbo.surrogate as surrogate
from proxbo.acquisition import KGConfig
from proxbo.errors import DomainExhausted
from proxbo.explorer import (
    ExplorerState,
    frontier_rows,
    propose_pool,
    random_search_round,
    run_round,
)
from proxbo.harness import gen_nk
from proxbo.landscape import BudgetedOracle, load_lookup, make_nk
from proxbo.sequences import (Sequence, hamming_distance, hamming_distances, residue_array,
                              small_alphabet)
from proxbo.surrogate import ConvRegressorConfig, Ensemble, TrainConfig

from frontier_oracle import FrontierPoint, frontier_oracle, update_frontier

AB2 = small_alphabet(2)
SMALL_CONV = ConvRegressorConfig(channels=(4, 4), kernel_size=3, hidden_dense=6)
FAST_TRAIN = TrainConfig(epochs=10, minibatch=16)


def wt(length=8):
    return Sequence((0,) * length, AB2)


def points_of(codes, scores, wild_type):
    """The rows of `codes` as the oracles' `FrontierPoint`s."""
    seqs = [Sequence(tuple(r), wild_type.alphabet) for r in codes.tolist()]
    return [FrontierPoint(s, hamming_distance(s, wild_type), float(y))
            for s, y in zip(seqs, scores)]


def random_rows(rng, n, length=8):
    return rng.integers(0, 2, (n, length)), rng.random(n)


class TestRegularizedScore:
    def test_lambda_argmax_monotone_toward_wild_type(self):
        # as lambda grows, the best candidate's distance never increases
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            dists = rng.integers(0, 10, n)
            fits = rng.random(n)
            lams = np.sort(rng.random(4) * 2)
            prev = None
            for lam in lams:
                scores = fits - lam * dists
                best = np.lexsort((dists, -scores))[0]
                d = dists[best]
                if prev is not None:
                    assert d <= prev
                prev = d


@st.composite
def frontier_problems(draw):
    """Distinct rows, as in a dataset, with fitness from a few values, so ties abound."""
    v, length = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    row = st.tuples(*[st.integers(0, v - 1)] * length)
    rows = draw(st.lists(row, max_size=60, unique=True))
    values = draw(st.lists(st.floats(-1, 1), min_size=1, max_size=3))
    scores = draw(st.lists(st.sampled_from(values), min_size=len(rows), max_size=len(rows)))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=6)))
    return (np.array(rows, dtype=np.uint8).reshape(-1, length), np.array(scores),
            Sequence(draw(row), small_alphabet(v)), cuts)


class TestFrontier:
    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            codes, scores = random_rows(rng, 50)
            points = points_of(codes, scores, wt())
            got = [points[i] for i in frontier_rows(codes, scores, wt())]
            want = frontier_oracle(points)
            assert [(p.distance, p.fitness) for p in got] == \
                   [(p.distance, p.fitness) for p in want]

    @given(frontier_problems())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_batched_merge_and_the_quadratic_oracle_under_ties(self, problem):
        codes, scores, wild_type, cuts = problem
        points = points_of(codes, scores, wild_type)
        got = [points[i] for i in frontier_rows(codes, scores, wild_type)]
        merged = []
        for lo, hi in zip([0] + cuts, cuts + [len(points)]):
            merged = update_frontier(merged, points[lo:hi])
        assert got == merged  # the same rows, in order, the same tie-break
        assert [(p.distance, p.fitness) for p in got] == \
               [(p.distance, p.fitness) for p in frontier_oracle(points)]

    def test_strictly_increasing_fitness_by_distance(self):
        codes, scores = random_rows(np.random.default_rng(4), 80)
        rows = frontier_rows(codes, scores, wt())
        dists = hamming_distances(codes[rows], wt()).tolist()
        fits = scores[rows].tolist()
        assert dists == sorted(dists) and len(set(dists)) == len(dists)
        assert all(a < b for a, b in zip(fits, fits[1:]))


class TestProposePool:
    def _state(self, land, measured=()):
        state = ExplorerState(wild_type=wt(land.n))
        state.data.add(state.wild_type, land.fitness(state.wild_type))
        for s in measured:
            if s not in state.data:
                state.data.add(s, land.fitness(s))
        return state

    def test_pool_is_unmeasured_in_domain_and_distinct(self):
        land = make_nk(8, 1, 2, 0)
        state = self._state(land)
        pool = propose_pool(state, land, 64, 2, np.random.default_rng(5))
        assert not pool.short
        assert len(set(pool.sequences)) == len(pool.sequences) == 64
        assert all(s not in state.data for s in pool.sequences)
        assert all(land.in_domain(residue_array([s]))[0] for s in pool.sequences)

    def test_near_exhausted_domain_flags_short(self):
        land = make_nk(8, 1, 2, 0)  # 256 states
        every = [Sequence(r, AB2) for r in itertools.product((0, 1), repeat=8)]
        state = self._state(land, measured=every[:252])
        pool = propose_pool(state, land, 64, 2, np.random.default_rng(6))
        assert pool.short
        assert sorted(s.residues for s in pool.sequences) == \
               sorted(s.residues for s in every[252:])

    def test_enumeration_fallback_builds_no_sequences(self, monkeypatch):
        land = make_nk(8, 1, 2, 0)  # 256 states
        # every state within one substitution of the wild type is measured,
        # below the wild type's fitness, so the wild type is the one anchor,
        # radius-1 draws add nothing and the pool comes from the fallback
        state = self._state(land)
        below = state.data.max_score() - 1.0
        for r in itertools.product((0, 1), repeat=8):
            if sum(r) == 1:
                state.data.add(Sequence(r, AB2), below)

        def no_sequences(self):
            raise AssertionError("the fallback filters the states array")

        monkeypatch.setattr(type(land), "iter_domain", no_sequences)
        enumerated, states = [], land.states
        monkeypatch.setattr(land, "states", lambda: enumerated.append(1) or states())
        built = []
        monkeypatch.setattr(explorer, "Sequence",
                            lambda *args: built.append(args) or Sequence(*args))
        pool = propose_pool(state, land, 20, 1, np.random.default_rng(3))
        assert enumerated and not pool.short and not built and pool.codes.shape == (20, 8)
        assert len(set(pool.sequences)) == 20
        assert all(s not in state.data and s.alphabet == land.alphabet for s in pool.sequences)

    @pytest.mark.parametrize("kind", ["nk", "lookup"])
    def test_one_domain_check_per_block_and_no_sequences(
            self, monkeypatch, tmp_path, kind):
        # the radius-2 ball around the wild type holds 36 of the 256 states,
        # so a pool of 64 takes more than one block and then the fallback
        land = make_nk(8, 1, 2, 0)
        if kind == "lookup":
            gen_nk(8, 1, 2, 0, tmp_path / "land")
            land = load_lookup(tmp_path / "land.tsv")
        state = ExplorerState(wild_type=wt(8))
        y = land.evaluate_batch(np.array([state.wild_type.residues]))[0]
        state.data.add(state.wild_type, y)

        blocks, checked, built = [], [], []
        draw, in_domain = explorer.mutant_block, land.in_domain
        monkeypatch.setattr(explorer, "mutant_block",
                            lambda *args: blocks.append(args) or draw(*args))
        monkeypatch.setattr(land, "in_domain",
                            lambda codes: checked.append(codes) or in_domain(codes))
        monkeypatch.setattr(explorer, "Sequence",
                            lambda *args: built.append(args) or Sequence(*args))
        pool = propose_pool(state, land, 64, 2, np.random.default_rng(5))
        assert not pool.short and pool.codes.shape == (64, 8) and not built
        # one check per block, of the block's new rows at once; the fallback needs none
        assert len(blocks) >= 2 and len(checked) == len(blocks)
        assert checked[0].shape[1] == 8 and len(checked[0]) > 1
        assert len(set(pool.sequences)) == 64

    def test_deterministic_under_seed(self):
        land = make_nk(8, 1, 2, 0)
        a = propose_pool(self._state(land), land, 32, 2, np.random.default_rng(7))
        b = propose_pool(self._state(land), land, 32, 2, np.random.default_rng(7))
        assert a.sequences == b.sequences

    def test_bad_pool_size_rejected(self):
        land = make_nk(8, 1, 2, 0)
        with pytest.raises(ValueError):
            propose_pool(self._state(land), land, 0, 2, np.random.default_rng(0))


class TestRounds:
    def _setup(self, rounds=3, batch=8, seed=0):
        land = make_nk(8, 1, 2, seed)
        oracle = BudgetedOracle(land, rounds_total=rounds, batch_size=batch)
        state = ExplorerState(wild_type=wt(8))
        state.data.add(state.wild_type, land.fitness(state.wild_type))
        ens = Ensemble("conv", SMALL_CONV, n_members=2, seed=seed)
        return land, oracle, state, ens

    def test_first_round_is_model_free_cold_start(self):
        land, oracle, state, ens = self._setup()
        rng = np.random.default_rng(1)
        state, rec = run_round(state, ens, oracle, strategy="ucb",
                               train_cfg=FAST_TRAIN, rng=rng)
        assert rec.codes.shape == (8, 8)
        assert (hamming_distances(rec.codes, state.wild_type) <= 2).all()
        assert ens.trained
        assert oracle.rounds_remaining == 2

    def test_cumulative_max_is_monotone(self):
        land, oracle, state, ens = self._setup(rounds=3)
        rng = np.random.default_rng(2)
        maxima = []
        for _ in range(3):
            state, rec = run_round(state, ens, oracle, strategy="ucb",
                                   pool_size=64, train_cfg=FAST_TRAIN, rng=rng)
            maxima.append(rec.cumulative_max)
        assert maxima == sorted(maxima)
        assert maxima[-1] == state.data.max_score()

    def test_kg_round_runs_and_consumes_budget(self):
        land, oracle, state, ens = self._setup(rounds=2, batch=4)
        rng = np.random.default_rng(3)
        kg = KGConfig(n_fantasies=2, inner_pool_size=16, inner_eval_size=3)
        state, _ = run_round(state, ens, oracle, strategy="kg", kg_config=kg,
                             pool_size=32, train_cfg=FAST_TRAIN, rng=rng)
        state, rec = run_round(state, ens, oracle, strategy="kg", kg_config=kg,
                               pool_size=32, train_cfg=FAST_TRAIN, rng=rng)
        assert oracle.rounds_remaining == 0
        assert len(set(map(tuple, rec.codes.tolist()))) == 4

    def test_lambda_shifts_batch_toward_wild_type(self):
        # heavy regularization: selected mutants sit closer to the wild type
        land, oracle0, state0, ens0 = self._setup(seed=5)
        rng = np.random.default_rng(4)
        state0, _ = run_round(state0, ens0, oracle0, strategy="ucb",
                              train_cfg=FAST_TRAIN, rng=rng)
        def mean_dist(lam, seed):
            land, oracle, state, ens = self._setup(rounds=3, seed=5)
            rng = np.random.default_rng(seed)
            state, _ = run_round(state, ens, oracle, strategy="ucb",
                                 train_cfg=FAST_TRAIN, rng=rng)
            state, rec = run_round(state, ens, oracle, strategy="ucb", lam=lam,
                                   pool_size=128, radius=4,
                                   train_cfg=FAST_TRAIN, rng=rng)
            return np.mean(hamming_distances(rec.codes, state.wild_type))
        assert np.mean([mean_dist(0.5, s) for s in range(3)]) <= \
               np.mean([mean_dist(0.0, s) for s in range(3)])

    @pytest.mark.parametrize("kind", ["batch_bo", "pex_greedy"])
    def test_cold_start_wall_time_includes_the_fit(self, monkeypatch, kind):
        original = surrogate.Ensemble.fit

        def slow_fit(self, *args, **kwargs):
            time.sleep(0.05)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(surrogate.Ensemble, "fit", slow_fit)
        land, oracle, state, ens = self._setup()
        rng = np.random.default_rng(1)
        strategy = "ucb" if kind == "batch_bo" else "greedy"
        state, rec = run_round(state, ens, oracle, strategy=strategy,
                               train_cfg=FAST_TRAIN, rng=rng)
        assert rec.round_index == 1
        assert rec.wall_time >= 0.05

    @pytest.mark.parametrize("strategy,warm_cfg", [("ucb", None), ("greedy", FAST_TRAIN)])
    def test_round_that_spends_the_budget_leaves_the_ensemble(self, monkeypatch, strategy,
                                                              warm_cfg):
        fits = []
        original = surrogate.Ensemble.fit

        def counting_fit(self, *args, **kwargs):
            fits.append(oracle.rounds_remaining)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(surrogate.Ensemble, "fit", counting_fit)
        land, oracle, state, ens = self._setup(rounds=3, batch=4)
        rng = np.random.default_rng(9)
        for _ in range(2):
            state, _ = run_round(state, ens, oracle, strategy=strategy, pool_size=32,
                                 train_cfg=FAST_TRAIN, warm_cfg=warm_cfg, rng=rng)
        assert fits == [2, 1]  # the cold start and the round before the last refit
        before = (ens.net.params.flat.tobytes(), ens.y_mean, ens.y_std)
        state, rec = run_round(state, ens, oracle, strategy=strategy, pool_size=32,
                               train_cfg=FAST_TRAIN, warm_cfg=warm_cfg, rng=rng)
        assert oracle.rounds_remaining == 0 and fits == [2, 1]
        assert (ens.net.params.flat.tobytes(), ens.y_mean, ens.y_std) == before
        assert rec.round_index == 3 and len(rec.codes) == 4
        assert rec.scores == land.evaluate_batch(rec.codes)
        assert rec.cumulative_max == state.data.max_score()
        assert rec.pool_size == 32 and not rec.short_pool and rec.wall_time > 0

    def test_exhausted_domain_raises_domain_exhausted(self):
        land = make_nk(3, 0, 2, 0)
        oracle = BudgetedOracle(land, rounds_total=3, batch_size=8)
        state = ExplorerState(wild_type=wt(3))
        for s in land.iter_domain():
            state.data.add(s, land.fitness(s))
        with pytest.raises(DomainExhausted):
            random_search_round(state, oracle, 4, np.random.default_rng(0))

    def test_random_search_proposals_are_single_mutations(self):
        land, oracle, state, ens = self._setup()
        rng = np.random.default_rng(6)
        measured_before = state.data.codes
        state, rec = random_search_round(state, oracle, 8, rng)
        for row in rec.codes:
            assert (row != measured_before).sum(axis=1).min() == 1

    def test_pex_greedy_sweeps_distance_classes(self):
        land, oracle, state, ens = self._setup(rounds=2)
        rng = np.random.default_rng(7)
        state, _ = run_round(state, ens, oracle, strategy="greedy", pool_size=64,
                             train_cfg=FAST_TRAIN, rng=rng)
        state, rec = run_round(state, ens, oracle, strategy="greedy", pool_size=64,
                               radius=3, train_cfg=FAST_TRAIN, rng=rng)
        dists = sorted(set(hamming_distances(rec.codes, state.wild_type).tolist()))
        # round-robin over distance classes covers more than one class
        assert len(dists) > 1

    def test_round_records_measured_fitness_not_regularized(self):
        land, oracle, state, ens = self._setup(rounds=2)
        rng = np.random.default_rng(8)
        state, _ = run_round(state, ens, oracle, strategy="ucb",
                             train_cfg=FAST_TRAIN, rng=rng)
        state, rec = run_round(state, ens, oracle, strategy="ucb", lam=0.7,
                               pool_size=32, train_cfg=FAST_TRAIN, rng=rng)
        assert rec.scores == land.evaluate_batch(rec.codes)
