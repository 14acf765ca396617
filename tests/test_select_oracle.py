"""Batch selection on arrays against the scalar path it replaced (tests/select_oracle.py).

For a fixed pool, `select_batch`, which computes the pool's distances and
its λ penalty once, must choose the same sequences in the same order as the
scalar path, which builds one `Posterior` per candidate and recomputes the
Hamming distance to the wild type in every sort key and every λ penalty.
"""

import copy

import numpy as np
import pytest

import proxbo.acquisition as acquisition
import proxbo.explorer as explorer
from proxbo.acquisition import KGConfig, select_batch
from proxbo.explorer import ExplorerState, propose_pool, update_frontier
from proxbo.harness import CampaignConfig, run_campaign
from proxbo.landscape import make_nk
from proxbo.sequences import Sequence
from proxbo.surrogate import ConvRegressorConfig, Ensemble, TrainConfig

import test_acceptance
from select_oracle import (ScalarShiftedModel, distance_penalty, regularized_incumbent,
                           scalar_penalised_select_batch, scalar_select_batch)

KG = KGConfig(n_fantasies=3, inner_pool_size=24, inner_eval_size=5)


@pytest.fixture(scope="module")
def problem():
    land = make_nk(8, 1, 2, 4)
    wt = Sequence((0,) * 8, land.alphabet)
    state = ExplorerState(wild_type=wt)
    rng = np.random.default_rng(0)
    for residues in rng.integers(0, 2, (40, 8)).tolist():
        s = Sequence(tuple(residues), land.alphabet)
        if s not in state.data:
            state.data.add(s, land.fitness(s))
    state.frontier = update_frontier(
        [], [state.make_point(s, y) for s, y in zip(state.data.sequences, state.data.scores)])
    ens = Ensemble("conv", ConvRegressorConfig(channels=(4, 4), kernel_size=3, hidden_dense=6),
                   n_members=3, seed=1)
    ens.fit(state.data, TrainConfig(epochs=20, minibatch=16), rng)
    pool = propose_pool(state, land, 96, 3, rng).codes
    return state, ens, pool


def seqs(codes, alphabet):
    return [Sequence(tuple(r), alphabet) for r in codes.tolist()]


@pytest.mark.parametrize("lam", [0.0, 0.04])
@pytest.mark.parametrize("strategy", ["ucb", "ei", "kg", "greedy"])
def test_same_batch_as_the_scalar_path(problem, strategy, lam):
    state, ens, pool = problem
    wt = state.wild_type
    slow_model = ScalarShiftedModel(ens, distance_penalty(lam, wt)) if lam else ens
    slow = scalar_select_batch(strategy, slow_model, seqs(pool, wt.alphabet), state.data, 6,
                               wild_type=wt, beta=2.5,
                               incumbent=regularized_incumbent(state.data, wt, lam),
                               kg_config=KG, rng=np.random.default_rng(9))
    fast = select_batch(strategy, ens, pool, state.data, 6, lam=lam, wild_type=wt,
                        beta=2.5, kg_config=KG, rng=np.random.default_rng(9))
    assert pool[fast].tolist() == [list(s.residues) for s in slow]


def test_ei_incumbent_is_the_best_regularized_measurement(problem):
    """A high score far from the wild type is the best measurement, not the incumbent."""
    state, ens, pool = problem
    wt, lam = state.wild_type, 0.04
    data = copy.deepcopy(state.data)
    far = Sequence((1,) * len(wt), wt.alphabet)
    assert far not in data and far not in seqs(pool, wt.alphabet)
    data.add(far, data.max_score() + 0.2)
    incumbent = regularized_incumbent(data, wt, lam)
    assert incumbent < data.max_score() - 0.1
    shifted = ScalarShiftedModel(ens, distance_penalty(lam, wt))
    slow = scalar_select_batch("ei", shifted, seqs(pool, wt.alphabet), data, 6, wild_type=wt,
                               incumbent=incumbent)
    fast = select_batch("ei", ens, pool, data, 6, lam=lam, wild_type=wt)
    assert pool[fast].tolist() == [list(s.residues) for s in slow]
    unregularized = scalar_select_batch("ei", shifted, seqs(pool, wt.alphabet), data, 6,
                                        wild_type=wt)
    assert pool[fast].tolist() != [list(s.residues) for s in unregularized]


@pytest.mark.parametrize("strategy, calls", [("kg", ["pool"]), ("ei", ["pool", "data"])])
def test_distances_computed_once_per_call(problem, monkeypatch, strategy, calls):
    """The pool's distances, which also break ties, are computed once per call."""
    state, ens, pool = problem
    seen = []
    distances = acquisition.hamming_distances

    def counting_distances(rows, ref):
        seen.append({len(pool): "pool", len(state.data): "data"}[len(rows)])
        return distances(rows, ref)

    monkeypatch.setattr(acquisition, "hamming_distances", counting_distances)
    select_batch(strategy, ens, pool, state.data, 6, lam=0.04, wild_type=state.wild_type,
                 kg_config=KG, rng=np.random.default_rng(9))
    assert seen == calls


class CoarseModel:
    """Posterior read from the first two residues only, so most scores tie."""

    def predict_batch(self, codes):
        return np.array([(float(r[0] + r[1]), 0.25 * (1 + r[2])) for r in codes.tolist()])


@pytest.mark.parametrize("lam", [0.0, 0.04])
@pytest.mark.parametrize("strategy", ["ucb", "ei", "greedy"])
def test_same_tie_breaks_as_the_scalar_path(problem, strategy, lam):
    state, _, pool = problem
    wt = state.wild_type
    slow_model = ScalarShiftedModel(CoarseModel(), distance_penalty(lam, wt))
    slow = scalar_select_batch(strategy, slow_model, seqs(pool, wt.alphabet), state.data, 40,
                               wild_type=wt, incumbent=regularized_incumbent(state.data, wt, lam))
    fast = select_batch(strategy, CoarseModel(), pool, state.data, 40, lam=lam, wild_type=wt)
    assert pool[fast].tolist() == [list(s.residues) for s in slow]


def test_non_finite_posterior_rejected(problem):
    state, ens, pool = problem

    class NaNVariance:
        def predict_batch(self, batch):
            return np.array([(0.0, float("nan"))] + [(0.0, 1.0)] * (len(batch) - 1))

    for strategy in ("ucb", "ei", "kg", "greedy"):
        with pytest.raises(ValueError, match="non-finite posterior"):
            select_batch(strategy, NaNVariance(), pool, state.data, 2, kg_config=KG,
                         wild_type=state.wild_type)
    with pytest.raises(ValueError, match="beta"):
        select_batch("ucb", ens, pool, state.data, 2, beta=-1.0)


@pytest.mark.parametrize("method", [dict(acquisition="ucb"), dict(acquisition="ei"),
                                    dict(acquisition="kg"), dict(method="pex_greedy")],
                         ids=["ucb", "ei", "kg", "pex_greedy"])
def test_campaign_with_the_scalar_path_gives_identical_csvs(tmp_path, monkeypatch, method):
    """λ from the IQR rule, so the penalty, the incumbent and the tie-break all read distances.

    The frontier-greedy baseline runs at λ = 0 and ranks each distance class by mean.
    """
    base = {**test_acceptance.TestReproducibility.CONFIG.__dict__,
            **method, "rounds": 3, "seeds": (0,)}
    blobs = []
    for name in ("arrays", "scalar"):
        if name == "scalar":
            monkeypatch.setattr(explorer, "select_batch", scalar_penalised_select_batch)
        run_campaign(CampaignConfig(**{**base, "out": str(tmp_path / name)}))
        blobs.append((tmp_path / name / "run_0.csv").read_bytes())
    assert blobs[0] == blobs[1]
