"""Batch selection on arrays against the scalar path it replaced (tests/select_oracle.py).

For a fixed pool, `select_batch` with the pool's distances computed once
and the array-shifted `_ShiftedModel` must choose the same sequences in the
same order as the scalar path, which builds one `Posterior` per candidate
and recomputes the Hamming distance to the wild type in every sort key and
every λ penalty.
"""

import numpy as np
import pytest

import proxbo.explorer as explorer
from proxbo.acquisition import KGConfig, select_batch
from proxbo.explorer import ExplorerState, _ShiftedModel, propose_pool, update_frontier
from proxbo.harness import CampaignConfig, run_campaign
from proxbo.landscape import make_nk
from proxbo.sequences import Sequence, hamming_distance
from proxbo.surrogate import ConvRegressorConfig, Ensemble, TrainConfig

import test_acceptance
from select_oracle import ScalarShiftedModel, scalar_select_batch

KG = KGConfig(n_fantasies=3, inner_pool_size=24, update_steps=3, update_lr=8e-2,
              inner_eval_size=5)


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
    pool = propose_pool(state, land, 96, 3, rng).sequences
    return state, ens, pool


@pytest.mark.parametrize("lam", [0.0, 0.04])
@pytest.mark.parametrize("strategy", ["ucb", "ei", "kg", "greedy"])
def test_same_batch_as_the_scalar_path(problem, strategy, lam):
    state, ens, pool = problem
    wt = state.wild_type
    fast_model = _ShiftedModel(ens, wt, lam) if lam else ens
    slow_model = ScalarShiftedModel(ens, lambda s: lam * hamming_distance(s, wt)) if lam else ens
    common = dict(beta=2.5, incumbent=float(state.data.max_score()) - 0.05, kg_config=KG)
    slow = scalar_select_batch(strategy, slow_model, pool, state.data, 6, wild_type=wt,
                               rng=np.random.default_rng(9), **common)
    fast = select_batch(strategy, fast_model, pool, state.data, 6, wild_type=wt,
                        rng=np.random.default_rng(9), **common)
    assert [s.residues for s in fast] == [s.residues for s in slow]


class CoarseModel:
    """Posterior read from the first two residues only, so most scores tie."""

    def predict_batch(self, batch):
        return np.array([(float(s.residues[0] + s.residues[1]), 0.25 * (1 + s.residues[2]))
                         for s in batch])


@pytest.mark.parametrize("lam", [0.0, 0.04])
@pytest.mark.parametrize("strategy", ["ucb", "ei", "greedy"])
def test_same_tie_breaks_as_the_scalar_path(problem, strategy, lam):
    state, _, pool = problem
    wt = state.wild_type
    fast_model = _ShiftedModel(CoarseModel(), wt, lam)
    slow_model = ScalarShiftedModel(CoarseModel(), lambda s: lam * hamming_distance(s, wt))
    slow = scalar_select_batch(strategy, slow_model, pool, state.data, 40, wild_type=wt,
                               incumbent=1.0)
    fast = select_batch(strategy, fast_model, pool, state.data, 40, wild_type=wt,
                        incumbent=1.0)
    assert [s.residues for s in fast] == [s.residues for s in slow]


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


@pytest.mark.parametrize("acquisition", ["ucb", "ei", "kg"])
def test_campaign_with_the_scalar_path_gives_identical_csvs(tmp_path, monkeypatch, acquisition):
    """λ from the IQR rule, so the shifted model and the tie-break both read distances."""
    base = {**test_acceptance.TestReproducibility.CONFIG.__dict__,
            "acquisition": acquisition, "rounds": 3, "seeds": (0,)}
    blobs = []
    for name in ("arrays", "scalar"):
        if name == "scalar":
            monkeypatch.setattr(explorer, "select_batch", scalar_select_batch)
            monkeypatch.setattr(explorer, "_ShiftedModel", lambda model, wt, lam: (
                ScalarShiftedModel(model, lambda s: lam * hamming_distance(s, wt))))
        run_campaign(CampaignConfig(**{**base, "out": str(tmp_path / name)}))
        blobs.append((tmp_path / name / "run_0.csv").read_bytes())
    assert blobs[0] == blobs[1]
