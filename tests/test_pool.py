"""Block-drawn candidate pools against the per-mutant sampler they replaced (tests/pool_oracle.py)."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import proxbo.explorer as explorer
from proxbo.explorer import ExplorerState, propose_pool, update_frontier
from proxbo.landscape import make_nk
from proxbo.sequences import (Sequence, hamming_distance, hamming_distances, mutant_block,
                              residue_array, small_alphabet)

from pool_oracle import rejection_draws, rejection_propose_pool

DRAWS = 24_000


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X ~ chi-square(df), from the series of the regularized lower gamma."""
    a, z = df / 2.0, x / 2.0
    if z <= 0:
        return 1.0
    term = total = 1.0 / a
    n = 0
    while term > total * 1e-16:
        n += 1
        term *= z / (a + n)
        total += term
    return max(0.0, 1.0 - math.exp(-z + a * math.log(z) - math.lgamma(a)) * total)


def homogeneity_p(a, b) -> float:
    """p-value of the chi-square test that two histograms share one distribution."""
    table = np.array([a, b], dtype=np.float64)
    table = table[:, table.sum(axis=0) > 0]
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    return chi2_sf(stat, table.shape[1] - 1)


def goodness_of_fit_p(counts, probs) -> float:
    counts = np.asarray(counts, dtype=np.float64)
    expected = counts.sum() * np.asarray(probs)
    return chi2_sf(float(((counts - expected) ** 2 / expected).sum()), len(counts) - 1)


class TestPerCandidateLaw:
    """Both samplers draw from one law, compared by histograms at fixed seeds.

    The landscape is NK N=14 K=2 V=4 (seed 0), whose frontier holds three
    points at pairwise distance >= 7, so each radius-3 draw is nearest to its
    own anchor, and the anchor can be read back from the candidate.
    """

    RADIUS = 3

    @pytest.fixture(scope="class")
    def draws(self):
        land = make_nk(14, 2, 4, 0)
        ab = land.alphabet
        points = [Sequence((0,) * 14, ab), Sequence((1,) * 7 + (0,) * 7, ab),
                  Sequence((2,) * 14, ab)]
        state = ExplorerState(wild_type=points[0])
        state.frontier = update_frontier(
            [], [state.make_point(s, land.fitness(s)) for s in points])
        assert [p.sequence for p in state.frontier] == points
        anchors = np.array([s.residues for s in points])
        block = mutant_block(anchors, self.RADIUS, DRAWS, 4, np.random.default_rng(11))
        old = rejection_draws(points, self.RADIUS, DRAWS, np.random.default_rng(12))
        return anchors, {"block": block, "rejection": np.array([s.residues for s in old])}

    @staticmethod
    def _stats(anchors, rows):
        dist = (rows[:, None, :] != anchors[None, :, :]).sum(axis=2)
        own = dist.argmin(axis=1)
        base = anchors[own]
        mutated = rows != base
        return {
            "anchor": np.bincount(own, minlength=len(anchors)),
            "distance": np.bincount(dist.min(axis=1), minlength=4)[1:],
            "position": mutated.sum(axis=0),
            "offset": np.bincount(((rows - base) % 4)[mutated], minlength=4)[1:],
        }

    @pytest.mark.parametrize("name", ["distance", "position", "offset"])
    def test_histograms_match_the_rejection_sampler(self, draws, name):
        anchors, rows = draws
        new = self._stats(anchors, rows["block"])[name]
        old = self._stats(anchors, rows["rejection"])[name]
        assert homogeneity_p(new, old) > 1e-3, (new, old)

    def test_block_law_matches_the_exact_law(self, draws):
        anchors, rows = draws
        stats = self._stats(anchors, rows["block"])
        assert (stats["distance"] > 0).all() and len(stats["distance"]) == self.RADIUS
        assert goodness_of_fit_p(stats["anchor"], [1 / 3] * 3) > 1e-3
        assert goodness_of_fit_p(stats["distance"], [1 / 3] * 3) > 1e-3
        assert goodness_of_fit_p(stats["position"], [1 / 14] * 14) > 1e-3
        assert goodness_of_fit_p(stats["offset"], [1 / 3] * 3) > 1e-3


class TestMutantBlock:
    def test_rows_lie_within_radius_of_an_anchor(self):
        anchors = np.array([[0] * 6, [2] * 6])
        rows = mutant_block(anchors, 2, 500, 3, np.random.default_rng(0))
        assert rows.shape == (500, 6)
        assert rows.min() >= 0 and rows.max() < 3
        dist = (rows[:, None, :] != anchors[None]).sum(axis=2).min(axis=1)
        assert dist.min() >= 1 and dist.max() <= 2

    def test_four_draws_in_the_documented_order(self):
        anchors = np.array([[0, 1, 2, 3], [3, 2, 1, 0], [1, 1, 1, 1]])
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        rows = mutant_block(anchors, 3, 50, 4, rng)
        which = ref.integers(3, size=50)
        n_mut = ref.integers(1, 4, size=50)
        keys = ref.random((50, 4))
        offsets = ref.integers(1, 4, size=(50, 4))
        assert rng.bit_generator.state == ref.bit_generator.state
        for row, a, n, k, o in zip(rows, which, n_mut, keys, offsets):
            positions = set(np.argsort(k)[:n].tolist())
            want = [(x + o[i]) % 4 if i in positions else x for i, x in enumerate(anchors[a])]
            assert row.tolist() == want

    def test_bad_arguments_rejected(self):
        rng = np.random.default_rng(0)
        anchors = np.zeros((2, 4), dtype=int)
        with pytest.raises(ValueError):
            mutant_block(anchors, 0, 5, 2, rng)
        with pytest.raises(ValueError):
            mutant_block(anchors, 5, 5, 2, rng)
        with pytest.raises(ValueError):
            mutant_block(anchors, 1, 0, 2, rng)
        with pytest.raises(ValueError):
            mutant_block(np.zeros((0, 4), dtype=int), 1, 5, 2, rng)


class TestHammingDistances:
    @given(st.integers(2, 4), st.integers(1, 9), st.integers(0, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_distance(self, v, length, count, seed):
        ab = small_alphabet(v)
        rng = np.random.default_rng(seed)
        ref = Sequence(tuple(rng.integers(0, v, length).tolist()), ab)
        seqs = [Sequence(tuple(rng.integers(0, v, length).tolist()), ab) for _ in range(count)]
        assert (hamming_distances(residue_array(seqs), ref).tolist()
                == [hamming_distance(s, ref) for s in seqs])

    def test_length_mismatch_raises(self):
        ab = small_alphabet(2)
        with pytest.raises(ValueError):
            hamming_distances(residue_array([Sequence((0, 1), ab)]), Sequence((0, 1, 0), ab))


class _Domain:
    """A subset of V**L states, `members`; `states` makes it enumerable."""

    def __init__(self, members: set, alphabet):
        self.members = members
        self.alphabet = alphabet
        self.enumerated = False

    def contains(self, s: Sequence) -> bool:
        return s.residues in self.members

    def in_domain(self, codes: np.ndarray) -> np.ndarray:
        return np.array([tuple(r) in self.members for r in codes.tolist()], dtype=bool)


class _EnumerableDomain(_Domain):
    def states(self) -> np.ndarray:
        self.enumerated = True
        return np.array(sorted(self.members))

    def iter_domain(self):
        return (Sequence(tuple(r), self.alphabet) for r in self.states().tolist())

    def num_states(self) -> int:
        return len(self.members)


@st.composite
def pool_problems(draw):
    v = draw(st.integers(2, 3))
    length = draw(st.integers(2, 6 if v == 3 else 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    every = list(itertools.product(range(v), repeat=length))
    wt = (0,) * length
    in_domain_share = draw(st.sampled_from([0.4, 1.0]))
    members = {r for r in every if r == wt or rng.random() < in_domain_share}
    measured_share = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    measured = [r for r in sorted(members) if r == wt or rng.random() < measured_share]
    return dict(v=v, length=length, members=members, measured=measured,
                fitness=rng.random(len(measured)).tolist(),
                enumerable=draw(st.booleans()),
                pool_size=draw(st.integers(1, 120)),
                radius=draw(st.integers(1, length)),
                seed=draw(st.integers(0, 2**32 - 1)))


def _setup(problem):
    ab = small_alphabet(problem["v"])
    kind = _EnumerableDomain if problem["enumerable"] else _Domain
    domain = kind(problem["members"], ab)
    state = ExplorerState(wild_type=Sequence((0,) * problem["length"], ab))
    points = []
    for r, y in zip(problem["measured"], problem["fitness"]):
        s = Sequence(r, ab)
        state.data.add(s, y)
        points.append(state.make_point(s, y))
    state.frontier = update_frontier([], points)
    return state, domain


class TestProposePoolProperties:
    @given(pool_problems())
    @settings(max_examples=80, deadline=None)
    def test_pool_invariants(self, problem):
        state, domain = _setup(problem)
        pool_size, radius = problem["pool_size"], problem["radius"]
        drawn: dict[tuple, int] = {}
        radii: list[int] = []

        def spy(anchors, r, count, alphabet_size, rng):
            block = mutant_block(anchors, r, count, alphabet_size, rng)
            radii.append(r)
            for row in block.tolist():
                drawn.setdefault(tuple(row), r)
            return block

        with mock.patch.object(explorer, "mutant_block", spy):
            got = propose_pool(state, domain, pool_size, radius,
                               np.random.default_rng(problem["seed"]))
        pool = got.sequences
        unmeasured = {r for r in domain.members if Sequence(r, state.wild_type.alphabet)
                      not in state.data}

        # distinct, unmeasured, in the domain, at most pool_size
        assert len({s.residues for s in pool}) == len(pool) <= pool_size
        assert all(s not in state.data and domain.contains(s) for s in pool)

        # short iff the pool is not full; on an enumerable domain, iff the domain cannot fill it
        assert got.short == (len(pool) < pool_size)
        if problem["enumerable"]:
            assert got.short == (len(unmeasured) < pool_size)
            if got.short:
                assert {s.residues for s in pool} == unmeasured
                oracle = rejection_propose_pool(state, domain, pool_size, radius,
                                                np.random.default_rng(problem["seed"]))
                assert oracle.short and set(oracle.sequences) == set(pool)

        # drawn candidates come first, each within its block's radius of an anchor;
        # the rest come from the enumeration fallback
        anchors = [p.sequence for p in state.frontier]
        if state.wild_type not in anchors:
            anchors.append(state.wild_type)
        from_draws = [s.residues in drawn for s in pool]
        assert from_draws == sorted(from_draws, reverse=True)
        for s, was_drawn in zip(pool, from_draws):
            if was_drawn:
                assert min(hamming_distance(s, a) for a in anchors) <= drawn[s.residues]
            else:
                assert domain.enumerated
        assert radii == sorted(radii) and (not radii or radii[0] == radius)
        if problem["enumerable"]:
            assert set(radii) <= {radius}

        # the same seed gives the same pool
        again = propose_pool(state, domain, pool_size, radius,
                             np.random.default_rng(problem["seed"]))
        assert again.sequences == pool and again.short == got.short
