"""Proximal regularized search: candidate pools around the frontier, rounds.

The proximal frontier is the non-dominated set of measured sequences under
(distance to the wild type, fitness). It is not stored: `frontier_rows`
derives it from the dataset's arrays whenever a pool is proposed. Mutant
pools are drawn around it, and query batches are selected with
`acquisition.select_batch`, which applies the acquisition to the
distance-regularized posterior (mean shifted by -lambda * d(s, wild_type)).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .acquisition import KGConfig, select_batch
from .errors import DomainExhausted
from .landscape import MAX_ENUMERATED_STATES, BudgetedOracle
from .sequences import (Alphabet, Sequence, hamming_distances, mutant_block, mutant_residues,
                        row_keys)
from .surrogate import Dataset, Ensemble, TrainConfig


@dataclass
class ExplorerState:
    wild_type: Sequence
    data: Dataset = field(default_factory=Dataset)
    round_index: int = 0


def frontier_rows(codes: np.ndarray, scores: np.ndarray, wild_type: Sequence) -> np.ndarray:
    """Indices of the non-dominated rows under (minimize distance, maximize fitness).

    A row is dominated when another has distance <= and fitness >= with at
    least one strict. The rows come nearest first, so their fitness strictly
    increases; of rows equal in distance and fitness, the first in residue
    order is kept.
    """
    dist = hamming_distances(codes, wild_type)
    order = np.lexsort((*codes.T[::-1], -scores, dist))
    tops = order[np.diff(dist[order], prepend=-1) != 0]  # the fittest row at each distance
    fit = scores[tops]
    return tops[fit > np.maximum.accumulate(np.concatenate([[-np.inf], fit[:-1]]))]


@dataclass
class PoolProposal:
    codes: np.ndarray  # (P, L) residue ordinals of the candidates, in draw order
    alphabet: Alphabet
    short: bool  # True when the domain could not fill the requested size

    @property
    def sequences(self) -> list[Sequence]:
        """The candidates as `Sequence`s, built on access; no campaign reads them."""
        return [Sequence(tuple(r), self.alphabet) for r in self.codes.tolist()]


# The smallest block drawn at once: the old sampler's staleness budget, 30
# chunks of at most 16 mutants that add nothing before a radius ends.
_MIN_BLOCK = 30 * 16


def propose_pool(state: ExplorerState, domain, pool_size: int, radius: int,
                 rng: np.random.Generator) -> PoolProposal:
    """Sample unmeasured candidates around the proximal frontier and the wild type.

    Candidates come in blocks from `mutant_block`, each draw with the law of
    `random_mutant` on an anchor drawn uniformly from the dataset's
    `frontier_rows` (nearest first), then the wild type when it is not among
    them. A block holds max(480, twice the pool deficit) draws, taken in
    draw order: draws already pooled, measured or drawn (compared by
    row bytes at one dtype) are skipped, and the rest are checked in one
    `domain.in_domain` call. A block that adds nothing ends the radius r,
    which then widens up to L. On enumerable domains (with `states` and
    `num_states`) the fallback is instead `domain.states()`, filtered the
    same way, in random order; the pool is flagged short if it is still
    smaller than `pool_size`.
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    alphabet = state.wild_type.alphabet
    length = len(state.wild_type)
    measured = state.data.codes.reshape(-1, length)
    anchor_rows = measured[frontier_rows(measured, state.data.scores, state.wild_type)]
    wt_row = np.array([state.wild_type.residues])
    if not (anchor_rows == wt_row).all(axis=1).any():
        anchor_rows = np.concatenate([anchor_rows, wt_row])
    dtype = np.min_scalar_type(alphabet.size - 1)
    pool = np.zeros((0, length), dtype)
    seen: set = set()  # row keys of every sequence pooled, measured or drawn

    def fresh(rows: np.ndarray) -> np.ndarray:
        """The rows not seen before, in order, at one dtype; they are seen from now on."""
        rows = rows.astype(dtype, copy=False)
        keys = row_keys(rows).tolist()
        return rows[[i for i, key in enumerate(keys) if key not in seen and not seen.add(key)]]

    def add(rows: np.ndarray) -> None:
        nonlocal pool
        pool = np.concatenate([pool, rows[:pool_size - len(pool)]])

    fresh(measured)

    def draw_at(r: int) -> None:
        while len(pool) < pool_size:
            size = max(_MIN_BLOCK, 2 * (pool_size - len(pool)))
            rows = fresh(mutant_block(anchor_rows, r, size, alphabet.size, rng))
            if domain is not None:
                rows = rows[domain.in_domain(rows)]
            if not len(rows):
                return
            add(rows)

    draw_at(min(radius, length))
    enumerable = (domain is not None and hasattr(domain, "states")
                  and hasattr(domain, "num_states")
                  and domain.num_states() <= MAX_ENUMERATED_STATES)
    if len(pool) < pool_size and enumerable:
        # small enumerable domain: fill from the shuffled unmeasured remainder
        rest = fresh(domain.states())
        add(rest[rng.permutation(len(rest))])
    else:
        # widen the radius up to L; once the pool is full, draw_at draws nothing
        for r in range(min(radius, length) + 1, length + 1):
            draw_at(r)
    return PoolProposal(pool, alphabet, short=len(pool) < pool_size)


@dataclass
class RoundRecord:
    round_index: int
    codes: np.ndarray  # (B, L) residue ordinals of the batch measured, in query order
    scores: list[float]
    cumulative_max: float
    wall_time: float
    lambda_used: float = 0.0
    pool_size: int = 0
    short_pool: bool = False


def _finish_round(state: ExplorerState, codes, scores, t0, **extra) -> RoundRecord:
    state.round_index += 1
    return RoundRecord(round_index=state.round_index, codes=codes, scores=scores,
                       cumulative_max=state.data.max_score(),
                       wall_time=time.perf_counter() - t0, **extra)


def _query_draws(state: ExplorerState, oracle: BudgetedOracle, m: int, tries: int,
                 draw, what: str) -> tuple[np.ndarray, list[float]]:
    """Query and ingest up to `m` distinct unmeasured in-domain residue tuples from `draw()`.

    `draw()` is called at most `m * tries` times; rejected draws are dropped.
    """
    chosen: dict[tuple[int, ...], None] = {}  # insertion-ordered set
    for _ in range(m * tries):
        if len(chosen) == m:
            break
        c = draw()
        if c not in state.data and c not in chosen and oracle.inner.in_domain(np.array([c]))[0]:
            chosen[c] = None
    if not chosen:
        raise DomainExhausted(f"{what} found no unmeasured in-domain mutants")
    codes = np.array(list(chosen), dtype=np.min_scalar_type(state.wild_type.alphabet.size - 1))
    scores = oracle.query_batch(codes)
    state.data.add_rows(codes, scores, state.wild_type.alphabet)
    return codes, scores


def run_round(state: ExplorerState, ensemble: Ensemble, oracle: BudgetedOracle,
              *, strategy: str = "kg", lam: float = 0.0, beta: float = 2.0,
              kg_config: KGConfig | None = None, pool_size: int = 512,
              radius: int = 2, train_cfg: TrainConfig | None = None,
              warm_cfg: TrainConfig | None = None,
              rng: np.random.Generator | None = None) -> tuple[ExplorerState, RoundRecord]:
    """One model-guided campaign round: Batch BO, or the frontier-greedy baseline.

    With no prior measurements beyond the wild type, the first round queries
    random low-order mutants with no model guidance. Otherwise: propose a
    pool, select a batch with `select_batch` on the posterior regularized by
    `lam` (`strategy="greedy"`: the frontier-greedy batch), query the
    oracle, refit the ensemble (a warm start with `warm_cfg` when given,
    else from scratch with `train_cfg`). No selection follows the round
    that spends the budget, so it does not refit.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    t0 = time.perf_counter()
    if len(state.data) <= 1:
        wt = state.wild_type
        codes, scores = _query_draws(
            state, oracle, oracle.batch_size, 200,
            lambda: mutant_residues(wt.residues, min(2, len(wt)), wt.alphabet.size, rng),
            "cold start")
        if oracle.rounds_remaining > 0:
            ensemble.fit(state.data, train_cfg, rng)
        return state, _finish_round(state, codes, scores, t0)

    proposal = propose_pool(state, oracle.inner, pool_size, radius, rng)
    m = min(oracle.batch_size, len(proposal.codes))
    if m == 0:
        raise DomainExhausted("candidate pool is empty; domain exhausted")

    rows = select_batch(strategy, ensemble, proposal.codes, state.data, m, lam=lam,
                        beta=beta, kg_config=kg_config, wild_type=state.wild_type, rng=rng)
    codes = proposal.codes[rows]
    scores = oracle.query_batch(codes)
    state.data.add_rows(codes, scores, proposal.alphabet)
    if oracle.rounds_remaining > 0:
        ensemble.fit(state.data, warm_cfg or train_cfg, rng, warm_start=warm_cfg is not None)
    return state, _finish_round(state, codes, scores, t0, lambda_used=lam,
                                pool_size=len(proposal.codes),
                                short_pool=proposal.short)


def random_search_round(state: ExplorerState, oracle: BudgetedOracle, m: int,
                        rng: np.random.Generator) -> tuple[ExplorerState, RoundRecord]:
    """Baseline: each proposal is a 1-point mutation of a random measured parent."""
    if len(state.data) == 0:
        raise ValueError("random search needs at least one measured sequence")
    t0 = time.perf_counter()
    parents, size = state.data.codes.tolist(), state.data.alphabet.size
    codes, scores = _query_draws(
        state, oracle, m, 500,
        lambda: mutant_residues(parents[int(rng.integers(len(parents)))], 1, size, rng),
        "random search")
    return state, _finish_round(state, codes, scores, t0)
