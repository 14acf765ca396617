"""Test oracle: the per-mutant rejection sampler that `explorer.propose_pool` replaced.

`rejection_propose_pool` is the old body: one anchor per chunk of at most 16
mutants drawn by `sample_mutants`, and a radius ends after 30 chunks in a row
that add nothing. `rejection_draws` is its draw stream without any
deduplication, for comparing the per-candidate law with `mutant_block`.
"""

from __future__ import annotations

import numpy as np

from proxbo.explorer import ExplorerState, PoolProposal, frontier_rows
from proxbo.sequences import Sequence, random_mutant, residue_array, sample_mutants


def frontier_anchors(state: ExplorerState) -> list[Sequence]:
    """The pool's anchors: the dataset's frontier, nearest first, then the wild type if absent."""
    length = len(state.wild_type)
    codes = state.data.codes.reshape(-1, length)
    rows = frontier_rows(codes, state.data.scores, state.wild_type)
    anchors = [Sequence(tuple(r), state.wild_type.alphabet) for r in codes[rows].tolist()]
    return anchors if state.wild_type in anchors else anchors + [state.wild_type]


def rejection_propose_pool(state: ExplorerState, domain, pool_size: int, radius: int,
                           rng: np.random.Generator) -> PoolProposal:
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    anchors = frontier_anchors(state)
    length = len(state.wild_type)
    pool: list[Sequence] = []
    seen: set[Sequence] = set()

    def proposal(short: bool) -> PoolProposal:
        return PoolProposal(residue_array(pool).reshape(-1, length), state.wild_type.alphabet,
                            short)

    def draw_at(r: int) -> None:
        stale = 0
        while len(pool) < pool_size and stale < 30:
            anchor = anchors[int(rng.integers(len(anchors)))]
            chunk = sample_mutants(anchor, r, min(16, pool_size - len(pool)), rng)
            grew = False
            for c in chunk:
                if c in seen or c in state.data:
                    continue
                if domain is not None and not domain.in_domain(residue_array([c]))[0]:
                    continue
                seen.add(c)
                pool.append(c)
                grew = True
            stale = 0 if grew else stale + 1

    draw_at(min(radius, length))
    if len(pool) >= pool_size:
        return proposal(short=False)
    enumerable = (domain is not None and hasattr(domain, "iter_domain")
                  and hasattr(domain, "num_states") and domain.num_states() <= 2**20)
    if not enumerable:
        # widen the mutation radius until the pool fills or radius reaches L
        for r in range(min(radius, length) + 1, length + 1):
            draw_at(r)
            if len(pool) >= pool_size:
                return proposal(short=False)
        return proposal(short=True)
    # small enumerable domain: fill from the shuffled unmeasured remainder
    rest = [c for c in domain.iter_domain() if c not in seen and c not in state.data]
    for i in rng.permutation(len(rest)):
        if len(pool) >= pool_size:
            return proposal(short=False)
        pool.append(rest[int(i)])
    return proposal(short=len(pool) < pool_size)


def rejection_draws(anchors: list[Sequence], radius: int, count: int,
                    rng: np.random.Generator) -> list[Sequence]:
    """`count` draws of the old sampler with no deduplication.

    As in `rejection_propose_pool`, one uniform anchor serves a chunk of 16
    draws, and each draw is one `random_mutant` of it.
    """
    out: list[Sequence] = []
    while len(out) < count:
        anchor = anchors[int(rng.integers(len(anchors)))]
        out.extend(random_mutant(anchor, radius, rng) for _ in range(min(16, count - len(out))))
    return out
