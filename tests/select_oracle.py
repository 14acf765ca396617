"""Test oracles: the scalar selection path that `acquisition.select_batch` replaced.

Posteriors are scored one `Posterior` at a time and the tie-break recomputes
`hamming_distance` to the wild type inside the sort key. For a fixed pool,
`select_batch` must choose the same batch, in the same order.

The `greedy` strategy of the oracle is the per-class round-robin of the
frontier-greedy baseline round that `select_batch("greedy", ...)` replaced:
one candidate list per distance class, each sorted by mean, popped in turn.

`ScalarShiftedModel` is the λ-shifted posterior that `explorer._ShiftedModel`
replaced: it looks up one penalty per sequence and unzips (mean, variance)
tuples one at a time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from proxbo.acquisition import KGConfig, Posterior, _kg_slot_scores, ei, ucb
from proxbo.sequences import Sequence, hamming_distance
from proxbo.surrogate import Dataset


class ScalarShiftedModel:
    """Posterior with mean shifted by a per-sequence `penalty(s)`, variance unchanged."""

    def __init__(self, model, penalty):
        self._model = model
        self._penalty = penalty

    def predict_batch(self, batch):
        return np.array([(mu - self._penalty(s), var)
                         for s, (mu, var) in zip(batch, self._model.predict_batch(batch))])

    def fantasy_inner_means_multi(self, batches, ys, inner_pool, data, steps=20, lr=1e-3):
        physical = np.asarray(ys, dtype=np.float64) + np.stack(
            [[self._penalty(s) for s in batch] for batch in batches])[:, None, :]
        inner = self._model.fantasy_inner_means_multi(batches, physical, inner_pool,
                                                      data, steps=steps, lr=lr)
        return inner - np.array([self._penalty(s) for s in inner_pool])[None, None, :]


def _ranked(pool: list[Sequence], scores: list[float],
            wild_type: Sequence | None) -> list[tuple]:
    """Sort keys: score desc, then distance to wild type asc, then ordinals."""
    def key(i):
        s = pool[i]
        d = hamming_distance(s, wild_type) if wild_type is not None else 0
        return (-scores[i], d, s.residues)
    return sorted(range(len(pool)), key=key)


def scalar_select_batch(strategy: str, model, pool: list[Sequence], data: Dataset, m: int,
                        *, beta: float = 2.0, incumbent: float | None = None,
                        kg_config: KGConfig | None = None,
                        inner_pool: list[Sequence] | None = None,
                        wild_type: Sequence | None = None,
                        rng: np.random.Generator | None = None) -> list[Sequence]:
    """Pick M distinct pool sequences by the chosen acquisition strategy.

    UCB/EI score the whole pool and take the top M (ties broken by smaller
    Hamming distance to the wild type, then lexicographic order). KG fills
    the batch greedily, scoring each extension of the partial batch with
    `kg_oneshot` over a UCB-preranked candidate subset.
    """
    if len(pool) < m:
        raise ValueError(f"pool of {len(pool)} smaller than batch size {m}")
    if strategy == "greedy":
        by_class: dict[int, list[tuple[float, Sequence]]] = {}
        for s, (mu, _) in zip(pool, model.predict_batch(pool)):
            by_class.setdefault(hamming_distance(s, wild_type), []).append((mu, s))
        for cands in by_class.values():
            cands.sort(key=lambda t: (-t[0], t[1].residues))
        batch: list[Sequence] = []
        while len(batch) < m:
            progressed = False
            for d in sorted(by_class):
                if by_class[d]:
                    batch.append(by_class[d].pop(0)[1])
                    progressed = True
                    if len(batch) == m:
                        break
            if not progressed:
                break
        return batch
    if strategy in ("ucb", "ei"):
        stats = [Posterior(mu, math.sqrt(max(var, 0.0))) for mu, var in model.predict_batch(pool)]
        if strategy == "ucb":
            scores = [ucb(p, beta) for p in stats]
        else:
            best = incumbent if incumbent is not None else data.max_score()
            scores = [ei(p, best) for p in stats]
        order = _ranked(pool, scores, wild_type)
        return [pool[i] for i in order[:m]]
    if strategy != "kg":
        raise ValueError(f"unknown strategy {strategy!r}")

    cfg = kg_config or KGConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    # prerank by UCB to bound the number of KG evaluations per slot
    stats = [Posterior(mu, math.sqrt(max(var, 0.0))) for mu, var in model.predict_batch(pool)]
    ucb_scores = [ucb(p, beta) for p in stats]
    order = _ranked(pool, ucb_scores, wild_type)
    candidates = [pool[i] for i in order]
    if inner_pool is None:
        inner_pool = candidates[: cfg.inner_pool_size]

    chosen: list[Sequence] = []
    taken: set[Sequence] = set()
    for _ in range(m):
        subset = list(itertools.islice((c for c in candidates if c not in taken),
                                       cfg.inner_eval_size))
        slot_rng = np.random.default_rng(int(rng.integers(0, 2**63 - 1)))
        # the incumbent term is constant per slot, so it is dropped
        scores = _kg_slot_scores(model, chosen, subset, inner_pool, data, cfg,
                                 slot_rng).tolist()
        bad = sum(not math.isfinite(score) for score in scores)
        if bad:
            raise ValueError(f"non-finite KG slot score for {bad} of {len(scores)} candidates")
        best_c, best_score = None, -math.inf
        for c, score in zip(subset, scores):
            if score > best_score:
                best_c, best_score = c, score
        chosen.append(best_c)
        taken.add(best_c)
    return chosen
