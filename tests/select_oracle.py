"""Test oracles: the scalar selection path that `acquisition.select_batch` replaced.

Posteriors are scored one `Posterior` at a time and the tie-break recomputes
`hamming_distance` to the wild type inside the sort key. For a fixed pool,
`select_batch` must choose the same batch, in the same order.

The `greedy` strategy of the oracle is the per-class round-robin of the
frontier-greedy baseline round that `select_batch("greedy", ...)` replaced:
one candidate list per distance class, each sorted by mean, popped in turn.

`ScalarShiftedModel` is the λ-shifted posterior that `select_batch`'s
penalty array replaced: a model wrapper that computes one penalty per
predicted row and unzips (mean, variance) tuples one at a time.
`scalar_penalised_select_batch` is the campaign round's old use of it: the
wrapped model, and EI's incumbent recomputed row by row, behind
`select_batch`'s signature (a residue array in, row indices out).

The oracle ranks `Sequence`s and hands the model their residue array.

`Posterior`, `ucb` and `ei` are the scalar acquisitions that the array
scores of `select_batch` and `acquisition.ei` replaced.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from proxbo.acquisition import KGConfig, _kg_slot_scores, _mean_std
from proxbo.sequences import Sequence, hamming_distance, residue_array
from proxbo.surrogate import Dataset


@dataclass(frozen=True)
class Posterior:
    mean: float
    std: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise ValueError(f"non-finite posterior ({self.mean}, {self.std})")
        if self.std < 0:
            raise ValueError(f"negative posterior std {self.std}")


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def ucb(p: Posterior, beta: float) -> float:
    """Upper confidence bound: mean + beta * std."""
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    return p.mean + beta * p.std


def ei(p: Posterior, best: float) -> float:
    """Expected improvement over the incumbent `best`, closed form."""
    if not math.isfinite(best):
        raise ValueError(f"non-finite incumbent {best}")
    if p.std == 0.0:
        return max(p.mean - best, 0.0)
    z = (p.mean - best) / p.std
    return (p.mean - best) * _norm_cdf(z) + p.std * _norm_pdf(z)


def distance_penalty(lam: float, wild_type: Sequence):
    """The penalty of one residue tuple: `lam` times its Hamming distance to `wild_type`."""
    return lambda residues: lam * sum(a != b for a, b in zip(residues, wild_type.residues))


class ScalarShiftedModel:
    """Posterior with mean shifted by a per-row `penalty(residues)`, variance unchanged.

    The fantasies index the rows of the last prediction, as the model's do,
    so their penalties are kept from it.
    """

    def __init__(self, model, penalty):
        self._model = model
        self._penalty = penalty
        self._shift = None

    def predict_batch(self, codes):
        self._shift = [self._penalty(tuple(r)) for r in codes.tolist()]
        return np.array([(mu - p, var)
                         for p, (mu, var) in zip(self._shift, self._model.predict_batch(codes))])

    def fantasy_inner_means_multi(self, batches, ys, inner_pool, data):
        physical = np.asarray(ys, dtype=np.float64) + np.array(
            [[self._shift[i] for i in batch] for batch in batches.tolist()])[:, None, :]
        inner = self._model.fantasy_inner_means_multi(batches, physical, inner_pool, data)
        return inner - np.array([self._shift[i] for i in inner_pool.tolist()])[None, None, :]


def _slot_scores(model, chosen, subset, inner_pool, data, cfg, rng):
    """`_kg_slot_scores` on sequences, with the penalty left to `model`."""
    seqs = chosen + subset + inner_pool
    k, n = len(chosen), len(chosen) + len(subset)
    penalty = np.zeros(len(seqs))
    mean, std = _mean_std(model, residue_array(seqs), penalty)
    return _kg_slot_scores(model, mean, std, list(range(k)), list(range(k, n)),
                           np.arange(n, len(seqs)), data, cfg, rng, penalty)


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
    the KG slot scores over a UCB-preranked candidate subset.
    """
    if len(pool) < m:
        raise ValueError(f"pool of {len(pool)} smaller than batch size {m}")
    if strategy == "greedy":
        by_class: dict[int, list[tuple[float, Sequence]]] = {}
        for s, (mu, _) in zip(pool, model.predict_batch(residue_array(pool))):
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
        stats = [Posterior(mu, math.sqrt(max(var, 0.0)))
                 for mu, var in model.predict_batch(residue_array(pool))]
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
    stats = [Posterior(mu, math.sqrt(max(var, 0.0)))
             for mu, var in model.predict_batch(residue_array(pool))]
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
        scores = _slot_scores(model, chosen, subset, inner_pool, data, cfg, slot_rng).tolist()
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


def scalar_penalised_select_batch(strategy: str, model, pool: np.ndarray, data: Dataset,
                                  m: int, *, lam: float = 0.0,
                                  wild_type: Sequence | None = None, **kwargs) -> np.ndarray:
    """`scalar_select_batch` on the λ-shifted posterior, with EI's incumbent max(y − λ·d).

    Takes the (P, L) residue array and returns the chosen rows, as `select_batch` does.
    """
    if lam > 0:
        model = ScalarShiftedModel(model, distance_penalty(lam, wild_type))
    seqs = [Sequence(tuple(r), wild_type.alphabet) for r in pool.tolist()]
    chosen = scalar_select_batch(strategy, model, seqs, data, m,
                                 incumbent=regularized_incumbent(data, wild_type, lam),
                                 wild_type=wild_type, **kwargs)
    row = {s: i for i, s in enumerate(seqs)}
    return np.array([row[s] for s in chosen], dtype=np.intp)


def regularized_incumbent(data: Dataset, wild_type: Sequence, lam: float) -> float:
    """max(y − λ·d(s, wild_type)) over the measured rows, one row at a time."""
    return max(y - lam * hamming_distance(s, wild_type)
               for s, y in zip(data.sequences, data.scores.tolist()))
