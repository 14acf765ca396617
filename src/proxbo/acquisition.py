"""Acquisition functions over ensemble posterior statistics and batch selection.

`kg_oneshot` and `select_batch` only need a model with two array methods:
`predict_batch(seqs)`, a (len(seqs), 2) array of posterior mean and
variance, and `fantasy_inner_means_multi(batches, ys, inner_pool, data,
steps, lr)`, the (len(batches), n_fantasies, len(inner_pool)) posterior
means over `inner_pool` after conditioning each same-size batch on each row
of its fantasy outcomes `ys[c]` (n_fantasies, batch size). Exact conjugate
models can therefore stand in for the ensemble in tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .sequences import Sequence, hamming_distances
from .surrogate import Dataset


@dataclass(frozen=True)
class Posterior:
    mean: float
    std: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise ValueError(f"non-finite posterior ({self.mean}, {self.std})")
        if self.std < 0:
            raise ValueError(f"negative posterior std {self.std}")


@dataclass(frozen=True)
class KGConfig:
    n_fantasies: int = 16
    inner_pool_size: int = 256
    update_steps: int = 20
    update_lr: float = 1e-3
    inner_eval_size: int = 64  # candidates scored per greedy slot

    def __post_init__(self):
        if min(self.n_fantasies, self.inner_pool_size, self.update_steps,
               self.inner_eval_size) < 1 or self.update_lr <= 0:
            raise ValueError("all KG parameters must be positive")


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


def kg_oneshot(model, batch: list[Sequence], inner_pool: list[Sequence],
               data: Dataset, cfg: KGConfig, rng: np.random.Generator) -> float:
    """One-shot knowledge gradient of measuring `batch`.

    Averages, over sampled fantasy outcomes for the batch, the maximum
    posterior mean over `inner_pool` after a lightweight posterior update on
    the augmented dataset; subtracts the current maximum posterior mean.
    """
    if not batch or not inner_pool:
        raise ValueError("batch and inner_pool must be non-empty")
    incumbent = model.predict_batch(inner_pool)[:, 0].max()
    return float(_kg_slot_scores(model, batch[:-1], batch[-1:], inner_pool, data, cfg,
                                 rng)[0] - incumbent)


def _kg_slot_scores(model, chosen: list[Sequence], subset: list[Sequence],
                    inner_pool: list[Sequence], data: Dataset, cfg: KGConfig,
                    rng: np.random.Generator) -> np.ndarray:
    """Incumbent-free KG score of `chosen + [c]` for every candidate `c`.

    Candidates share the random fantasy draws (common random numbers), so
    every candidate's fantasies are conditioned in one
    `fantasy_inner_means_multi` call, after one `predict_batch` of the
    chosen sequences and the whole subset.
    """
    z = rng.standard_normal((cfg.n_fantasies, len(chosen) + 1))
    mean, std = _mean_std(model, chosen + subset)
    # row j: the chosen sequences, then candidate j
    rows = np.empty((len(subset), len(chosen) + 1), dtype=np.intp)
    rows[:, :-1] = np.arange(len(chosen))
    rows[:, -1] = len(chosen) + np.arange(len(subset))
    ys = mean[rows][:, None, :] + std[rows][:, None, :] * z
    inner = model.fantasy_inner_means_multi([chosen + [c] for c in subset], ys,
                                            inner_pool, data, steps=cfg.update_steps,
                                            lr=cfg.update_lr)
    return inner.max(axis=2).mean(axis=1)


def _mean_std(model, pool: list[Sequence]) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and std arrays over `pool`; a non-finite entry is an error."""
    mean, var = model.predict_batch(pool).T
    std = np.sqrt(np.maximum(var, 0.0))
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        raise ValueError(f"non-finite posterior ({mean[bad[0]]}, {std[bad[0]]})")
    return mean, std


def _ucb_scores(model, pool: list[Sequence], beta: float) -> list[float]:
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    mean, std = _mean_std(model, pool)
    return (mean + beta * std).tolist()


def _ranked(pool: list[Sequence], scores: list[float],
            distances: np.ndarray | None) -> list[int]:
    """Sort keys: score desc, then distance to wild type asc, then ordinals."""
    d = distances.tolist() if distances is not None else [0] * len(pool)
    return sorted(range(len(pool)), key=lambda i: (-scores[i], d[i], pool[i].residues))


def select_batch(strategy: str, model, pool: list[Sequence], data: Dataset, m: int,
                 *, beta: float = 2.0, incumbent: float | None = None,
                 kg_config: KGConfig | None = None,
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
    distances = hamming_distances(pool, wild_type) if wild_type is not None else None
    if strategy == "ucb":
        order = _ranked(pool, _ucb_scores(model, pool, beta), distances)
        return [pool[i] for i in order[:m]]
    if strategy == "ei":
        best = incumbent if incumbent is not None else data.max_score()
        mean, std = _mean_std(model, pool)
        scores = [ei(Posterior(mu, sd), best) for mu, sd in zip(mean.tolist(), std.tolist())]
        order = _ranked(pool, scores, distances)
        return [pool[i] for i in order[:m]]
    if strategy != "kg":
        raise ValueError(f"unknown strategy {strategy!r}")

    cfg = kg_config or KGConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    # prerank by UCB to bound the number of KG evaluations per slot
    order = _ranked(pool, _ucb_scores(model, pool, beta), distances)
    candidates = [pool[i] for i in order]
    inner_pool = candidates[: cfg.inner_pool_size]

    chosen: list[Sequence] = []
    taken: set[Sequence] = set()
    for _ in range(m):
        subset = list(itertools.islice((c for c in candidates if c not in taken),
                                       cfg.inner_eval_size))
        slot_rng = np.random.default_rng(int(rng.integers(0, 2**63 - 1)))
        # the incumbent term is constant per slot, so it is dropped
        scores = _kg_slot_scores(model, chosen, subset, inner_pool, data, cfg, slot_rng)
        bad = int(np.sum(~np.isfinite(scores)))
        if bad:
            raise ValueError(f"non-finite KG slot score for {bad} of {len(scores)} candidates")
        best_c = subset[int(np.argmax(scores))]  # the first of equal maxima
        chosen.append(best_c)
        taken.add(best_c)
    return chosen
