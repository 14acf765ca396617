"""Batch selection over a candidate pool, and the acquisitions it scores.

`ei(mean, std, best)` is expected improvement over arrays of posterior means
and stds; UCB is `mean + beta * std`, written inline. `select_batch` scores
and ranks the whole pool as arrays: one score array per call, and one
`np.lexsort` by score, then distance to the wild type, then residues.

Candidates are rows of a (P, L) residue array, and `kg_oneshot` and
`select_batch` only need a model with two array methods:
`predict_batch(codes)`, the (P, 2) posterior mean and variance of the rows
of `codes`, and `fantasy_inner_means_multi(batches, ys, inner_pool, data)`,
whose (C, w) `batches` and (I,) `inner_pool` are row indices into the codes
of the last `predict_batch` call (a later call retargets them). It
returns the (C, n_fantasies, I) posterior means over the `inner_pool`
rows after conditioning each batch on each row of its fantasy outcomes
`ys[c]` (n_fantasies, w). Exact conjugate models can therefore stand in
for the ensemble in tests. The model knows nothing of the proximal
penalty: `select_batch` subtracts λ·d(s, wild type) from its means itself.
`select_batch` strategies are the acquisitions `ucb`, `ei` and `kg`, and
`greedy`, the frontier-greedy (PEX-style) baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_positive
from .sequences import Sequence, hamming_distances
from .surrogate import Dataset


@dataclass(frozen=True)
class KGConfig:
    """One-shot KG settings; `update_steps` and `update_lr` are ignored since 0.3.0.

    Each of `n_fantasies` outcome draws per candidate batch is scored over the
    UCB-best `inner_pool_size` pool sequences, and a greedy slot scores the
    UCB-best `inner_eval_size` candidates. The ignored fields set the SGD head.
    """

    n_fantasies: int = 16
    inner_pool_size: int = 256
    update_steps: int = 20
    update_lr: float = 1e-3
    inner_eval_size: int = 64

    def __post_init__(self):
        check_positive(self, "n_fantasies", "inner_pool_size", "inner_eval_size")


_erfc = np.frompyfunc(math.erfc, 1, 1)
_exp = np.frompyfunc(math.exp, 1, 1)


def ei(mean, std, best: float) -> np.ndarray:
    """Expected improvement of each (mean, std) pair over the incumbent `best`, closed form.

    NumPy has no `erfc`, so Python's `math.erfc` and `math.exp` run element by
    element; the rest is the scalar expression, in its order of operations,
    so every element has the bits of the scalar form on Python floats. A zero
    std gives the hinge max(mean - best, 0).
    """
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    if not math.isfinite(best):
        raise ValueError(f"non-finite incumbent {best}")
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        raise ValueError(f"non-finite posterior ({mean.flat[bad[0]]}, {std.flat[bad[0]]})")
    if np.any(std < 0):
        raise ValueError(f"negative posterior std {std.min()}")
    gain = mean - best
    zero = std == 0.0
    # Python floats overflow to inf without a warning: a tiny std gives z = ±inf
    with np.errstate(over="ignore"):
        z = gain / np.where(zero, 1.0, std)
        cdf = 0.5 * np.asarray(_erfc(-z / math.sqrt(2.0)), dtype=np.float64)
        pdf = np.asarray(_exp(-0.5 * z * z), dtype=np.float64) / math.sqrt(2.0 * math.pi)
        smooth = gain * cdf + std * pdf
    # max(gain, 0.0) keeps gain unless 0.0 > gain, so -0.0 stays -0.0
    return np.where(zero, np.where(gain < 0.0, 0.0, gain), smooth)


def kg_oneshot(model, batch: np.ndarray, inner_pool: np.ndarray,
               data: Dataset, cfg: KGConfig, rng: np.random.Generator) -> float:
    """One-shot knowledge gradient of measuring the (n, L) residue rows `batch`.

    Averages, over sampled fantasy outcomes for the batch, the maximum
    posterior mean over the (I, L) rows `inner_pool` after a lightweight
    posterior update on the augmented dataset; subtracts the current maximum
    posterior mean.
    """
    if not len(batch) or not len(inner_pool):
        raise ValueError("batch and inner_pool must be non-empty")
    n = len(batch)
    codes = np.concatenate([batch, inner_pool])
    penalty = np.zeros(len(codes))
    mean, std = _mean_std(model, codes, penalty)
    return float(_kg_slot_scores(model, mean, std, list(range(n - 1)), [n - 1],
                                 np.arange(n, len(codes)), data, cfg, rng, penalty)[0]
                 - mean[n:].max())


def _kg_slot_scores(model, mean: np.ndarray, std: np.ndarray, chosen: list[int],
                    subset: list[int], inner: np.ndarray, data: Dataset, cfg: KGConfig,
                    rng: np.random.Generator, penalty: np.ndarray) -> np.ndarray:
    """Incumbent-free KG score of `chosen + [c]` for every candidate `c` in `subset`.

    `chosen`, `subset` and `inner` (the inner pool) index the rows of the
    model's last `predict_batch`, whose penalised posterior means and stds
    are `mean` and `std`; `penalty[i]` is the penalty in the mean of row i.
    The fantasy update conditions on physical outcomes, so each fantasy
    outcome gets its penalty back before the update and the inner means lose
    theirs after. Candidates share the random fantasy draws (common random
    numbers), so every candidate's fantasies are conditioned in one
    `fantasy_inner_means_multi` call.
    """
    z = rng.standard_normal((cfg.n_fantasies, len(chosen) + 1))
    # row j: the pool indices of the chosen sequences, then of candidate j
    rows = np.empty((len(subset), len(chosen) + 1), dtype=np.intp)
    rows[:, :-1] = chosen
    rows[:, -1] = subset
    ys = mean[rows][:, None, :] + std[rows][:, None, :] * z + penalty[rows][:, None, :]
    inner_means = model.fantasy_inner_means_multi(rows, ys, inner, data)
    return (inner_means - penalty[inner]).max(axis=2).mean(axis=1)


def _mean_std(model, codes: np.ndarray,
              penalty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Penalised posterior mean and std arrays over the rows of `codes`; non-finite is an error."""
    mean, var = model.predict_batch(codes).T
    mean = mean - penalty
    std = np.sqrt(np.maximum(var, 0.0))
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        raise ValueError(f"non-finite posterior ({mean[bad[0]]}, {std[bad[0]]})")
    return mean, std


def _ranked(residues: np.ndarray, scores: np.ndarray, distances: np.ndarray) -> np.ndarray:
    """Indices of the (P, L) pool `residues` by score desc, distance asc, then residues.

    `np.lexsort` is stable and takes its keys last-first: the residue columns
    go in from the last to the first.
    """
    return np.lexsort((*residues.T[::-1], distances, -scores))


def select_batch(strategy: str, model, pool: np.ndarray, data: Dataset, m: int,
                 *, lam: float = 0.0, beta: float = 2.0,
                 kg_config: KGConfig | None = None,
                 wild_type: Sequence | None = None,
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Indices of M distinct rows of the (P, L) residue array `pool`, by the chosen strategy.

    Every strategy scores the proximally regularised posterior: the model's
    mean minus `lam` times the Hamming distance to `wild_type`, with the
    variance unchanged. The pool's distances and residues break ties. UCB/EI
    score the whole pool and take the top M (ties broken by smaller
    distance, then lexicographic order); EI's incumbent is the best measured
    score minus its own `lam` times distance. Greedy ranks by mean and takes
    the best of each distance class, nearest first, round-robin. KG fills
    the batch greedily: each slot scores every extension of the partial
    batch over a UCB-preranked candidate subset with `_kg_slot_scores`,
    whose fantasy outcomes get the penalty back before the model's update.
    """
    if strategy not in ("ucb", "ei", "kg", "greedy"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if len(pool) < m:
        raise ValueError(f"pool of {len(pool)} smaller than batch size {m}")
    if not lam >= 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if wild_type is not None:
        distances = hamming_distances(pool, wild_type)
    elif strategy == "greedy" or lam > 0:
        raise ValueError(f"the {strategy} strategy with lambda {lam} needs the wild type")
    else:
        distances = np.zeros(len(pool), dtype=np.intp)
    penalty = lam * distances
    mean, std = _mean_std(model, pool, penalty)
    if strategy == "greedy":
        order = _ranked(pool, mean, distances)
        # the k-th best of every class comes before the (k+1)-th best of any:
        # group the ranks by class, stably, and count each one's depth in its class
        classes = distances[order]
        grouped = np.argsort(classes, kind="stable")
        depth = np.empty(len(order), dtype=np.intp)
        depth[grouped] = np.arange(len(order)) - np.searchsorted(classes[grouped],
                                                                 classes[grouped])
        return order[np.lexsort((classes, depth))][:m]
    if strategy == "ei":
        best = data.max_score() if lam == 0 else float(np.max(
            data.scores - lam * hamming_distances(data.codes, wild_type)))
        return _ranked(pool, ei(mean, std, best), distances)[:m]
    order = _ranked(pool, mean + beta * std, distances)
    if strategy == "ucb":
        return order[:m]

    cfg = kg_config or KGConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    # prerank by UCB to bound the number of KG evaluations per slot
    inner = order[: cfg.inner_pool_size]
    chosen: list[int] = []
    free = np.ones(len(pool), dtype=bool)  # by pool index: not chosen yet
    for _ in range(m):
        subset = order[free[order]][: cfg.inner_eval_size].tolist()
        slot_rng = np.random.default_rng(int(rng.integers(0, 2**63 - 1)))
        # the incumbent term is constant per slot, so it is dropped
        scores = _kg_slot_scores(model, mean, std, chosen, subset, inner, data, cfg,
                                 slot_rng, penalty)
        bad = int(np.sum(~np.isfinite(scores)))
        if bad:
            raise ValueError(f"non-finite KG slot score for {bad} of {len(scores)} candidates")
        best_c = subset[int(np.argmax(scores))]  # the first of equal maxima
        chosen.append(best_c)
        free[best_c] = False
    return np.array(chosen, dtype=np.intp)
