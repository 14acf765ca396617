"""Workload definitions and the inputs the benchmark generates from its seed.

Every input the program sees is made here: the campaign config (including
the campaign seeds) and, for the lookup workload, the TSV landscape. The
lookup table comes from the benchmark's own NK model, written independently
of `proxbo.landscape`, so that the output checks compare the program against
values it did not compute.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

PROTEIN = "ACDEFGHIKLMNPQRSTVWY"

# the acceptance benchmark's BO settings (tests/test_acceptance.py, BO_COMMON)
_BO_COMMON = dict(
    method="batch_bo", members=5, channels=(16, 16), kernel_size=9,
    hidden_dense=32, epochs=150, warm_epochs=40, minibatch=64,
    learning_rate=5e-3, pool_size=900, pool_radius=4, beta=3.0,
    rounds=10, batch=16,
)
_NK10 = dict(landscape_kind="nk", nk_n=10, nk_k=2, nk_v=2, nk_seed=7)
_KG = dict(kg_fantasies=4, kg_inner_pool=128, kg_update_steps=6,
           kg_update_lr=8e-2, kg_inner_eval=8)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict          # CampaignConfig fields shared by every seed
    min_seeds: int        # seeds every run completes; best_fitness averages these


WORKLOADS = {w.name: w for w in (
    Workload("kg-nk10",
             dict(_NK10, **_BO_COMMON, **_KG, acquisition="kg", surrogate_kind="conv",
                  lambda_kind="fixed", lambda_value=0.0),
             min_seeds=3),
    Workload("ucb-lookup-l4v20",
             dict(landscape_kind="lookup", **_BO_COMMON, acquisition="ucb",
                  surrogate_kind="recurrent", lambda_kind="iqr"),
             min_seeds=7),
)}


def campaign_seeds(bench_seed: int):
    """Endless stream of distinct campaign seeds for one benchmark seed."""
    return itertools.count(bench_seed * 1000)


def lookup_seed(bench_seed: int) -> int:
    return 10_000 + bench_seed


def nk_lookup_table(seed: int, n: int = 4, k: int = 2, v: int = 20):
    """Residue codes (V**N, N) and fitnesses of every state of an NK model.

    States are in lexicographic order, so a state's row index is its code read
    as a base-V number. Fitness is the mean over sites of a uniform table
    entry indexed by the site's residue and its K neighbours' residues. Sites
    are summed one after another, left to right, so each value is exactly
    reproducible.
    """
    rng = np.random.default_rng([seed, 0x4E4B])
    neighbours = np.stack([np.sort(rng.choice(np.delete(np.arange(n), i), size=k,
                                              replace=False)) for i in range(n)])
    tables = rng.uniform(size=(n, v ** (k + 1)))
    codes = np.array(list(itertools.product(range(v), repeat=n)), dtype=np.int64)
    total = np.zeros(len(codes))
    for i in range(n):
        key = codes[:, i]
        for j in neighbours[i]:
            key = key * v + codes[:, j]
        total = total + tables[i, key]
    return codes, total / n
