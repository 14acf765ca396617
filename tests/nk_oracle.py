"""The per-site NK fitness loop: the oracle for `NKLandscape.fitness_rows`.

This is the scalar body `NKLandscape.fitness` ran before the array kernel:
one Python float sum over the sites, in order, of each site's table entry,
keyed by its residue and then its neighbours' as base-V digits.
"""

from __future__ import annotations

import numpy as np

from proxbo.landscape import NKLandscape


def scalar_fitness(land: NKLandscape, residues: tuple[int, ...]) -> float:
    v = land.alphabet.size
    total = 0.0
    for i in range(land.n):
        key = residues[i]
        for j in land.neighbor_map[i]:
            key = key * v + residues[j]
        total += land.tables[i, key]
    return total / land.n


def scalar_fitnesses(land: NKLandscape, codes: np.ndarray) -> np.ndarray:
    return np.array([scalar_fitness(land, tuple(row)) for row in codes.tolist()])
