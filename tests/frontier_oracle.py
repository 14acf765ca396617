"""Test oracles of `explorer.frontier_rows`, which derives the proximal frontier from arrays.

`update_frontier` is the incremental merge that campaigns ran before the
frontier was derived: a list of `FrontierPoint`s merged with each queried
batch. `frontier_oracle` is the O(n^2) definition: keep every point that no
other point dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from proxbo.sequences import Sequence


@dataclass(frozen=True)
class FrontierPoint:
    sequence: Sequence
    distance: int
    fitness: float


def update_frontier(frontier: list[FrontierPoint],
                    new_points: list[FrontierPoint]) -> list[FrontierPoint]:
    """Non-dominated set under (minimize distance, maximize fitness).

    A point is dominated when another has distance <= and fitness >= with at
    least one strict. The result is sorted by distance; fitness is then
    strictly increasing. Idempotent.
    """
    points = list(frontier) + list(new_points)
    points.sort(key=lambda p: (p.distance, -p.fitness, p.sequence.residues))
    kept: list[FrontierPoint] = []
    best_fit = -np.inf
    prev_dist = None
    for p in points:
        if p.distance == prev_dist:
            continue  # same distance, lower-or-equal fitness: dominated or duplicate
        if p.fitness > best_fit:
            kept.append(p)
            best_fit = p.fitness
            prev_dist = p.distance
    return kept


def frontier_oracle(points):
    """O(n^2) reference: keep points not dominated by any other."""
    kept = []
    for p in points:
        dominated = any(
            q.distance <= p.distance and q.fitness >= p.fitness
            and (q.distance < p.distance or q.fitness > p.fitness)
            for q in points)
        if not dominated and not any(
                k.distance == p.distance and k.fitness == p.fitness for k in kept):
            kept.append(p)
    return sorted(kept, key=lambda p: p.distance)
