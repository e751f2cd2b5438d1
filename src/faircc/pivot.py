"""Randomized pivot correlation clustering (3-approximate in expectation).

Pick a uniformly random unclustered vertex, cluster it with every
unclustered vertex joined to it by a positive edge, repeat. Randomness
comes from ``random.Random`` (Mersenne Twister), which is fully specified
by the language reference, so a fixed seed gives bit-identical output on
every platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import Clustering, SignedCompleteGraph, disagreements


@dataclass(frozen=True)
class PivotRun:
    """Seed, restart count and optional vertex subset for a pivot run."""

    seed: int = 0
    restarts: int = 25
    subset: tuple | None = None

    def __post_init__(self):
        if self.restarts < 1:
            raise InvalidInputError("restarts must be >= 1")
        if self.subset is not None:
            sub = tuple(int(v) for v in self.subset)
            if len(set(sub)) != len(sub):
                raise InvalidInputError("subset entries must be distinct")
            object.__setattr__(self, "subset", sub)

    def resolve_subset(self, n):
        if self.subset is None:
            return list(range(n))
        if not self.subset:
            raise InvalidInputError("subset must be nonempty")
        if any(v < 0 or v >= n for v in self.subset):
            raise InvalidInputError("subset vertex out of range")
        return sorted(self.subset)


def pivot_cluster(g: SignedCompleteGraph, run: PivotRun) -> dict:
    """One pivot pass over the subset; returns vertex -> cluster id with ids
    assigned in order of cluster creation."""
    remaining = run.resolve_subset(g.n)
    rng = random.Random(run.seed)
    label = {}
    next_id = 0
    while remaining:
        pivot = remaining[rng.randrange(len(remaining))]
        members = [pivot] + [v for v in remaining if v != pivot and g.signs[pivot, v] > 0]
        for v in members:
            label[v] = next_id
        next_id += 1
        remaining = [v for v in remaining if v not in label]
    return label


def best_of_restarts(g: SignedCompleteGraph, run: PivotRun) -> dict:
    """Pivot with seeds seed .. seed+restarts-1; keep the labeling with the
    fewest disagreements inside the subset (ties: earliest seed)."""
    subset = run.resolve_subset(g.n)
    induced = SignedCompleteGraph(len(subset), g.signs[np.ix_(subset, subset)])
    best_label = None
    best_cost = None
    for k in range(run.restarts):
        label = pivot_cluster(g, PivotRun(run.seed + k, 1, tuple(subset)))
        cost = disagreements(induced, Clustering.from_labels([label[v] for v in subset]))
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_label = label
    return best_label


def pivot_clustering(g: SignedCompleteGraph, run: PivotRun) -> Clustering:
    """Full-graph convenience wrapper returning a canonical Clustering."""
    label = best_of_restarts(g, run)
    return Clustering.from_labels([label[v] for v in range(g.n)])
