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
    """Seed and restart count for a pivot run."""

    seed: int = 0
    restarts: int = 25

    def __post_init__(self):
        if self.restarts < 1:
            raise InvalidInputError("restarts must be >= 1")


def pivot_cluster(g: SignedCompleteGraph, seed: int) -> np.ndarray:
    """One pivot pass; returns the cluster id of every vertex, ids assigned
    in order of cluster creation."""
    rng = random.Random(seed)
    label = np.empty(g.n, np.int64)
    remaining = np.arange(g.n)
    next_id = 0
    while len(remaining):
        pivot = remaining[rng.randrange(len(remaining))]
        # the zero diagonal puts the pivot itself beside its positive edges
        joined = g.signs[pivot, remaining] >= 0
        label[remaining[joined]] = next_id
        next_id += 1
        remaining = remaining[~joined]
    return label


def best_of_restarts(g: SignedCompleteGraph, run: PivotRun) -> Clustering:
    """Pivot with seeds seed .. seed+restarts-1; keep the clustering with
    the fewest disagreements (ties: earliest seed)."""
    restarts = (
        Clustering.from_labels(pivot_cluster(g, run.seed + k).tolist())
        for k in range(run.restarts)
    )
    return min(restarts, key=lambda c: disagreements(g, c))
