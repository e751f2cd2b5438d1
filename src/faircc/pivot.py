"""Randomized pivot correlation clustering (3-approximate in expectation).

Pick a uniformly random unclustered vertex, cluster it with every
unclustered vertex joined to it by a positive edge, repeat. Randomness
comes from ``random.Random`` (Mersenne Twister), which is fully specified
by the language reference, so a fixed seed gives bit-identical output on
every platform.

All restarts of a best-of-restarts run go in one lockstep pass: round r
makes the r-th pivot choice of every restart that still has unclustered
vertices. Each restart keeps its own ``random.Random(seed)`` and draws
``randrange(number unclustered)`` once per round, exactly the draws of a
pass run alone, and its pivot is the unclustered vertex of that rank in
vertex order, the same vertex a pass run alone picks from its sorted
remaining list. Restarts never share state, so every row of the lockstep
labels is the labels of that seed's own pass.

The restarts of one pass are scored together: ``_label_disagreements``
counts every row of the label matrix in one call, from the graph's packed
positive bits, and the costs are exact integers, so the restart kept is
the one a per-seed loop keeps.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .model import Clustering, SignedCompleteGraph, _label_disagreements, _seed


@dataclass(frozen=True)
class PivotRun:
    """Seed and restart count for a pivot run."""

    seed: int = 0
    restarts: int = 25

    def __post_init__(self):
        object.__setattr__(self, "seed", _seed(self.seed, "pivot seed"))
        if not isinstance(self.restarts, numbers.Integral):
            raise InvalidInputError(f"pivot restarts must be an integer, got {self.restarts!r}")
        object.__setattr__(self, "restarts", int(self.restarts))
        if self.restarts < 1:
            raise InvalidInputError("restarts must be >= 1")

    @property
    def seeds(self):
        """The seeds of the run's restarts, in order."""
        return range(self.seed, self.seed + self.restarts)


def pivot_cluster(g: SignedCompleteGraph, seeds) -> np.ndarray:
    """One pivot pass per seed, all in lockstep; returns a len(seeds) x n
    int64 matrix whose row k gives the cluster id of every vertex in the
    pass seeded ``seeds[k]``, ids assigned in order of cluster creation
    (the round number)."""
    rngs = [random.Random(_seed(seed, "pivot seed")) for seed in seeds]
    labels = np.empty((len(rngs), g.n), np.int64)
    live = np.arange(len(rngs))  # rows of the restarts still clustering
    unclustered = np.ones((len(rngs), g.n), bool)  # one row per live restart
    live_labels = np.empty_like(unclustered, np.int64)
    rounds = 0
    while len(live):
        ranks = np.cumsum(unclustered, axis=1)
        left = ranks[:, -1]
        done = left == 0
        if done.any():  # finished restarts drop out of the live set
            labels[live[done]] = live_labels[done]
            live, unclustered, live_labels = live[~done], unclustered[~done], live_labels[~done]
            ranks, left = ranks[~done], left[~done]
        draws = [rngs[k].randrange(m) for k, m in zip(live.tolist(), left.tolist())]
        # the first vertex whose running count of unclustered exceeds the draw
        pivots = np.argmax(ranks > np.array(draws)[:, None], axis=1)
        # the zero diagonal puts the pivot itself beside its positive edges
        joined = unclustered & (g.signs[pivots] >= 0)
        np.copyto(live_labels, rounds, where=joined)
        unclustered ^= joined
        rounds += 1
    return labels


def best_of_restarts(
    g: SignedCompleteGraph, run: PivotRun, scored=None, window: PivotRun | None = None
) -> Clustering:
    """Pivot with seeds seed .. seed+restarts-1; keep the clustering with
    the fewest disagreements (ties: earliest seed).

    ``scored``, a dict the caller keeps for one graph, maps each seed run
    so far to its (disagreements, labels row). A restart depends only on
    the graph and its seed, so the seeds it holds are read from it. When
    any of ``run``'s seeds is missing, every missing seed of ``run`` and of
    ``window``, the seeds the caller will ask this pool for, runs in one
    lockstep pass, is scored in one call and joins it."""
    scored = {} if scored is None else scored
    if any(seed not in scored for seed in run.seeds):
        wanted = set(run.seeds).union(window.seeds if window else ())
        missing = sorted(wanted - scored.keys())
        labels = pivot_cluster(g, missing)
        scored.update(zip(missing, zip(_label_disagreements(g, labels).tolist(), labels)))
    _, best = min((scored[seed][0], seed) for seed in run.seeds)
    # a pass's ids, in order of cluster creation, already form a clustering;
    # only the kept one is renumbered by first appearance
    return Clustering.from_labels(scored[best][1])
