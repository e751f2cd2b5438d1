"""Shared helpers: random instance generation and independent brute-force
oracles used to freeze expected values."""

import itertools
import random

import numpy as np
import pytest

from faircc import ColorAssignment, SignedCompleteGraph
from faircc.fair_clustering import build_fairlets, build_matchings


def random_graph(n, seed, neg_prob=0.5):
    rng = random.Random(seed)
    signs = np.ones((n, n), dtype=np.int8)
    for u in range(n):
        for v in range(u + 1, n):
            signs[u, v] = signs[v, u] = -1 if rng.random() < neg_prob else 1
    np.fill_diagonal(signs, 0)
    return SignedCompleteGraph(n, signs)


def random_colors(counts, seed):
    rng = random.Random(seed)
    color_of = [c for c, k in enumerate(counts) for _ in range(k)]
    rng.shuffle(color_of)
    return ColorAssignment(tuple(color_of))


def fairlets_of(g, colors, spec, unit_costs=False):
    """Fairlet ids from both seed-free stages."""
    return build_fairlets(colors, spec, build_matchings(g, colors, spec, unit_costs))


def pair_cost(g, u, v):
    """Disagreement increase from forcing u and v into one cluster, counted
    pair by pair: the reference for ``pair_cost_table``."""
    if u == v:
        raise ValueError("pair cost needs two distinct vertices")
    cost = 1 if g.signs[u, v] < 0 else 0
    for w in range(g.n):
        if w != u and w != v and g.signs[u, w] != g.signs[v, w]:
            cost += 1
    return cost


def all_partitions(n):
    """Every set partition of range(n) as a restricted growth string."""
    assign = [0] * n

    def walk(v, used):
        if v == n:
            yield tuple(assign)
            return
        for b in range(used + 1):
            assign[v] = b
            yield from walk(v + 1, max(used, b + 1))

    yield from walk(0, 0)


def partition_cost(g, assign):
    cost = 0
    for u, v in itertools.combinations(range(g.n), 2):
        same = assign[u] == assign[v]
        sign = g.signs[u, v]
        if (sign < 0 and same) or (sign > 0 and not same):
            cost += 1
    return cost


def is_fair_partition(colors, spec, assign):
    for b in set(assign):
        hist = {}
        for v, bv in enumerate(assign):
            if bv == b:
                c = colors.color_of[v]
                hist[c] = hist.get(c, 0) + 1
        n1 = hist.get(spec.base_color, 0)
        if n1 < 1:
            return False
        for c, (p, q) in spec.bounds.items():
            if not n1 * p <= hist.get(c, 0) <= n1 * q:
                return False
    return True


def brute_opt(g):
    return min(partition_cost(g, a) for a in all_partitions(g.n))


def brute_opt_fair(g, colors, spec):
    costs = [
        partition_cost(g, a)
        for a in all_partitions(g.n)
        if is_fair_partition(colors, spec, a)
    ]
    return min(costs) if costs else None


@pytest.fixture
def rng():
    return random.Random(0)
