import random

import numpy as np
import pytest

from faircc import (
    Clustering,
    InvalidInputError,
    SignedCompleteGraph,
    disagreements,
)
from faircc.pivot import PivotRun, best_of_restarts, pivot_cluster
from conftest import all_partitions, partition_cost, random_graph


def all_positive(n):
    return SignedCompleteGraph.from_negative_edges(n, [])


def all_negative(n):
    return SignedCompleteGraph.from_negative_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


@pytest.mark.parametrize("seed", [0, 1, 17, 998])
def test_all_positive_k4_single_cluster(seed):
    label = pivot_cluster(all_positive(4), seed)
    assert set(label.tolist()) == {0}


@pytest.mark.parametrize("seed", [0, 1, 17, 998])
def test_all_negative_k4_singletons(seed):
    label = pivot_cluster(all_negative(4), seed)
    assert sorted(label.tolist()) == [0, 1, 2, 3]


def test_two_positive_one_negative_triangle_always_cost_one():
    g = SignedCompleteGraph.from_negative_edges(3, [(1, 2)])
    # enumeration confirms no partition beats cost 1
    assert min(partition_cost(g, a) for a in all_partitions(3)) == 1
    for seed in range(30):
        c = best_of_restarts(g, PivotRun(seed, 1))
        assert disagreements(g, c) == 1


def test_deterministic_given_seed():
    g = random_graph(9, seed=4)
    assert pivot_cluster(g, 42).tolist() == pivot_cluster(g, 42).tolist()


def scalar_pivot(g, seed):
    """The per-vertex loop that pivot_cluster's row masks replaced."""
    rng = random.Random(seed)
    remaining = list(range(g.n))
    label = [None] * g.n
    next_id = 0
    while remaining:
        pivot = remaining[rng.randrange(len(remaining))]
        for v in [pivot] + [v for v in remaining if v != pivot and g.signs[pivot, v] > 0]:
            label[v] = next_id
        next_id += 1
        remaining = [v for v in remaining if label[v] is None]
    return label


@pytest.mark.parametrize("neg_prob", [0.1, 0.5, 0.9])
def test_pivot_cluster_matches_scalar_loop(neg_prob):
    for gseed in range(10):
        g = random_graph(5 + 3 * gseed, seed=600 + gseed, neg_prob=neg_prob)
        for seed in range(5):
            assert pivot_cluster(g, seed).tolist() == scalar_pivot(g, seed)


def test_zero_restarts_rejected():
    with pytest.raises(InvalidInputError):
        PivotRun(0, 0)


def test_single_restart_equals_pivot_cluster():
    g = random_graph(7, seed=6)
    single = Clustering.from_labels(pivot_cluster(g, 5).tolist())
    assert best_of_restarts(g, PivotRun(5, 1)) == single


def test_more_restarts_never_worse():
    g = random_graph(7, seed=7)
    one = best_of_restarts(g, PivotRun(3, 1))
    fifty = best_of_restarts(g, PivotRun(3, 50))
    assert disagreements(g, fifty) <= disagreements(g, one)


def test_all_positive_any_restarts_single_cluster():
    c = best_of_restarts(all_positive(6), PivotRun(0, 10))
    assert c.num_clusters == 1


def test_statistical_three_approximation():
    # mean over many seeds stays within 3*OPT plus sampling slack
    for gseed in range(4):
        g = random_graph(7, seed=50 + gseed)
        opt = min(partition_cost(g, a) for a in all_partitions(7))
        costs = [
            disagreements(g, best_of_restarts(g, PivotRun(s, 1))) for s in range(500)
        ]
        assert np.mean(costs) <= 3 * opt * 1.15 + 1e-9


# best_of_restarts labels on random_graph(60, seed=31) and on the graph
# induced by its even vertices, recorded from the scalar pair-loop scorer
# that the vectorized score replaced.
PINNED_FULL = [
    0, 0, 4, 0, 2, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 2, 0,
    0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 1, 1, 0, 3, 0, 0, 1, 1, 1, 2, 0, 0, 0, 1, 0, 1, 1,
]
PINNED_EVEN_SUBSET = [
    0, 3, 1, 0, 2, 0, 0, 1, 0, 0, 0, 1, 2, 1, 0,
    0, 0, 3, 1, 0, 1, 1, 0, 0, 0, 4, 2, 0, 0, 1,
]


def test_best_of_restarts_pinned_labels():
    g = random_graph(60, seed=31)
    assert best_of_restarts(g, PivotRun(5, 25)) == Clustering.from_labels(PINNED_FULL)
    even = np.arange(0, 60, 2)
    induced = SignedCompleteGraph(30, g.signs[np.ix_(even, even)])
    assert best_of_restarts(induced, PivotRun(5, 25)) == Clustering.from_labels(
        PINNED_EVEN_SUBSET
    )
