import random

import numpy as np
import pytest

from faircc import (
    Clustering,
    InvalidInputError,
    SignedCompleteGraph,
    disagreements,
)
from faircc.pivot import (
    PivotRun,
    best_of_restarts,
    pivot_cluster,
    pivot_clustering,
)
from conftest import all_partitions, partition_cost, random_graph


def all_positive(n):
    return SignedCompleteGraph.from_negative_edges(n, [])


def all_negative(n):
    return SignedCompleteGraph.from_negative_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


@pytest.mark.parametrize("seed", [0, 1, 17, 998])
def test_all_positive_k4_single_cluster(seed):
    label = pivot_cluster(all_positive(4), PivotRun(seed, 1))
    assert len(set(label.values())) == 1


@pytest.mark.parametrize("seed", [0, 1, 17, 998])
def test_all_negative_k4_singletons(seed):
    label = pivot_cluster(all_negative(4), PivotRun(seed, 1))
    assert len(set(label.values())) == 4


def test_two_positive_one_negative_triangle_always_cost_one():
    g = SignedCompleteGraph.from_negative_edges(3, [(1, 2)])
    # enumeration confirms no partition beats cost 1
    assert min(partition_cost(g, a) for a in all_partitions(3)) == 1
    for seed in range(30):
        c = pivot_clustering(g, PivotRun(seed, 1))
        assert disagreements(g, c) == 1


def test_deterministic_given_seed():
    g = random_graph(9, seed=4)
    a = pivot_cluster(g, PivotRun(42, 1))
    b = pivot_cluster(g, PivotRun(42, 1))
    assert a == b


def test_subset_clusters_partition_the_subset():
    g = random_graph(8, seed=5)
    subset = (1, 3, 4, 6)
    label = pivot_cluster(g, PivotRun(0, 1, subset))
    assert set(label) == set(subset)


def test_empty_subset_rejected():
    g = random_graph(3, seed=0)
    with pytest.raises(InvalidInputError):
        pivot_cluster(g, PivotRun(0, 1, ()))
    with pytest.raises(InvalidInputError):
        PivotRun(0, 0)


def test_single_restart_equals_pivot_cluster():
    g = random_graph(7, seed=6)
    assert best_of_restarts(g, PivotRun(5, 1)) == pivot_cluster(g, PivotRun(5, 1))


def test_more_restarts_never_worse():
    g = random_graph(7, seed=7)
    one = pivot_clustering(g, PivotRun(3, 1))
    fifty = pivot_clustering(g, PivotRun(3, 50))
    assert disagreements(g, fifty) <= disagreements(g, one)


def test_all_positive_any_restarts_single_cluster():
    c = pivot_clustering(all_positive(6), PivotRun(0, 10))
    assert c.num_clusters == 1


def test_statistical_three_approximation():
    # mean over many seeds stays within 3*OPT plus sampling slack
    for gseed in range(4):
        g = random_graph(7, seed=50 + gseed)
        opt = min(partition_cost(g, a) for a in all_partitions(7))
        costs = [
            disagreements(g, pivot_clustering(g, PivotRun(s, 1))) for s in range(500)
        ]
        assert np.mean(costs) <= 3 * opt * 1.15 + 1e-9


# best_of_restarts labels on random_graph(60, seed=31), recorded from the
# scalar pair-loop scorer that the vectorized score replaced.
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
    label = best_of_restarts(g, PivotRun(5, 25))
    assert [label[v] for v in range(60)] == PINNED_FULL
    even = tuple(range(0, 60, 2))
    label = best_of_restarts(g, PivotRun(5, 25, even))
    assert [label[v] for v in even] == PINNED_EVEN_SUBSET
