import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircc import (
    Clustering,
    InvalidInputError,
    SignedCompleteGraph,
    disagreements,
    run_algorithm,
)
from faircc import pivot
from faircc.pivot import PivotRun, best_of_restarts, pivot_cluster
from conftest import (
    all_partitions,
    partition_cost,
    random_graph,
    reference_best_of_restarts,
    reference_pivot_cluster,
)


def all_positive(n):
    return SignedCompleteGraph.from_negative_edges(n, [])


def all_negative(n):
    return SignedCompleteGraph.from_negative_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


@pytest.mark.parametrize("seed", [0, 1, 17, 998])
def test_all_positive_k4_single_cluster(seed):
    label = pivot_cluster(all_positive(4), [seed])[0]
    assert set(label.tolist()) == {0}


@pytest.mark.parametrize("seed", [0, 1, 17, 998])
def test_all_negative_k4_singletons(seed):
    label = pivot_cluster(all_negative(4), [seed])[0]
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
    assert pivot_cluster(g, [42])[0].tolist() == pivot_cluster(g, [42])[0].tolist()


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
            assert pivot_cluster(g, [seed])[0].tolist() == scalar_pivot(g, seed)


def test_zero_restarts_rejected():
    with pytest.raises(InvalidInputError):
        PivotRun(0, 0)


@pytest.mark.parametrize(
    "seed,restarts,message",
    [
        (1.5, 3, "pivot seed must be an integer, got 1.5"),
        (0, 2.5, "pivot restarts must be an integer, got 2.5"),
        ("0", 3, "pivot seed must be an integer, got '0'"),
        (0, None, "pivot restarts must be an integer, got None"),
        (0, 0.0, "pivot restarts must be an integer, got 0.0"),
        (-1, 3, "pivot seed must be nonnegative, got -1"),
    ],
    ids=[
        "seed-float", "restarts-float", "seed-str", "restarts-none", "restarts-integral-float",
        "seed-negative",
    ],
)
def test_non_integer_seed_or_restarts_rejected(seed, restarts, message):
    with pytest.raises(InvalidInputError) as info:
        PivotRun(seed, restarts)
    assert str(info.value) == message


def test_non_integer_restarts_rejected_by_the_registry():
    with pytest.raises(InvalidInputError, match="pivot restarts must be an integer"):
        run_algorithm("cc", all_positive(3), pivot=PivotRun(0, 2.5))


@pytest.mark.parametrize(
    "seeds,message",
    [
        ([-2], "pivot seed must be nonnegative, got -2"),
        ([3, -2], "pivot seed must be nonnegative, got -2"),
        ([np.int64(-2)], "pivot seed must be nonnegative, got -2"),
        ([1.5], "pivot seed must be an integer, got 1.5"),
        (["a"], "pivot seed must be an integer, got 'a'"),
    ],
    ids=["alone", "second", "numpy", "float", "str"],
)
def test_pivot_cluster_rejects_a_negative_seed(seeds, message):
    """random.Random seeds from |seed|, so -2 would rerun seed 2's pass, and
    it would seed from a float or a str too; the lockstep kernel refuses
    each with PivotRun's message, whichever seed of the list it is."""
    with pytest.raises(InvalidInputError) as info:
        pivot_cluster(random_graph(12, seed=3), seeds)
    assert str(info.value) == message


def test_numpy_integer_seed_and_restarts_are_stored_as_ints():
    run = PivotRun(np.int64(3), np.int32(4))
    assert run == PivotRun(3, 4) and hash(run) == hash(PivotRun(3, 4))
    assert type(run.seed) is int and type(run.restarts) is int
    assert list(run.seeds) == [3, 4, 5, 6]
    g = random_graph(7, seed=6)
    assert best_of_restarts(g, run) == best_of_restarts(g, PivotRun(3, 4))


def test_single_restart_equals_pivot_cluster():
    g = random_graph(7, seed=6)
    single = Clustering.from_labels(pivot_cluster(g, [5])[0].tolist())
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


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 30),
    neg_prob=st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
    gseed=st.integers(0, 2**32),
    seeds=st.lists(st.integers(0, 60), min_size=1, max_size=30),
    start=st.integers(0, 1000),
    restarts=st.integers(1, 30),
)
def test_lockstep_pass_matches_the_per_seed_loop(n, neg_prob, gseed, seeds, start, restarts):
    """Every row of the lockstep labels is the per-seed pass of its seed,
    for repeated and non-consecutive seeds in any order, and
    best_of_restarts keeps the per-seed loop's clustering."""
    g = random_graph(n, seed=gseed, neg_prob=neg_prob)
    labels = pivot_cluster(g, seeds)
    assert labels.shape == (len(seeds), n) and labels.dtype == np.int64
    for row, seed in zip(labels, seeds):
        assert row.tolist() == reference_pivot_cluster(g, seed).tolist()
    run = PivotRun(start, restarts)
    assert best_of_restarts(g, run) == reference_best_of_restarts(g, run)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 25),
    neg_prob=st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
    gseed=st.integers(0, 2**32),
    runs=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 15)), min_size=1, max_size=8),
    order=st.randoms(use_true_random=False),
)
def test_shared_pool_keeps_every_runs_clustering(n, neg_prob, gseed, runs, order):
    """Runs with overlapping, repeated or disjoint seed windows, taken in
    any order through one pool of scored restarts, each keep the
    clustering of a run with no pool; the pool scores every seed once."""
    g = random_graph(n, seed=gseed, neg_prob=neg_prob)
    order.shuffle(runs)
    scored, passed = {}, []
    for seed, restarts in runs:
        run = PivotRun(seed, restarts)
        with mock.patch.object(pivot, "pivot_cluster", wraps=pivot_cluster) as spy:
            pooled = best_of_restarts(g, run, scored)
        passed += [seed for call in spy.call_args_list for seed in call.args[1]]
        assert pooled == best_of_restarts(g, run) == reference_best_of_restarts(g, run)
    window = {seed + k for seed, restarts in runs for k in range(restarts)}
    assert sorted(passed) == sorted(window) == sorted(scored)
