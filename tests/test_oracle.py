import random

import numpy as np
import pytest

from faircc import (
    BMatchingInstance,
    ColorAssignment,
    FairnessSpec,
    InfeasibleSpecError,
    OracleLimitError,
    SignedCompleteGraph,
    disagreements,
    mirror_graph,
    opt_bmatching,
    opt_cc,
    opt_fair,
)
from faircc.oracle import best_partition
from conftest import (
    all_partitions,
    brute_opt,
    brute_opt_fair,
    is_fair_partition,
    partition_cost,
    random_colors,
    random_graph,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def all_positive(n):
    return SignedCompleteGraph.from_negative_edges(n, [])


def all_negative(n):
    return SignedCompleteGraph.from_negative_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


@pytest.mark.parametrize("n,count", sorted(BELL.items()))
def test_enumerator_counts_match_bell_numbers(n, count):
    assert sum(1 for _ in all_partitions(n)) == count


def test_python_kernel_matches_enumeration():
    for seed in range(20):
        g = random_graph(6, seed)
        cost, assign = best_partition(g)
        assert cost == brute_opt(g)
        assert tuple(assign) in set(all_partitions(6))


def test_lexicographic_tie_break():
    # +,+,- triangle: optima are [0,0,0], [0,0,1], [0,1,0], all cost 1
    signs = np.array([[0, 1, 1], [1, 0, -1], [1, -1, 0]], dtype=np.int8)
    g = SignedCompleteGraph(3, signs)
    cost, assign = best_partition(g)
    assert (cost, assign) == (1, [0, 0, 0])


def test_fair_infeasible_returns_sentinel():
    g = random_graph(4, 1)
    # 1 base vertex, 3 others, exact ratio 1:1 is unsatisfiable
    cost, assign = best_partition(g, ColorAssignment((0, 1, 1, 1)), FairnessSpec.exact({1: 1}))
    assert cost == -1 and assign is None


@pytest.mark.parametrize("seed", range(16))
def test_fair_search_is_first_fair_optimum_of_enumeration(seed):
    """Three colors, a random base color and interval bounds: the search
    returns the lexicographically first fair optimum, or the sentinel."""
    rng = random.Random(seed)
    base = rng.randrange(3)
    lefts = rng.randrange(1, 3)
    bounds, counts = {}, [lefts] * 3
    for c in {0, 1, 2} - {base}:
        p = rng.choice((1, 1, 1, 2))
        bounds[c] = (p, p + rng.randrange(2))
        counts[c] = rng.randrange(lefts, min(bounds[c][1] * lefts, 3) + 1)
    g = random_graph(sum(counts), seed + 200)
    colors = random_colors(counts, seed)
    spec = FairnessSpec(base, bounds)
    fair = [a for a in all_partitions(g.n) if is_fair_partition(colors, spec, a)]
    expected = (-1, None)
    if fair:
        best = min(partition_cost(g, a) for a in fair)
        expected = (best, list(next(a for a in fair if partition_cost(g, a) == best)))
    assert best_partition(g, colors, spec) == expected


def test_opt_cc_extremes():
    c, v = opt_cc(all_positive(5))
    assert v == 0 and c.num_clusters == 1
    c, v = opt_cc(all_negative(5))
    assert v == 0 and c.num_clusters == 5


def test_opt_cc_triangle():
    g = SignedCompleteGraph.from_negative_edges(3, [(1, 2)])
    _, v = opt_cc(g)
    assert v == 1  # enumeration over all 5 partitions


def test_opt_cc_matches_independent_enumeration():
    for seed in range(10):
        g = random_graph(6, seed + 30)
        c, v = opt_cc(g)
        assert v == brute_opt(g)
        assert disagreements(g, c) == v


def test_opt_fair_trivial():
    g = SignedCompleteGraph.from_negative_edges(2, [(0, 1)])
    colors = ColorAssignment((0, 1))
    c, v = opt_fair(g, colors, FairnessSpec.exact({1: 1}))
    assert v == 1 and c.num_clusters == 1

    g = all_positive(4)
    colors = ColorAssignment((0, 0, 1, 1))
    _, v = opt_fair(g, colors, FairnessSpec.exact({1: 1}))
    assert v == 0


def test_opt_fair_dominates_opt_cc():
    spec = FairnessSpec.exact({1: 1})
    for seed in range(10):
        g = random_graph(6, seed + 70)
        colors = random_colors((3, 3), seed)
        _, fair_v = opt_fair(g, colors, spec)
        _, free_v = opt_cc(g)
        assert fair_v >= free_v
        assert fair_v == brute_opt_fair(g, colors, spec)


def test_opt_fair_infeasible_spec():
    g = all_positive(4)
    colors = ColorAssignment((0, 1, 1, 1))
    with pytest.raises(InfeasibleSpecError):
        opt_fair(g, colors, FairnessSpec.exact({1: 1}))


@pytest.mark.parametrize(
    "colors,bounds",
    [
        ((0, 1, 1), {1: (1, 2), 5: (1, 1)}),  # bounds a color the colors lack
        ((0, 1, 2), {1: (1, 1)}),  # leaves color 2 unbounded
    ],
    ids=["unknown-color", "unbounded-color"],
)
def test_opt_fair_checks_the_spec(colors, bounds):
    g = all_positive(3)
    with pytest.raises(InfeasibleSpecError, match="spec must bound every non-base color"):
        opt_fair(g, ColorAssignment(colors), FairnessSpec(0, bounds))


def test_size_limits(monkeypatch):
    with pytest.raises(OracleLimitError):
        opt_cc(all_positive(11))
    monkeypatch.setenv("FAIRCC_ORACLE_MAX_N", "11")
    assert opt_cc(all_positive(11))[1] == 0
    inst = BMatchingInstance([[0] * 9], [9], [9])
    with pytest.raises(OracleLimitError):
        opt_bmatching(inst)


def test_env_override(monkeypatch):
    monkeypatch.setenv("FAIRCC_ORACLE_MAX_N", "12")
    assert opt_cc(all_positive(12))[1] == 0
    with pytest.raises(OracleLimitError, match="limit 12"):
        opt_cc(all_positive(13))
    monkeypatch.delenv("FAIRCC_ORACLE_MAX_N")
    assert opt_cc(all_positive(10))[1] == 0
    with pytest.raises(OracleLimitError, match="limit 10"):
        opt_cc(all_positive(11))


def test_opt_bmatching_basics():
    assert opt_bmatching(BMatchingInstance([[0, 3], [2, 0]], [1, 1], [1, 1])).weight == 0
    forced = opt_bmatching(BMatchingInstance([[3, 4]], [2], [2]))
    assert forced.weight == 7
    with pytest.raises(InfeasibleSpecError):
        opt_bmatching(BMatchingInstance([[1, 1, 1]], [0], [2]))


def test_mirror_graph_structure():
    g = random_graph(4, seed=9)
    h, colors = mirror_graph(g)
    assert h.n == 8
    assert colors.color_of == (0, 0, 0, 0, 1, 1, 1, 1)
    for u in range(4):
        assert h.signs[u, 4 + u] == 1
        for v in range(4):
            if u != v:
                assert h.signs[u, 4 + v] == g.signs[u, v]
                assert h.signs[4 + u, 4 + v] == g.signs[u, v]


def test_mirror_of_single_positive_edge_is_all_positive_k4():
    g = all_positive(2)
    h, colors = mirror_graph(g)
    assert np.all(h.signs[~np.eye(4, dtype=bool)] == 1)
    _, v = opt_fair(h, colors, FairnessSpec.exact({1: 1}))
    assert v == 0


def test_mirror_of_single_negative_edge():
    g = all_negative(2)
    h, colors = mirror_graph(g)
    _, v = opt_fair(h, colors, FairnessSpec.exact({1: 1}))
    # mirror-pair clusters {u, u'} pay nothing: 4 * opt_cc(G) = 0
    assert v == 0


def test_mirror_identity_on_triangle():
    g = SignedCompleteGraph.from_negative_edges(3, [(1, 2)])
    _, base = opt_cc(g)
    h, colors = mirror_graph(g)
    _, v = opt_fair(h, colors, FairnessSpec.exact({1: 1}))
    assert base == 1 and v == 4
