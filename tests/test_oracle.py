import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faircc import (
    BMatchingInstance,
    Clustering,
    ColorAssignment,
    FairnessSpec,
    InfeasibleSpecError,
    OracleLimitError,
    SignedCompleteGraph,
    check_fairness,
    disagreements,
    mirror_graph,
    opt_cc,
    opt_fair,
)
from faircc.oracle import best_partition
from conftest import (
    all_partitions,
    brute_opt,
    brute_opt_fair,
    is_fair_partition,
    opt_bmatching,
    partition_cost,
    random_colors,
    random_graph,
    reference_best_partition,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def all_positive(n):
    return SignedCompleteGraph.from_negative_edges(n, [])


def all_negative(n):
    return SignedCompleteGraph.from_negative_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


def one_color(n):
    """Colors and spec of the unconstrained problem: one color, no bounds."""
    return ColorAssignment(np.zeros(n, np.int64)), FairnessSpec(0, {})


def check_search(g, colors, spec):
    """Assert that ``best_partition`` returns an optimal fair partition as a
    restricted growth string: its cost is the reference's, the sentinel
    included, the partition is fair and costs that much, and a second call
    returns the same answer. Returns the answer."""
    found = best_partition(g, colors, spec)
    cost, assign = found
    assert cost == reference_best_partition(g, colors, spec)[0]
    if cost < 0:
        assert assign is None
    else:
        assert is_fair_partition(colors, spec, assign)
        assert partition_cost(g, assign) == cost
        assert all(0 <= b <= max(assign[:v], default=-1) + 1 for v, b in enumerate(assign))
    assert best_partition(g, colors, spec) == found
    return found


@pytest.mark.parametrize("n,count", sorted(BELL.items()))
def test_enumerator_counts_match_bell_numbers(n, count):
    assert sum(1 for _ in all_partitions(n)) == count


def test_python_kernel_matches_enumeration():
    for seed in range(20):
        g = random_graph(6, seed)
        cost, assign = best_partition(g, *one_color(6))
        assert cost == brute_opt(g)
        assert tuple(assign) in set(all_partitions(6))


def test_back_trace_tie_break():
    # +,+,- triangle: optima are [0,0,0], [0,0,1], [0,1,0], all cost 1. The
    # back-trace gives vertex 0 the first block that attains the optimum,
    # trying blocks with later vertices first: {0} costs 2, {0, 2} costs 1.
    signs = np.array([[0, 1, 1], [1, 0, -1], [1, -1, 0]], dtype=np.int8)
    g = SignedCompleteGraph(3, signs)
    assert best_partition(g, *one_color(3)) == (1, [0, 1, 0])


def test_fair_infeasible_returns_sentinel():
    g = random_graph(4, 1)
    # 1 base vertex, 3 others, exact ratio 1:1 is unsatisfiable
    cost, assign = best_partition(g, ColorAssignment((0, 1, 1, 1)), FairnessSpec.exact({1: 1}))
    assert cost == -1 and assign is None


@pytest.mark.parametrize("seed", range(16))
def test_fair_search_is_first_fair_optimum_of_enumeration(seed):
    """Three colors, a random base color and interval bounds: the search
    returns a fair partition at the enumeration's fair optimum, or the
    sentinel when the enumeration finds no fair partition."""
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
    best = min((partition_cost(g, a) for a in fair), default=-1)
    assert check_search(g, colors, spec)[0] == best


@st.composite
def search_cases(draw):
    """(graph, colors, spec) on n <= 9: 1-3 colors, a random base color,
    exact or interval bounds on the other colors (about a quarter of them
    left unbounded), or, in half the draws, the one-color problem."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    negative = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = SignedCompleteGraph.from_negative_edges(n, [e for e, neg in zip(pairs, negative) if neg])
    if draw(st.booleans()):
        return (g, *one_color(n))
    k = draw(st.integers(1, min(3, n)))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    colors = ColorAssignment(draw(st.permutations(list(range(k)) + extra)))
    base = draw(st.integers(0, k - 1))
    bounds = {}
    for c in range(k):
        if c != base and draw(st.integers(0, 3)):
            p = draw(st.integers(1, 3))
            bounds[c] = (p, p + draw(st.integers(0, 2)))
    return g, colors, FairnessSpec(base, bounds)


@settings(max_examples=150, deadline=None)
@given(search_cases())
@example(  # one base vertex, three of color 1 at 1:1..1:2: no fair partition
    (all_positive(4), ColorAssignment((1, 0, 1, 1)), FairnessSpec(0, {1: (1, 2)}))
)
@example(  # color 1 unbounded, yet vertex 2 alone would leave a block without base
    (
        SignedCompleteGraph.from_negative_edges(3, [(0, 2), (1, 2)]),
        ColorAssignment((0, 0, 1)),
        FairnessSpec(0, {}),
    )
)
def test_search_matches_the_reference(case):
    """The back-trace returns a fair partition at the cost of the search
    that checks fairness only at the leaves, the sentinel included; on one
    color that cost is also the reference's unconstrained optimum."""
    g, colors, spec = case
    cost, _ = check_search(g, colors, spec)
    if colors.num_colors == 1:
        assert cost == reference_best_partition(g)[0]


@st.composite
def tie_heavy_cases(draw):
    """(graph, colors, spec) on n <= 9 with signs from a noiseless planted
    partition, or all positive, or all negative, under one color, an exact
    spec or an interval spec. Many partitions then share the optimum, so a
    back-trace that follows a wrong choice returns a worse or unfair one."""
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["planted", "positive", "negative"]))
    if kind == "planted":
        block = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    else:
        block = [0] * n if kind == "positive" else list(range(n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if block[u] != block[v]]
    g = SignedCompleteGraph.from_negative_edges(n, pairs)
    mode = draw(st.sampled_from(["one-color", "exact", "interval"]))
    if mode == "one-color" or n == 1:
        return (g, *one_color(n))
    k = draw(st.integers(2, min(3, n)))
    extra = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    colors = ColorAssignment(draw(st.permutations(list(range(k)) + extra)))
    base = draw(st.integers(0, k - 1))
    bounds = {}
    for c in set(range(k)) - {base}:
        p = draw(st.integers(1, 2))
        bounds[c] = (p, p if mode == "exact" else p + draw(st.integers(1, 2)))
    return g, colors, FairnessSpec(base, bounds)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_cases())
@example(  # a bound far past int32, which the DP must read as "any count"
    (
        SignedCompleteGraph.from_negative_edges(4, [(0, 1), (0, 3), (1, 2), (2, 3)]),
        ColorAssignment((0, 1, 1, 0)),
        FairnessSpec(0, {1: (1, 2**40)}),
    )
)
def test_search_matches_the_reference_on_ties(case):
    """Where optima tie, the back-trace still returns a fair partition at
    the reference's cost, the sentinel included."""
    check_search(*case)


@pytest.mark.parametrize(
    "g,colors,spec,expected",
    [
        (all_positive(1), *one_color(1), (0, [0])),
        (all_positive(2), *one_color(2), (0, [0, 0])),
        (all_negative(2), *one_color(2), (0, [0, 1])),
        (all_negative(2), ColorAssignment((1, 0)), FairnessSpec.exact({1: 1}), (1, [0, 0])),
        (all_positive(2), ColorAssignment((0, 1)), FairnessSpec.exact({1: 2}), (-1, None)),
    ],
    ids=["n1", "n2-positive", "n2-negative", "n2-forced-pair", "n2-infeasible"],
)
def test_search_on_one_and_two_vertices(g, colors, spec, expected):
    assert best_partition(g, colors, spec) == expected
    assert reference_best_partition(g, colors, spec) == expected


@pytest.mark.parametrize("seed", range(20))
def test_search_matches_the_reference_at_n10(seed):
    g = random_graph(10, seed + 500)
    colors = random_colors((5, 5), seed)
    check_search(g, colors, FairnessSpec.exact({1: 1}))
    assert check_search(g, *one_color(10))[0] == reference_best_partition(g)[0]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize(
    "counts,bounds",
    [
        ((4, 8), {1: (1, 2)}),
        ((4, 4, 4), {1: (1, 1), 2: (1, 1)}),
        ((3, 4, 5), {1: (1, 2), 2: (1, 2)}),
        ((6, 6), {1: (1, 1)}),
        ((12,), {}),
    ],
    ids=["4:8-interval", "4:4:4-exact", "3:4:5-interval", "6:6-exact", "one-color"],
)
def test_search_matches_the_reference_at_n12(counts, bounds, seed):
    g = random_graph(12, seed + 700)
    colors = random_colors(counts, seed)
    cost, _ = check_search(g, colors, FairnessSpec(0, bounds))
    if len(counts) == 1:  # the unconstrained problem
        assert cost == reference_best_partition(g)[0]


@pytest.mark.parametrize(
    "search,expected",
    [
        (
            lambda: opt_fair(
                random_graph(14, 900), random_colors((7, 7), 0), FairnessSpec.exact({1: 1})
            ),
            (29, [0, 1, 2, 0, 0, 1, 2, 3, 4, 3, 4, 0, 0, 0]),
        ),
        (lambda: opt_cc(random_graph(14, 901)), (29, [0, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0])),
    ],
    ids=["opt_fair-7:7", "opt_cc"],
)
def test_search_at_n14_in_bounded_memory(search, expected):
    """Each oracle returns the cost that the branch-and-bound search without
    the DP found and the back-trace's string, both pinned here, with a
    traced peak of at most 64 MB for the call."""
    tracemalloc.start()
    try:
        clustering, cost = search()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cost, clustering.cluster_of.tolist()) == expected
    assert peak <= 64 * 2**20


def test_the_cap_is_met_before_allocating():
    """best_partition refuses 17 vertices with nothing allocated: a search
    at n = 16 traces megabytes, the refusal less than 64 KB."""
    g = all_positive(17)
    tracemalloc.start()
    try:
        with pytest.raises(OracleLimitError, match="n=17 exceeds oracle limit 16"):
            best_partition(g, *one_color(17))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_the_fairness_rule_multiplies_wide():
    """All 16 vertices, 8 of each color, form one block at 1:1..1:16: its
    upper bound n1*q = 8*16 = 128 lies past the int8 of the DP's count
    table, so a rule that multiplied in int8 would wrap and split V."""
    colors = ColorAssignment([v % 2 for v in range(16)])
    spec = FairnessSpec(0, {1: (1, 16)})
    clustering, cost = opt_fair(all_positive(16), colors, spec)
    assert (cost, clustering.num_clusters) == (0, 1)
    assert check_fairness(colors, Clustering([0] * 16), spec).overall_pass


def test_search_at_n16_finds_a_planted_partition_in_bounded_memory():
    """A noiseless planted partition costs 0 and no other does. Its blocks
    {0, 1, 8, 9}, {2, 3, 10, 11}, ... put the first vertices, which the DP
    reads as high bits, in blocks together and with later vertices, and
    each holds two vertices of each color. One color and the 1:1 spec give
    that partition, each call with a traced peak of at most 64 MB."""
    block = [(v // 2) % 4 for v in range(16)]
    g = SignedCompleteGraph.from_negative_edges(
        16, [(u, v) for u in range(16) for v in range(u + 1, 16) if block[u] != block[v]]
    )
    alternating = ColorAssignment([v % 2 for v in range(16)])
    for colors, spec in [one_color(16), (alternating, FairnessSpec.exact({1: 1}))]:
        tracemalloc.start()
        try:
            clustering, cost = opt_fair(g, colors, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cost, clustering.cluster_of.tolist()) == (0, block)
        assert peak <= 64 * 2**20


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


def test_size_limits():
    with pytest.raises(OracleLimitError, match="n=17 exceeds oracle limit 16"):
        opt_cc(all_positive(17))
    assert opt_cc(all_positive(16))[1] == 0
    inst = BMatchingInstance([[0] * 9], [9], [9])
    with pytest.raises(OracleLimitError):
        opt_bmatching(inst)


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
    assert colors.color_of.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
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
