import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircc import (
    ALGORITHMS,
    BMatchingInstance,
    ColorAssignment,
    FairnessSpec,
    InfeasibleSpecError,
    InvalidInputError,
    SignedCompleteGraph,
    bmatching,
    check_fairness,
    disagreements,
    opt_fair,
    run_algorithm,
    run_ccmerge,
    solve,
)
from faircc.baselines import run_cc, run_wmatch
from faircc.fair_clustering import (
    approximation_budget,
    build_matchings,
    check_spec,
    pair_cost_table,
    run_pipeline,
)
from faircc.pivot import PivotRun
from conftest import (
    brute_opt_fair,
    fairlets_of,
    pair_cost,
    random_colors,
    random_graph,
    reference_fairlets,
)


def graph_from_signs(rows):
    return SignedCompleteGraph(len(rows), np.array(rows, dtype="int8"))


def test_pair_cost_two_vertices_positive_edge():
    g = SignedCompleteGraph.from_negative_edges(2, [])
    assert pair_cost(g, 0, 1) == 0


def test_pair_cost_one_disagreeing_witness():
    # sign(u,x)=+, sign(v,x)=-, sign(u,v)=+
    g = graph_from_signs([[0, 1, 1], [1, 0, -1], [1, -1, 0]])
    assert pair_cost(g, 0, 1) == 1


def test_pair_cost_witness_plus_negative_matched_edge():
    g = graph_from_signs([[0, -1, 1], [-1, 0, -1], [1, -1, 0]])
    assert pair_cost(g, 0, 1) == 2


def test_pair_cost_rejects_self_pair():
    g = random_graph(3, 0)
    with pytest.raises(ValueError):
        pair_cost(g, 1, 1)


def test_pair_cost_table_matches_scalar():
    g = random_graph(8, seed=21)
    lefts, rights = [0, 2, 5], [1, 3, 4, 6]
    table = pair_cost_table(g, lefts, rights)
    for i, x in enumerate(lefts):
        for j, u in enumerate(rights):
            assert table[i, j] == pair_cost(g, u, x)


def test_pair_cost_table_reaches_the_search_as_a_slot_cost_matrix(monkeypatch):
    """The table is the read-only transpose of an R x L array, which the
    instance keeps; the search gets one R x slots matrix of its slot costs,
    the -M shift of each mandatory slot included."""
    g = random_graph(12, seed=5)
    lefts, rights = [0, 3, 4, 9], [1, 2, 5, 6, 7, 8, 10, 11]
    table = pair_cost_table(g, lefts, rights)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert table.shape == (4, 8) and table.T.flags.c_contiguous
    inst = BMatchingInstance(table, [1] * 4, [3] * 4)
    assert inst.cost is table
    searched = []
    search = bmatching._assign

    def spy(rows):
        searched.append(rows)
        return search(rows)

    monkeypatch.setattr(bmatching, "_assign", spy)
    solve(inst)
    owner = np.repeat(np.arange(4), 3)  # three slots per left node, the first mandatory
    offset = np.where(np.arange(12) % 3 == 0, -(int(table.sum()) + 1), 0)
    [rows] = searched
    assert rows.dtype == np.int64 and rows.shape == (8, 12)
    assert (rows == table.T[:, owner] + offset).all()


@pytest.mark.parametrize("counts", [(5, 7), (4, 4, 6), (3, 9, 2)])
def test_pair_cost_table_matches_scalar_per_color(counts):
    """The BLAS table equals the scalar definition for every (base, color)
    block of random graphs with two and three colors."""
    for seed in range(5):
        colors = random_colors(counts, seed)
        g = random_graph(colors.n, seed=400 + seed, neg_prob=0.3 + 0.1 * seed)
        lefts = colors.vertices_of(0)
        for color in range(1, len(counts)):
            rights = colors.vertices_of(color)
            table = pair_cost_table(g, lefts, rights)
            assert table.shape == (len(lefts), len(rights))
            assert table.tolist() == [[pair_cost(g, u, x) for u in rights] for x in lefts]


def test_two_colors_pair_positive_edge():
    g = SignedCompleteGraph.from_negative_edges(2, [])
    colors = ColorAssignment((0, 1))
    c, _ = run_algorithm("faircc", g, colors, FairnessSpec.exact({1: 1}))
    assert c.num_clusters == 1 and disagreements(g, c) == 0


def test_two_colors_all_positive_four():
    g = SignedCompleteGraph.from_negative_edges(4, [])
    colors = ColorAssignment((0, 1, 0, 1))
    c, _ = run_algorithm("faircc", g, colors, FairnessSpec.exact({1: 1}))
    assert disagreements(g, c) == 0


def test_two_colors_bad_ratio():
    g = SignedCompleteGraph.from_negative_edges(3, [])
    with pytest.raises(InfeasibleSpecError):
        run_algorithm("faircc", g, ColorAssignment((0, 1, 1)), FairnessSpec.exact({1: 1}))


def test_two_colors_cost_within_thirteen_opt_fair():
    spec = FairnessSpec.exact({1: 1})
    for seed in range(25):
        g = random_graph(6, seed + 500)
        colors = random_colors((3, 3), seed)
        c, _ = run_algorithm("faircc", g, colors, spec, PivotRun(seed, 25))
        assert check_fairness(colors, c, spec).overall_pass
        assert disagreements(g, c) <= 13 * brute_opt_fair(g, colors, spec)


def test_multi_trivial_three_singleton_colors():
    g = SignedCompleteGraph.from_negative_edges(3, [])
    colors = ColorAssignment((0, 1, 2))
    spec = FairnessSpec.exact({1: 1, 2: 1})
    c, _ = run_algorithm("faircc", g, colors, spec)
    assert c.num_clusters == 1 and disagreements(g, c) == 0


def test_multi_trivial_ratio_two():
    g = SignedCompleteGraph.from_negative_edges(8, [])
    colors = ColorAssignment((0, 0, 1, 1, 2, 2, 2, 2))
    spec = FairnessSpec.exact({1: 1, 2: 2})
    c, _ = run_algorithm("faircc", g, colors, spec)
    assert c.num_clusters == 1 and disagreements(g, c) == 0


def test_multi_bound_constant():
    # |C|=3, p_max=1: (((3-1)*1)^2 + 2)*3 + 2*(2*1*(3+1)*1) = 34
    spec = FairnessSpec.exact({1: 1, 2: 1})
    assert approximation_budget(spec, 3) == 34
    for seed in range(15):
        g = random_graph(6, seed + 800)
        colors = random_colors((2, 2, 2), seed)
        c, _ = run_algorithm("faircc", g, colors, spec, PivotRun(seed, 25))
        assert check_fairness(colors, c, spec).overall_pass
        assert disagreements(g, c) <= 34 * brute_opt_fair(g, colors, spec)


def test_multi_infeasible_names_color():
    g = SignedCompleteGraph.from_negative_edges(4, [])
    colors = ColorAssignment((0, 1, 2, 2))
    spec = FairnessSpec.exact({1: 1, 2: 1})
    with pytest.raises(InfeasibleSpecError, match="color 2"):
        run_algorithm("faircc", g, colors, spec)


def test_bounded_trivial():
    g = SignedCompleteGraph.from_negative_edges(2, [])
    colors = ColorAssignment((0, 1))
    spec = FairnessSpec(0, {1: (1, 2)})
    c, _ = run_algorithm("faircc", g, colors, spec)
    assert check_fairness(colors, c, spec).overall_pass


def test_bounded_all_positive_two_three():
    g = SignedCompleteGraph.from_negative_edges(5, [])
    colors = ColorAssignment((0, 0, 1, 1, 1))
    spec = FairnessSpec(0, {1: (1, 2)})
    c, _ = run_algorithm("faircc", g, colors, spec)
    assert disagreements(g, c) == 0
    assert check_fairness(colors, c, spec).overall_pass


def test_bounded_constant_q2():
    # q=2: (q^2+2q)*3 + 4q^2 = 40
    spec = FairnessSpec(0, {1: (1, 2)})
    assert approximation_budget(spec, 2) == 40
    for seed in range(20):
        g = random_graph(5, seed + 900)
        colors = random_colors((2, 3), seed)
        c, _ = run_algorithm("faircc", g, colors, spec, PivotRun(seed, 25))
        assert check_fairness(colors, c, spec).overall_pass
        assert disagreements(g, c) <= 40 * brute_opt_fair(g, colors, spec)


def test_bounded_global_ratio_out_of_range():
    g = SignedCompleteGraph.from_negative_edges(5, [])
    colors = ColorAssignment((0, 1, 1, 1, 1))
    with pytest.raises(InfeasibleSpecError):
        run_algorithm("faircc", g, colors, FairnessSpec(0, {1: (1, 2)}))


def test_hyper_node_members_share_cluster():
    """Fairlet i holds the i-th base vertex and p = 2 vertices of color 1,
    and faircc puts all three in one cluster."""
    spec = FairnessSpec.exact({1: 2})
    for seed in range(10):
        g = random_graph(9, seed + 40)
        colors = random_colors((3, 6), seed)
        fairlets = fairlets_of(g, colors, spec)
        c, _ = run_algorithm("faircc", g, colors, spec, PivotRun(seed, 5))
        for i, base in enumerate(colors.vertices_of(0)):
            members = np.flatnonzero(fairlets == i).tolist()
            assert sorted(colors.color_of[v] for v in members) == [0, 1, 1]
            assert base in members
            assert len({c.cluster_of[v] for v in members}) == 1


def test_matching_weight_bound_all_positive():
    g = SignedCompleteGraph.from_negative_edges(4, [])
    colors = ColorAssignment((0, 0, 1, 1))
    spec = FairnessSpec.exact({1: 1})
    weights = build_matchings(g, colors, spec)[1]
    assert weights == {1: 0}
    assert weights[1] <= 2 * 1 * opt_fair(g, colors, spec)[1]


def test_matching_weight_bound_forced_negative_pair():
    g = SignedCompleteGraph.from_negative_edges(2, [(0, 1)])
    colors = ColorAssignment((0, 1))
    spec = FairnessSpec.exact({1: 1})
    weights = build_matchings(g, colors, spec)[1]
    opt = opt_fair(g, colors, spec)[1]
    assert weights == {1: 1}
    assert opt == 1
    assert weights[1] <= 2 * 1 * opt


def test_try_all_bases_never_worse():
    spec = FairnessSpec.exact({1: 1, 2: 1})
    for seed in range(10):
        g = random_graph(6, seed + 60)
        colors = random_colors((2, 2, 2), seed)
        fixed, _ = run_algorithm("faircc", g, colors, spec, PivotRun(seed, 10))
        swept, _ = run_algorithm("faircc", g, colors, spec, PivotRun(seed, 10), try_all_bases=True)
        assert disagreements(g, swept) <= disagreements(g, fixed)
    with pytest.raises(InvalidInputError):
        run_algorithm(
            "faircc",
            random_graph(6, 0),
            random_colors((2, 4), 0),
            FairnessSpec.exact({1: 2}),
            try_all_bases=True,
        )
    with pytest.raises(InvalidInputError):
        run_algorithm(
            "faircc",
            random_graph(6, 0),
            random_colors((3, 3), 0),
            FairnessSpec(0, {1: (1, 2)}),
            try_all_bases=True,
        )
    # a 1:1 spec that omits a color is refused as without the sweep, not
    # swept into the 1:1:1 problem on every color
    with pytest.raises(InfeasibleSpecError, match="spec must bound every non-base color"):
        run_algorithm(
            "faircc",
            random_graph(9, 1),
            random_colors((3, 3, 3), 0),
            FairnessSpec.exact({1: 1}),
            try_all_bases=True,
        )


def test_approximation_budget_needs_a_bounded_color():
    """A spec that bounds no color is valid, but has no budget."""
    with pytest.raises(InvalidInputError, match="bounds a color"):
        approximation_budget(FairnessSpec(0, {}), 1)



def test_fair_cc_pinned_labels():
    """Labels recorded from the per-case entry points that faircc replaced
    (1:2 two-color, 1:1:1 with and without the base sweep, 1:1..1:2); the
    first and third re-recorded when the matcher gained its row reduction,
    which picks another optimal matching of the same weight."""
    g, colors = random_graph(24, 301), random_colors((8, 16), 1)
    c, _ = run_algorithm("faircc", g, colors, FairnessSpec.exact({1: 2}), PivotRun(3, 10))
    assert c.cluster_of.tolist() == [
        0, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1
    ]
    g, colors = random_graph(24, 302), random_colors((8, 8, 8), 2)
    spec = FairnessSpec.exact({1: 1, 2: 1})
    c, _ = run_algorithm("faircc", g, colors, spec, PivotRun(4, 10))
    assert c.cluster_of.tolist() == [
        0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0
    ]
    c, _ = run_algorithm("faircc", g, colors, spec, PivotRun(4, 10), try_all_bases=True)
    assert c.cluster_of.tolist() == [
        0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0
    ]
    g, colors = random_graph(24, 303), random_colors((10, 14), 3)
    c, _ = run_algorithm("faircc", g, colors, FairnessSpec(0, {1: (1, 2)}), PivotRun(5, 10))
    assert c.cluster_of.tolist() == [
        0, 1, 1, 2, 2, 1, 1, 1, 1, 1, 0, 0, 2, 1, 0, 2, 1, 1, 1, 1, 0, 1, 2, 1
    ]


def test_two_stages_compose_to_fair_cc():
    """The fairlet stage is seed-free and the base pivot is seeded: one
    fairlet build serves every seed, and run_pipeline on the fairlets and
    run_cc on the graph the base color induces gives faircc's clustering."""
    g, colors = random_graph(24, 302), random_colors((8, 8, 8), 2)
    spec = FairnessSpec.exact({1: 1, 2: 1})
    fairlets, _ = build_matchings(g, colors, spec)
    assert not fairlets.flags.writeable
    assert fairlets.tolist() == reference_fairlets(g, colors, spec)[0].tolist()
    lefts = colors.vertices_of(0)
    assert fairlets[lefts].tolist() == list(range(8))
    induced = SignedCompleteGraph(8, g.signs[np.ix_(lefts, lefts)])
    for seed in range(4):
        pivot = PivotRun(seed, 5)
        base = run_cc(induced, pivot)
        assert base.n == 8
        c = run_pipeline(fairlets, base)
        assert c == run_algorithm("faircc", g, colors, spec, pivot)[0]
        assert run_wmatch(fairlets) == run_wmatch(fairlets_of(g, colors, spec))


@st.composite
def fair_instances(draw):
    """A random graph on 2 or 3 colors with a random base color and an
    exact or interval spec whose global color counts fit it."""
    num_colors = draw(st.integers(2, 3))
    base = draw(st.integers(0, num_colors - 1))
    lefts = draw(st.integers(1, 4))
    counts, bounds = [], {}
    for color in range(num_colors):
        if color == base:
            counts.append(lefts)
            continue
        p = draw(st.integers(1, 3))
        q = draw(st.sampled_from([p, p + 1, p + 3]))
        bounds[color] = (p, q)
        counts.append(draw(st.integers(p * lefts, q * lefts)))
    seed = draw(st.integers(0, 2**32 - 1))
    neg_prob = draw(st.sampled_from([0.1, 0.5, 0.9]))
    colors = random_colors(counts, seed)
    return random_graph(colors.n, seed, neg_prob), colors, FairnessSpec(base, bounds)


@settings(max_examples=80, deadline=None)
@given(fair_instances(), st.integers(0, 1000))
def test_fairness_invariant_over_random_specs(instance, seed):
    """Every fair algorithm's output passes check_fairness, and every base
    vertex's fairlet holds p_i..q_i vertices of each color i."""
    g, colors, spec = instance
    check_spec(colors, spec)
    pivot = PivotRun(seed, 3)
    results = {
        "faircc": run_algorithm("faircc", g, colors, spec, pivot)[0],
        "ufaircc": run_algorithm("ufaircc", g, colors, spec, pivot)[0],
        "wmatch": run_wmatch(fairlets_of(g, colors, spec)),
        "ccmerge": run_ccmerge(g, colors, spec, run_cc(g, pivot)),
    }
    for algo, c in results.items():
        report = check_fairness(colors, c, spec)
        assert report.overall_pass, (algo, report.describe_violations())
    fairlets = fairlets_of(g, colors, spec)
    lefts = colors.vertices_of(spec.base_color)
    assert fairlets[lefts].tolist() == list(range(len(lefts)))
    for color, (p, q) in spec.bounds.items():
        partners = np.bincount(fairlets[colors.vertices_of(color)], minlength=len(lefts))
        assert p <= partners.min() and partners.max() <= q, color


@st.composite
def memo_orders(draw):
    """(graph, colors, spec, cells): an instance from fair_instances or one
    whose every ratio is 1:1, and 1 to 10 cells ((algo, try_all_bases),
    seed) over seeds 0..3, faircc with try_all_bases among the algorithms
    when every ratio is 1:1."""
    if draw(st.booleans()):
        g, colors, spec = draw(fair_instances())
    else:
        num_colors, lefts = draw(st.integers(2, 3)), draw(st.integers(1, 4))
        base, seed = draw(st.integers(0, num_colors - 1)), draw(st.integers(0, 2**32 - 1))
        colors = random_colors([lefts] * num_colors, seed)
        g = random_graph(colors.n, seed, draw(st.sampled_from([0.1, 0.5, 0.9])))
        spec = FairnessSpec.exact({c: 1 for c in range(num_colors) if c != base}, base)
    algos = [(algo, False) for algo in ALGORITHMS]
    if all(bounds == (1, 1) for bounds in spec.bounds.values()):
        algos.append(("faircc", True))
    cell = st.tuples(st.sampled_from(algos), st.integers(0, 3))
    return g, colors, spec, draw(st.lists(cell, min_size=1, max_size=10))


@settings(max_examples=60, deadline=None)
@given(memo_orders())
def test_one_memo_gives_every_cell_its_fresh_clustering(case):
    """Cells in any order through one memo, whose window covers every
    cell's seeds, give the clustering and cost a fresh memo gives: the full
    graph's restart pool and each base color's never mix. Every returned
    cost, a shared result's too, is the clustering's disagreements."""
    g, colors, spec, cells = case
    seeds = [seed for _, seed in cells]
    memo = {"window": PivotRun(min(seeds), max(seeds) - min(seeds) + 3)}
    for (algo, try_all_bases), seed in cells:
        pivot = PivotRun(seed, 3)
        shared = run_algorithm(algo, g, colors, spec, pivot, memo, try_all_bases)
        fresh = run_algorithm(algo, g, colors, spec, pivot, {}, try_all_bases)
        assert shared == fresh, (algo, try_all_bases, seed)
        clustering, cost = shared
        assert cost == disagreements(g, clustering), (algo, try_all_bases, seed)


@pytest.mark.parametrize("n_colored", [6, 2])
@pytest.mark.parametrize("entry", ["faircc", "wmatch", "ufaircc", "ccmerge", "opt_fair"])
def test_colors_must_cover_the_graph(entry, n_colored):
    """Every fair entry point refuses colors for more or fewer vertices
    than the graph has with one InvalidInputError naming both counts."""
    g, colors = random_graph(4, 5), ColorAssignment(np.arange(n_colored) % 2)
    spec = FairnessSpec.exact({1: 1})
    message = f"colors cover {n_colored} vertices but the graph has 4"
    with pytest.raises(InvalidInputError, match=message):
        if entry == "opt_fair":
            opt_fair(g, colors, spec)
        else:
            run_algorithm(entry, g, colors, spec)


@settings(max_examples=60, deadline=None)
@given(fair_instances())
def test_build_matchings_matches_the_two_stage_reference(instance):
    """For both cost kinds, the one fairlet stage gives the ids and matching
    weights of the two stages it replaced, the ids read-only int64."""
    g, colors, spec = instance
    for unit_costs in (False, True):
        fairlets, weights = build_matchings(g, colors, spec, unit_costs)
        ref_fairlets, ref_weights = reference_fairlets(g, colors, spec, unit_costs)
        assert fairlets.dtype == np.int64 and not fairlets.flags.writeable
        assert fairlets.tolist() == ref_fairlets.tolist()
        assert weights == ref_weights
