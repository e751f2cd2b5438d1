import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircc import (
    ColorAssignment,
    FairnessSpec,
    InfeasibleSpecError,
    InvalidInputError,
    SignedCompleteGraph,
    check_fairness,
    disagreements,
    fair_cc,
    matching_weight_bound_check,
    pair_cost,
    run_cc,
    run_ccmerge,
    run_ufaircc,
    run_wmatch,
)
from faircc.fair_clustering import (
    approximation_budget,
    build_fairlets,
    check_spec,
    cluster_fairlets,
    pair_cost_table,
)
from faircc.pivot import PivotRun
from conftest import brute_opt_fair, random_colors, random_graph


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
    with pytest.raises(InvalidInputError):
        pair_cost(g, 1, 1)


def test_pair_cost_table_matches_scalar():
    g = random_graph(8, seed=21)
    lefts, rights = [0, 2, 5], [1, 3, 4, 6]
    table = pair_cost_table(g, lefts, rights)
    for i, x in enumerate(lefts):
        for j, u in enumerate(rights):
            assert table[i, j] == pair_cost(g, u, x)


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
    c = fair_cc(g, colors, FairnessSpec.exact({1: 1}))
    assert c.num_clusters == 1 and disagreements(g, c) == 0


def test_two_colors_all_positive_four():
    g = SignedCompleteGraph.from_negative_edges(4, [])
    colors = ColorAssignment((0, 1, 0, 1))
    c = fair_cc(g, colors, FairnessSpec.exact({1: 1}))
    assert disagreements(g, c) == 0


def test_two_colors_bad_ratio():
    g = SignedCompleteGraph.from_negative_edges(3, [])
    with pytest.raises(InfeasibleSpecError):
        fair_cc(g, ColorAssignment((0, 1, 1)), FairnessSpec.exact({1: 1}))


def test_two_colors_cost_within_thirteen_opt_fair():
    spec = FairnessSpec.exact({1: 1})
    for seed in range(25):
        g = random_graph(6, seed + 500)
        colors = random_colors((3, 3), seed)
        c = fair_cc(g, colors, spec, PivotRun(seed, 25))
        assert check_fairness(colors, c, spec).overall_pass
        assert disagreements(g, c) <= 13 * brute_opt_fair(g, colors, spec)


def test_multi_trivial_three_singleton_colors():
    g = SignedCompleteGraph.from_negative_edges(3, [])
    colors = ColorAssignment((0, 1, 2))
    spec = FairnessSpec.exact({1: 1, 2: 1})
    c = fair_cc(g, colors, spec)
    assert c.num_clusters == 1 and disagreements(g, c) == 0


def test_multi_trivial_ratio_two():
    g = SignedCompleteGraph.from_negative_edges(8, [])
    colors = ColorAssignment((0, 0, 1, 1, 2, 2, 2, 2))
    spec = FairnessSpec.exact({1: 1, 2: 2})
    c = fair_cc(g, colors, spec)
    assert c.num_clusters == 1 and disagreements(g, c) == 0


def test_multi_bound_constant():
    # |C|=3, p_max=1: (((3-1)*1)^2 + 2)*3 + 2*(2*1*(3+1)*1) = 34
    spec = FairnessSpec.exact({1: 1, 2: 1})
    assert approximation_budget(spec, 3) == 34
    for seed in range(15):
        g = random_graph(6, seed + 800)
        colors = random_colors((2, 2, 2), seed)
        c = fair_cc(g, colors, spec, PivotRun(seed, 25))
        assert check_fairness(colors, c, spec).overall_pass
        assert disagreements(g, c) <= 34 * brute_opt_fair(g, colors, spec)


def test_multi_infeasible_names_color():
    g = SignedCompleteGraph.from_negative_edges(4, [])
    colors = ColorAssignment((0, 1, 2, 2))
    spec = FairnessSpec.exact({1: 1, 2: 1})
    with pytest.raises(InfeasibleSpecError, match="color 2"):
        fair_cc(g, colors, spec)


def test_bounded_trivial():
    g = SignedCompleteGraph.from_negative_edges(2, [])
    colors = ColorAssignment((0, 1))
    spec = FairnessSpec(0, {1: (1, 2)})
    c = fair_cc(g, colors, spec)
    assert check_fairness(colors, c, spec).overall_pass


def test_bounded_all_positive_two_three():
    g = SignedCompleteGraph.from_negative_edges(5, [])
    colors = ColorAssignment((0, 0, 1, 1, 1))
    spec = FairnessSpec(0, {1: (1, 2)})
    c = fair_cc(g, colors, spec)
    assert disagreements(g, c) == 0
    assert check_fairness(colors, c, spec).overall_pass


def test_bounded_constant_q2():
    # q=2: (q^2+2q)*3 + 4q^2 = 40
    spec = FairnessSpec(0, {1: (1, 2)})
    assert approximation_budget(spec, 2) == 40
    for seed in range(20):
        g = random_graph(5, seed + 900)
        colors = random_colors((2, 3), seed)
        c = fair_cc(g, colors, spec, PivotRun(seed, 25))
        assert check_fairness(colors, c, spec).overall_pass
        assert disagreements(g, c) <= 40 * brute_opt_fair(g, colors, spec)


def test_bounded_global_ratio_out_of_range():
    g = SignedCompleteGraph.from_negative_edges(5, [])
    colors = ColorAssignment((0, 1, 1, 1, 1))
    with pytest.raises(InfeasibleSpecError):
        fair_cc(g, colors, FairnessSpec(0, {1: (1, 2)}))


def test_hyper_node_members_share_cluster():
    """Fairlet i holds the i-th base vertex and p = 2 vertices of color 1,
    and fair_cc puts all three in one cluster."""
    spec = FairnessSpec.exact({1: 2})
    for seed in range(10):
        g = random_graph(9, seed + 40)
        colors = random_colors((3, 6), seed)
        fairlets = build_fairlets(g, colors, spec)
        c = fair_cc(g, colors, spec, PivotRun(seed, 5))
        for i, base in enumerate(colors.vertices_of(0)):
            members = np.flatnonzero(fairlets == i).tolist()
            assert sorted(colors.color_of[v] for v in members) == [0, 1, 1]
            assert base in members
            assert len({c.cluster_of[v] for v in members}) == 1


def test_matching_weight_bound_all_positive():
    g = SignedCompleteGraph.from_negative_edges(4, [])
    colors = ColorAssignment((0, 0, 1, 1))
    report = matching_weight_bound_check(g, colors, FairnessSpec.exact({1: 1}))
    assert report.weights[1] == 0 and report.overall_pass


def test_matching_weight_bound_forced_negative_pair():
    g = SignedCompleteGraph.from_negative_edges(2, [(0, 1)])
    colors = ColorAssignment((0, 1))
    report = matching_weight_bound_check(g, colors, FairnessSpec.exact({1: 1}))
    assert report.weights[1] == 1
    assert report.opt_fair_value == 1
    assert report.overall_pass


def test_try_all_bases_never_worse():
    spec = FairnessSpec.exact({1: 1, 2: 1})
    for seed in range(10):
        g = random_graph(6, seed + 60)
        colors = random_colors((2, 2, 2), seed)
        fixed = fair_cc(g, colors, spec, PivotRun(seed, 10))
        swept = fair_cc(g, colors, spec, PivotRun(seed, 10), try_all_bases=True)
        assert disagreements(g, swept) <= disagreements(g, fixed)
    with pytest.raises(InvalidInputError):
        fair_cc(
            random_graph(6, 0),
            random_colors((2, 4), 0),
            FairnessSpec.exact({1: 2}),
            try_all_bases=True,
        )
    with pytest.raises(InvalidInputError):
        fair_cc(
            random_graph(6, 0),
            random_colors((3, 3), 0),
            FairnessSpec(0, {1: (1, 2)}),
            try_all_bases=True,
        )



def test_fair_cc_pinned_labels():
    """Labels recorded from the per-case entry points that fair_cc replaced
    (1:2 two-color, 1:1:1 with and without the base sweep, 1:1..1:2)."""
    g, colors = random_graph(24, 301), random_colors((8, 16), 1)
    c = fair_cc(g, colors, FairnessSpec.exact({1: 2}), PivotRun(3, 10))
    assert c.cluster_of == (
        0, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1
    )
    g, colors = random_graph(24, 302), random_colors((8, 8, 8), 2)
    spec = FairnessSpec.exact({1: 1, 2: 1})
    c = fair_cc(g, colors, spec, PivotRun(4, 10))
    assert c.cluster_of == (
        0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0
    )
    c = fair_cc(g, colors, spec, PivotRun(4, 10), try_all_bases=True)
    assert c.cluster_of == (
        0, 1, 0, 1, 1, 2, 0, 0, 2, 1, 2, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 1
    )
    g, colors = random_graph(24, 303), random_colors((10, 14), 3)
    c = fair_cc(g, colors, FairnessSpec(0, {1: (1, 2)}), PivotRun(5, 10))
    assert c.cluster_of == (
        0, 1, 1, 2, 2, 1, 1, 1, 1, 1, 0, 0, 2, 1, 0, 2, 1, 1, 1, 1, 0, 1, 2, 1
    )


def test_two_stages_compose_to_fair_cc():
    """build_fairlets is seed-free and cluster_fairlets consumes it: one
    build serves every seed, and passing it to fair_cc (also with the base
    sweep) gives what fair_cc builds itself."""
    g, colors = random_graph(24, 302), random_colors((8, 8, 8), 2)
    spec = FairnessSpec.exact({1: 1, 2: 1})
    fairlets = build_fairlets(g, colors, spec)
    assert not fairlets.flags.writeable
    assert fairlets.tolist() == build_fairlets(g, colors, spec).tolist()
    assert fairlets[colors.vertices_of(0)].tolist() == list(range(8))
    for seed in range(4):
        pivot = PivotRun(seed, 5)
        c = cluster_fairlets(g, colors, spec, fairlets, pivot)
        assert c == fair_cc(g, colors, spec, pivot)
        assert c == fair_cc(g, colors, spec, pivot, fairlets=fairlets)
        assert fair_cc(g, colors, spec, pivot, try_all_bases=True) == fair_cc(
            g, colors, spec, pivot, try_all_bases=True, fairlets=fairlets
        )


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
        "faircc": fair_cc(g, colors, spec, pivot),
        "ufaircc": run_ufaircc(g, colors, spec, pivot),
        "wmatch": run_wmatch(g, colors, spec),
        "ccmerge": run_ccmerge(g, colors, spec, run_cc(g, pivot)),
    }
    for algo, c in results.items():
        report = check_fairness(colors, c, spec)
        assert report.overall_pass, (algo, report.describe_violations())
    fairlets = build_fairlets(g, colors, spec)
    lefts = colors.vertices_of(spec.base_color)
    assert fairlets[lefts].tolist() == list(range(len(lefts)))
    for color, (p, q) in spec.bounds.items():
        partners = np.bincount(fairlets[colors.vertices_of(color)], minlength=len(lefts))
        assert p <= partners.min() and partners.max() <= q, color
