import statistics

import pytest

from faircc import (
    Clustering,
    ColorAssignment,
    FairnessSpec,
    InfeasibleSpecError,
    SignedCompleteGraph,
    check_fairness,
    disagreements,
    run_algorithm,
    run_ccmerge,
)
from faircc.baselines import run_cc, run_wmatch
from faircc.pivot import PivotRun
from conftest import brute_opt, fairlets_of, random_colors, random_graph


def all_positive(n):
    return SignedCompleteGraph.from_negative_edges(n, [])


def all_negative(n):
    return SignedCompleteGraph.from_negative_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)]
    )


def test_cc_all_positive_and_negative():
    assert run_cc(all_positive(5)).num_clusters == 1
    assert run_cc(all_negative(5)).num_clusters == 5


def test_cc_never_beats_optimum():
    for seed in range(15):
        g = random_graph(6, seed + 200)
        assert disagreements(g, run_cc(g, PivotRun(seed, 10))) >= brute_opt(g)


def test_cc_can_violate_fairness():
    # one isolated-by-sign blue vertex: pivot leaves it alone
    g = SignedCompleteGraph.from_negative_edges(4, [(0, 3), (1, 3), (2, 3)])
    colors = ColorAssignment((0, 1, 0, 1))
    spec = FairnessSpec.exact({1: 1})
    c = run_cc(g, PivotRun(0, 25))
    assert not check_fairness(colors, c, spec).overall_pass


def test_wmatch_pair_and_fairness():
    g = SignedCompleteGraph.from_negative_edges(2, [])
    colors = ColorAssignment((0, 1))
    spec = FairnessSpec.exact({1: 1})
    c = run_wmatch(fairlets_of(g, colors, spec))
    assert c.num_clusters == 1
    for seed in range(10):
        g = random_graph(8, seed + 300)
        colors = random_colors((4, 4), seed)
        c = run_wmatch(fairlets_of(g, colors, spec))
        assert check_fairness(colors, c, spec).overall_pass
        assert c.num_clusters == 4  # one cluster per base vertex


def test_wmatch_all_positive_four_pays_the_cut():
    g = all_positive(4)
    colors = ColorAssignment((0, 0, 1, 1))
    c = run_wmatch(fairlets_of(g, colors, FairnessSpec.exact({1: 1})))
    # two pair clusters cut 4 of the 6 positive edges
    assert c.num_clusters == 2 and disagreements(g, c) == 4


def test_ufaircc_all_positive_is_free():
    g = all_positive(6)
    colors = ColorAssignment((0, 1, 0, 1, 0, 1))
    c, _ = run_algorithm("ufaircc", g, colors, FairnessSpec.exact({1: 1}))
    assert disagreements(g, c) == 0


def test_ufaircc_matches_faircc_on_forced_pairs():
    # n1 = 1: the matching is forced either way
    spec = FairnessSpec.exact({1: 1})
    for seed in range(10):
        g = random_graph(2, seed)
        colors = ColorAssignment((0, 1))
        a, _ = run_algorithm("ufaircc", g, colors, spec, PivotRun(seed, 5))
        b, _ = run_algorithm("faircc", g, colors, spec, PivotRun(seed, 5))
        assert disagreements(g, a) == disagreements(g, b)


def test_faircc_no_worse_than_ufaircc_on_average():
    spec = FairnessSpec.exact({1: 1})
    smart, unit = [], []
    for seed in range(60):
        g = random_graph(8, seed + 400)
        colors = random_colors((4, 4), seed)
        run = PivotRun(seed, 10)
        smart.append(disagreements(g, run_algorithm("faircc", g, colors, spec, run)[0]))
        unit.append(disagreements(g, run_algorithm("ufaircc", g, colors, spec, run)[0]))
    assert statistics.mean(smart) <= statistics.mean(unit)


# ufaircc labels recorded when every unit-cost matching was still searched;
# the matcher's constant-table deal must reproduce them
UFAIRCC_PINS = [
    # 1:1
    ((6, 6), 0.7, 11, {1: (1, 1)}, (0, 1, 2, 0, 1, 3, 4, 3, 2, 3, 4, 3)),
    # 1:2
    ((5, 10), 0.6, 8, {1: (2, 2)}, (0, 0, 1, 1, 2, 0, 2, 3, 1, 2, 3, 3, 4, 4, 4)),
    # 1:1..1:2
    ((6, 9), 0.7, 36, {1: (1, 2)}, (0, 1, 2, 3, 0, 4, 5, 1, 0, 1, 2, 3, 2, 4, 5)),
    # 1:1:1
    (
        (5, 5, 5), 0.6, 8, {1: (1, 1), 2: (1, 1)},
        (0, 0, 1, 1, 2, 0, 2, 3, 1, 2, 4, 3, 3, 4, 4),
    ),
]


@pytest.mark.parametrize("counts,neg,seed,bounds,labels", UFAIRCC_PINS)
def test_ufaircc_pinned_labels(counts, neg, seed, bounds, labels):
    g = random_graph(sum(counts), seed, neg)
    colors = random_colors(counts, seed)
    spec = FairnessSpec(0, bounds)
    c, _ = run_algorithm("ufaircc", g, colors, spec, PivotRun(seed, 5))
    assert c.cluster_of.tolist() == list(labels)


def test_ccmerge_keeps_already_fair_clusters():
    g = SignedCompleteGraph.from_negative_edges(
        4, [(0, 2), (0, 3), (1, 2), (1, 3)]
    )
    colors = ColorAssignment((0, 1, 0, 1))
    spec = FairnessSpec.exact({1: 1})
    c = run_ccmerge(g, colors, spec, run_cc(g, PivotRun(0, 25)))
    assert disagreements(g, c) == 0
    assert c.cluster_of[0] == c.cluster_of[1]
    assert c.cluster_of[2] == c.cluster_of[3]


def test_ccmerge_all_negative_pairs_cost_two():
    # singletons must merge into red-blue pairs, each paying one negative
    # edge inside plus nothing cut
    g = all_negative(4)
    colors = ColorAssignment((0, 0, 1, 1))
    c = run_ccmerge(g, colors, FairnessSpec.exact({1: 1}), run_cc(g))
    assert check_fairness(colors, c, FairnessSpec.exact({1: 1})).overall_pass
    assert disagreements(g, c) == 2


def test_ccmerge_fairness_sweep():
    for seed in range(40):
        g = random_graph(9, seed + 600)
        colors = random_colors((3, 6), seed)
        spec = FairnessSpec.exact({1: 2})
        c = run_ccmerge(g, colors, spec, run_cc(g, PivotRun(seed, 5)))
        assert check_fairness(colors, c, spec).overall_pass


def test_ccmerge_interval_spec_sweep():
    spec = FairnessSpec(0, {1: (1, 2)})
    for seed in range(30):
        g = random_graph(7, seed + 700)
        colors = random_colors((3, 4), seed)
        c = run_ccmerge(g, colors, spec, run_cc(g, PivotRun(seed, 5)))
        assert check_fairness(colors, c, spec).overall_pass


def test_ccmerge_three_colors():
    spec = FairnessSpec.exact({1: 1, 2: 1})
    for seed in range(20):
        g = random_graph(9, seed + 750)
        colors = random_colors((3, 3, 3), seed)
        c = run_ccmerge(g, colors, spec, run_cc(g, PivotRun(seed, 5)))
        assert check_fairness(colors, c, spec).overall_pass


def test_ccmerge_globally_infeasible():
    g = all_positive(3)
    colors = ColorAssignment((0, 1, 1))
    with pytest.raises(InfeasibleSpecError):
        run_ccmerge(g, colors, FairnessSpec.exact({1: 1}), run_cc(g))


# Labels recorded from the earlier member-list implementation of the repair,
# which the label-array one reproduced on every input compared. Per case: color counts, negative-edge probability,
# seed, bounds, base color, the input clustering (run_cc with the seed and 5
# restarts, or a given one with ids 2, 1, 0, 2, 1, 0, ...) and the repaired
# labels. The comments name the repair branches each case reaches.
CCMERGE_PINS = [
    ((4, 8), 0.6, 35, {1: (2, 2)}, 0, "cc", (0, 0, 1, 1, 2, 2, 1, 0, 3, 3, 3, 2)),
    ((4, 4, 4), 0.6, 49, {1: (1, 1), 2: (1, 1)}, 0, "cc", (0, 0, 1, 2, 0, 1, 1, 3, 2, 2, 3, 3)),
    # a base vertex placed in a host
    ((5, 8), 0.35, 11, {1: (1, 2)}, 0, "cc", (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0)),
    # a host, and 4 slack vertices
    (
        (4, 5, 9), 0.5, 2, {1: (1, 2), 2: (1, 3)}, 0, "cc",
        (0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0),
    ),
    # base color 1; 2 slack vertices
    (
        (6, 3, 5), 0.5, 1, {0: (2, 2), 2: (1, 2)}, 1, "cc",
        (0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0),
    ),
    # 2 hosts, one stolen vertex
    ((6, 6), 0.6, 9, {1: (1, 3)}, 0, "cc", (0, 1, 1, 2, 0, 1, 3, 2, 1, 2, 2, 3)),
    # a host, 2 stolen vertices
    (
        (5, 5, 10), 0.5, 5, {1: (1, 2), 2: (2, 4)}, 0, "cc",
        (0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 1, 2, 2),
    ),
    # 3 hosts, 3 stolen vertices, donors taken friendliest first
    (
        (8, 8), 0.6, 9, {1: (1, 3)}, 0, "cc",
        (0, 1, 0, 0, 2, 0, 3, 0, 1, 2, 0, 0, 3, 0, 0, 0),
    ),
    # a host chosen from equally friendly clusters, one stolen vertex
    ((6, 6), 0.4, 7, {1: (1, 3)}, 0, "cc", (0, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1)),
    # non-canonical input ids; 2 slack vertices
    (
        (6, 6, 9), 0.4, 3, {1: (1, 1), 2: (1, 2)}, 0, "given",
        (0, 0, 1, 2, 0, 1, 0, 0, 1, 2, 0, 1, 2, 0, 1, 0, 0, 1, 0, 0, 0),
    ),
]


@pytest.mark.parametrize("counts,neg,seed,bounds,base,start,labels", CCMERGE_PINS)
def test_ccmerge_pinned_labels(counts, neg, seed, bounds, base, start, labels):
    """Every tie rule of the repair shows in these labels."""
    n = sum(counts)
    g = random_graph(n, seed, neg)
    colors = random_colors(counts, seed)
    spec = FairnessSpec(base, bounds)
    if start == "cc":
        clustering = run_cc(g, PivotRun(seed, 5))
    else:
        clustering = Clustering(tuple(2 - v % 3 for v in range(n)))
    c = run_ccmerge(g, colors, spec, clustering)
    assert c.cluster_of.tolist() == list(labels)
    assert check_fairness(colors, c, spec).overall_pass


def test_baselines_deterministic():
    g = random_graph(8, seed=11)
    colors = random_colors((4, 4), 11)
    spec = FairnessSpec.exact({1: 1})
    def wmatch(g, colors, spec, pivot):
        return run_wmatch(fairlets_of(g, colors, spec))

    def ufaircc(g, colors, spec, pivot):
        return run_algorithm("ufaircc", g, colors, spec, pivot)[0]

    def ccmerge(g, colors, spec, pivot):
        return run_ccmerge(g, colors, spec, run_cc(g, pivot))

    for fn in (wmatch, ufaircc, ccmerge):
        a = fn(g, colors, spec, PivotRun(3, 10))
        b = fn(g, colors, spec, PivotRun(3, 10))
        assert a == b
