import json
import random

import numpy as np
import pytest

from faircc import (
    Clustering,
    ColorAssignment,
    FairnessSpec,
    InvalidInputError,
    ParseError,
    SignedCompleteGraph,
    agreements,
    check_fairness,
    color_distribution,
    disagreements,
)
from conftest import random_graph


def graph_all_positive(n):
    return SignedCompleteGraph.from_negative_edges(n, [])


def test_disagreements_all_positive_triangle_single_cluster():
    g = graph_all_positive(3)
    assert disagreements(g, Clustering((0, 0, 0))) == 0


def test_disagreements_one_negative_edge_trapped():
    g = SignedCompleteGraph.from_negative_edges(3, [(1, 2)])
    assert disagreements(g, Clustering((0, 0, 0))) == 1


def test_disagreements_all_positive_singletons():
    g = graph_all_positive(3)
    assert disagreements(g, Clustering((0, 1, 2))) == 3


def test_disagreements_length_mismatch():
    g = graph_all_positive(3)
    with pytest.raises(InvalidInputError):
        disagreements(g, Clustering((0, 0)))


def test_disagreements_invariant_under_relabeling():
    g = random_graph(7, seed=3)
    c = Clustering((0, 1, 2, 0, 1, 2, 0))
    base = disagreements(g, c)
    perm = {0: 2, 1: 0, 2: 1}
    relabeled = Clustering.from_labels([perm[x] for x in c.cluster_of])
    assert disagreements(g, relabeled) == base


def test_disagreements_plus_agreements_is_all_pairs():
    g = random_graph(8, seed=11)
    rng = random.Random(5)
    for _ in range(10):
        labels = [rng.randrange(3) for _ in range(8)]
        c = Clustering.from_labels(labels)
        assert disagreements(g, c) + agreements(g, c) == 8 * 7 // 2


def test_extremes():
    pos = graph_all_positive(5)
    assert disagreements(pos, Clustering((0,) * 5)) == 0
    neg_edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    neg = SignedCompleteGraph.from_negative_edges(5, neg_edges)
    assert disagreements(neg, Clustering(tuple(range(5)))) == 0


def test_check_fairness_one_to_one_passes():
    colors = ColorAssignment((0, 1))
    rep = check_fairness(colors, Clustering((0, 0)), FairnessSpec.exact({1: 1}))
    assert rep.overall_pass


def test_check_fairness_interval_fail():
    colors = ColorAssignment((0, 1, 1, 1))
    rep = check_fairness(colors, Clustering((0, 0, 0, 0)), FairnessSpec(0, {1: (1, 2)}))
    assert not rep.overall_pass  # 3 blue > 1 * 2


def test_check_fairness_interval_pass():
    colors = ColorAssignment((0, 0, 1, 1, 1))
    rep = check_fairness(colors, Clustering((0, 0, 0, 0, 0)), FairnessSpec(0, {1: (1, 2)}))
    assert rep.overall_pass  # 2 <= 3 <= 4


def test_check_fairness_no_base_vertex_fails():
    colors = ColorAssignment((0, 1))
    rep = check_fairness(colors, Clustering((0, 1)), FairnessSpec.exact({1: 1}))
    assert not rep.overall_pass
    assert rep.cluster_pass == (False, False)


def test_global_exact_ratio_single_cluster_passes():
    colors = ColorAssignment((0, 1, 1, 0, 1, 1))
    spec = FairnessSpec.exact({1: 2})
    rep = check_fairness(colors, Clustering((0,) * 6), spec)
    assert rep.overall_pass


def test_color_distribution_single_cluster():
    colors = ColorAssignment((0, 0, 1, 1))
    rows = color_distribution(colors, Clustering((0, 0, 0, 0)))
    assert rows == [{0: 2, 1: 2}]


def test_color_distribution_singletons():
    colors = ColorAssignment((0, 1))
    rows = color_distribution(colors, Clustering((0, 1)))
    assert rows == [{0: 1}, {1: 1}]


def test_color_distribution_order_ignores_cluster_ids():
    """Largest cluster first, then the one holding the smaller vertex,
    whatever the ids: cluster 1 holds vertex 0 and comes before cluster 0.
    The fairness report keeps the same counts indexed by cluster id."""
    colors = ColorAssignment((0, 1, 1, 0, 0, 1, 1))
    c = Clustering((1, 0, 0, 1, 2, 2, 2))
    assert color_distribution(colors, c) == [{0: 1, 1: 2}, {0: 2}, {1: 2}]
    report = check_fairness(colors, c, FairnessSpec(0, {1: (1, 2)}))
    assert report.cluster_color_counts == ({1: 2}, {0: 2}, {0: 1, 1: 2})
    assert report.cluster_pass == (False, False, True)


def test_color_distribution_matches_direct_count():
    rng = random.Random(9)
    colors = ColorAssignment(tuple(rng.randrange(2) for _ in range(6)))
    c = Clustering.from_labels([rng.randrange(3) for _ in range(6)])
    rows = color_distribution(colors, c)
    # recount independently from cluster_of
    direct = {}
    for v in range(6):
        direct.setdefault(c.cluster_of[v], {}).setdefault(colors.color_of[v], 0)
        direct[c.cluster_of[v]][colors.color_of[v]] += 1
    assert sorted(map(sorted, (r.items() for r in rows))) == sorted(
        map(sorted, (r.items() for r in direct.values()))
    )
    sizes = [sum(r.values()) for r in rows]
    assert sizes == sorted(sizes, reverse=True)


def test_graph_validation():
    with pytest.raises(InvalidInputError):
        SignedCompleteGraph(2, np.zeros((2, 2), dtype=np.int8))
    with pytest.raises(InvalidInputError):
        SignedCompleteGraph.from_negative_edges(3, [(2, 1)])  # needs u < v


def test_graph_json_roundtrip():
    g = random_graph(6, seed=2)
    again = SignedCompleteGraph.from_json(g.to_json())
    assert np.array_equal(again.signs, g.signs)
    with pytest.raises(ParseError):
        SignedCompleteGraph.from_json("{not json")
    with pytest.raises(ParseError):
        SignedCompleteGraph.from_json(json.dumps({"n": 3}))


@pytest.mark.parametrize(
    "obj",
    [
        {"n": "3", "negative_edges": []},
        {"n": 3.0, "negative_edges": []},
        {"n": True, "negative_edges": []},
        {"n": 3, "negative_edges": [["0", 1]]},
        {"n": 3, "negative_edges": [[0, 1.5]]},
        {"n": 3, "negative_edges": [[0, 1, 2]]},
        {"n": 3, "negative_edges": [[0, 1], [2]]},
        {"n": 3, "negative_edges": [0, 1]},
        {"n": 3, "negative_edges": None},
        {"n": 3, "negative_edges": [[0, 1], [0, 1]]},
        {"n": 4, "negative_edges": [[0, 1], [2, 3], [0, 1]]},
        {"n": 3, "negative_edges": [[True, 2]]},
        {"n": 3, "negative_edges": [[0, False]]},
    ],
)
def test_graph_json_malformed_is_parse_error(obj):
    with pytest.raises(ParseError):
        SignedCompleteGraph.from_json(json.dumps(obj))


@pytest.mark.parametrize("edge", [[1, 0], [1, 1], [0, 3], [-1, 2]])
def test_graph_json_bad_edge_ids(edge):
    text = json.dumps({"n": 3, "negative_edges": [[0, 1], edge]})
    with pytest.raises(InvalidInputError, match=r"bad negative edge \(%d, %d\)" % tuple(edge)):
        SignedCompleteGraph.from_json(text)


def test_from_negative_edges_matches_pairwise_signs():
    rng = random.Random(9)
    n = 12
    edges = sorted(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
    )
    g = SignedCompleteGraph.from_negative_edges(n, edges)
    assert g.negative_edges() == edges
    assert SignedCompleteGraph.from_json(g.to_json()).negative_edges() == edges
    with pytest.raises(InvalidInputError):
        SignedCompleteGraph.from_negative_edges(0, [])
    with pytest.raises(InvalidInputError, match="more than once"):
        SignedCompleteGraph.from_negative_edges(3, [(0, 1), (0, 1)])


def test_colors_csv_roundtrip():
    colors = ColorAssignment((0, 1, 0, 2))
    assert ColorAssignment.from_csv(colors.to_csv()).color_of == colors.color_of
    with pytest.raises(ParseError):
        ColorAssignment.from_csv("0,0\n0,1\n")
    with pytest.raises(ParseError):
        ColorAssignment.from_csv("1,0\n2,0\n")


def test_clustering_json_roundtrip_and_validation():
    c = Clustering((0, 1, 1, 2))
    assert Clustering.from_json(c.to_json()).cluster_of == c.cluster_of
    with pytest.raises(InvalidInputError):
        Clustering((0, 2, 2))  # id 1 unused
    assert Clustering.from_labels(["b", "a", "b"]).cluster_of == (0, 1, 0)


def test_fairness_spec_validation():
    with pytest.raises(InvalidInputError):
        FairnessSpec(0, {1: (2, 1)})
    with pytest.raises(InvalidInputError):
        FairnessSpec(0, {0: (1, 1)})
    spec = FairnessSpec(0, {1: (1, 2)})
    assert not spec.is_exact
    assert spec.describe() == "1:1..1:2"
    assert FairnessSpec.exact({1: 2, 2: 3}).describe() == "1:2:3"
