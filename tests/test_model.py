import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faircc import (
    Clustering,
    ColorAssignment,
    FairnessSpec,
    InvalidInputError,
    ParseError,
    SignedCompleteGraph,
    check_fairness,
    color_distribution,
    disagreements,
)
from faircc import algorithms, model
from faircc.oracle import mirror_graph
from faircc.pivot import PivotRun
from conftest import (
    random_graph,
    reference_clustering,
    reference_color_assignment,
    reference_color_distribution,
    reference_disagreements,
    reference_fairness,
    reference_graph_error,
    reference_labels,
    reference_violations,
)


def negative_pairs(g):
    """Sorted negative pairs (u, v) with u < v of ``g``."""
    iu, iv = np.nonzero(np.triu(g.signs < 0, 1))
    return list(zip(iu.tolist(), iv.tolist()))


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
        agreements = sum(
            (g.signs[u, v] > 0) == (c.cluster_of[u] == c.cluster_of[v])
            for u in range(8)
            for v in range(u + 1, 8)
        )
        assert disagreements(g, c) + agreements == 8 * 7 // 2


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
    assert rep.cluster_pass.tolist() == [False, False]


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
    assert report.cluster_color_counts.tolist() == [[0, 2], [2, 0], [1, 2]]
    assert report.cluster_pass.tolist() == [False, False, True]


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


@pytest.mark.parametrize(
    "n,rows,message",
    [
        (2, [[0, 1, 1], [1, 0, 1]], "sign matrix must be 2x2"),
        (3, [[0, 1, 1], [-1, 0, 1], [1, 1, 0]], "sign matrix must be symmetric"),
        (2, [[1, 1], [1, 0]], "self-pairs must carry no sign"),
        (3, [[0, 0, 1], [0, 0, 1], [1, 1, 0]], "every distinct pair needs a +/-1 sign"),
        (3, [[0, 2, 1], [2, 0, 1], [1, 1, 0]], "every distinct pair needs a +/-1 sign"),
        # int8 wraps: abs(-128) is -128 and (-128)**2 is 0
        (3, [[0, -128, 1], [-128, 0, 1], [1, 1, 0]], "every distinct pair needs a +/-1 sign"),
    ],
    ids=["non-square", "asymmetric", "diagonal", "zero", "two", "minus-128"],
)
def test_graph_validation_messages(n, rows, message):
    with pytest.raises(InvalidInputError) as info:
        SignedCompleteGraph(n, np.array(rows, dtype=np.int8))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "rows,message",
    [
        (np.array([[0, 257], [257, 0]], np.int64), "every distinct pair needs a +/-1 sign"),
        (np.array([[0, -255], [-255, 0]], np.int64), "every distinct pair needs a +/-1 sign"),
        (np.array([[0, 1.5], [1.5, 0]]), "every distinct pair needs a +/-1 sign"),
        (np.array([[256, 1], [1, 0]], np.int64), "self-pairs must carry no sign"),
    ],
    ids=["257", "minus-255", "1.5", "diagonal-256"],
)
def test_signs_the_int8_cast_would_change_are_rejected(rows, message):
    """Each of these casts to a valid int8 matrix (257 and -255 wrap to 1,
    1.5 truncates to 1 and 256 wraps to 0)."""
    with pytest.raises(InvalidInputError) as info:
        SignedCompleteGraph(2, rows)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "rows,message",
    [
        ([["0", "1"], ["1", "0"]], "sign matrix must hold numbers, not str"),
        (np.array([["0", "1"], ["1", "0"]]), "sign matrix must hold numbers, not str"),
        (np.array([[b"0", b"1"], [b"1", b"0"]]), "sign matrix must hold numbers, not bytes"),
        (
            np.array([["0", "1"], ["1", "0"]], dtype=object),
            "sign matrix must hold numbers, not object",
        ),
    ],
    ids=["list-of-str", "str-array", "bytes-array", "object-str-array"],
)
def test_string_signs_are_rejected_by_type(rows, message):
    """The int8 cast would parse these; the compare with the cast then
    sees '0' != 0 and blamed the diagonal."""
    with pytest.raises(InvalidInputError) as info:
        SignedCompleteGraph(2, rows)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "rows,message",
    [
        (np.array([[0, 1], [1, 0]], dtype=object), "sign matrix must hold numbers, not object"),
        (
            np.array([[0, 1], [1, 0]], np.complex128),
            "sign matrix must hold numbers, not complex128",
        ),
        # asymmetric and holding a 2: the +/-1 count comes before the symmetry
        (np.array([[0, 2], [1, 0]], np.int8), "every distinct pair needs a +/-1 sign"),
        # a NaN is never blamed as asymmetry
        (np.array([[0, np.nan], [1, 0]]), "every distinct pair needs a +/-1 sign"),
        # asymmetric with a signed diagonal: the diagonal comes first
        (np.array([[1, 1], [-1, 0]], np.int8), "self-pairs must carry no sign"),
    ],
    ids=["object-ints", "complex", "asymmetric-two", "asymmetric-nan", "asymmetric-diagonal"],
)
def test_sign_checks_run_in_order_on_the_values_as_given(rows, message):
    """Only bool, int, uint and float matrices are read; then the
    diagonal, the +/-1 count and the symmetry are checked in that order."""
    with pytest.raises(InvalidInputError) as info:
        SignedCompleteGraph(2, rows)
    assert str(info.value) == message


GRAPH_DTYPES = [np.int8, np.int64, np.uint8, np.float64, np.bool_]
DIAGONAL_FAULTS = [1, -1, 2, 256, 1.5, np.nan, np.inf]
PAIR_FAULTS = [0, 2, 257, -255, 1.5, np.nan, np.inf]


def holds(dtype, value):
    """Whether an array of ``dtype`` holds ``value`` exactly."""
    if dtype.kind == "f":
        return True
    if not float(value).is_integer():
        return False
    info = np.iinfo(np.uint8 if dtype.kind == "b" else dtype)
    return info.min <= value <= (1 if dtype.kind == "b" else info.max)


@st.composite
def sign_matrices(draw):
    """(n, matrix): an n x n sign matrix, n from 1 to 6, of a dtype in
    ``GRAPH_DTYPES``, valid or with exactly one fault: one diagonal entry
    that is not 0, one pair holding a value other than +/-1, or one entry
    of a pair flipped. Only values the dtype holds are drawn, so an
    unsigned or bool matrix is all positive."""
    dtype = np.dtype(draw(st.sampled_from(GRAPH_DTYPES)))
    n = draw(st.integers(1, 6))
    signed = holds(dtype, -1)
    iu, iv = np.triu_indices(n, 1)
    values = [1] * len(iu)
    if signed:
        values = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(iu), max_size=len(iu)))
    signs = np.zeros((n, n))
    signs[iu, iv] = signs[iv, iu] = values
    faults = ["none", "diagonal"] + ["pair"] * (n > 1) + ["flip"] * (n > 1 and signed)
    fault = draw(st.sampled_from(faults))
    if fault == "diagonal":
        v = draw(st.integers(0, n - 1))
        signs[v, v] = draw(st.sampled_from([x for x in DIAGONAL_FAULTS if holds(dtype, x)]))
    elif fault != "none":
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if fault == "pair":
            signs[u, v] = signs[v, u] = draw(
                st.sampled_from([x for x in PAIR_FAULTS if holds(dtype, x)])
            )
        else:
            signs[u, v] = -signs[u, v]
    return n, signs.astype(dtype)


@settings(max_examples=500, deadline=None)
@given(sign_matrices())
@example((2, np.array([[0, 257], [257, 0]], np.int64)))
@example((2, np.array([[0, -1], [1, 0]], np.int8)))
@example((3, np.array([[0, 1, 1], [1, np.nan, 1], [1, 1, 0]])))
def test_sign_checks_agree_with_the_cast_first_reference(case):
    """On valid and single-fault matrices of every numeric dtype, the
    checks on the values as given accept exactly what the cast-first
    checks accepted, with the same message, and keep the same int8
    signs."""
    n, signs = case
    want = reference_graph_error(n, signs)
    try:
        g = SignedCompleteGraph(n, signs.copy())
    except InvalidInputError as exc:
        assert str(exc) == want
    else:
        assert want is None
        assert g.signs.dtype == np.int8 and np.array_equal(g.signs, signs)


def test_graph_equality_is_by_value():
    g = random_graph(9, seed=2)
    same = SignedCompleteGraph(9, g.signs.copy())
    assert same.signs is not g.signs and g == same and not g != same
    assert g != random_graph(9, seed=3)
    assert g != graph_all_positive(8)
    flipped = g.signs.copy()
    flipped[0, 1] = flipped[1, 0] = -flipped[0, 1]
    assert g != SignedCompleteGraph(9, flipped)
    for other in (None, 9, "g", Clustering((0,) * 9)):
        assert g != other and other != g


def test_graph_keeps_a_copy_of_a_writable_matrix():
    """The constructor never freezes the caller's matrix: a writable int8
    matrix is copied and stays writable, and a read-only int8 matrix, which
    no one can change, is kept as it is."""
    s = np.array([[0, 1], [1, 0]], np.int8)
    g = SignedCompleteGraph(2, s)
    s[0, 1] = s[1, 0] = -1
    assert g.signs[0, 1] == 1 and g.positive_pairs == 1 and not g.signs.flags.writeable
    s.setflags(write=False)
    assert SignedCompleteGraph(2, s).signs is s


def test_graph_positive_bits():
    """The packed rows are padded with zero bits to whole 64-bit words."""
    for n, width in [(13, 8), (64, 8), (65, 16)]:
        g = random_graph(n, seed=4)
        assert g.positive_bits.shape == (n, width) and not g.positive_bits.flags.writeable
        unpacked = np.unpackbits(g.positive_bits, axis=1)
        assert np.array_equal(unpacked[:, :n], g.signs > 0) and not unpacked[:, n:].any()
        assert g.positive_pairs == np.count_nonzero(np.triu(g.signs > 0, 1))


@st.composite
def objective_cases(draw):
    """(graph, clustering): n from 1 to 40, random, all-positive or
    all-negative signs, and one cluster, all singletons or random ids."""
    n = draw(st.integers(1, 40))
    neg_prob = draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    g = random_graph(n, seed=draw(st.integers(0, 2**32)), neg_prob=neg_prob)
    k = draw(st.integers(1, n))
    labels = draw(
        st.just([0] * n)
        | st.just(list(range(n)))
        | st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    )
    return g, Clustering.from_labels(labels)


# whole 64-bit words: every member and positive word all ones, bit 63 too,
# then two words per row, all ones or one bit each
ALL_POSITIVE_64 = SignedCompleteGraph.from_negative_edges(64, [])
ALL_POSITIVE_128 = SignedCompleteGraph.from_negative_edges(128, [])


@settings(max_examples=400, deadline=None)
@given(objective_cases())
@example((ALL_POSITIVE_64, Clustering.from_labels([0] * 64)))
@example((ALL_POSITIVE_128, Clustering.from_labels([0] * 128)))
@example((ALL_POSITIVE_128, Clustering.from_labels(range(128))))
def test_disagreements_matches_the_reference(case):
    """The packed count equals the n x n compare it replaced."""
    g, c = case
    assert disagreements(g, c) == reference_disagreements(g, c)


def test_disagreements_in_row_blocks_match_the_reference():
    """The same property with the popcount taken 3 rows at a time, so that
    graphs of up to 40 vertices cross block edges."""
    with mock.patch.object(model, "_POPCOUNT_ROWS", 3):
        test_disagreements_matches_the_reference()


def test_disagreements_in_cluster_blocks_match_the_reference():
    """The same property with the member masks built 192 bytes, so 3
    clusters of up to 64 vertices, at a time, and then with the popcount
    also taken 2 rows at a time, so that the members of one block of
    clusters cross row blocks."""
    with mock.patch.object(model, "_MEMBER_BYTES", 192):
        test_disagreements_matches_the_reference()
        with mock.patch.object(model, "_POPCOUNT_ROWS", 2):
            test_disagreements_matches_the_reference()


@st.composite
def label_matrices(draw):
    """(graph, R x n label matrix): R from 1 to 30 and n from 1 to 70, so
    rows of 1 to 2 packed words and some not a multiple of 64 wide, and
    each row one cluster, all singletons or random ids below a random k."""
    n = draw(st.integers(1, 70))
    rows = draw(st.integers(1, 30))
    neg_prob = draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    g = random_graph(n, seed=draw(st.integers(0, 2**32)), neg_prob=neg_prob)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    row_kind = st.sampled_from(["one", "singletons", "random"])
    kinds = draw(st.lists(row_kind, min_size=rows, max_size=rows))
    labels = np.array(
        [
            np.zeros(n, np.int64) if kind == "one"
            else rng.permutation(n) if kind == "singletons"
            else rng.integers(0, rng.integers(1, n + 1), n)
            for kind in kinds
        ]
    )
    return g, labels


@settings(max_examples=300, deadline=None)
@given(label_matrices())
@example((ALL_POSITIVE_64, np.zeros((1, 64), np.int64)))
@example((ALL_POSITIVE_128, np.array([np.zeros(128, np.int64), np.arange(128)])))
def test_batched_costs_match_the_reference(case):
    """One call scores every row of a label matrix as the n x n compare
    scores that row alone."""
    g, labels = case
    costs = model._label_disagreements(g, labels)
    assert costs.dtype == np.int64
    expected = [reference_disagreements(g, Clustering.from_labels(row)) for row in labels]
    assert costs.tolist() == expected


def test_batched_costs_in_small_blocks_match_the_reference():
    """The same property with the member masks built 192 bytes at a time,
    3 clusters of rows up to 64 wide and 1 of wider rows, and the popcount
    taken 5 slots at a time, so that blocks of clusters and of slots cross
    the boundaries between rows."""
    with mock.patch.object(model, "_MEMBER_BYTES", 192), mock.patch.object(
        model, "_POPCOUNT_ROWS", 5
    ):
        test_batched_costs_match_the_reference()


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


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(0.5, 1)], "negative edge list must hold integers"),
        ([(0, 1.9)], "negative edge list must hold integers"),
        ([("0", "2")], "negative edge list must hold numbers, not str"),
        ([(0, float("nan"))], "negative edge list must hold finite numbers"),
        ([(0, float("-inf"))], "negative edge list must hold finite numbers"),
        ([(0, 2**63)], "negative edge list must hold integers within int64"),
        ([(0, 2**70)], "negative edge list must hold numbers, not object"),
    ],
    ids=["half", "one-point-nine", "str", "nan", "minus-inf", "uint64", "beyond-uint64"],
)
def test_edge_ids_are_checked_before_the_cast(edges, message):
    """An id the int64 cast would truncate, parse or wrap is invalid
    input."""
    with pytest.raises(InvalidInputError) as info:
        SignedCompleteGraph.from_negative_edges(3, edges)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(0, 1, 2), (3, 4, 5)], r"must hold \(u, v\) pairs, got shape \(2, 3\)"),
        ([(0, 1, 2)], r"must hold \(u, v\) pairs, got shape \(1, 3\)"),
        ([(0, 1), (2,)], "negative edge list must be a rectangular array"),
        ([0, 1], r"must hold \(u, v\) pairs, got shape \(2,\)"),
    ],
    ids=["triples", "one-triple", "ragged", "flat"],
)
def test_edges_that_are_not_pairs_are_invalid_input(edges, message):
    """Rows of any length but two are refused, never re-paired."""
    with pytest.raises(InvalidInputError, match=message):
        SignedCompleteGraph.from_negative_edges(6, edges)


def test_integral_float_edge_ids_are_taken():
    same = SignedCompleteGraph.from_negative_edges(3, [(0.0, 2.0)])
    assert same == SignedCompleteGraph.from_negative_edges(3, [(0, 2)])


def test_from_negative_edges_matches_pairwise_signs():
    rng = random.Random(9)
    n = 12
    edges = sorted(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
    )
    g = SignedCompleteGraph.from_negative_edges(n, edges)
    assert negative_pairs(g) == edges
    assert negative_pairs(SignedCompleteGraph.from_json(g.to_json())) == edges
    with pytest.raises(InvalidInputError):
        SignedCompleteGraph.from_negative_edges(0, [])
    with pytest.raises(InvalidInputError, match="more than once"):
        SignedCompleteGraph.from_negative_edges(3, [(0, 1), (0, 1)])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(0, 2**16),
    st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    st.sampled_from([np.int32, np.int64]),
    st.integers(0, 3),
)
def test_trusted_constructions_equal_the_checked_constructor(n, seed, neg_prob, dtype, cuts):
    """_from_edge_blocks, faircc's induced base-color graph and mirror_graph
    build a matrix that is valid by construction and skip the constructor's
    checks; each gives what the checked constructor gives on the same
    signs: the signs, the positive bits and the positive pair count."""
    g = random_graph(n, seed, neg_prob)
    rng = np.random.default_rng(seed)

    def same(trusted, signs):
        checked = SignedCompleteGraph(len(signs), signs)
        assert trusted.n == checked.n
        assert trusted.signs.dtype == np.int8 and not trusted.signs.flags.writeable
        assert np.array_equal(trusted.signs, checked.signs)
        assert not trusted.positive_bits.flags.writeable
        assert np.array_equal(trusted.positive_bits, checked.positive_bits)
        assert trusted.positive_pairs == checked.positive_pairs

    # the negative pairs in random order, in up to four blocks
    pairs = rng.permutation(np.argwhere(np.triu(g.signs < 0, 1))).astype(dtype)
    blocks = np.split(pairs, np.sort(rng.integers(0, len(pairs) + 1, cuts)))
    same(SignedCompleteGraph._from_edge_blocks(n, blocks), g.signs)

    colors = ColorAssignment(np.r_[0, rng.integers(0, 2, n - 1)])
    memo = {}
    algorithms.cc_clustering(g, PivotRun(0, 1), memo, colors, 0)
    lefts = colors.vertices_of(0)
    same(memo[("restarts", 0)][0], g.signs[np.ix_(lefts, lefts)])

    # vertex u and its copy n + u share every sign but their own pair's, +1
    copy = np.arange(2 * n) % n
    signs = g.signs[np.ix_(copy, copy)]
    signs[(copy[:, None] == copy) & ~np.eye(2 * n, dtype=bool)] = 1
    same(mirror_graph(g)[0], signs)


@pytest.mark.parametrize(
    "n,seed,neg_prob",
    [(1, 0, 0.5), (2, 0, 1.0), (2, 1, 0.0), (7, 2, 0.0), (7, 3, 1.0), (9, 4, 0.5), (40, 5, 0.3)],
)
def test_negative_edges_and_to_json_match_the_reference(n, seed, neg_prob):
    """``to_json`` lists the negative pairs the per-pair loop finds, in
    order, byte for byte as ``json.dumps`` writes the graph object."""
    g = random_graph(n, seed, neg_prob)
    loop = [(u, v) for u in range(n) for v in range(u + 1, n) if g.signs[u, v] < 0]
    assert g.to_json() == json.dumps({"n": n, "negative_edges": [list(e) for e in loop]})


def test_graph_larger_than_memory_is_refused_before_allocating(monkeypatch):
    """Every way to build a graph from edges refuses n * n sign bytes above
    physical memory, naming n; 100 * 100 bytes fit in 10000."""
    monkeypatch.setattr(model, "_physical_memory", lambda: 10_000)
    assert SignedCompleteGraph.from_negative_edges(100, []).n == 100
    for build in (
        lambda: SignedCompleteGraph.from_negative_edges(101, []),
        lambda: SignedCompleteGraph.from_json('{"n": 101, "negative_edges": []}'),
        lambda: SignedCompleteGraph.from_json('{"negative_edges": [], "n": 101}'),
    ):
        with pytest.raises(InvalidInputError, match="n=101 "):
            build()


def test_colors_csv_roundtrip():
    colors = ColorAssignment((0, 1, 0, 2))
    assert np.array_equal(ColorAssignment.from_csv(colors.to_csv()).color_of, colors.color_of)
    with pytest.raises(ParseError):
        ColorAssignment.from_csv("0,0\n0,1\n")
    with pytest.raises(ParseError):
        ColorAssignment.from_csv("1,0\n2,0\n")


@pytest.mark.parametrize(
    "row",
    ["1,1,9", "1,1,", "1,1_0", "1,\u0661", "1", "1;0", "1,0x1", "\u0661,1", "1\u00a0,1"],
    ids=[
        "third-field", "trailing-comma", "underscore", "arabic-indic-digit", "one-field",
        "semicolon", "hex", "arabic-indic-vertex", "inner-nbsp",
    ],
)
def test_colors_csv_row_is_two_ascii_integers(row):
    """int() alone takes "1_0" and non-ASCII digits, and the row split took
    any fields past the second; each such row is a parse error naming it."""
    with pytest.raises(ParseError) as info:
        ColorAssignment.from_csv(f"0,0\n{row}\n")
    assert str(info.value) == f"bad colors CSV at line 2: {row!r}"


def test_colors_csv_takes_space_around_its_fields():
    assert ColorAssignment.from_csv(" 0 , 1\n1,\t0 \n\n").color_of.tolist() == [1, 0]


def test_clustering_json_roundtrip_and_validation():
    c = Clustering((0, 1, 1, 2))
    assert Clustering(json.loads(c.to_json())["cluster_of"]) == c
    with pytest.raises(InvalidInputError):
        Clustering((0, 2, 2))  # id 1 unused
    assert Clustering.from_labels(["b", "a", "b"]).cluster_of.tolist() == [0, 1, 0]


@pytest.mark.parametrize(
    "build,ids,message",
    [
        (ColorAssignment, [0.5, 1.7], "color ids must be integers"),
        (ColorAssignment, [0, 1, 0.5], "color ids must be integers"),
        (ColorAssignment, [0, float("nan")], "color ids must be integers"),
        (ColorAssignment, [0, float("inf")], "color ids must be integers"),
        (ColorAssignment, [0, -0.5], "color ids must be nonnegative"),
        (ColorAssignment, [0, 2**70], f"color id {2**70} is not below n=2"),
        (Clustering, [0.2, 1.9], "cluster ids must be integers"),
        (Clustering, [0, 1, 1.5], "cluster ids must be integers"),
        (Clustering, [0, float("nan")], "cluster ids must be contiguous from 0"),
        (ColorAssignment, ["a", "b"], "color ids must be integers"),
        (ColorAssignment, [0, None], "color ids must be integers"),
        (Clustering, ["a", "b"], "cluster ids must be integers"),
        (Clustering, [0, None], "cluster ids must be integers"),
    ],
)
def test_non_integral_ids_are_invalid_input(build, ids, message):
    """A fractional, NaN or infinite id is invalid input, never truncated;
    ids out of range keep their range message."""
    with pytest.raises(InvalidInputError) as info:
        build(ids)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build,ids,message",
    [
        (ColorAssignment, [[0, 1], [1, 0]], "color ids must be a flat sequence, one per vertex"),
        (Clustering, [[0]], "cluster ids must be a flat sequence, one per vertex"),
        (ColorAssignment, 0, "color ids must be a flat sequence, one per vertex"),
        (Clustering, 5, "cluster ids must be a flat sequence, one per vertex"),
        (ColorAssignment, [[0], [1, 0]], "color ids must be a flat sequence, one per vertex"),
        (Clustering, [0, [1]], "cluster ids must be a flat sequence, one per vertex"),
    ],
    ids=["colors-2d", "clustering-2d", "colors-scalar", "clustering-scalar",
         "colors-ragged", "clustering-ragged"],
)
def test_ids_that_are_not_one_per_vertex_are_invalid_input(build, ids, message):
    """A scalar or a nested sequence of ids is invalid input, refused
    before any other check."""
    with pytest.raises(InvalidInputError) as info:
        build(ids)
    assert str(info.value) == message


@pytest.mark.parametrize("build", [ColorAssignment, Clustering])
def test_integral_float_ids_are_accepted(build):
    ids = build([0.0, 1.0, 1.0])
    assert (ids.color_of if build is ColorAssignment else ids.cluster_of).tolist() == [0, 1, 1]


def test_fairness_spec_validation():
    with pytest.raises(InvalidInputError):
        FairnessSpec(0, {1: (2, 1)})
    with pytest.raises(InvalidInputError):
        FairnessSpec(0, {0: (1, 1)})
    spec = FairnessSpec(0, {1: (1, 2)})
    assert not spec.is_exact
    assert spec.describe() == "1:1..1:2"
    assert FairnessSpec.exact({1: 2, 2: 3}).describe() == "1:2:3"


def test_fairness_spec_takes_integers_of_any_type():
    """numpy integers are taken and stored as Python ints, as degree bounds
    are; a float, even an integral one, or a str is refused."""
    spec = FairnessSpec(0, {1: (np.int64(1), np.int64(1)), 2: (np.int32(1), 2)})
    assert spec.bounds == {1: (1, 1), 2: (1, 2)}
    assert all(type(x) is int for bound in spec.bounds.values() for x in bound)
    assert spec.describe() == FairnessSpec(0, {1: (1, 1), 2: (1, 2)}).describe() == "1:1:1..1:1:2"
    assert spec == FairnessSpec(0, {1: (1, 1), 2: (1, 2)})
    for bad in ((1.0, 1), (1, 2.5), ("1", 1), (np.float64(1), 1)):
        with pytest.raises(InvalidInputError, match="ratio bounds must be integers"):
            FairnessSpec(0, {1: bad})
    spec = FairnessSpec(np.int64(1), {np.int32(0): [1, np.int8(2)]})
    assert spec.base_color == 1 and spec.bounds == {0: (1, 2)}
    assert type(spec.base_color) is int and all(type(c) is int for c in spec.bounds)


@pytest.mark.parametrize(
    "base, bounds, message",
    [
        (0, {1: 1}, "color 1: bound 1 is not a pair (p, q)"),
        (0, {1: (1, 2, 3)}, "color 1: bound (1, 2, 3) is not a pair (p, q)"),
        (0, {1: "12"}, "color 1: bound '12' is not a pair (p, q)"),
        (0.5, {1: (1, 1)}, "color ids must be nonnegative integers, got 0.5"),
        (-1, {1: (1, 1)}, "color ids must be nonnegative integers, got -1"),
        (0, {"a": (1, 1)}, "color ids must be nonnegative integers, got 'a'"),
        (0, {-2: (1, 1)}, "color ids must be nonnegative integers, got -2"),
    ],
)
def test_fairness_spec_refuses_malformed_ids_and_bounds(base, bounds, message):
    with pytest.raises(InvalidInputError) as info:
        FairnessSpec(base, bounds)
    assert str(info.value) == message


def outcome(build, ids):
    """("ok", what ``build`` returns) or ("error", its error type and
    message)."""
    try:
        return "ok", build(ids)
    except InvalidInputError as exc:
        return "error", type(exc), str(exc)


def color_fields(ids):
    colors = ColorAssignment(ids)
    assert colors.color_of.dtype == np.int64 and not colors.color_of.flags.writeable
    assert all(type(n) is int for n in colors.counts)
    return colors.color_of.tolist(), colors.counts


def cluster_fields(ids):
    c = Clustering(ids)
    assert c.cluster_of.dtype == np.int64 and not c.cluster_of.flags.writeable
    assert c == Clustering(np.array(c.cluster_of)) and c.num_clusters == max(ids) + 1
    return c.cluster_of.tolist()


# small ids, so that valid inputs are common, mixed with ids of any size
IDS = st.lists(st.integers(-2, 6) | st.integers(), max_size=8)


@settings(max_examples=500, deadline=None)
@given(IDS)
@example([0, 2**63 + 1])  # a numpy array of these is float64
def test_color_assignment_matches_the_reference(ids):
    """Same color ids and counts, or the same error and message, as the
    tuple-based constructor, ids beyond int64 included."""
    want = outcome(reference_color_assignment, ids)
    if want[0] == "ok":
        want = ("ok", (list(want[1][0]), want[1][1]))
    assert outcome(color_fields, ids) == want


@settings(max_examples=500, deadline=None)
@given(IDS)
def test_clustering_matches_the_reference(ids):
    """Same cluster ids, or the same error and message, as the tuple-based
    constructor."""
    want = outcome(lambda x: list(reference_clustering(x)), ids)
    assert outcome(cluster_fields, ids) == want


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-3, 3) | st.integers(), min_size=1, max_size=12)
    | st.lists(st.text(max_size=2), min_size=1, max_size=12)
)
@example(["a\x00", "a", ""])  # a numpy str array drops trailing NULs
@example([2**63 + 1, 2**63, -1])  # a numpy array of these is float64
def test_from_labels_matches_the_reference(labels):
    """Any int or str labels get ids in order of first appearance, from a
    list or from an array."""
    want = reference_labels(labels)
    assert Clustering.from_labels(labels).cluster_of.tolist() == want
    if all(type(lab) is int and abs(lab) < 2**62 for lab in labels):
        assert Clustering.from_labels(np.array(labels)).cluster_of.tolist() == want


@st.composite
def fairness_cases(draw):
    """(color ids, cluster labels, spec): 1-4 colors, some specs naming a
    color or a base color the colors lack, some bounds above n."""
    k = draw(st.integers(1, 4))
    extra = draw(st.lists(st.integers(0, k - 1), max_size=10))
    color_of = draw(st.permutations(list(range(k)) + extra))  # every color present
    labels = draw(st.lists(st.integers(0, 4), min_size=len(color_of), max_size=len(color_of)))
    base = draw(st.integers(0, k))  # k: a base color the colors lack
    bound = st.integers(1, 3) | st.just(10**30)
    bounds = {}
    for color in draw(st.sets(st.integers(0, k + 1).filter(lambda c: c != base))):
        p, q = sorted(draw(st.tuples(bound, bound)))
        bounds[color] = (p, q)
    return color_of, labels, FairnessSpec(base, bounds)


@settings(max_examples=500, deadline=None)
@given(fairness_cases())
def test_check_fairness_matches_the_reference(case):
    """The counts table, verdicts, violation text and color distribution
    agree with the per-cluster dict loops they replaced."""
    color_of, labels, spec = case
    colors, c = ColorAssignment(color_of), Clustering.from_labels(labels)
    cluster_of = reference_labels(labels)
    counts, verdicts = reference_fairness(color_of, cluster_of, spec)
    report = check_fairness(colors, c, spec)
    table = report.cluster_color_counts.tolist()
    assert [{i: n for i, n in enumerate(row) if n} for row in table] == counts
    assert report.cluster_pass.tolist() == verdicts
    assert report.overall_pass is all(verdicts)
    for limit in (1, 3):
        with mock.patch.object(model, "_VIOLATIONS_SHOWN", limit):
            assert report.describe_violations() == reference_violations(counts, verdicts, limit)
    rows = color_distribution(colors, c)
    assert rows == reference_color_distribution(color_of, cluster_of)
    assert all(type(color) is int and type(n) is int for row in rows for color, n in row.items())
