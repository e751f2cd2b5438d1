import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircc import (
    InfeasibleSpecError,
    InvalidInputError,
    ParseError,
    Schema,
    SignedCompleteGraph,
    build_graph,
    load_csv,
    sample,
    TabularDataset,
)
from faircc.ingest import color_ids
from conftest import reference_build_graph, reference_similarities

SCHEMA = Schema(
    (
        ("id", "id"),
        ("age", "numeric"),
        ("job", "categorical"),
        ("group", "protected"),
    )
)


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_basic_and_drop(tmp_path):
    path = write_csv(
        tmp_path,
        "id,age,job,group\n"
        "a,30,eng,R\n"
        "b,40,eng,\n"
        "c,50,law,B\n",
    )
    ds, dropped = load_csv(path, SCHEMA)
    assert ds.n == 2 and dropped == 1
    assert ds.rows[0]["age"] == 30.0
    assert ds.protected_values() == ["R", "B"]


def test_load_csv_header_mismatch(tmp_path):
    path = write_csv(tmp_path, "id,age,group\na,1,R\n")
    with pytest.raises(ParseError, match="header"):
        load_csv(path, SCHEMA)


def test_load_csv_bad_numeric_reports_line(tmp_path):
    path = write_csv(tmp_path, "id,age,job,group\na,1,x,R\nb,young,x,B\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(path, SCHEMA)


def test_load_csv_field_count_reports_line(tmp_path):
    path = write_csv(tmp_path, "id,age,job,group\na,1,x\n")
    with pytest.raises(ParseError, match="line 2"):
        load_csv(path, SCHEMA)


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(ParseError, match="empty"):
        load_csv(write_csv(tmp_path, ""), SCHEMA)


def test_schema_validation():
    with pytest.raises(ParseError):
        Schema((("a", "weird"),))
    with pytest.raises(ParseError):
        Schema((("a", "numeric"),))  # no protected column
    s = Schema.from_json(
        '{"columns": [{"name": "x", "kind": "numeric"},'
        ' {"name": "g", "kind": "protected"}]}'
    )
    assert s.protected_column == "g"
    with pytest.raises(ParseError):
        Schema.from_json("not json")
    for kinds in (("numeric", "protected"), ("protected", "numeric")):
        with pytest.raises(ParseError, match="column 'a' is named twice"):
            Schema.from_json(
                '{"columns": [{"name": "a", "kind": "%s"}, {"name": "a", "kind": "%s"}]}' % kinds
            )


def make_dataset(groups):
    rows = tuple(
        {"id": str(i), "age": float(i), "job": "x", "group": g}
        for i, g in enumerate(groups)
    )
    return TabularDataset(rows, SCHEMA)


def test_sample_identity_and_determinism():
    ds = make_dataset(["R"] * 10 + ["B"] * 30)
    assert sample(ds, 40, seed=0).rows == ds.rows
    a = sample(ds, 12, seed=7)
    b = sample(ds, 12, seed=7)
    assert a.rows == b.rows and a.n == 12


def test_sample_balanced_counts():
    ds = make_dataset(["R"] * 10 + ["B"] * 30)
    got = sample(ds, 20, seed=3, balance="1:1")
    values = got.protected_values()
    assert values.count("R") == 10 and values.count("B") == 10
    got = sample(ds, 30, seed=3, balance="1:2")
    values = got.protected_values()
    assert values.count("R") == 10 and values.count("B") == 20


def test_sample_infeasible_names_color():
    ds = make_dataset(["R"] * 10 + ["B"] * 30)
    with pytest.raises(InfeasibleSpecError, match="'R'"):
        sample(ds, 40, seed=0, balance="1:1")
    with pytest.raises(InfeasibleSpecError):
        sample(ds, 7, seed=0, balance="1:1")  # odd n cannot split 1:1
    with pytest.raises(InvalidInputError):
        sample(ds, 41, seed=0)
    with pytest.raises(ParseError):
        sample(ds, 20, seed=0, balance="2:1")


@pytest.mark.parametrize("n", [0, -1])
def test_sample_needs_at_least_one_row(n):
    ds = make_dataset(["R"] * 10 + ["B"] * 30)
    with pytest.raises(InvalidInputError, match=f"cannot sample {n} of 40"):
        sample(ds, n, seed=0)


@pytest.mark.parametrize(
    "n,seed,message",
    [
        (12, -3, "sample seed must be nonnegative, got -3"),
        (12, 1.5, "sample seed must be an integer, got 1.5"),
        (12, "a", "sample seed must be an integer, got 'a'"),
        (2.5, 0, "sample size must be an integer, got 2.5"),
    ],
    ids=["seed-3", "seed1.5", "seed-a", "n2.5"],
)
def test_sample_refuses_a_bad_seed_or_size(n, seed, message):
    """random.Random(-3) draws what random.Random(3) draws, so a negative
    seed is refused rather than aliased; a float seed would seed a pass, and
    a str seed or a fractional size would end in a raw TypeError."""
    ds = make_dataset(["R"] * 10 + ["B"] * 30)
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        sample(ds, n, seed=seed)


def test_build_graph_identical_rows_positive():
    ds = make_dataset(["R", "B", "R"])  # ages differ, job constant
    g, colors = build_graph(ds, tau=0.0)
    assert (g.signs[~(g.signs == 0)] == 1).all()
    assert colors.color_of.tolist() == [0, 1, 0]


def test_build_graph_all_different_rows_negative():
    rows = tuple(
        {"id": str(i), "age": float(i), "job": f"j{i}", "group": "RB"[i % 2]}
        for i in range(3)
    )
    ds = TabularDataset(rows, SCHEMA)
    g, _ = build_graph(ds, tau=0.9)
    assert g.signs[0, 1] == -1 and g.signs[0, 2] == -1 and g.signs[1, 2] == -1


def test_build_graph_hand_computed_signs():
    # ages 0,10,20,40 min-max normalized to 0, .25, .5, 1; jobs x,x,y,y.
    # sim(A,B) = (.75 + 1)/2 = .875  -> +
    # sim(A,C) = (.5 + 0)/2  = .25   -> -
    # sim(A,D) = (0 + 0)/2   = 0     -> -
    # sim(B,C) = (.75 + 0)/2 = .375  -> -
    # sim(B,D) = (.25 + 0)/2 = .125  -> -
    # sim(C,D) = (.5 + 1)/2  = .75   -> +
    rows = tuple(
        {"id": t[0], "age": t[1], "job": t[2], "group": t[3]}
        for t in [("a", 0.0, "x", "R"), ("b", 10.0, "x", "R"),
                  ("c", 20.0, "y", "B"), ("d", 40.0, "y", "B")]
    )
    ds = TabularDataset(rows, SCHEMA)
    g, colors = build_graph(ds, tau=0.5)
    neg = {(u, v) for u in range(4) for v in range(u + 1, 4) if g.signs[u, v] < 0}
    assert neg == {(0, 2), (0, 3), (1, 2), (1, 3)}
    assert colors.color_of.tolist() == [0, 0, 1, 1]


def test_build_graph_tau_monotone():
    ds = make_dataset(["R", "B", "R", "B", "R", "B"])
    prev = None
    for tau in (0.0, 0.3, 0.6, 0.9, 1.0):
        g, _ = build_graph(ds, tau=tau)
        pos = int((g.signs > 0).sum())
        if prev is not None:
            assert pos <= prev
        prev = pos


def test_build_graph_needs_two_rows_and_features():
    with pytest.raises(InvalidInputError):
        build_graph(make_dataset(["R"]))
    bare = Schema((("id", "id"), ("group", "protected")))
    rows = ({"id": "a", "group": "R"}, {"id": "b", "group": "B"})
    with pytest.raises(InvalidInputError):
        build_graph(TabularDataset(rows, bare))


def test_build_graph_refuses_a_numeric_range_beyond_float64():
    """A column whose max - min overflows would give nan similarities."""
    rows = tuple(
        {"id": str(i), "age": age, "job": "x", "group": "RB"[i % 2]}
        for i, age in enumerate((1e308, -1e308, 0.0, 1.0))
    )
    with pytest.raises(InvalidInputError, match="numeric column 'age': range -1e.308..1e.308"):
        build_graph(TabularDataset(rows, SCHEMA))


def test_similarity_config_validation():
    """The threshold tau must lie in [0, 1], and is checked before the rows."""
    ds = make_dataset(["R", "B"])
    for tau in (1.5, -0.1, float("nan")):
        with pytest.raises(InvalidInputError, match=r"tau must lie in \[0, 1\]"):
            build_graph(ds, tau=tau)
    with pytest.raises(InvalidInputError, match="tau"):
        build_graph(make_dataset(["R"]), tau=1.5)


def test_balanced_sample_keeps_the_ratio_color_order():
    """Numbered by the full dataset's map, the first ratio term is color 0
    in every balanced sample, whichever value the sample shows first."""
    ds = make_dataset(["F", "M", "M"] * 10)
    ids = color_ids(ds)
    assert ids == {"F": 0, "M": 1}
    for seed in range(6):
        got = sample(ds, 6, seed, balance="1:2")
        _, colors = build_graph(got, ids=ids)
        assert colors.counts == (2, 4)


def test_build_graph_refuses_ids_that_miss_a_value():
    """An ids map without the data's "C" names it, the first value it
    lacks, before the 1200 x 1200 similarity matrix (11 MB) is built."""
    ds = make_dataset(["A", "C", "B", "D"] * 300)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match="protected value 'C'"):
            build_graph(ds, ids={"A": 0, "B": 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# Categorical values that == and a dict key agree on: 1, 1.0 and True are
# one value, "1" another. Numeric values with exact halves, a value near 0
# and a negative one, so normalized differences tie and columns go constant.
CATEGORIES = ["a", "b", "", "1", 1, 1.0, True, 0, None]
NUMBERS = [0.0, 0.5, 1e-9, 1.0, 2.5, -3.0]


@st.composite
def similarity_cases(draw):
    """(dataset, taus): 2-30 rows, 0-3 categorical and 0-3 numeric columns
    (one at least) in a random order, each drawn from a small alphabet of
    one to four values; one tau at 0, 1, a multiple of 1/features or any
    value in [0, 1], and the reference similarities of up to eight pairs
    of rows."""
    n = draw(st.integers(2, 30))
    kinds = ["categorical"] * draw(st.integers(0, 3)) + ["numeric"] * draw(st.integers(0, 3))
    if not kinds:
        kinds = [draw(st.sampled_from(["categorical", "numeric"]))]
    kinds = draw(st.permutations(kinds))
    columns = [(f"f{i}", kind) for i, kind in enumerate(kinds)] + [("group", "protected")]
    rows = [{"group": draw(st.sampled_from("RBG"))} for _ in range(n)]
    for name, kind in columns[:-1]:
        pool = st.sampled_from(CATEGORIES if kind == "categorical" else NUMBERS)
        if kind == "numeric":  # and values whose sums round
            pool |= st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-999, 999).map(
                lambda k: k / 7
            )
        alphabet = draw(st.lists(pool, min_size=1, max_size=4))
        for row in rows:
            row[name] = draw(st.sampled_from(alphabet))
    ds = TabularDataset(tuple(rows), Schema(tuple(columns)))
    k = draw(st.integers(0, len(kinds)))
    taus = [draw(st.sampled_from([0.0, 1.0, k / len(kinds)]) | st.floats(0, 1))]
    # ties that a change in rounding would break
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    sims = reference_similarities(ds)
    return ds, taus + [float(sims[u, v]) for u, v in pairs if u != v]


@settings(max_examples=400, deadline=None)
@given(similarity_cases())
def test_build_graph_matches_the_object_compare_reference(case):
    """Summing first-appearance codes and normalized numeric columns into
    one similarity matrix, with a constant column normalized to all 0s,
    gives the signs, packed bits, positive count and colors of the
    object-compare builder, ties at tau included; its graph is read-only
    and equals the checked constructor's on the same signs."""
    ds, taus = case
    for tau in taus:
        g, colors = build_graph(ds, tau)
        want, want_colors = reference_build_graph(ds, tau)
        assert g.signs.dtype == np.int8 and np.array_equal(g.signs, want.signs)
        assert np.array_equal(g.positive_bits, want.positive_bits)
        assert g.positive_pairs == want.positive_pairs
        assert np.array_equal(colors.color_of, want_colors.color_of)
        assert not g.signs.flags.writeable and not g.positive_bits.flags.writeable
        checked = SignedCompleteGraph(g.n, g.signs)
        assert g == checked and g.positive_pairs == checked.positive_pairs
        assert np.array_equal(g.positive_bits, checked.positive_bits)
