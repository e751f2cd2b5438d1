"""Property tests for the input parsers: graph JSON, colors CSV, the
--ratio and --bounds strings and schema JSON. Every input gives a value or
a FairCCError, which the CLI maps to a documented exit code; any other
exception would end the CLI in a traceback."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircc import (
    Clustering,
    ColorAssignment,
    FairCCError,
    ParseError,
    Schema,
    SignedCompleteGraph,
)
from faircc.cli import parse_spec
from faircc.ingest import KINDS

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# A mid-range n allocates n * n bytes before any edge is read (ROADMAP item
# 5), so n is drawn small or so large that numpy refuses it up front.
GRAPH_N = st.integers(-3, 30) | st.integers(min_value=3_000_000_000)
EDGE = st.lists(st.integers(-2, 32) | st.integers() | SCALARS, max_size=3) | JSON
GRAPH = st.fixed_dictionaries(
    {},
    optional={
        "n": GRAPH_N | st.none() | st.booleans() | st.floats() | st.text(max_size=4),
        "negative_edges": st.lists(EDGE, max_size=10) | JSON,
    },
)
CSV_LINE = st.tuples(st.integers(-2, 12) | st.integers(), st.integers(-2, 4) | st.integers()).map(
    lambda vc: f"{vc[0]},{vc[1]}"
)
CSV = st.lists(CSV_LINE | st.text(max_size=6), max_size=12).map("\n".join) | st.text()
RATIO = st.lists(st.integers(-1, 4) | st.integers() | st.text(max_size=3), max_size=4).map(
    lambda terms: ":".join(map(str, terms))
) | st.text(max_size=12)
BOUNDS = st.tuples(RATIO, RATIO).map("..".join) | st.text(max_size=12)
COLUMN = st.fixed_dictionaries(
    {}, optional={"name": JSON, "kind": st.sampled_from(KINDS) | JSON}
)
SCHEMA = st.fixed_dictionaries({}, optional={"columns": st.lists(COLUMN | JSON, max_size=5) | JSON})


def value_or_fair_cc_error(parse, *args):
    try:
        parse(*args)
    except FairCCError:
        pass


@settings(max_examples=300, deadline=None)
@given((GRAPH | JSON).map(json.dumps) | st.text())
def test_graph_json_gives_a_graph_or_an_exit_code(text):
    value_or_fair_cc_error(SignedCompleteGraph.from_json, text)


@settings(max_examples=300, deadline=None)
@given(CSV)
def test_colors_csv_gives_colors_or_an_exit_code(text):
    value_or_fair_cc_error(ColorAssignment.from_csv, text)


@settings(max_examples=300, deadline=None)
@given(st.none() | RATIO, st.none() | BOUNDS)
def test_ratio_and_bounds_give_a_spec_or_an_exit_code(ratio, bounds):
    value_or_fair_cc_error(parse_spec, ratio, bounds)


@settings(max_examples=300, deadline=None)
@given((SCHEMA | JSON).map(json.dumps) | st.text())
def test_schema_json_gives_a_schema_or_an_exit_code(text):
    value_or_fair_cc_error(Schema.from_json, text)


@pytest.mark.parametrize(
    "parse",
    [SignedCompleteGraph.from_json, Schema.from_json, Clustering.from_json],
    ids=["graph", "schema", "clustering"],
)
def test_deeply_nested_json_is_a_parse_error(parse):
    with pytest.raises(ParseError):
        parse("[" * 100_000)
