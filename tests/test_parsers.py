"""Property tests for the input parsers: graph JSON, colors CSV, the
--ratio and --bounds strings and schema JSON. Every input gives a value or
a FairCCError, which the CLI maps to a documented exit code; any other
exception would end the CLI in a traceback."""

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faircc import model
from faircc import (
    ColorAssignment,
    FairCCError,
    ParseError,
    Schema,
    SignedCompleteGraph,
)
from faircc.cli import _bounds_spec, _ratio_spec
from faircc.ingest import KINDS
from conftest import random_graph

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
@given(RATIO, BOUNDS)
def test_ratio_and_bounds_give_a_spec_or_an_exit_code(ratio, bounds):
    value_or_fair_cc_error(_ratio_spec, ratio)
    value_or_fair_cc_error(_bounds_spec, bounds)


@settings(max_examples=300, deadline=None)
@given((SCHEMA | JSON).map(json.dumps) | st.text())
def test_schema_json_gives_a_schema_or_an_exit_code(text):
    value_or_fair_cc_error(Schema.from_json, text)


@pytest.mark.parametrize(
    "parse",
    [SignedCompleteGraph.from_json, Schema.from_json],
    ids=["graph", "schema"],
)
def test_deeply_nested_json_is_a_parse_error(parse):
    with pytest.raises(ParseError):
        parse("[" * 100_000)


@pytest.mark.parametrize(
    "parse,text",
    [
        (SignedCompleteGraph.from_json, '{"n": 3, "negative_edges": [[0, %s]]}'),
        (SignedCompleteGraph.from_json, '{"n": %s, "negative_edges": []}'),
        (Schema.from_json, '{"columns": [{"name": %s, "kind": "id"}]}'),
    ],
    ids=["graph-edge", "graph-n", "schema"],
)
def test_integer_of_too_many_digits_is_a_parse_error(parse, text):
    """json.loads refuses an integer of over 4300 digits with a plain
    ValueError, not a JSONDecodeError."""
    with pytest.raises(ParseError, match="bad (graph|schema) JSON"):
        parse(text % ("1" * 5000))


# Graph JSON in the shape every writer emits, as a token list that the
# test joins with random JSON whitespace, and the near misses of it that
# the byte scan must hand to json.loads.
JSON_SPACE = st.text(" \t\n\r", max_size=2)
NEAR_MISSES = (
    "f-space", "v-space", "leading-zero", "10-digits", "19-digits", "minus", "float", "true",
    "list-comma", "pair-comma", "short-pair", "long-pair", "garbage", "reordered", "extra-key",
    "split-id", "stray-digit",
)
# ids of up to 9 digits are read by the scan, so the extra pair reaches
# them and the longer ones it leaves to json.loads
ID = st.integers(0, 14) | st.integers(10**8 - 1, 10**10) | st.integers(0, 10**18 - 1)


@st.composite
def graph_edges(draw):
    """(n, edges): distinct pairs u < v < n in random order, sometimes
    followed by one pair that is out of range, reversed, repeated or of
    ids up to 18 digits long."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    return n, edges + draw(st.lists(st.tuples(ID, ID), max_size=1))


def graph_tokens(n, edges):
    body = [t for u, v in edges for t in (",", "[", str(u), ",", str(v), "]")][1:]
    return ["{", '"n"', ":", str(n), ",", '"negative_edges"', ":", "[", *body, "]", "}"]


def mutate(tokens, edges, kind, k):
    """``tokens`` with one near miss of kind ``kind``; ``k`` picks where."""
    ids = [i for i, t in enumerate(tokens) if t.isdigit()]
    i = ids[k % len(ids)]
    pair = 8  # the first pair's "[", when there are edges
    if kind in ("leading-zero", "10-digits", "19-digits", "minus", "float", "true", "split-id"):
        new = {"leading-zero": "0" + tokens[i], "10-digits": "1" * 10, "19-digits": "9" * 19,
               "minus": "-1", "float": tokens[i] + ".0", "true": "true",
               "split-id": ("1 ", "1\t")[k % 2] + tokens[i]}[kind]
        return tokens[:i] + [new] + tokens[i + 1 :]
    if kind == "list-comma":
        return tokens[:-2] + [",", "]", "}"]
    if kind == "pair-comma" and edges:
        return tokens[: pair + 4] + [","] + tokens[pair + 4 :]
    if kind == "short-pair" and edges:
        return tokens[: pair + 2] + tokens[pair + 4 :]
    if kind == "long-pair" and edges:
        return tokens[: pair + 4] + [",", "2"] + tokens[pair + 4 :]
    if kind == "stray-digit" and edges:  # before the first "[" or after the first "]"
        at = (pair, pair + 5)[k % 2]
        return tokens[:at] + ["7"] + tokens[at:]
    if kind == "garbage":
        return tokens + [["x", "]", "}", "0"][k % 4]]
    if kind == "reordered":
        return ["{"] + tokens[5:-1] + [",", '"n"', ":", tokens[3], "}"]
    if kind == "extra-key":
        return tokens[:-1] + [",", '"m"', ":", "1", "}"]
    return tokens


def outcome(parse, text):
    try:
        return "graph", parse(text).signs.tobytes()
    except Exception as exc:  # compared, not handled: any type must match
        return type(exc), str(exc)


def json_loads_path(text):
    with mock.patch.object(model, "_canonical_edge_blocks", side_effect=model._NotCanonical):
        return SignedCompleteGraph.from_json(text)


@settings(max_examples=600, deadline=None)
@given(graph_edges(), st.none() | st.sampled_from(NEAR_MISSES), st.integers(0, 99), st.data())
def test_byte_scan_agrees_with_json_loads(graph, near_miss, k, data):
    """Canonical graph JSON with random whitespace, and near misses of it,
    read the same with and without the byte scan, as str and as bytes: the
    same signs or the same exception and message. At any window size the
    scan itself gives json.loads's n and pairs, or declines the text."""
    n, edges = graph
    tokens = graph_tokens(n, edges)
    if near_miss:
        tokens = mutate(tokens, edges, near_miss, k)
    space = [data.draw(JSON_SPACE) for _ in range(len(tokens) + 1)]
    if near_miss in ("f-space", "v-space"):
        space[k % len(space)] += "\f" if near_miss == "f-space" else "\v"
    text = "".join(s + t for s, t in zip(space, tokens + [""]))
    assert outcome(SignedCompleteGraph.from_json, text) == outcome(json_loads_path, text)
    # bytes read as the text of a file opened in text mode, whose universal
    # newlines move json.loads's error positions past a "\r"
    raw = text.encode()
    as_file = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    assert outcome(SignedCompleteGraph.from_json, raw) == outcome(json_loads_path, as_file)
    try:
        n_scanned, blocks = model._canonical_edge_blocks(raw, window=data.draw(st.integers(1, 40)))
        pairs = np.concatenate([np.zeros((0, 2), np.int64), *blocks])
    except model._NotCanonical:
        return
    obj = json.loads(text)
    assert n_scanned == obj["n"]
    assert pairs.tolist() == obj["negative_edges"]


@pytest.mark.parametrize("kind", [bytes, bytearray])
def test_graph_bytes_reach_json_loads_as_utf8_text(kind):
    """Bytes the scan declines are decoded as UTF-8 before json.loads sees
    them: given bytes, json.loads would detect UTF-16 without a BOM and
    read this graph. Non-ASCII UTF-8 text reads as its str does."""
    utf16 = kind('{"n": 2, "negative_edges": [[0, 1]]}'.encode("utf-16-le"))
    with pytest.raises(ParseError, match="bad graph JSON: Expecting property name"):
        SignedCompleteGraph.from_json(utf16)
    text = '{"name": "s\u00e4\u00e4ti\u00f6", "n": 3, "negative_edges": [[0, 2]]}'
    assert SignedCompleteGraph.from_json(kind(text.encode())) == SignedCompleteGraph.from_json(text)
    with pytest.raises(UnicodeDecodeError):
        SignedCompleteGraph.from_json(kind(b'{"n": 1, "negative_edges": [], "x": "\xff"}'))


def test_canonical_text_is_read_without_json_loads():
    """The writers' shape at n = 800 (about 2 MB, so several scan windows)
    is read by the byte scan alone, as str and as bytes."""
    g = random_graph(800, seed=3)
    text = g.to_json() + "\n"
    for given in (text, text.encode()):
        with mock.patch.object(model.json, "loads", side_effect=AssertionError("json.loads called")):
            again = SignedCompleteGraph.from_json(given)
        assert np.array_equal(again.signs, g.signs)
