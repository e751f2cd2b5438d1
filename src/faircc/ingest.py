"""Turn tabular CSV data into a colored signed complete graph.

Edge signs come from thresholded attribute similarity: the mean over
feature columns of an equality indicator (categorical) or 1 - |normalized
difference| (numeric, min-max scaled over the dataset). A pair is positive
when its similarity reaches the threshold ``tau`` in [0, 1] of
``build_graph(ds, tau=..., ids=...)``. The protected attribute supplies
the colors and is excluded from similarity.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSpecError, InvalidInputError, ParseError
from .model import ColorAssignment, SignedCompleteGraph

KINDS = ("categorical", "numeric", "id", "protected")


@dataclass(frozen=True)
class Schema:
    """Ordered column names with their kinds."""

    columns: tuple  # tuple of (name, kind)

    def __post_init__(self):
        cols = tuple((str(n), str(k)) for n, k in self.columns)
        seen = set()
        for name, kind in cols:
            if kind not in KINDS:
                raise ParseError(f"unknown column kind {kind!r} for {name!r}")
            if name in seen:
                raise ParseError(f"column {name!r} is named twice")
            seen.add(name)
        if sum(1 for _, k in cols if k == "protected") != 1:
            raise ParseError("schema needs exactly one protected column")
        object.__setattr__(self, "columns", cols)

    @property
    def protected_column(self):
        return next(n for n, k in self.columns if k == "protected")

    def feature_columns(self):
        return [(n, k) for n, k in self.columns if k in ("categorical", "numeric")]

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
            cols = [(c["name"], c["kind"]) for c in obj["columns"]]
        # ValueError covers JSONDecodeError and an integer of too many digits
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ParseError(f"bad schema JSON: {exc}") from exc
        return cls(tuple(cols))


@dataclass(frozen=True)
class TabularDataset:
    rows: tuple  # tuple of dicts keyed by column name
    schema: Schema

    @property
    def n(self):
        return len(self.rows)

    def protected_values(self):
        col = self.schema.protected_column
        return [row[col] for row in self.rows]


def load_csv(path, schema: Schema):
    """Read a CSV whose header matches the schema.

    Rows with a missing protected attribute are dropped; returns
    (dataset, dropped_count).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from exc
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    expected = [name for name, _ in schema.columns]
    if header != expected:
        raise ParseError(f"{path}: header {header} does not match schema {expected}")
    kinds = dict(schema.columns)
    protected = schema.protected_column
    rows = []
    dropped = 0
    for lineno, record in enumerate(reader, start=2):
        if len(record) != len(expected):
            raise ParseError(f"{path}: line {lineno}: expected {len(expected)} fields")
        row = dict(zip(expected, (field.strip() for field in record)))
        if row[protected] == "":
            dropped += 1
            continue
        for name in expected:
            if kinds[name] == "numeric":
                try:
                    value = float(row[name])
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}: non-numeric value in {name!r}"
                    ) from None
                # nan would make the column look constant, inf its similarities nan
                if not np.isfinite(value):
                    raise ParseError(
                        f"{path}: line {lineno}: non-finite value {row[name]!r} in {name!r}"
                    )
                row[name] = value
        rows.append(row)
    return TabularDataset(tuple(rows), schema), dropped


def _parse_ratio(text):
    """'1:2' or '1:2:3' -> [1, 2, 3]; leading term must be 1."""
    try:
        parts = [int(x) for x in text.split(":")]
    except ValueError:
        raise ParseError(f"bad ratio {text!r}") from None
    if len(parts) < 2 or parts[0] != 1 or any(x < 1 for x in parts):
        raise ParseError(f"bad ratio {text!r}")
    return parts


def color_ids(ds: TabularDataset) -> dict:
    """Protected value -> color id, numbered by first appearance in ``ds``.
    ``sample`` assigns the terms of its balance ratio in this order, so the
    map of the full dataset gives a balanced sample's base color id 0."""
    ids = {}
    for v in ds.protected_values():
        ids.setdefault(v, len(ids))
    return ids


def sample(ds: TabularDataset, n, seed, balance=None) -> TabularDataset:
    """Deterministic sample of n rows: a seeded permutation, prefix-taken
    per color when ``balance`` (a '1:p...' ratio string) is given, its
    terms matched to the protected values in color_ids(ds) order."""
    if not 1 <= n <= ds.n:
        raise InvalidInputError(f"cannot sample {n} of {ds.n} rows")
    if seed < 0:  # random.Random seeds from |seed|: -3 would draw what 3 draws
        raise InvalidInputError(f"sample seed must be nonnegative, got {seed}")
    order = list(range(ds.n))
    random.Random(seed).shuffle(order)
    if balance is None:
        picked = sorted(order[:n])
        return TabularDataset(tuple(ds.rows[i] for i in picked), ds.schema)
    ratio = _parse_ratio(balance)
    values = ds.protected_values()
    first_seen = list(color_ids(ds))
    if len(first_seen) != len(ratio):
        raise InfeasibleSpecError(
            f"balance {balance!r} names {len(ratio)} colors, dataset has {len(first_seen)}"
        )
    unit, rem = divmod(n, sum(ratio))
    if rem or unit == 0:
        raise InfeasibleSpecError(f"{n} rows cannot split in ratio {balance!r}")
    by_color = {v: [i for i in order if values[i] == v] for v in first_seen}
    picked = []
    for v, mult in zip(first_seen, ratio):
        want = unit * mult
        if len(by_color[v]) < want:
            raise InfeasibleSpecError(
                f"color {v!r} has {len(by_color[v])} rows, need {want}"
            )
        picked.extend(by_color[v][:want])
    picked.sort()
    return TabularDataset(tuple(ds.rows[i] for i in picked), ds.schema)


def build_graph(ds: TabularDataset, tau=0.5, ids=None):
    """Signed complete graph plus colors from the protected attribute,
    numbered by ``ids`` (value -> color id, default color_ids(ds)).

    similarity(u, v) = mean over feature columns; positive sign iff
    similarity >= tau, a threshold in [0, 1]. Deterministic, no randomness
    anywhere. An ``ids`` that lacks a protected value of ``ds`` raises
    InvalidInputError naming the first such value, before any similarity
    is computed.
    """
    if not 0.0 <= tau <= 1.0:
        raise InvalidInputError("tau must lie in [0, 1]")
    if ds.n < 2:
        raise InvalidInputError("need at least 2 rows to build a graph")
    features = ds.schema.feature_columns()
    if not features:
        raise InvalidInputError("schema has no feature columns")
    values = ds.protected_values()
    ids = color_ids(ds) if ids is None else ids
    missing = [v for v in values if v not in ids]
    if missing:
        raise InvalidInputError(f"ids give no color id to protected value {missing[0]!r}")
    n = ds.n
    sims = np.zeros((n, n))
    for name, kind in features:
        if kind == "categorical":  # equal values share their first-appearance code
            index = {}
            codes = np.array([index.setdefault(row[name], len(index)) for row in ds.rows])
            sims += codes[:, None] == codes[None, :]
        else:
            vals = np.array([row[name] for row in ds.rows], dtype=float)
            lo, hi = float(vals.min()), float(vals.max())
            if hi - lo == float("inf"):  # Python floats overflow without a warning
                raise InvalidInputError(
                    f"numeric column {name!r}: range {lo:g}..{hi:g} overflows float64"
                )
            norm = (vals - lo) / ((hi - lo) or 1.0)  # a constant column is all 0
            diff = np.subtract.outer(norm, norm)
            sims += np.subtract(1.0, np.abs(diff, out=diff), out=diff)
            del diff  # before the next column makes its own
    sims /= len(features)
    # symmetric: each pair sums the same terms in the same column order
    signs = np.where(sims >= tau, np.int8(1), np.int8(-1))
    np.fill_diagonal(signs, 0)
    g = SignedCompleteGraph._trusted(signs)
    return g, ColorAssignment([ids[v] for v in values])
