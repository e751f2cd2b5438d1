"""Turn tabular CSV data into a colored signed complete graph.

Edge signs come from thresholded attribute similarity: the mean over
feature columns of an equality indicator (categorical) or 1 - |normalized
difference| (numeric, min-max scaled). The protected attribute supplies the
colors and is excluded from similarity.
"""

from __future__ import annotations

import csv
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
        for name, kind in cols:
            if kind not in KINDS:
                raise ParseError(f"unknown column kind {kind!r} for {name!r}")
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
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
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
        fh = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    with fh:
        reader = csv.reader(fh)
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
                        row[name] = float(row[name])
                    except ValueError:
                        raise ParseError(
                            f"{path}: line {lineno}: non-numeric value in {name!r}"
                        ) from None
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
    if n > ds.n:
        raise InvalidInputError(f"cannot sample {n} of {ds.n} rows")
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


@dataclass(frozen=True)
class SimilarityConfig:
    """Threshold plus optional fixed numeric scaling (min, max) per column;
    columns missing from the map are min-max scaled over the dataset."""

    tau: float = 0.5
    numeric_scaling: dict | None = None

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise InvalidInputError("tau must lie in [0, 1]")


def build_graph(
    ds: TabularDataset, cfg: SimilarityConfig = SimilarityConfig(), ids=None
):
    """Signed complete graph plus colors from the protected attribute,
    numbered by ``ids`` (value -> color id, default color_ids(ds)).

    similarity(u, v) = mean over feature columns; positive sign iff
    similarity >= tau. Deterministic, no randomness anywhere.
    """
    if ds.n < 2:
        raise InvalidInputError("need at least 2 rows to build a graph")
    features = ds.schema.feature_columns()
    if not features:
        raise InvalidInputError("schema has no feature columns")
    n = ds.n
    sims = np.zeros((n, n))
    scaling = cfg.numeric_scaling or {}
    for name, kind in features:
        if kind == "categorical":
            vals = np.array([row[name] for row in ds.rows], dtype=object)
            col_sim = (vals[:, None] == vals[None, :]).astype(float)
        else:
            vals = np.array([row[name] for row in ds.rows], dtype=float)
            lo, hi = scaling.get(name, (vals.min(), vals.max()))
            if hi > lo:
                norm = (vals - lo) / (hi - lo)
                col_sim = 1.0 - np.abs(norm[:, None] - norm[None, :])
            else:
                col_sim = np.ones((n, n))  # constant column
        sims += col_sim
    sims /= len(features)
    signs = np.where(sims >= cfg.tau, 1, -1).astype(np.int8)
    np.fill_diagonal(signs, 0)
    g = SignedCompleteGraph(n, signs)

    ids = color_ids(ds) if ids is None else ids
    return g, ColorAssignment(tuple(ids[v] for v in ds.protected_values()))
