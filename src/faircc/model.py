"""Domain types for signed complete graphs, colors, fairness specs and
clusterings, plus the disagreement objective and the spec and fairness
checkers.

All types are frozen after construction; every operation here is a pure
function, so instances can be shared freely between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleSpecError, InvalidInputError, ParseError


@dataclass(frozen=True)
class SignedCompleteGraph:
    """Complete graph on n vertices with a +/-1 label per unordered pair.

    ``signs`` is an n x n int8 matrix with +1 / -1 off the diagonal and 0 on
    it; it is always symmetric.
    """

    n: int
    signs: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("graph needs at least one vertex")
        s = np.asarray(self.signs, dtype=np.int8)
        if s.shape != (self.n, self.n):
            raise InvalidInputError(f"sign matrix must be {self.n}x{self.n}")
        if not np.array_equal(s, s.T):
            raise InvalidInputError("sign matrix must be symmetric")
        if np.any(np.diag(s) != 0):
            raise InvalidInputError("self-pairs must carry no sign")
        off = s[~np.eye(self.n, dtype=bool)]
        if not np.all(np.abs(off) == 1):
            raise InvalidInputError("every distinct pair needs a +/-1 sign")
        s.setflags(write=False)
        object.__setattr__(self, "signs", s)

    @classmethod
    def from_negative_edges(cls, n, negative_edges):
        """Build from the canonical serialized form: each negative pair
        (u, v) with u < v listed once; unlisted pairs are positive."""
        return cls._from_edge_blocks(n, [np.asarray(negative_edges, np.int64).reshape(-1, 2)])

    @classmethod
    def _from_edge_blocks(cls, n, blocks, repeat_error=InvalidInputError):
        """``from_negative_edges`` over an iterable of E_i x 2 int64 blocks;
        a pair listed twice raises ``repeat_error``."""
        if n < 1:
            raise InvalidInputError("graph needs at least one vertex")
        try:
            signs = np.ones((n, n), dtype=np.int8)
        except (MemoryError, ValueError) as exc:  # ValueError: n * n overflows
            raise InvalidInputError(f"a graph with n={n} vertices is too large") from exc
        np.fill_diagonal(signs, 0)
        listed = 0
        for edges in blocks:
            u, v = edges[:, 0], edges[:, 1]
            bad = ~((0 <= u) & (u < v) & (v < n))
            if bad.any():
                k = int(np.argmax(bad))
                raise InvalidInputError(f"bad negative edge ({u[k]}, {v[k]})")
            signs[u, v] = -1
            signs[v, u] = -1
            listed += len(edges)
        repeats = listed - np.count_nonzero(signs < 0) // 2
        if repeats:
            raise repeat_error(f"{repeats} negative edges are listed more than once")
        return cls(n, signs)

    def negative_edges(self):
        """Sorted list of negative pairs (u, v) with u < v."""
        iu, iv = np.triu_indices(self.n, k=1)
        neg = self.signs[iu, iv] < 0
        return [(int(u), int(v)) for u, v in zip(iu[neg], iv[neg])]

    def to_json(self):
        return json.dumps(
            {"n": self.n, "negative_edges": [list(e) for e in self.negative_edges()]}
        )

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
            n = obj["n"]
            edges = obj["negative_edges"]
        except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:
            raise ParseError(f"bad graph JSON: {exc}") from exc
        if type(n) is not int:
            raise ParseError(f"bad graph JSON: n must be an integer, got {n!r}")
        if not isinstance(edges, list):
            raise ParseError("bad graph JSON: negative_edges must be a list")
        return cls._from_edge_blocks(n, _edge_blocks(edges), repeat_error=ParseError)


def _edge_blocks(edges, chunk=8192):
    """Yield a parsed JSON list of [u, v] integer pairs as k x 2 int64
    blocks, emptying the list from its end so that its objects are freed
    while the graph is built rather than after.

    numpy reads a JSON boolean paired with an integer as 0 or 1, so only
    the ids equal to 0 or 1 are checked for booleans."""
    while edges:
        start = max(len(edges) - chunk, 0)
        pairs = edges[start:]
        try:
            block = np.array(pairs)
        except (ValueError, OverflowError):
            block = None
        if (
            block is None
            or block.dtype.kind != "i"
            or block.shape != (len(pairs), 2)
            or any(
                type(pairs[k >> 1][k & 1]) is bool
                for k in np.flatnonzero(block.ravel() <= 1).tolist()
            )
        ):
            raise ParseError("bad graph JSON: negative_edges must be [u, v] integer pairs")
        del edges[start:]
        yield block


@dataclass(frozen=True)
class ColorAssignment:
    """Per-vertex color ids in 0..k-1 plus per-color counts."""

    color_of: tuple
    counts: tuple = field(init=False)

    def __post_init__(self):
        colors = tuple(int(c) for c in self.color_of)
        if not colors:
            raise InvalidInputError("empty color assignment")
        k = max(colors) + 1
        if min(colors) < 0:
            raise InvalidInputError("color ids must be nonnegative")
        if k > len(colors):  # before allocating k counts: contiguous ids stay below n
            raise InvalidInputError(f"color id {k - 1} is not below n={len(colors)}")
        counts = [0] * k
        for c in colors:
            counts[c] += 1
        if any(cnt == 0 for cnt in counts):
            raise InvalidInputError("color ids must form a contiguous range")
        object.__setattr__(self, "color_of", colors)
        object.__setattr__(self, "counts", tuple(counts))

    @property
    def n(self):
        return len(self.color_of)

    @property
    def num_colors(self):
        return len(self.counts)

    def vertices_of(self, color):
        return [v for v, c in enumerate(self.color_of) if c == color]

    def to_csv(self):
        return "".join(f"{v},{c}\n" for v, c in enumerate(self.color_of))

    @classmethod
    def from_csv(cls, text):
        entries = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                v, c = int(parts[0]), int(parts[1])
            except (ValueError, IndexError) as exc:
                raise ParseError(f"bad colors CSV at line {lineno}: {line!r}") from exc
            if v in entries:
                raise ParseError(f"duplicate vertex {v} at line {lineno}")
            entries[v] = c
        if sorted(entries) != list(range(len(entries))):
            raise ParseError("colors CSV must cover vertex ids 0..n-1")
        return cls(tuple(entries[v] for v in range(len(entries))))


@dataclass(frozen=True)
class FairnessSpec:
    """Integer ratio constraints 1:p_i..1:q_i of the base color against every
    other color. Exact-ratio mode is p_i == q_i."""

    base_color: int
    bounds: dict  # non-base color id -> (p, q)

    def __post_init__(self):
        for color, (p, q) in self.bounds.items():
            if color == self.base_color:
                raise InvalidInputError("base color cannot carry a bound")
            if not (isinstance(p, int) and isinstance(q, int)):
                raise InvalidInputError("ratio bounds must be integers")
            if not 1 <= p <= q:
                raise InvalidInputError(f"need 1 <= p <= q for color {color}")
        object.__setattr__(self, "bounds", dict(self.bounds))

    @property
    def is_exact(self):
        return all(p == q for p, q in self.bounds.values())

    @classmethod
    def exact(cls, ratios, base_color=0):
        """Spec with p_i = q_i = ratios[i] for non-base colors 1..k-1."""
        return cls(base_color, {c: (p, p) for c, p in ratios.items()})

    def describe(self):
        if self.is_exact:
            return "1:" + ":".join(str(self.bounds[c][0]) for c in sorted(self.bounds))
        lo = "1:" + ":".join(str(self.bounds[c][0]) for c in sorted(self.bounds))
        hi = "1:" + ":".join(str(self.bounds[c][1]) for c in sorted(self.bounds))
        return f"{lo}..{hi}"


@dataclass(frozen=True)
class Clustering:
    """Per-vertex cluster ids forming a contiguous range 0..k-1."""

    cluster_of: tuple

    def __post_init__(self):
        ids = tuple(map(int, self.cluster_of))
        if not ids:
            raise InvalidInputError("empty clustering")
        used = set(ids)
        if used != set(range(len(used))):
            raise InvalidInputError("cluster ids must be contiguous from 0")
        object.__setattr__(self, "cluster_of", ids)

    @property
    def n(self):
        return len(self.cluster_of)

    @property
    def num_clusters(self):
        return max(self.cluster_of) + 1

    @classmethod
    def from_labels(cls, labels):
        """Canonicalize arbitrary labels: ids assigned in order of first
        appearance."""
        remap = {}
        return cls(tuple([remap.setdefault(lab, len(remap)) for lab in labels]))

    def to_json(self):
        return json.dumps({"cluster_of": list(self.cluster_of)})

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
            ids = obj["cluster_of"]
        except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:
            raise ParseError(f"bad clustering JSON: {exc}") from exc
        return cls(tuple(ids))


@dataclass(frozen=True)
class FairnessReport:
    """Per-cluster color counts and pass/fail verdicts."""

    cluster_color_counts: tuple  # tuple of dicts, indexed by cluster id
    cluster_pass: tuple
    overall_pass: bool

    def describe_violations(self, limit=3):
        """'cluster i {color: count, ...}' for the first ``limit`` failing
        clusters, plus how many more fail."""
        bad = [i for i, ok in enumerate(self.cluster_pass) if not ok]
        text = "; ".join(
            f"cluster {i} {dict(sorted(self.cluster_color_counts[i].items()))}"
            for i in bad[:limit]
        )
        if len(bad) > limit:
            text += f"; and {len(bad) - limit} more"
        return text


def disagreements(g: SignedCompleteGraph, c: Clustering) -> int:
    """Negative edges trapped inside a cluster plus positive edges cut
    between clusters."""
    if c.n != g.n:
        raise InvalidInputError("clustering length does not match graph")
    labels = np.asarray(c.cluster_of)
    # a pair disagrees iff "same cluster" differs from "positive"; each
    # diagonal entry (same, not positive) adds one, each pair two
    mismatched = np.count_nonzero((labels[:, None] == labels) != (g.signs > 0))
    return int(mismatched - g.n) // 2


def _color_counts(colors: ColorAssignment, c: Clustering) -> list:
    """Color histogram ({color: count}) of every cluster, indexed by
    cluster id."""
    if colors.n != c.n:
        raise InvalidInputError("colors and clustering length mismatch")
    counts = [{} for _ in range(c.num_clusters)]
    for cluster, color in zip(c.cluster_of, colors.color_of):
        hist = counts[cluster]
        hist[color] = hist.get(color, 0) + 1
    return counts


def check_spec(colors: ColorAssignment, spec: FairnessSpec):
    """Raise InfeasibleSpecError unless ``spec`` bounds exactly the non-base
    colors and each color's global count fits its ratio to the base color,
    the two conditions that any fair clustering and a per-color b-matching
    need."""
    if set(spec.bounds) != set(range(colors.num_colors)) - {spec.base_color}:
        raise InfeasibleSpecError("spec must bound every non-base color")
    lefts = len(colors.vertices_of(spec.base_color))
    for color, (p, q) in sorted(spec.bounds.items()):
        rights = colors.counts[color]
        if not p * lefts <= rights <= q * lefts:
            raise InfeasibleSpecError(
                f"color {color}: {rights} vertices cannot match {lefts} base vertices "
                f"at ratio 1:{p}..1:{q}"
            )


def check_fairness(colors: ColorAssignment, c: Clustering, spec: FairnessSpec) -> FairnessReport:
    """A cluster with n1 base vertices and n_i of color i passes iff n1 >= 1
    and n1*p_i <= n_i <= n1*q_i for every constrained color i."""
    counts = _color_counts(colors, c)
    bounds = spec.bounds.items()
    verdicts = []
    for hist in counts:
        n1 = hist.get(spec.base_color, 0)
        verdicts.append(n1 >= 1 and all(n1 * p <= hist.get(i, 0) <= n1 * q for i, (p, q) in bounds))
    return FairnessReport(tuple(counts), tuple(verdicts), all(verdicts))


def color_distribution(colors: ColorAssignment, c: Clustering):
    """Per-cluster color histograms, largest cluster first; ties broken by
    the smallest contained vertex id."""
    counts = _color_counts(colors, c)
    labels = np.asarray(c.cluster_of)
    _, smallest = np.unique(labels, return_index=True)
    return [counts[i] for i in np.lexsort((smallest, -np.bincount(labels)))]
