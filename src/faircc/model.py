"""Domain types for signed complete graphs, colors, fairness specs and
clusterings, plus the disagreement objective and the spec and fairness
checkers.

All types are frozen after construction; every operation here is a pure
function, so instances can be shared freely between threads.
"""

from __future__ import annotations

import json
import numbers
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleSpecError, InvalidInputError, ParseError


@dataclass(frozen=True, eq=False)
class SignedCompleteGraph:
    """Complete graph on n vertices with a +/-1 label per unordered pair.

    ``signs`` is an n x n int8 matrix with +1 / -1 off the diagonal and 0 on
    it; it is always symmetric. ``positive_bits`` is ``signs > 0`` packed
    eight vertices to a byte along each row and padded with zero bits to
    whole 64-bit words (n x 8 * ceil(n/64) uint8, read-only), and
    ``positive_pairs`` the number of positive pairs; both are derived from
    ``signs``, which alone decides equality.
    """

    n: int
    signs: np.ndarray
    positive_bits: np.ndarray = field(init=False, compare=False, repr=False)
    positive_pairs: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("graph needs at least one vertex")
        s = np.asarray(self.signs)
        if s.shape != (self.n, self.n):
            raise InvalidInputError(f"sign matrix must be {self.n}x{self.n}")
        _require_numbers(s, "sign matrix")
        # checked as given, so no cast can make a bad value look like a sign
        if np.any(np.diag(s) != 0):
            raise InvalidInputError("self-pairs must carry no sign")
        # the diagonal is zero, so every other entry is +/-1 iff n(n-1) entries are;
        # counting the -1s first keeps one n x n mask alive at a time
        negatives = np.count_nonzero(s == -1)
        positive = s == 1
        if negatives + np.count_nonzero(positive) != self.n * (self.n - 1):
            raise InvalidInputError("every distinct pair needs a +/-1 sign")
        bits = _packed_rows(positive)
        del positive  # before the transpose compare makes the next n x n mask
        if not np.array_equal(s, s.T):
            raise InvalidInputError("sign matrix must be symmetric")
        # the cast is exact now; a copy keeps the caller's writable matrix writable
        self._freeze(s.astype(np.int8, copy=s.flags.writeable), bits)

    def _freeze(self, signs, bits):
        """Keep ``signs`` and its packed positive rows ``bits``, both made
        read-only, and count the positive pairs from the bits."""
        signs.setflags(write=False)
        bits.setflags(write=False)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "positive_bits", bits)
        object.__setattr__(self, "positive_pairs", int(np.bitwise_count(bits).sum()) // 2)

    @classmethod
    def _trusted(cls, signs):
        """The graph of ``signs``, an n x n int8 matrix that is a valid sign
        matrix by construction (zero diagonal, +/-1 elsewhere, symmetric),
        kept without a copy and without the constructor's checks: only its
        positive bits are packed and counted. The caller hands the matrix
        over and writes to it no more."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(signs))
        g._freeze(signs, _packed_rows(signs > 0))
        return g

    def __eq__(self, other):
        if not isinstance(other, SignedCompleteGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.signs, other.signs)

    @classmethod
    def from_negative_edges(cls, n, negative_edges):
        """Build from the canonical serialized form: each negative pair
        (u, v) with u < v listed once; unlisted pairs are positive."""
        edges = _int64_array(negative_edges, "negative edge list")
        if edges.shape == (0,):  # an empty list
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise InvalidInputError(
                f"negative edge list must hold (u, v) pairs, got shape {edges.shape}"
            )
        return cls._from_edge_blocks(n, [edges])

    @classmethod
    def _from_edge_blocks(cls, n, blocks, repeat_error=InvalidInputError):
        """``from_negative_edges`` over an iterable of E_i x 2 integer
        blocks; a pair listed twice raises ``repeat_error``. An n x n sign
        matrix larger than physical memory is refused before it is
        allocated.

        Each pair, once checked, writes its -1 into the upper triangle
        through a flat index; one elementwise minimum with the transpose
        then mirrors the triangle, and the matrix, valid by construction,
        is kept without the constructor's checks."""
        if n < 1:
            raise InvalidInputError("graph needs at least one vertex")
        memory = _physical_memory()
        if n * n > memory:
            raise InvalidInputError(
                f"a graph with n={n} vertices is too large: its {n * n} sign bytes "
                f"exceed the {memory} bytes of physical memory"
            )
        try:
            signs = np.ones((n, n), dtype=np.int8)
        except MemoryError as exc:  # physical memory that is in use elsewhere
            raise InvalidInputError(f"a graph with n={n} vertices is too large") from exc
        np.fill_diagonal(signs, 0)
        flat = signs.reshape(-1)
        listed = 0
        for edges in blocks:
            u, v = edges[:, 0], edges[:, 1]
            bad = ~((0 <= u) & (u < v) & (v < n))
            if bad.any():
                k = int(np.argmax(bad))
                raise InvalidInputError(f"bad negative edge ({u[k]}, {v[k]})")
            flat[u.astype(np.int64) * n + v] = -1  # in int64, since n * n can pass int32
            listed += len(edges)
        # numpy reads the transpose from a copy where it overlaps the output
        np.minimum(signs, signs.T, out=signs)
        g = cls._trusted(signs)
        repeats = listed - (n * (n - 1) // 2 - g.positive_pairs)
        if repeats:
            raise repeat_error(f"{repeats} negative edges are listed more than once")
        return g

    def to_json(self):
        """``{"n": N, "negative_edges": [[u, v], ...]}``, the negative pairs
        with u < v in sorted order, byte for byte the text ``json.dumps``
        gives for that object."""
        iu, iv = np.nonzero(np.triu(self.signs < 0, 1))
        pairs = ", ".join([f"[{u}, {v}]" for u, v in zip(iu.tolist(), iv.tolist())])
        return f'{{"n": {self.n}, "negative_edges": [{pairs}]}}'

    @classmethod
    def from_json(cls, text):
        """Read graph JSON, ``{"n": N, "negative_edges": [[u, v], ...]}``,
        from a str or from the bytes (or bytearray) of UTF-8 text.

        Text in exactly the shape ``to_json`` writes, with any JSON
        whitespace, is read by a byte scan (``_canonical_edge_blocks``)
        that builds no Python object per edge. Any other text, and any
        scanned graph that fails a check, goes through ``json.loads``, so
        every error has one source and one message. Bytes go there as the
        str a file opened in text mode reads, UTF-8 with universal
        newlines, never as bytes, from which json.loads would guess UTF-16
        or UTF-32; bytes that are not UTF-8 raise UnicodeDecodeError."""
        data = text
        if isinstance(text, str):  # isascii is O(1) on a str
            data = text.encode("ascii") if text.isascii() else None
        if isinstance(data, (bytes, bytearray)):
            try:
                n, blocks = _canonical_edge_blocks(data)
                return cls._from_edge_blocks(n, blocks)
            except (_NotCanonical, InvalidInputError):
                pass
        if isinstance(text, (bytes, bytearray)):
            text = text.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        try:
            obj = json.loads(text)
            n = obj["n"]
            edges = obj["negative_edges"]
        # ValueError covers JSONDecodeError and an integer of too many digits
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ParseError(f"bad graph JSON: {exc}") from exc
        if type(n) is not int:
            raise ParseError(f"bad graph JSON: n must be an integer, got {n!r}")
        if not isinstance(edges, list):
            raise ParseError("bad graph JSON: negative_edges must be a list")
        return cls._from_edge_blocks(n, _edge_blocks(edges), repeat_error=ParseError)


# pairs per block of a parsed JSON edge list
_EDGE_CHUNK = 8192


def _edge_blocks(edges):
    """Yield a parsed JSON list of [u, v] integer pairs as k x 2 int64
    blocks of at most ``_EDGE_CHUNK`` pairs, emptying the list from its end
    so that its objects are freed while the graph is built rather than
    after.

    numpy reads a JSON boolean paired with an integer as 0 or 1, so only
    the ids equal to 0 or 1 are checked for booleans."""
    while edges:
        start = max(len(edges) - _EDGE_CHUNK, 0)
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


def _require_numbers(values, noun):
    """Raise InvalidInputError unless the array ``values`` has a bool, int,
    uint or float dtype; a str or bytes dtype is named as such, any other
    (object, complex, ...) by its numpy name."""
    kind = values.dtype.kind
    if kind not in "biuf":
        name = {"U": "str", "S": "bytes"}.get(kind, values.dtype.name)
        raise InvalidInputError(f"{noun} must hold numbers, not {name}")


def _seed(seed, noun):
    """``seed`` as a Python int; anything but a nonnegative integer is
    invalid input, named as ``noun``."""
    # a Python int passes by its type, before the costlier ABC check, with
    # which numpy's integers are registered
    if type(seed) is not int and not isinstance(seed, numbers.Integral):
        raise InvalidInputError(f"{noun} must be an integer, got {seed!r}")
    # random.Random seeds from |seed|, so a negative seed would rerun the
    # pass of its positive twin
    if seed < 0:
        raise InvalidInputError(f"{noun} must be nonnegative, got {seed}")
    return int(seed)


def _int64_array(values, noun):
    """``values`` as an int64 array, the input itself when it is one; raise
    InvalidInputError naming the fault when a value is not a finite
    integral number within int64. Only a dtype that int64 cannot hold
    (float, uint64) is checked value by value."""
    try:
        given = np.asarray(values)
    except ValueError:  # numpy refuses a ragged nesting of sequences
        raise InvalidInputError(f"{noun} must be a rectangular array") from None
    _require_numbers(given, noun)
    if given.size and not np.can_cast(given.dtype, np.int64):
        if not np.isfinite(given).all():
            raise InvalidInputError(f"{noun} must hold finite numbers")
        if (given % 1 != 0).any():
            raise InvalidInputError(f"{noun} must hold integers")
        if not -(2**63) <= int(given.min()) <= int(given.max()) < 2**63:
            raise InvalidInputError(f"{noun} must hold integers within int64")
    return given.astype(np.int64, copy=False)


def _physical_memory():
    """Bytes of physical memory on this host."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _packed_rows(positive):
    """An n x n bool matrix packed eight vertices to a byte along each row
    and padded with zero bits to whole 64-bit words."""
    bits = np.packbits(positive, axis=1)
    return np.pad(bits, ((0, 0), (0, -bits.shape[1] % 8)))


class _NotCanonical(Exception):
    """The text is not in the shape ``_canonical_edge_blocks`` reads."""


# JSON whitespace is exactly these four characters; regex \s would also
# take \f and \v, which json.loads rejects.
_WS = b"[ \t\n\r]*"
# n is a decimal integer of at most 18 digits, so that it fits in int64; a
# longer or zero-padded number is left to json.loads.
_HEAD = re.compile(
    _WS
    + _WS.join(
        [rb"\{", b'"n"', b":", rb"(0|[1-9][0-9]{0,17})", b",", b'"negative_edges"', b":", rb"\["]
    )
)
_TAIL = re.compile(_WS.join([rb"\]", rb"\}", rb"\Z"]))
# Each pair of the body, with JSON space dropped, is "," "[" u "," v "]",
# the first pair's comma left out; its four non-digit bytes read as one
# native-endian word.
_PAIR_WORD = np.frombuffer(b",[,]", np.uint32)[0]
# An id is read in int32, so it has at most 9 digits. A longer one needs
# n > 10**9 vertices, whose n x n sign bytes no memory holds, so it names no
# vertex of a graph that can be built; json.loads reads it, and the build
# refuses it with the message it always gives.
_ID_DIGITS = 9
# the least id of k digits that has no leading zero (0 for k <= 1): a k-digit
# id below it starts with a zero, which json.loads refuses
_LEAST_ID = np.array([0, 0] + [10**k for k in range(1, _ID_DIGITS)], np.int32)


def _canonical_edge_blocks(data, window=1 << 18):
    """(n, blocks of k x 2 int32 pairs) of graph JSON bytes in the
    canonical shape, scanning the edge list in windows of about ``window``
    bytes, each cut after a pair's closing bracket; raise ``_NotCanonical``
    when the text has any other shape, as soon as the scan finds that out.

    The blocks are a generator: the scan of each window runs when the
    caller asks for its block, so a window's temporaries are freed before
    the next one is made, and ``_NotCanonical`` can come from any block."""
    head = _HEAD.match(data)
    # only the last 4 KB are searched for the closing "]}", so that the
    # search never walks the edge list; longer trailing space is left to
    # json.loads
    tail = _TAIL.search(data, max(head.end(), len(data) - 4096)) if head else None
    if tail is None:
        raise _NotCanonical
    return int(head.group(1)), _scan_windows(data, head.end(), tail.start(), window)


def _scan_windows(data, pos, stop, window):
    """Pairs of the body ``data[pos:stop]``, one block per window."""
    first = True
    while pos < stop:
        cut = stop
        if pos + window < stop:
            cut = data.rfind(b"]", pos, pos + window) + 1
            if cut == 0:  # a run of over ``window`` bytes without a pair
                raise _NotCanonical
        yield _scan_pairs(data[pos:cut], first)
        pos, first = cut, False


def _scan_pairs(chunk, first):
    """k x 2 int32 pairs of one window of the body, bytes that start at the
    body's start (``first``) or right after a pair's ``]``.

    JSON space is dropped first, so the window is read from the positions
    of its non-digit bytes alone: per pair they must read ``,[,]``, the
    first window given a leading comma. Any byte but a digit, a bracket or
    a comma, a non-ASCII one included, is one of them and breaks that
    pattern. With both id slots of every pair holding digits, the window
    has exactly twice as many digit runs as pairs only when no digit sits
    anywhere else and no JSON space split an id, as in ``[1 2, 3]``."""
    raw = np.frombuffer(chunk, np.uint8)
    digit = np.subtract(raw, 48, dtype=np.uint8) < 10
    runs = np.count_nonzero(digit[1:] > digit[:-1]) + int(digit[0])
    stripped = chunk.translate(None, b" \t\n\r")
    if not stripped:
        return np.zeros((0, 2), np.int32)
    if first:
        stripped = b"," + stripped
    kept = np.frombuffer(stripped, np.uint8)
    value = np.subtract(kept, 48, dtype=np.uint8)
    other = value >= 10
    marks = np.flatnonzero(other)
    if len(marks) % 4 or (kept.take(marks).view(np.uint32) != _PAIR_WORD).any():
        raise _NotCanonical
    # one contiguous row per mark of the pairs: ",", "[", "," and "]"
    rows = marks.reshape(-1, 4).T.copy()
    seps = rows[1:3]  # the "[" and "," before u and v
    ends = rows[2:] - 1  # the last digits of u and v
    lengths = ends - seps
    if runs != lengths.size or lengths.min() < 1 or lengths.max() > _ID_DIGITS:
        raise _NotCanonical
    # each id is read right-aligned from its last digit; a step past its
    # first digit reads its separator, zeroed here
    value *= ~other
    ids = value.take(ends).astype(np.int32)
    for k in range(1, int(lengths.max())):
        ends -= 1
        np.maximum(ends, seps, out=ends)
        ids += value.take(ends) * np.int32(10**k)
    if (ids < _LEAST_ID.take(lengths)).any():
        raise _NotCanonical
    return ids.T


@dataclass(frozen=True, eq=False)
class ColorAssignment:
    """Per-vertex color ids in 0..k-1, a read-only int64 array, plus the
    count of every color."""

    color_of: np.ndarray
    counts: tuple = field(init=False)

    def __post_init__(self):
        ids = _id_array(self.color_of, "color ids")
        if not ids.size:
            raise InvalidInputError("empty color assignment")
        # bounds before the cast: numpy keeps an id beyond int64 as a Python int
        if _any_negative(ids, "color ids must be integers"):
            raise InvalidInputError("color ids must be nonnegative")
        with np.errstate(invalid="ignore"):  # inf % 1 is NaN, and NaN is not integral
            if (ids % 1 != 0).any():
                raise InvalidInputError("color ids must be integers")
        if ids.max() >= len(ids):  # before allocating counts: contiguous ids stay below n
            raise InvalidInputError(f"color id {int(ids.max())} is not below n={len(ids)}")
        colors = ids.astype(np.int64)
        counts = np.bincount(colors)
        if not counts.all():
            raise InvalidInputError("color ids must form a contiguous range")
        colors.setflags(write=False)
        object.__setattr__(self, "color_of", colors)
        object.__setattr__(self, "counts", tuple(counts.tolist()))

    @property
    def n(self):
        return len(self.color_of)

    @property
    def num_colors(self):
        return len(self.counts)

    def vertices_of(self, color):
        return np.flatnonzero(self.color_of == color)

    def to_csv(self):
        return "".join(f"{v},{c}\n" for v, c in enumerate(self.color_of.tolist()))

    @classmethod
    def from_csv(cls, text):
        """Colors from ``vertex,color`` rows, one per line, blank lines
        skipped: each row exactly two ASCII decimal integers, with space
        allowed around them."""
        entries = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                # int() alone would also take "1_0" and non-ASCII digits
                if len(parts) != 2 or "_" in line or not line.isascii():
                    raise ValueError(line)
                v, c = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(f"bad colors CSV at line {lineno}: {line!r}") from exc
            if v in entries:
                raise ParseError(f"duplicate vertex {v} at line {lineno}")
            entries[v] = c
        if sorted(entries) != list(range(len(entries))):
            raise ParseError("colors CSV must cover vertex ids 0..n-1")
        return cls([entries[v] for v in range(len(entries))])


def _id_array(ids, noun):
    """Per-vertex ``ids`` as an array, refused with InvalidInputError
    unless they form one flat sequence: a scalar, a nested or a ragged
    sequence is not one id per vertex."""
    original = ids
    try:
        ids = np.asarray(ids)
    except ValueError:  # numpy refuses a ragged nesting of sequences
        ids = None
    if ids is None or ids.ndim != 1:
        raise InvalidInputError(f"{noun} must be a flat sequence, one per vertex")
    if ids.dtype.kind == "f" and not isinstance(original, np.ndarray):
        # numpy makes float64 of ints that mix int64 with uint64 range, as
        # [0, 2**63 + 1]; an object array keeps every such id exact
        if all(isinstance(x, (int, np.integer)) for x in original):
            ids = np.array(original, dtype=object)
    return ids


def _any_negative(ids, not_integers):
    """Whether any of the nonempty ``ids`` is below 0; raise
    InvalidInputError(``not_integers``) for ids that do not compare with
    numbers, a str array or None in an object array."""
    try:
        return bool(ids.min() < 0)
    except TypeError:  # numpy's UFuncTypeError is one
        raise InvalidInputError(not_integers) from None


@dataclass(frozen=True)
class FairnessSpec:
    """Integer ratio constraints 1:p_i..1:q_i of the base color against every
    other color. Exact-ratio mode is p_i == q_i."""

    base_color: int
    bounds: dict  # non-base color id -> (p, q)

    def __post_init__(self):
        for color in (self.base_color, *self.bounds):  # numpy's integers are Integral
            if not (isinstance(color, numbers.Integral) and color >= 0):
                raise InvalidInputError(f"color ids must be nonnegative integers, got {color!r}")
        bounds = {}
        for color, bound in self.bounds.items():
            if color == self.base_color:
                raise InvalidInputError("base color cannot carry a bound")
            if not (isinstance(bound, (tuple, list)) and len(bound) == 2):
                raise InvalidInputError(f"color {color}: bound {bound!r} is not a pair (p, q)")
            p, q = bound
            if not (isinstance(p, numbers.Integral) and isinstance(q, numbers.Integral)):
                raise InvalidInputError("ratio bounds must be integers")
            if not 1 <= p <= q:
                raise InvalidInputError(f"need 1 <= p <= q for color {color}")
            bounds[int(color)] = (int(p), int(q))
        object.__setattr__(self, "base_color", int(self.base_color))
        object.__setattr__(self, "bounds", bounds)

    @property
    def is_exact(self):
        return all(p == q for p, q in self.bounds.values())

    @classmethod
    def exact(cls, ratios, base_color=0):
        """Spec with p_i = q_i = ratios[i] for non-base colors 1..k-1."""
        return cls(base_color, {c: (p, p) for c, p in ratios.items()})

    def describe(self):
        lo = "1:" + ":".join(str(self.bounds[c][0]) for c in sorted(self.bounds))
        if self.is_exact:
            return lo
        hi = "1:" + ":".join(str(self.bounds[c][1]) for c in sorted(self.bounds))
        return f"{lo}..{hi}"


@dataclass(frozen=True, eq=False)
class Clustering:
    """Per-vertex cluster ids forming a contiguous range 0..k-1, a read-only
    int64 array. Two clusterings are equal when their ids are."""

    cluster_of: np.ndarray

    def __post_init__(self):
        ids = _id_array(self.cluster_of, "cluster ids")
        if not ids.size:
            raise InvalidInputError("empty clustering")
        # bounds before the cast: numpy keeps an id beyond int64 as a Python int
        if _any_negative(ids, "cluster ids must be integers") or not ids.max() < len(ids):
            raise InvalidInputError("cluster ids must be contiguous from 0")
        if (ids % 1 != 0).any():  # the bounds have ruled out NaN and inf
            raise InvalidInputError("cluster ids must be integers")
        ids = ids.astype(np.int64)
        if not np.bincount(ids).all():
            raise InvalidInputError("cluster ids must be contiguous from 0")
        ids.setflags(write=False)
        object.__setattr__(self, "cluster_of", ids)

    def __eq__(self, other):
        if not isinstance(other, Clustering):
            return NotImplemented
        return np.array_equal(self.cluster_of, other.cluster_of)

    @property
    def n(self):
        return len(self.cluster_of)

    @property
    def num_clusters(self):
        return int(self.cluster_of.max()) + 1

    @classmethod
    def from_labels(cls, labels):
        """Canonicalize labels, an array or a sequence of ints or of
        strings: ids assigned in order of first appearance."""
        if not isinstance(labels, np.ndarray):  # an object array keeps every str whole
            labels = np.array(labels, dtype=object)
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        return cls(np.argsort(np.argsort(first))[inverse])  # each label's rank by first index

    def to_json(self):
        return json.dumps({"cluster_of": self.cluster_of.tolist()})


# failing clusters that FairnessReport.describe_violations names
_VIOLATIONS_SHOWN = 3


@dataclass(frozen=True, eq=False)
class FairnessReport:
    """Per-cluster color counts, a clusters x colors table, and per-cluster
    pass/fail verdicts, a bool array."""

    cluster_color_counts: np.ndarray
    cluster_pass: np.ndarray
    overall_pass: bool

    def describe_violations(self):
        """'cluster i {color: count, ...}' for the first
        ``_VIOLATIONS_SHOWN`` failing clusters, plus how many more fail."""
        bad = np.flatnonzero(~self.cluster_pass).tolist()
        text = "; ".join(
            f"cluster {i} {_histogram(self.cluster_color_counts[i])}"
            for i in bad[:_VIOLATIONS_SHOWN]
        )
        if len(bad) > _VIOLATIONS_SHOWN:
            text += f"; and {len(bad) - _VIOLATIONS_SHOWN} more"
        return text


def _histogram(row):
    """{color: count} of the colors present in one row of a color table."""
    return {color: count for color, count in enumerate(row.tolist()) if count}


def disagreements(g: SignedCompleteGraph, c: Clustering) -> int:
    """Negative edges trapped inside a cluster plus positive edges cut
    between clusters.

    Counted as sum_k C(|C_k|, 2) + P - 2 * P_within: the pairs inside
    clusters, plus all P positive pairs, minus twice the positive pairs
    inside clusters, which are counted in both and disagree in neither."""
    if c.n != g.n:
        raise InvalidInputError("clustering length does not match graph")
    return int(_label_disagreements(g, c.cluster_of[None])[0])


# slots (vertices of one row) counted at a time: a block copies the member
# words and the positive words of its slots
_POPCOUNT_ROWS = 1024
# bytes of the member masks built at a time, one bool row per cluster: 256
# clusters at n = 6400, and as many clusters as fit, at least one, at any n
_MEMBER_BYTES = 256 * 6400


def _label_disagreements(g: SignedCompleteGraph, labels: np.ndarray) -> np.ndarray:
    """``disagreements`` of every row of ``labels``, an R x g.n matrix of
    per-vertex cluster ids >= 0, as R int64 costs.

    Each row's ids are offset past the ids of the rows before it, so that
    one id names one cluster of one row. Each slot's row of its cluster's
    packed member mask, ANDed with its vertex's packed positive row, holds
    the vertex's positive partners inside its cluster, so the popcounts of
    one row's slots sum to 2 * P_within.

    When the masks of all clusters over all rows take more than
    ``_MEMBER_BYTES``, they are built for one block of clusters at a time,
    over the slots of those clusters; a block can span rows."""
    rows, n = labels.shape
    ids, firsts = labels.ravel(), (0,)  # each row's first id
    if rows > 1:
        counts = labels.max(axis=1) + 1
        firsts = np.cumsum(counts) - counts
        ids = (labels + firsts[:, None]).ravel()
    sizes = np.bincount(ids)
    step = max(1, _MEMBER_BYTES // (8 * g.positive_bits.shape[1]))  # clusters per block
    if len(sizes) <= step:
        partners = _positive_partners(g, ids, len(sizes), np.arange(ids.size))
    else:
        partners = np.empty(ids.size, np.int64)
        for first in range(0, len(sizes), step):
            last = min(first + step, len(sizes))
            # the clusters first .. last-1 lie in consecutive rows
            top, bottom = np.searchsorted(firsts, (first, last - 1), side="right") - 1
            span = ids[top * n : (bottom + 1) * n]
            slots = np.flatnonzero((span >= first) & (span < last)) + top * n
            block = ids[slots]
            block -= first
            partners[slots] = _positive_partners(g, block, last - first, slots)
    pairs = np.add.reduceat(sizes * (sizes - 1) // 2, firsts)
    return pairs + g.positive_pairs - partners.reshape(rows, n).sum(axis=1)


def _positive_partners(g, ids, clusters, slots):
    """The positive partners inside its cluster of the vertex of every slot
    r * n + v in ``slots``, whose cluster ids ``ids`` lie in
    0 .. clusters-1, as int64 counts. The popcount runs over blocks of
    ``_POPCOUNT_ROWS`` slots."""
    members = np.zeros((clusters, g.positive_bits.shape[1] * 8), bool)
    members[ids, slots % g.n] = True
    packed = np.packbits(members, axis=1).view(np.uint64)
    del members  # before the word blocks are made
    positive = g.positive_bits.view(np.uint64)
    partners = np.empty(len(ids), np.int64)
    for start in range(0, len(ids), _POPCOUNT_ROWS):
        stop = start + _POPCOUNT_ROWS
        words = packed.take(ids[start:stop], axis=0)
        words &= positive.take(slots[start:stop], axis=0, mode="wrap")  # r * n + v wraps to v
        partners[start:stop] = np.bitwise_count(words).sum(axis=1)
        del words  # before the next block's are made
    return partners


def _color_counts(colors: ColorAssignment, c: Clustering) -> np.ndarray:
    """Clusters x colors table of the count of every color in every
    cluster."""
    if colors.n != c.n:
        raise InvalidInputError("colors and clustering length mismatch")
    k = colors.num_colors
    cells = np.bincount(c.cluster_of * k + colors.color_of, minlength=c.num_clusters * k)
    return cells.reshape(-1, k)


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


def _fair_rows(counts: np.ndarray, spec: FairnessSpec, n: int) -> np.ndarray:
    """The fairness rule, a bool per row of ``counts``, a rows x colors
    table of color counts in clusters of at most n vertices: a cluster with
    n1 base vertices and n_i of color i passes iff n1 >= 1 and
    n1*p_i <= n_i <= n1*q_i for every constrained color i. A color past the
    table's columns counts 0 in every row."""
    # a cluster with a base vertex holds at most n - 1 others, so a bound
    # above n decides nothing more, and every n1 * bound fits this type
    narrow = np.min_scalar_type(-n * n)
    column = dict(enumerate(counts.T))
    absent = np.zeros(len(counts), narrow)
    n1 = column.get(spec.base_color, absent).astype(narrow, copy=False)
    verdicts = n1 >= 1
    for color, (p, q) in spec.bounds.items():
        n_i = column.get(color, absent)
        p, q = min(p, n), min(q, n)
        verdicts &= (n1 * p <= n_i) & (n_i <= n1 * q)
    return verdicts


def check_fairness(colors: ColorAssignment, c: Clustering, spec: FairnessSpec) -> FairnessReport:
    """Each cluster's verdict under the rule of ``_fair_rows``, which the
    exact oracle applies to its blocks too."""
    counts = _color_counts(colors, c)
    verdicts = _fair_rows(counts, spec, c.n)
    return FairnessReport(counts, verdicts, bool(verdicts.all()))


def color_distribution(colors: ColorAssignment, c: Clustering):
    """Per-cluster color histograms ({color: count} of the colors present),
    largest cluster first; ties broken by the smallest contained vertex
    id."""
    counts = _color_counts(colors, c)
    _, smallest = np.unique(c.cluster_of, return_index=True)
    return [_histogram(row) for row in counts[np.lexsort((smallest, -counts.sum(1)))]]
