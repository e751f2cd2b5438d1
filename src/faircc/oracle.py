"""Brute-force ground truth for small instances.

Disagreements split over blocks: a partition costs g's positive pairs plus,
per block, its negative pairs minus its positive pairs, and fairness is a
condition on each block alone. So the fair optimum is a set-partition DP
over vertex subsets, O(3^n) in numpy integers, and a back-trace through
its tables gives an optimal partition. The unconstrained optimum is the
one-color case: with one color and no bounds every partition is fair.
``mirror_graph`` builds the vertex-duplication instance whose fair optimum
equals four times the unconstrained optimum of the base graph.

The searches take at most ``_MAX_N`` = 16 vertices, whose subset tables
take a few megabytes; a larger instance raises OracleLimitError (exit 4).
"""

from __future__ import annotations

import numpy as np

from . import model
from .errors import InvalidInputError, OracleLimitError
from .model import Clustering, ColorAssignment, FairnessSpec, SignedCompleteGraph, check_spec

# the most vertices an exhaustive search takes
_MAX_N = 16

# A block that is not fair weighs _INF. Sums of real block weights stay
# within n^2 / 2 of zero, so a DP value above _INF // 2 means that no fair
# partition exists, and two values of at most _INF still add in int32.
_INF = 1 << 29
# The pair table covers at most this many low bits: 3^12 rows, 8.5 MB.
_PAIR_BITS = 12
_pairs = []  # the largest pair table built so far: t, rest, starts


def _pair_table(bits):
    """Every pair T within S within {0..bits-1}, as intp columns T and
    S - T with rows sorted by S, and the row where each S starts. Index
    columns in intp are gathered by ``np.take`` without a cast copy.

    The rows of S + {b} are those of S, first with T and then with
    T + {b}, and they follow every row of the sets below bit b. So the
    table for fewer bits is a prefix of this one: the largest one asked
    for is kept, built on first use and grown by the bits a later call
    needs."""
    if not _pairs:
        _pairs[:] = np.zeros(1, np.intp), np.zeros(1, np.intp), np.zeros(1, np.intp)
    t, rest, starts = _pairs
    for b in range(len(starts).bit_length() - 1, bits):
        size, bit = len(t), 1 << b
        per_set = np.diff(starts, append=size)
        keep = size + np.arange(size) + np.repeat(starts, per_set)
        add = keep + np.repeat(per_set, per_set)
        t, rest = np.pad(t, (0, 2 * size)), np.pad(rest, (0, 2 * size))
        t[keep], rest[keep] = t[:size], rest[:size] | bit
        t[add], rest[add] = t[:size] | bit, rest[:size]
        starts = np.concatenate([starts, size + 2 * starts])
        _pairs[:] = t, rest, starts
    return t[: 3**bits], rest[: 3**bits], starts[: 1 << bits]


def _fair_optimum(g, colors, spec):
    """The DP's tables (f, w), indexed by vertex subset. w(B) is B's
    negative pairs minus its positive pairs when B is a fair block, by
    the rule of ``check_fairness``, else _INF. f(S) is the least sum of
    w(B) over the blocks B of a partition of S whose every block is fair,
    or a value above _INF // 2 when none is. A partition's disagreements
    are g's positive pairs plus that sum.

    Subset DP, with bit j standing for vertex n-1-j so that the vertices
    after a vertex are the bits below its own. For S with top bit m and
    S' = S - {m}, f(S) is the least w({m} + T) + f(S' - T) over T within
    S', one pair table pass per m. With more than _PAIR_BITS bits in S',
    each pair (H, T_H) of high-bit sets, T_H within H, takes one pass over
    the low bits."""
    n, k = g.n, colors.num_colors
    order = np.arange(n - 1, -1, -1)
    # row j: vertex n-1-j's negated signs to the vertex of each bit, then a
    # one in its color's column; n <= _MAX_N, so int8 holds every sum of
    # these rows
    rows = np.zeros((n, n + k), np.int8)
    rows[:, :n] = -g.signs[np.ix_(order, order)]
    rows[np.arange(n), n + colors.color_of[order]] = 1
    sums = np.zeros((1 << n, n + k), np.int8)  # per subset, its rows' sum
    w = np.zeros(1 << n, np.int32)
    for j in range(n):
        low = 1 << j
        np.add(w[:low], sums[:low, j], out=w[low : 2 * low])
        np.add(sums[:low], rows[j], out=sums[low : 2 * low])
    fair = model._fair_rows(sums[:, n:], spec, n)
    del sums  # freed before f is allocated
    w[~fair] = _INF
    f = np.empty(1 << n, np.int32)
    f[0] = 0
    for m in range(n):
        bits = min(m, _PAIR_BITS)
        t, rest, starts = _pair_table(bits)
        top = w[1 << m : 2 << m]
        # row h: the S' whose bits above the low ones read h
        out = f[1 << m : 2 << m].reshape(-1, 1 << bits)
        out[:] = _INF
        for h in range(len(out)):
            th = h
            while True:  # every th within h
                cost = np.take(top[th << bits :], t)
                cost += np.take(f[(h ^ th) << bits :], rest)
                np.minimum(out[h], np.minimum.reduceat(cost, starts), out=out[h])
                if not th:
                    break
                th = (th - 1) & h
    return f, w


def best_partition(g: SignedCompleteGraph, colors: ColorAssignment, spec: FairnessSpec):
    """Minimum-disagreement partition of ``g`` among those whose every
    block passes ``check_fairness``: n1 >= 1 base-color vertices and
    n1*p_c <= n_c <= n1*q_c for every bounded color c.

    The subset DP of ``_fair_optimum`` gives the optimum of every set of
    vertices. A back-trace then reads one optimal partition out of its
    tables: from S = V, the smallest vertex left, bit m of S, takes the
    block {m} + T for the first T within S - {m}, in the order below,
    with w({m} + T) + f(S - {m} - T) = f(S), and S loses that block. The
    subsets T are listed by doubling over the bits of S - {m} from the
    last vertex to the first, so the empty T, the singleton block, comes
    first. Blocks are numbered in the order of their smallest vertex, so
    the assignment is a restricted growth string, and the same input
    always gives the same one; among tied optima it is the back-trace's
    choice, not the lexicographically smallest.

    Returns (cost, assignment), or (-1, None) when no partition is fair.
    More than ``_MAX_N`` vertices raise OracleLimitError before any table
    is allocated.
    """
    n = g.n
    if n > _MAX_N:
        raise OracleLimitError(f"n={n} exceeds oracle limit {_MAX_N}")
    f, w = _fair_optimum(g, colors, spec)
    if f[-1] > _INF // 2:
        return -1, None
    assign = [0] * n
    s, block_id = (1 << n) - 1, 0
    while s:
        m = s.bit_length() - 1  # bit m is the smallest vertex of S
        rest = s ^ (1 << m)
        ts = np.zeros(1, np.intp)  # every T within rest
        for j in range(m):
            if rest >> j & 1:
                ts = np.concatenate([ts, ts | (1 << j)])
        block = (1 << m) | int(ts[np.argmin(w[ts | (1 << m)] + f[rest ^ ts])])
        for j in range(m + 1):
            if block >> j & 1:
                assign[n - 1 - j] = block_id
        s ^= block
        block_id += 1
    return int(f[-1]) + g.positive_pairs, assign


def opt_cc(g: SignedCompleteGraph):
    """Exhaustive minimum-disagreement clustering: ``opt_fair`` on one color
    with no bounds, under which every partition is fair."""
    return opt_fair(g, ColorAssignment(np.zeros(g.n, np.int64)), FairnessSpec(0, {}))


def opt_fair(g: SignedCompleteGraph, colors: ColorAssignment, spec: FairnessSpec):
    """Exhaustive minimum over partitions whose every block passes the
    fairness check; ties resolve to the partition that the back-trace of
    ``best_partition`` reads first. Colors that do not cover the graph,
    then a spec that fails check_spec, raise first. A spec that passes
    check_spec makes V itself a fair block, so some partition is fair."""
    if colors.n != g.n:
        raise InvalidInputError(f"colors cover {colors.n} vertices but the graph has {g.n}")
    check_spec(colors, spec)
    cost, assign = best_partition(g, colors, spec)
    return Clustering(assign), cost


def mirror_graph(g: SignedCompleteGraph):
    """Duplicate every vertex with a positive edge to its copy.

    Vertices 0..n-1 keep color 0, mirrors n..2n-1 get color 1; all other
    cross edges copy the sign of the underlying pair.
    """
    n = g.n
    signs = np.tile(g.signs, (2, 2))
    u = np.arange(n)
    signs[u, n + u] = signs[n + u, u] = 1
    return SignedCompleteGraph._trusted(signs), ColorAssignment(np.repeat([0, 1], n))
