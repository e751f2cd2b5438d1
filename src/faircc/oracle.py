"""Brute-force ground truth for small instances.

Disagreements split over blocks: a partition costs g's positive pairs plus,
per block, its negative pairs minus its positive pairs, and fairness is a
condition on each block alone. So the fair optimum is a set-partition DP
over vertex subsets, O(3^n) in numpy integers. A walk over restricted
growth strings in lexicographic order, which cuts every branch that holds
no fair partition at that cost, then stops at its first leaf: the
lexicographically smallest optimal string, as a full enumeration would
pick. The unconstrained optimum is the one-color case: with one color and
no bounds every partition is fair. ``mirror_graph`` builds the
vertex-duplication instance whose fair optimum equals four times the
unconstrained optimum of the base graph.

The searches take at most 10 vertices, or the positive integer in
``FAIRCC_ORACLE_MAX_N``. A larger instance, or one whose 2^n-entry subset
tables exceed physical memory, raises OracleLimitError (exit 4), and an
override that is not a positive integer raises InvalidInputError (exit 1).
"""

from __future__ import annotations

import os

import numpy as np

from . import model
from .errors import InfeasibleSpecError, InvalidInputError, OracleLimitError
from .model import Clustering, ColorAssignment, FairnessSpec, SignedCompleteGraph, check_spec

_ENV_MAX_N = "FAIRCC_ORACLE_MAX_N"


def _check_size(n):
    """Raise OracleLimitError when n exceeds the cap on the exhaustive
    partition searches, $FAIRCC_ORACLE_MAX_N or else 10, and
    InvalidInputError when that variable holds no positive integer."""
    raw = os.environ.get(_ENV_MAX_N) or "10"
    cap = int(raw) if raw.strip().isdecimal() else 0
    if cap < 1:
        raise InvalidInputError(f"{_ENV_MAX_N} must be a positive integer, got {raw!r}")
    if n > cap:
        raise OracleLimitError(f"n={n} exceeds oracle limit {cap}")


# A block that is not fair weighs _INF. Sums of real block weights stay
# within n^2 / 2 of zero, so a DP value above _INF // 2 means that no fair
# partition exists, and two values of at most _INF still add in int32.
_INF = 1 << 29
# The pair table covers at most this many low bits: 3^12 rows, 4 MB.
_PAIR_BITS = 12
_pairs = []  # the largest pair table built so far: t, rest, starts


def _pair_table(bits):
    """Every pair T within S within {0..bits-1}, as int32 columns T and
    S - T with rows sorted by S, and the row where each S starts.

    The rows of S + {b} are those of S, first with T and then with
    T + {b}, and they follow every row of the sets below bit b. So the
    table for fewer bits is a prefix of this one: the largest one asked
    for is kept, built on first use and grown by the bits a later call
    needs."""
    if not _pairs:
        _pairs[:] = np.zeros(1, np.int32), np.zeros(1, np.int32), np.zeros(1, np.intp)
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
    """The least sum of w(B) over the blocks B of a partition whose every
    block is fair, where w(B) is B's negative pairs minus its positive
    pairs, or a value above _INF // 2 when no partition is fair. A
    partition's disagreements are g's positive pairs plus that sum.

    Subset DP, with bit j standing for vertex n-1-j so that the vertices
    after a vertex are the bits below its own. For S with top bit m and
    S' = S - {m}, f(S) is the least w({m} + T) + f(S' - T) over T within
    S', one pair table pass per m. With more than _PAIR_BITS bits in S',
    each pair (H, T_H) of high-bit sets, T_H within H, takes one pass over
    the low bits."""
    n, k = g.n, colors.num_colors
    order = np.arange(n - 1, -1, -1)
    # row j: vertex n-1-j's negated signs to the vertex of each bit, then a
    # one in its color's column; n < 128 whenever the tables fit in memory,
    # so int8 holds every sum of these rows
    rows = np.zeros((n, n + k), np.int8)
    rows[:, :n] = -g.signs[np.ix_(order, order)]
    rows[np.arange(n), n + colors.color_of[order]] = 1
    sums = np.zeros((1 << n, n + k), np.int8)  # per subset, its rows' sum
    w = np.zeros(1 << n, np.int32)
    for j in range(n):
        low = 1 << j
        np.add(w[:low], sums[:low, j], out=w[low : 2 * low])
        np.add(sums[:low], rows[j], out=sums[low : 2 * low])
    n1 = sums[:, n + spec.base_color].astype(np.int32)
    fair = n1 >= 1
    for c, (p, q) in spec.bounds.items():
        n_c = sums[:, n + c]
        # a bound past n decides every block as n + 1 or n would, in int32
        fair &= (min(p, n + 1) * n1 <= n_c) & (n_c <= min(q, n) * n1)
    del sums, n1  # freed before f is allocated
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
    return int(f[-1])


def best_partition(g: SignedCompleteGraph, colors: ColorAssignment, spec: FairnessSpec):
    """Minimum-disagreement partition of ``g`` among those whose every
    block has n1 >= 1 base-color vertices and n1*p_c <= n_c <= n1*q_c for
    every bounded color c.

    The optimum comes first, from the subset DP of ``_fair_optimum``. Then
    a walk over restricted growth strings in lexicographic order stops at
    its first leaf. It cuts a branch whose cost so far plus a lower bound
    on the cost to come exceeds the optimum. The bound sums, over the
    unplaced vertices, each one's cheapest cost against the placed ones;
    these pair sets are disjoint. It also cuts a branch that no completion
    can make fair: it would open more blocks than there are base vertices,
    a block holds more of a color c than q_c times its base vertices plus
    the base vertices left, more blocks lack a base vertex than base
    vertices are left, or the blocks lack more of a color c to reach p_c
    per base vertex than vertices of c are left. With one color and no
    bounds none of these cuts fires. No cut drops a fair partition at the
    optimum, so the first leaf is the lexicographically smallest of them.

    Returns (cost, assignment) with that restricted growth string, or
    (-1, None) when no partition is fair. The DP's subset tables and their
    temporaries take about 2^n * (n + colors + 16) bytes; when that exceeds
    physical memory, OracleLimitError is raised before any is allocated.
    """
    n = g.n
    need, memory = (1 << n) * (n + colors.num_colors + 16), model._physical_memory()
    if need > memory:
        raise OracleLimitError(
            f"n={n} needs {need} bytes of subset tables, "
            f"more than the {memory} bytes of physical memory"
        )
    opt = _fair_optimum(g, colors, spec)
    if opt > _INF // 2:
        return -1, None
    opt += g.positive_pairs
    pos = (g.signs > 0).astype(np.int64).tolist()  # ints add faster than bools
    # v joining block b adds step[v][w] to extra[b][w] (see walk): +1 for a
    # negative pair, -1 for a positive one
    step = (-g.signs).tolist()
    base, bounds = spec.base_color, list(spec.bounds.items())
    color_of = colors.color_of.tolist()  # the search reads a list faster than an array
    left = [[0] * colors.num_colors for _ in range(n + 1)]  # color counts of v..n-1
    for v in range(n - 1, -1, -1):
        left[v] = list(left[v + 1])
        left[v][color_of[v]] += 1
    max_blocks = left[0][base]
    hist = [[0] * colors.num_colors for _ in range(n)]  # per block, color counts
    zeros = [0] * n
    assign = [0] * n

    def can_be_fair(v, num_blocks):
        """False when no placement of v+1..n-1 makes every block fair."""
        after = left[v + 1]
        spare = after[base]
        bare = 0
        for b in range(num_blocks):
            if not hist[b][base]:
                bare += 1
        if bare > spare:
            return False
        for c, (p, q) in bounds:
            short = 0
            for b in range(num_blocks):
                h = hist[b]
                n1, n_c = h[base], h[c]
                if n_c > q * (n1 + spare):
                    return False
                lack = p * n1 - n_c
                if lack > 0:
                    short += lack
            if short > after[c]:
                return False
        return True

    def walk(v, num_blocks, cost, pos_in, extra):
        """True once a leaf is reached, with its string in ``assign``."""
        # pos_in[w]: w's positive edges to 0..v-1; extra[b][w]: 2 * (w's
        # negative edges into block b) - |b|, so w joining block b costs
        # pos_in[w] + extra[b][w] against 0..v-1 and a new block pos_in[w]
        if v == n:
            return True
        rest = v + 1
        to_come = 0
        if num_blocks:
            to_come = sum(pos_in[rest:]) + sum(map(min, zeros[rest:], *(x[rest:] for x in extra)))
        joined = cost + pos_in[v]
        color = color_of[v]
        child_pos_in = None
        for b in range(num_blocks + 1 if num_blocks < max_blocks else max_blocks):
            new_cost = joined + extra[b][v] if b < num_blocks else joined
            if new_cost + to_come > opt:
                continue
            h = hist[b]
            h[color] += 1
            if can_be_fair(v, num_blocks if b < num_blocks else b + 1):
                assign[v] = b
                if child_pos_in is None:
                    child_pos_in = [a + p for a, p in zip(pos_in, pos[v])]
                if b < num_blocks:
                    old = extra[b]
                    extra[b] = [e + s for e, s in zip(old, step[v])]
                    if walk(v + 1, num_blocks, new_cost, child_pos_in, extra):
                        return True
                    extra[b] = old
                else:
                    extra.append(step[v])
                    if walk(v + 1, num_blocks + 1, new_cost, child_pos_in, extra):
                        return True
                    extra.pop()
            h[color] -= 1
        return False

    found = walk(0, 0, 0, zeros, [])
    assert found, "the DP's optimum is the cost of a fair partition"
    return opt, assign


def opt_cc(g: SignedCompleteGraph):
    """Exhaustive minimum-disagreement clustering: ``opt_fair`` on one color
    with no bounds, under which every partition is fair."""
    return opt_fair(g, ColorAssignment(np.zeros(g.n, np.int64)), FairnessSpec(0, {}))


def opt_fair(g: SignedCompleteGraph, colors: ColorAssignment, spec: FairnessSpec):
    """Exhaustive minimum over partitions whose every block passes the
    fairness check; ties resolve to the lexicographically smallest
    restricted growth string. Colors that do not cover the graph, then a
    spec that fails check_spec, raise first."""
    if colors.n != g.n:
        raise InvalidInputError(f"colors cover {colors.n} vertices but the graph has {g.n}")
    check_spec(colors, spec)
    _check_size(g.n)
    cost, assign = best_partition(g, colors, spec)
    if cost < 0:
        raise InfeasibleSpecError("no clustering satisfies the fairness spec")
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
