"""Brute-force ground truth for small instances.

Optimal clusterings come from one branch-and-bound search over the set
partitions whose every block is fair, in restricted-growth-string order.
It cuts a branch whose cost so far plus a lower bound on the cost to come
reaches the best found, and one that no completion can make fair. Only
strictly cheaper partitions replace the best, so ties resolve to the
lexicographically smallest string, as in a full enumeration. The
unconstrained optimum is the one-color case: with one color and no bounds
every partition is fair. ``mirror_graph`` builds the vertex-duplication
instance whose fair optimum equals four times the unconstrained optimum of
the base graph.

The searches take at most 10 vertices, or the positive integer in
``FAIRCC_ORACLE_MAX_N``. A larger instance raises OracleLimitError (exit 4),
and an override that is not a positive integer raises InvalidInputError
(exit 1).
"""

from __future__ import annotations

import os

import numpy as np

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


def best_partition(g: SignedCompleteGraph, colors: ColorAssignment, spec: FairnessSpec):
    """Minimum-disagreement partition of ``g`` among those whose every
    block has n1 >= 1 base-color vertices and n1*p_c <= n_c <= n1*q_c for
    every bounded color c, by branch and bound over restricted growth
    strings in lexicographic order.

    A branch is cut when its cost so far plus a lower bound on the cost to
    come reaches the best cost found. The bound sums, over the unplaced
    vertices, each one's cheapest cost against the placed ones; these pair
    sets are disjoint. A branch is also cut when no completion can be
    fair: it would open more blocks than there are base vertices, a block
    holds more of a color c than q_c times its base vertices plus the base
    vertices left, more blocks lack a base vertex than base vertices are
    left, or the blocks lack more of a color c to reach p_c per base vertex
    than vertices of c are left. With one color and no bounds none of these
    cuts fires.

    Only strictly cheaper partitions reach a leaf, so the first optimum
    found is kept. Returns (cost, assignment) where assignment is the
    lexicographically smallest restricted growth string among the optima,
    or (-1, None) when no partition is fair.
    """
    n = g.n
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
    best_cost, best_assign = -1, None
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
        # pos_in[w]: w's positive edges to 0..v-1; extra[b][w]: 2 * (w's
        # negative edges into block b) - |b|, so w joining block b costs
        # pos_in[w] + extra[b][w] against 0..v-1 and a new block pos_in[w]
        nonlocal best_cost, best_assign
        if v == n:
            best_cost, best_assign = cost, list(assign)
            return
        rest = v + 1
        to_come = 0
        if num_blocks:
            to_come = sum(pos_in[rest:]) + sum(map(min, zeros[rest:], *(x[rest:] for x in extra)))
        joined = cost + pos_in[v]
        color = color_of[v]
        child_pos_in = None
        for b in range(num_blocks + 1 if num_blocks < max_blocks else max_blocks):
            new_cost = joined + extra[b][v] if b < num_blocks else joined
            if best_cost >= 0 and new_cost + to_come >= best_cost:
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
                    walk(v + 1, num_blocks, new_cost, child_pos_in, extra)
                    extra[b] = old
                else:
                    extra.append(step[v])
                    walk(v + 1, num_blocks + 1, new_cost, child_pos_in, extra)
                    extra.pop()
            h[color] -= 1

    walk(0, 0, 0, zeros, [])
    return best_cost, best_assign


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
