"""Brute-force ground truth for small instances.

Optimal (fair and unconstrained) clusterings come from exhaustive search
over set partitions in restricted-growth-string order, b-matching optima
from exhaustive assignment enumeration, and ``mirror_graph`` builds the
vertex-duplication instance whose fair optimum equals four times the
unconstrained optimum of the base graph.

The partition searches take at most 10 vertices, or the positive integer in
``FAIRCC_ORACLE_MAX_N``; ``opt_bmatching`` takes at most 8 right vertices.
A larger instance raises OracleLimitError (exit 4), and an override that is
not a positive integer raises InvalidInputError (exit 1).
"""

from __future__ import annotations

import os

import numpy as np

from . import bmatching
from .errors import InfeasibleSpecError, InvalidInputError, OracleLimitError
from .model import Clustering, ColorAssignment, FairnessSpec, SignedCompleteGraph, check_spec

_ENV_MAX_N = "FAIRCC_ORACLE_MAX_N"
_MAX_R = 8  # opt_bmatching's cap on the right side


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


def best_partition(g: SignedCompleteGraph, colors=None, spec=None):
    """Minimum-disagreement partition of ``g``, by branch and bound over
    restricted growth strings in lexicographic order.

    With ``colors`` and ``spec``, only partitions whose every block has
    n1 >= 1 base-color vertices and n1*p_c <= n_c <= n1*q_c for every
    bounded color c count.

    Returns (cost, assignment) where assignment is the lexicographically
    smallest restricted growth string among the optima, or (-1, None) when
    no partition is fair.
    """
    n = g.n
    neg = (g.signs < 0).tolist()
    cut = np.tril(g.signs > 0).sum(axis=1).tolist()  # positive edges to earlier vertices
    fair = spec is not None
    if fair:
        base, bounds = spec.base_color, list(spec.bounds.items())
        color_of = colors.color_of.tolist()  # the search reads a list faster than an array
        hist = [[0] * colors.num_colors for _ in range(n)]  # per block, color counts
    best_cost, best_assign = -1, None
    assign = [0] * n

    def walk(v, num_blocks, cost):
        nonlocal best_cost, best_assign
        if v == n:
            # the prune below lets only strict improvements reach a leaf
            if fair and not all(
                h[base] >= 1 and all(h[base] * p <= h[c] <= h[base] * q for c, (p, q) in bounds)
                for h in hist[:num_blocks]
            ):
                return
            best_cost, best_assign = cost, list(assign)
            return
        row = neg[v]
        inside = [0] * (num_blocks + 1)  # v's negative edges into each block
        size = [0] * (num_blocks + 1)
        for u in range(v):
            b = assign[u]
            size[b] += 1
            inside[b] += row[u]
        for b in range(num_blocks + 1):
            # v pays its negative edges inside b and its positive edges out of b
            new_cost = cost + 2 * inside[b] + cut[v] - size[b]
            if best_cost >= 0 and new_cost >= best_cost:
                continue
            assign[v] = b
            if fair:
                hist[b][color_of[v]] += 1
            walk(v + 1, max(num_blocks, b + 1), new_cost)
            if fair:
                hist[b][color_of[v]] -= 1

    walk(0, 0, 0)
    return best_cost, best_assign


def opt_cc(g: SignedCompleteGraph):
    """Exhaustive minimum-disagreement clustering; ties resolve to the
    lexicographically smallest restricted growth string."""
    _check_size(g.n)
    cost, assign = best_partition(g)
    return Clustering(assign), cost


def opt_fair(g: SignedCompleteGraph, colors: ColorAssignment, spec: FairnessSpec):
    """Exhaustive minimum over partitions whose every block passes the
    fairness check; a spec that fails check_spec raises first."""
    check_spec(colors, spec)
    _check_size(g.n)
    cost, assign = best_partition(g, colors, spec)
    if cost < 0:
        raise InfeasibleSpecError("no clustering satisfies the fairness spec")
    return Clustering(assign), cost


def opt_bmatching(inst: bmatching.BMatchingInstance) -> bmatching.BMatching:
    """Exhaustive minimum over all right-to-left assignments meeting the
    degree intervals. Independent verifier for ``bmatching.solve``."""
    L, R = inst.left_size, inst.right_size
    if R > _MAX_R:
        raise OracleLimitError(f"R={R} exceeds oracle limit {_MAX_R}")
    cost = inst.cost.tolist()
    best = None
    assign = [0] * R
    deg = [0] * L

    def remaining_need(r):
        return sum(max(inst.degree_lo[l] - deg[l], 0) for l in range(L))

    def walk(r, weight):
        nonlocal best
        if r == R:
            if all(deg[l] >= inst.degree_lo[l] for l in range(L)):
                if best is None or weight < best[0]:
                    best = (weight, tuple(assign))
            return
        if remaining_need(r) > R - r:
            return
        for l in range(L):
            if deg[l] >= inst.degree_hi[l]:
                continue
            assign[r] = l
            deg[l] += 1
            walk(r + 1, weight + cost[l][r])
            deg[l] -= 1

    walk(0, 0)
    if best is None:
        raise InfeasibleSpecError("degree intervals admit no full assignment")
    return bmatching.BMatching(best[1], best[0])


def mirror_graph(g: SignedCompleteGraph):
    """Duplicate every vertex with a positive edge to its copy.

    Vertices 0..n-1 keep color 0, mirrors n..2n-1 get color 1; all other
    cross edges copy the sign of the underlying pair.
    """
    n = g.n
    signs = np.tile(g.signs, (2, 2))
    u = np.arange(n)
    signs[u, n + u] = signs[n + u, u] = 1
    return SignedCompleteGraph(2 * n, signs), ColorAssignment(np.repeat([0, 1], n))
