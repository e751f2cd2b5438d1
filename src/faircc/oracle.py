"""Brute-force ground truth for small instances.

Optimal (fair and unconstrained) clusterings come from exhaustive search
over set partitions in restricted-growth-string order, b-matching optima
from exhaustive assignment enumeration, and ``mirror_graph`` builds the
vertex-duplication instance whose fair optimum equals four times the
unconstrained optimum of the base graph.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import bmatching
from .errors import InfeasibleSpecError, OracleLimitError
from .model import Clustering, ColorAssignment, FairnessSpec, SignedCompleteGraph

_ENV_MAX_N = "FAIRCC_ORACLE_MAX_N"


@dataclass(frozen=True)
class OracleLimit:
    """Size caps for the exhaustive searches."""

    max_n: int = 10
    max_right: int = 8

    def __post_init__(self):
        if self.max_n < 1 or self.max_right < 1:
            raise ValueError("oracle limits must be >= 1")

    @classmethod
    def default(cls):
        raw = os.environ.get(_ENV_MAX_N)
        return cls(max_n=int(raw)) if raw else cls()


def best_partition(neg, color_of, base_color, p_bound, q_bound, fair):
    """Minimum-disagreement partition of an n-vertex signed complete graph,
    by branch and bound over restricted growth strings in lexicographic
    order.

    neg[u][v] is 1 for a negative pair, 0 for positive. When ``fair`` is
    true, only partitions whose every block has n1 >= 1 base-color vertices
    and n1*p_c <= n_c <= n1*q_c for every non-base color c are considered.

    Returns (cost, assignment) where assignment is the lexicographically
    smallest restricted growth string among the optima, or (-1, None) when
    no feasible partition exists.
    """
    n = len(neg)
    neg = [list(map(int, row)) for row in neg]
    color_of = list(map(int, color_of))
    num_colors = len(p_bound)
    best_cost = -1
    best_assign = None
    assign = [0] * n

    def fair_ok(num_blocks):
        for b in range(num_blocks):
            hist = [0] * num_colors
            for v in range(n):
                if assign[v] == b:
                    hist[color_of[v]] += 1
            n1 = hist[base_color]
            if n1 < 1:
                return False
            for c in range(num_colors):
                if c == base_color:
                    continue
                if not n1 * p_bound[c] <= hist[c] <= n1 * q_bound[c]:
                    return False
        return True

    def walk(v, num_blocks, cost):
        nonlocal best_cost, best_assign
        if v == n:
            if not fair or fair_ok(num_blocks):
                if best_cost < 0 or cost < best_cost:
                    best_cost = cost
                    best_assign = list(assign)
            return
        row = neg[v]
        for b in range(num_blocks + 1):
            delta = 0
            for u in range(v):
                if assign[u] == b:
                    delta += row[u]
                else:
                    delta += 1 - row[u]
            new_cost = cost + delta
            if best_cost >= 0 and new_cost >= best_cost:
                continue
            assign[v] = b
            walk(v + 1, max(num_blocks, b + 1), new_cost)
        assign[v] = 0

    walk(0, 0, 0)
    return best_cost, best_assign


def _negative_rows(g: SignedCompleteGraph):
    return (g.signs < 0).astype(np.uint8).tolist()


def opt_cc(g: SignedCompleteGraph, limit: OracleLimit | None = None):
    """Exhaustive minimum-disagreement clustering; ties resolve to the
    lexicographically smallest restricted growth string."""
    limit = limit or OracleLimit.default()
    if g.n > limit.max_n:
        raise OracleLimitError(f"n={g.n} exceeds oracle limit {limit.max_n}")
    cost, assign = best_partition(_negative_rows(g), [0] * g.n, 0, [1], [1], False)
    return Clustering(tuple(assign)), cost


def opt_fair(
    g: SignedCompleteGraph,
    colors: ColorAssignment,
    spec: FairnessSpec,
    limit: OracleLimit | None = None,
):
    """Exhaustive minimum over partitions whose every block passes the
    fairness check."""
    limit = limit or OracleLimit.default()
    if g.n > limit.max_n:
        raise OracleLimitError(f"n={g.n} exceeds oracle limit {limit.max_n}")
    num_colors = colors.num_colors
    p = [1] * num_colors
    q = [1] * num_colors
    for c, (pc, qc) in spec.bounds.items():
        p[c], q[c] = pc, qc
    cost, assign = best_partition(
        _negative_rows(g), list(colors.color_of), spec.base_color, p, q, True
    )
    if cost < 0:
        raise InfeasibleSpecError("no clustering satisfies the fairness spec")
    return Clustering(tuple(assign)), cost


def opt_bmatching(
    inst: bmatching.BMatchingInstance, limit: OracleLimit | None = None
) -> bmatching.BMatching:
    """Exhaustive minimum over all right-to-left assignments meeting the
    degree intervals. Independent verifier for ``bmatching.solve``."""
    limit = limit or OracleLimit.default()
    L, R = inst.left_size, inst.right_size
    if R > limit.max_right:
        raise OracleLimitError(f"R={R} exceeds oracle limit {limit.max_right}")
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
    signs = np.empty((2 * n, 2 * n), dtype=np.int8)
    signs[:n, :n] = g.signs
    signs[n:, n:] = g.signs
    signs[:n, n:] = g.signs
    signs[n:, :n] = g.signs
    for u in range(n):
        signs[u, n + u] = signs[n + u, u] = 1
    np.fill_diagonal(signs, 0)
    h = SignedCompleteGraph(2 * n, signs)
    colors = ColorAssignment(tuple([0] * n + [1] * n))
    return h, colors
