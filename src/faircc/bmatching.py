"""Exact min-cost bipartite b-matching with per-left-node degree intervals.

Every left node l is expanded into interchangeable slot columns, which
turns the b-matching into a rectangular assignment: each right node takes
exactly one slot and each slot holds at most one right node. Node l gets
degree_hi[l] slots, clamped to R - (sum(degree_lo) - degree_lo[l]), the most
it can take while every other node still meets its lower bound; so a loose
upper bound costs no more columns than the table can use. The first
degree_lo[l] slots of l are mandatory. Their costs are shifted by -M with
M = (sum of all costs) + 1, so an assignment that leaves a mandatory slot
empty costs more than any assignment that fills them all; the shift is
skipped when every slot must be filled anyway.

A constant table (unit costs, say) needs no search: every degree-feasible
assignment costs the constant times R, so any one is optimal. It gets the
one the search below would return, which fills the mandatory slots first and
then the optional ones, each in slot order. Any other table is solved by
shortest augmenting paths (Jonker and Volgenant 1987): one Dijkstra per
right node over reduced costs that dual potentials keep nonnegative, each
Dijkstra step vectorized over all slot columns, whose costs are gathered
from the L x R table rather than stored, into buffers the steps reuse.
Everything stays in int64, and instances whose costs could overflow it are
rejected, so the optimum is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSpecError, InvalidInputError

_UNREACHED = np.iinfo(np.int64).max
# shifted costs lie in [-M, M) with M = sum of costs + 1, and potentials and
# path lengths stay within a few multiples of M * (R + 1); capping that
# product at 2**56 leaves int64 headroom
_COST_LIMIT = 2**56


@dataclass(frozen=True, eq=False)
class BMatchingInstance:
    """L x R nonnegative integer cost table with degree interval
    [degree_lo[l], degree_hi[l]] per left node; right nodes have degree 1.

    ``cost`` is stored as a read-only int64 array."""

    cost: np.ndarray
    degree_lo: tuple
    degree_hi: tuple

    def __post_init__(self):
        try:
            cost = np.array(self.cost, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"cost table must be rectangular integers: {exc}") from exc
        lo = tuple(int(x) for x in self.degree_lo)
        hi = tuple(int(x) for x in self.degree_hi)
        if cost.ndim != 2 or cost.size == 0:
            raise InvalidInputError("cost table must be a nonempty L x R table")
        if (cost < 0).any():
            raise InvalidInputError("costs must be nonnegative")
        total = int(cost.sum())
        if int(cost.max()) * cost.size >= _COST_LIMIT:  # int64 sum may wrap
            total = int(cost.sum(dtype=object))
        if (total + 1) * (cost.shape[1] + 1) >= _COST_LIMIT:
            raise InvalidInputError(f"costs too large to solve exactly (sum {total})")
        if len(lo) != len(cost) or len(hi) != len(cost):
            raise InvalidInputError("degree bounds must have one entry per left node")
        if any(l < 0 or l > h for l, h in zip(lo, hi)):
            raise InvalidInputError("need 0 <= degree_lo <= degree_hi")
        cost.setflags(write=False)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "degree_lo", lo)
        object.__setattr__(self, "degree_hi", hi)

    @property
    def left_size(self):
        return self.cost.shape[0]

    @property
    def right_size(self):
        return self.cost.shape[1]


@dataclass(frozen=True, eq=False)
class BMatching:
    """Solved assignment: per-right-node left index, a read-only int64
    array, plus total cost."""

    assign: np.ndarray
    weight: int

    def __post_init__(self):
        assign = np.array(self.assign, np.int64)
        assign.setflags(write=False)
        object.__setattr__(self, "assign", assign)


def _assign(rows, owner, offset):
    """Column of each row in a minimum-cost assignment of every row to a
    distinct column, where column j of row i costs
    ``rows[i, owner[j]] + offset[j]`` (n rows, m >= n columns, int64)."""
    n, m = len(rows), len(owner)
    u = np.zeros(n, np.int64)
    v = np.zeros(m, np.int64)
    row_of = np.full(m, -1)
    col_of = np.full(n, -1)
    dist = np.empty(m, np.int64)  # path length of each settled column
    key = np.empty(m, np.int64)  # path length so far, _UNREACHED once settled
    pred = np.empty(m, np.int64)
    unsettled = np.empty(m, bool)
    reach = np.empty(m, np.int64)
    better = np.empty(m, bool)
    for start in range(n):
        key.fill(_UNREACHED)
        unsettled.fill(True)
        base = offset - v
        i, low = start, 0
        while True:  # Dijkstra from ``start`` until it reaches a free column
            rows[i].take(owner, out=reach)
            reach += base
            reach += low - u[i]
            np.less(reach, key, out=better)
            better &= unsettled
            np.copyto(key, reach, where=better)
            np.copyto(pred, i, where=better)
            j = int(key.argmin())
            low = int(key[j])
            dist[j] = low
            key[j] = _UNREACHED
            unsettled[j] = False
            if row_of[j] < 0:
                break
            i = row_of[j]
        cols = np.flatnonzero(~unsettled)
        slack = low - dist[cols]
        v[cols] -= slack
        inner = row_of[cols] >= 0
        u[row_of[cols[inner]]] += slack[inner]
        u[start] += low
        while True:  # flip the path back to ``start``
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return col_of


def solve(inst: BMatchingInstance) -> BMatching:
    """Feasible matching of exactly minimum total cost.

    Raises InfeasibleSpecError when no assignment satisfies every degree
    interval; with a complete cost table that is exactly when
    sum(lo) <= R <= sum(hi) fails.
    """
    R = inst.right_size
    lo_sum, hi_sum = sum(inst.degree_lo), sum(inst.degree_hi)
    if not lo_sum <= R <= hi_sum:
        raise InfeasibleSpecError(
            f"{R} right nodes cannot meet degree bounds (sum lo {lo_sum}, sum hi {hi_sum})"
        )
    lo = np.array(inst.degree_lo, np.int64)
    # no feasible degree is larger, so the clamp keeps the optimum
    hi = np.array([min(h, R - lo_sum + l) for l, h in zip(inst.degree_lo, inst.degree_hi)])
    slots = int(hi.sum())
    owner = np.repeat(np.arange(inst.left_size), hi)  # slot column -> left node
    offset = np.zeros(slots, np.int64)
    if lo_sum and R < slots:
        rank = np.arange(slots) - np.repeat(np.cumsum(hi) - hi, hi)
        offset[rank < lo[owner]] = -(int(inst.cost.sum()) + 1)
    if inst.cost.min() == inst.cost.max():  # every degree-feasible deal is optimal
        assign = owner[np.argsort(offset, kind="stable")[:R]]
        return BMatching(assign, int(inst.cost[0, 0]) * R)
    assign = owner[_assign(np.ascontiguousarray(inst.cost.T), owner, offset)]
    weight = int(inst.cost[assign, np.arange(R)].sum())
    return BMatching(assign, weight)

