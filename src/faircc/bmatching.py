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
assignment costs the constant times R, so any one is optimal. It gets a
fixed deal: the right nodes, in order, take the mandatory slots in slot
order and then the optional ones in slot order (every slot counts as
mandatory when all must be filled).

Any other table is solved in two phases after Jonker and Volgenant 1987.
Augmenting row reduction first lets the right nodes bid for their cheapest
slot columns, raising a column's dual price by the bidder's gap to its
second-cheapest one, for two passes; most right nodes end the passes
assigned. Each right node still free then gets a shortest augmenting path:
one Dijkstra over reduced costs that the dual potentials keep nonnegative,
each step vectorized over all slot columns, whose costs are gathered from
the L x R table rather than stored, into buffers the steps reuse. When
every left node has exactly one slot, a bid or step reads its row of the
table in place rather than gathering it; the assignment is the same. Each
phase keeps its bookkeeping (the row of each column, the column and dual
of each row, a search's settled columns) in Python lists, and a search
updates the duals once, at its end. Everything stays in int64, and
instances whose costs could overflow it are rejected, so the optimum is
exact; which of several optima it returns depends on both phases.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleSpecError, InvalidInputError
from .model import _int64_array

_UNREACHED = np.iinfo(np.int64).max
# shifted costs lie in [-M, M) with M = sum of costs + 1. The row reduction
# leaves every dual v above -8RM (see _reduce_rows) and each of the at most R
# searches lowers v by less than 2M more, so |v| < 10RM; potentials, path
# lengths and their sums stay within a few multiples of that, below 2**61
# while M * (R + 1) < 2**56
_COST_LIMIT = 2**56
_SETTLED = 2**61  # the search's key of a settled column, above every path length


@dataclass(frozen=True, eq=False)
class BMatchingInstance:
    """L x R nonnegative integer cost table with degree interval
    [degree_lo[l], degree_hi[l]] per left node; right nodes have degree 1.

    ``cost`` is stored as a read-only int64 array: a read-only int64 input
    (such as a ``np.broadcast_to`` constant) is kept as it is, and anything
    else is copied. Costs and degree bounds must be integers; integral
    floats are taken as costs, and a fractional, NaN, infinite or
    non-number cost is invalid input, never truncated or parsed."""

    cost: np.ndarray
    degree_lo: tuple
    degree_hi: tuple

    def __post_init__(self):
        cost = _int64_array(self.cost, "cost table")
        if cost.flags.writeable:  # keep no table the caller can still change
            cost = cost.copy()
        lo, hi = _degrees(self.degree_lo), _degrees(self.degree_hi)
        if cost.ndim != 2 or cost.size == 0:
            raise InvalidInputError("cost table must be a nonempty L x R table")
        if cost.min() < 0:
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


def _degrees(bounds):
    """Degree bounds as a tuple of Python ints, which may exceed int64;
    anything but an integer (a float, a str, ...) is invalid input."""
    bounds = tuple(bounds)
    for x in bounds:
        # a Python int passes by its type, before the costlier ABC check,
        # with which numpy's integers are registered
        if type(x) is not int and not isinstance(x, numbers.Integral):
            raise InvalidInputError(f"degree bounds must be integers, got {x!r}")
    return tuple(int(x) for x in bounds)


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


def _one_slot(rows, owner):
    """Whether every left node has exactly one slot column, so a row's slot
    costs are the row itself, read in place rather than gathered."""
    return len(owner) == rows.shape[1] and bool((owner == np.arange(len(owner))).all())


def _reduce_rows(rows, owner, offset):
    """Augmenting row reduction (Jonker and Volgenant 1987): two passes of
    bids that assign most rows before the search, for the costs of
    ``_assign``. Returns the column duals v, the column of each row and the
    row of each column (-1 where there is none), and the rows left free.

    A free row bids on its cheapest column j1 at reduced cost
    ``cost - v``, and lowers v[j1] by the gap to its second-cheapest
    column, so that j1 stays its cheapest. On a tie it takes the
    second-cheapest column instead when j1 is taken. A row evicted by a
    bid that lowered v bids again at once; one evicted by a tie waits for
    the next pass. Only a column a row then holds loses v, so free columns
    keep v = 0, and a row keeps its column's reduced cost at its row
    minimum, since while it holds the column only other columns lose v.

    Each pass lets at most as many evicted rows bid again at once as it
    has free rows at its start, so the two passes make at most 4n bids. A
    bid sets v[j1] to ``c1 - c2 + v[j2]`` for two shifted costs in
    [-M, M), at most 2M below the lowest v; so afterwards v > -8nM.
    """
    n, m = len(rows), len(owner)
    one_slot = _one_slot(rows, owner)
    base = offset.copy()  # offset - v: the reduced cost less the row's own cost
    row_of = [-1] * m
    col_of = [-1] * n
    reach = np.empty(m, np.int64)
    free = list(range(n))
    for _ in range(2):
        todo, free = free, []
        rebids = len(todo)
        for i in todo:
            while True:
                if one_slot:
                    np.add(rows[i], base, out=reach)
                else:
                    rows[i].take(owner, out=reach)
                    reach += base
                j1 = int(reach.argmin())
                u1 = u2 = reach.item(j1)  # a single column has no second-cheapest
                if m > 1:
                    reach[j1] = _UNREACHED
                    j2 = int(reach.argmin())
                    u2 = reach.item(j2)
                evicted = row_of[j1]
                if u1 < u2:
                    base[j1] += u2 - u1
                elif evicted >= 0:
                    j1 = j2
                    evicted = row_of[j1]
                row_of[j1], col_of[i] = i, j1
                if evicted < 0:
                    break
                col_of[evicted] = -1
                if u1 == u2 or not rebids:
                    free.append(evicted)
                    break
                rebids -= 1
                i = evicted
    return offset - base, np.array(col_of), np.array(row_of), free


def _assign(rows, owner, offset):
    """Column of each row in a minimum-cost assignment of every row to a
    distinct column, where column j of row i costs
    ``rows[i, owner[j]] + offset[j]`` (n rows, m >= n columns, int64)."""
    m = len(owner)
    one_slot = _one_slot(rows, owner)
    v, col_of, row_of, free = _reduce_rows(rows, owner, offset)
    base = offset - v  # the reduced cost less the row's own cost
    # an assigned row's dual u is its column's reduced cost, its row minimum
    u = np.zeros(len(rows), np.int64)
    held = np.flatnonzero(col_of >= 0)
    cols = col_of[held]
    u[held] = rows[held, owner[cols]] + base[cols]
    u, col_of, row_of = u.tolist(), col_of.tolist(), row_of.tolist()
    # A settled column's key is _SETTLED and its entry of search_base is
    # 2 * _SETTLED, so no mask of unsettled columns is needed. Path
    # lengths, potentials and their sums stay below _SETTLED = 2**61 in size
    # (see _COST_LIMIT). So an unsettled column's path length, which the
    # first step sets for every column of the complete table, is below
    # _SETTLED, and argmin never picks a settled column; a settled column's
    # reach, its cost in [0, 2**56) plus 2**62 plus low - u[i] in
    # (-2**61, 2**61), lies in (2**61, 2**63): never below its key, and
    # within int64.
    key = np.empty(m, np.int64)  # path length so far, _SETTLED once settled
    pred = np.empty(m, np.int64)
    reach = np.empty(m, np.int64)
    better = np.empty(m, bool)
    # the step's row and its path length less its dual, as 0-d arrays: numpy
    # converts a Python int operand anew on every call
    row, shift = np.empty((), np.int64), np.empty((), np.int64)
    for start in free:
        key.fill(_SETTLED)
        search_base = base.copy()  # base, but 2 * _SETTLED at settled columns
        settled, dist = [], []  # settled columns in order, and their path lengths
        i, low = start, 0
        while True:  # Dijkstra from ``start`` until it reaches a free column
            if one_slot:
                np.add(rows[i], search_base, out=reach)
            else:
                rows[i].take(owner, out=reach)
                reach += search_base
            row[()], shift[()] = i, low - u[i]
            reach += shift
            np.less(reach, key, out=better)
            np.copyto(key, reach, where=better)
            np.copyto(pred, row, where=better)
            j = int(key.argmin())
            low = key.item(j)
            key[j], search_base[j] = _SETTLED, 2 * _SETTLED
            settled.append(j)
            dist.append(low)
            i = row_of[j]
            if i < 0:
                break
        # v falls by each settled column's slack low - dist, so base rises by
        # it, and so does the dual u of the row that holds the column
        slack = [low - d for d in dist]
        base[settled] += slack
        for col, gain in zip(settled, slack):
            if row_of[col] >= 0:
                u[row_of[col]] += gain
        u[start] += low
        while True:  # flip the path back from the free column j to ``start``
            i = pred.item(j)
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
    # a copy unless the table is an R x L array's transpose, as pair_cost_table's is
    assign = owner[_assign(np.ascontiguousarray(inst.cost.T), owner, offset)]
    weight = int(inst.cost[assign, np.arange(R)].sum())
    return BMatching(assign, weight)

