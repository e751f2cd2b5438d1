import hashlib
import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from faircc import (
    BMatchingInstance,
    InfeasibleSpecError,
    InvalidInputError,
    bmatching,
    solve,
)
from faircc.fair_clustering import pair_cost_table
from conftest import opt_bmatching, random_graph, reference_solve

# sha256 of solve's assignments on pinned_instances() and their weights
PINNED_DIGEST = "b0359e94f7c968b37cf7845caaca22f09c519e2d8c3ed47791f7606ebb0a6e5c"


def enumerate_optimum(cost, lo, hi):
    """Test-side exhaustive oracle over all right-to-left assignments."""
    L, R = len(cost), len(cost[0])
    best = None
    for assign in itertools.product(range(L), repeat=R):
        deg = [0] * L
        for l in assign:
            deg[l] += 1
        if any(not lo[l] <= deg[l] <= hi[l] for l in range(L)):
            continue
        w = sum(cost[l][r] for r, l in enumerate(assign))
        if best is None or w < best:
            best = w
    return best


def test_zero_cost_perfect_matching():
    got = solve(BMatchingInstance([[0, 9], [9, 0]], [1, 1], [1, 1]))
    assert got.assign.tolist() == [0, 1]
    assert got.weight == 0


def test_forced_single_left():
    got = solve(BMatchingInstance([[3, 4]], [2], [2]))
    assert got.weight == 7


def test_random_intervals_match_enumeration():
    rng = random.Random(4)
    for _ in range(40):
        L, R = 3, 7
        cost = [[rng.randrange(10) for _ in range(R)] for _ in range(L)]
        inst = BMatchingInstance(cost, [1] * L, [3] * L)
        assert solve(inst).weight == enumerate_optimum(cost, [1] * L, [3] * L)


def exact_degree(cost, p):
    return BMatchingInstance(cost, (p,) * len(cost), (p,) * len(cost))


def test_exact_degree_wrapper():
    assert solve(exact_degree([[0]], 1)).weight == 0
    assert solve(exact_degree([[1, 1, 5, 5], [5, 5, 1, 1]], 2)).weight == 4
    with pytest.raises(InfeasibleSpecError):
        solve(exact_degree([[1, 2, 3]], 2))  # R != p*L


def test_exact_degree_random_matches_enumeration():
    rng = random.Random(8)
    for _ in range(20):
        cost = [[rng.randrange(10) for _ in range(6)] for _ in range(3)]
        got = solve(exact_degree(cost, 2))
        assert got.weight == enumerate_optimum(cost, [2] * 3, [2] * 3)


def test_solver_equals_package_oracle_with_loose_intervals():
    rng = random.Random(12)
    checked = 0
    while checked < 200:
        L = rng.randrange(1, 5)
        R = rng.randrange(1, 9)
        cost = [[rng.randrange(10) for _ in range(R)] for _ in range(L)]
        lo = [rng.randrange(0, 3) for _ in range(L)]
        hi = [l + rng.randrange(0, 4) for l in lo]
        if not sum(lo) <= R <= sum(hi):
            continue
        inst = BMatchingInstance(cost, lo, hi)
        try:
            got = solve(inst)
        except InfeasibleSpecError:
            with pytest.raises(InfeasibleSpecError):
                opt_bmatching(inst)
            continue
        assert got.weight == opt_bmatching(inst).weight
        deg = np.bincount(got.assign, minlength=L)
        assert all(lo[l] <= deg[l] <= hi[l] for l in range(L))
        assert got.weight == sum(cost[l][r] for r, l in enumerate(got.assign))
        checked += 1


def test_constant_shift_moves_weight_by_delta_times_r():
    rng = random.Random(3)
    cost = [[rng.randrange(10) for _ in range(6)] for _ in range(3)]
    base = solve(BMatchingInstance(cost, [1] * 3, [3] * 3))
    shifted = [[c + 5 for c in row] for row in cost]
    got = solve(BMatchingInstance(shifted, [1] * 3, [3] * 3))
    assert got.weight == base.weight + 5 * 6


def test_relaxed_interval_never_costs_more():
    rng = random.Random(6)
    for _ in range(20):
        cost = [[rng.randrange(10) for _ in range(6)] for _ in range(3)]
        exact = solve(BMatchingInstance(cost, [2] * 3, [2] * 3))
        relaxed = solve(BMatchingInstance(cost, [1] * 3, [4] * 3))
        assert relaxed.weight <= exact.weight


def test_validation():
    with pytest.raises(InvalidInputError):
        BMatchingInstance([[1, -2]], [1], [1])
    with pytest.raises(InvalidInputError):
        BMatchingInstance([[1], [2]], [2, 1], [1, 1])
    with pytest.raises(InfeasibleSpecError):
        solve(BMatchingInstance([[1, 2, 3]], [0], [2]))  # sum hi < R


@st.composite
def feasible_instances(draw):
    L = draw(st.integers(1, 4))
    R = draw(st.integers(1, 8))
    cost = draw(
        st.lists(
            st.lists(st.integers(0, 30), min_size=R, max_size=R), min_size=L, max_size=L
        )
    )
    lo = draw(st.lists(st.integers(0, 3), min_size=L, max_size=L))
    hi = [l + draw(st.integers(0, 4)) for l in lo]
    assume(sum(lo) <= R <= sum(hi))
    return cost, lo, hi


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(feasible_instances())
def test_solver_property_against_enumeration(case):
    cost, lo, hi = case
    inst = BMatchingInstance(cost, lo, hi)
    got = solve(inst)
    assert got.weight == opt_bmatching(inst).weight
    deg = np.bincount(got.assign, minlength=len(cost))
    assert all(lo[l] <= deg[l] <= hi[l] for l in range(len(cost)))
    assert got.weight == sum(cost[l][r] for r, l in enumerate(got.assign))
    assert got.assign.dtype == np.int64 and not got.assign.flags.writeable
    assert isinstance(got.weight, int)


def test_instance_holds_read_only_int64_table():
    source = np.array([[1, 2], [3, 4]])
    inst = BMatchingInstance(source, [1, 1], [1, 1])
    assert inst.cost.dtype == np.int64 and not inst.cost.flags.writeable
    assert (inst.left_size, inst.right_size) == (2, 2)
    source[0, 0] = 99  # the instance keeps its own copy
    assert inst.cost[0, 0] == 1
    with pytest.raises(InvalidInputError):
        BMatchingInstance([[1, 2], [3]], [1, 1], [1, 1])  # ragged
    with pytest.raises(InvalidInputError):
        BMatchingInstance([[]], [0], [0])


def test_instance_keeps_a_read_only_int64_input():
    source = np.arange(6, dtype=np.int64).reshape(2, 3)
    source.setflags(write=False)
    assert BMatchingInstance(source, [0, 1], [3, 3]).cost is source
    ones = np.broadcast_to(np.int64(1), (400, 500))  # one element, 200,000 cells
    inst = BMatchingInstance(ones, [1] * 400, [2] * 400)
    assert inst.cost is ones and inst.cost.shape == (400, 500)
    assert solve(inst).weight == 500
    # a read-only table of another dtype is still converted
    small = np.array([[1, 2]], np.int32)
    small.setflags(write=False)
    assert BMatchingInstance(small, [2], [2]).cost.dtype == np.int64
    with pytest.raises(InvalidInputError):
        BMatchingInstance(np.broadcast_to(np.int64(-1), (2, 2)), [1, 1], [1, 1])


@pytest.mark.parametrize(
    "cost,lo,hi,message",
    [
        ([[1.5, 2]], [1], [2], "cost table must hold integers"),
        ([["1", "2"]], [1], [2], "cost table must hold numbers, not str"),
        ([[float("nan"), 1]], [1], [2], "cost table must hold finite numbers"),
        ([[1, float("inf")]], [1], [2], "cost table must hold finite numbers"),
        ([[2**63, 1]], [1], [2], "cost table must hold integers within int64"),
        ([[2**64]], [1], [1], "cost table must hold numbers, not object"),
        ([[1, 2]], (1.7,), (2,), "degree bounds must be integers, got 1.7"),
        ([[1, 2]], (1,), (2.9,), "degree bounds must be integers, got 2.9"),
        ([[1, 2]], ("1",), (2,), "degree bounds must be integers, got '1'"),
        ([[1, 2]], (1,), (float("nan"),), "degree bounds must be integers, got nan"),
        ([[1, 2], [3]], [1, 1], [1, 1], "cost table must be a rectangular array"),
    ],
    ids=[
        "cost-half", "cost-str", "cost-nan", "cost-inf", "cost-uint64", "cost-beyond-uint64",
        "lo-float", "hi-float", "lo-str", "hi-nan", "cost-ragged",
    ],
)
def test_inputs_the_cast_would_change_are_rejected(cost, lo, hi, message):
    """A cost or a degree bound that an int cast would truncate, parse or
    wrap is invalid input, named by its fault, before any cast."""
    with pytest.raises(InvalidInputError) as info:
        BMatchingInstance(cost, lo, hi)
    assert str(info.value) == message


def test_integral_costs_and_bounds_of_any_number_type_are_taken():
    inst = BMatchingInstance(np.array([[1.0, 2.0]]), [np.int32(1)], [np.int64(2)])
    assert inst.cost.dtype == np.int64 and inst.cost.tolist() == [[1, 2]]
    assert inst.degree_lo == (1,) and inst.degree_hi == (2,)
    assert all(type(x) is int for x in inst.degree_lo + inst.degree_hi)


def test_loose_upper_bounds_are_clamped():
    # a degree bound far above R must neither change the optimum nor be
    # expanded into that many slot columns
    rng = random.Random(21)
    for _ in range(30):
        L, R = rng.randrange(1, 4), rng.randrange(1, 8)
        cost = [[rng.randrange(20) for _ in range(R)] for _ in range(L)]
        lo = [rng.randrange(0, 2) for _ in range(L)]
        if sum(lo) > R:
            continue
        inst = BMatchingInstance(cost, lo, [10**9] * L)
        got = solve(inst)
        assert got.weight == opt_bmatching(inst).weight
        assert all(lo[l] <= d for l, d in enumerate(np.bincount(got.assign, minlength=L)))
    wide = np.arange(60 * 200).reshape(60, 200) % 97
    got = solve(BMatchingInstance(wide, [1] * 60, [10**30] * 60))
    assert sorted(set(got.assign)) == list(range(60))


def test_costs_that_could_overflow_int64_are_rejected():
    with pytest.raises(InvalidInputError):
        BMatchingInstance([[2**64]], [1], [1])  # not an int64
    with pytest.raises(InvalidInputError):
        BMatchingInstance([[2**62, 2**62]], [2], [2])  # sum wraps in int64
    with pytest.raises(InvalidInputError):
        BMatchingInstance([[2**58] * 8], [8], [8])  # sum * (R + 1) too large
    assert solve(BMatchingInstance([[2**50, 1], [1, 2**50]], [1, 1], [1, 1])).weight == 2
    # just inside the limit the int64 solver is still exact
    rng = random.Random(17)
    for _ in range(40):
        L, R = rng.randrange(1, 4), rng.randrange(1, 8)
        lo = [rng.randrange(0, 2) for _ in range(L)]
        hi = [l + rng.randrange(0, 4) for l in lo]
        if not sum(lo) <= R <= sum(hi):
            continue
        top = (2**56 // (R + 1) - 1) // (L * R) - 1
        cost = [[rng.choice([0, top, rng.randrange(top)]) for _ in range(R)] for _ in range(L)]
        inst = BMatchingInstance(cost, lo, hi)
        assert solve(inst).weight == opt_bmatching(inst).weight
    # with mandatory slots and spare ones, the -M shift applies, so a bid
    # between a mandatory and an optional slot moves a dual by about M
    checked = 0
    while checked < 40:
        L, R = rng.randrange(1, 4), rng.randrange(2, 9)
        lo = [rng.randrange(1, 3) for _ in range(L)]
        hi = [l + rng.randrange(1, 4) for l in lo]
        if not sum(lo) < R < sum(hi):
            continue
        top = (2**56 // (R + 1) - 1) // (L * R) - 1
        cost = [[rng.choice([0, top, rng.randrange(top)]) for _ in range(R)] for _ in range(L)]
        inst = BMatchingInstance(cost, lo, hi)
        got = solve(inst)
        assert got.weight == opt_bmatching(inst).weight
        assert (np.bincount(got.assign, minlength=L) >= lo).all()
        checked += 1


@st.composite
def interval_instances(draw):
    """Random or constant tables under uniform or per-node degree intervals,
    some with every clamped slot filled (so the -M shift is skipped)."""
    L = draw(st.integers(1, 6))
    if draw(st.booleans()):
        lo = draw(st.lists(st.integers(0, 3), min_size=L, max_size=L))
        hi = [l + draw(st.integers(0, 3)) for l in lo]
    else:
        p = draw(st.integers(0, 3))
        lo, hi = [p] * L, [p + draw(st.integers(0, 3))] * L
    shape = draw(st.sampled_from(["tight", "interval", "loose"]))
    if shape == "tight":
        R = sum(hi)
    elif shape == "interval":
        R = draw(st.integers(sum(lo), max(sum(lo), sum(hi))))
    else:
        R = draw(st.integers(sum(lo), sum(lo) + 8))
        hi = [10**9] * L
    assume(R >= 1 and sum(lo) <= R <= sum(hi))
    constant = draw(st.sampled_from([None, 0, 1, 7]))
    if constant is None:
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cost = gen.integers(0, draw(st.sampled_from([2, 5, 30])), (L, R))
    else:
        cost = np.full((L, R), constant)
    return cost, lo, hi


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(interval_instances())
def test_solve_matches_reference_weight(case):
    # the row reduction may pick another optimum than the search alone, so
    # the reference pins the weight, not the assignment
    cost, lo, hi = case
    inst = BMatchingInstance(cost, lo, hi)
    got = solve(inst)
    assert got.weight == reference_solve(inst).weight
    if inst.right_size <= 8:
        assert got.weight == opt_bmatching(inst).weight
    assert got.assign.shape == (inst.right_size,)
    deg = np.bincount(got.assign, minlength=inst.left_size)
    assert len(deg) == inst.left_size
    assert all(l <= d <= h for l, d, h in zip(lo, deg, hi))
    assert got.weight == int(inst.cost[got.assign, np.arange(inst.right_size)].sum())
    assert solve(inst).assign.tolist() == got.assign.tolist()


@st.composite
def reduction_instances(draw):
    """interval_instances plus the cases the row reduction must treat
    apart: a single slot column, right nodes whose costs are constant in a
    table that is not, and left nodes whose costs are constant."""
    kind = draw(st.sampled_from(["interval", "single", "right", "left"]))
    if kind == "interval":
        return draw(interval_instances())
    if kind == "single":  # one left node with one slot; the others get none
        L = draw(st.integers(2, 5))
        owner = draw(st.integers(0, L - 1))
        cost = draw(st.lists(st.integers(0, 30), min_size=L, max_size=L, unique=True))
        lo = [int(l == owner and draw(st.booleans())) for l in range(L)]
        hi = [int(l == owner) for l in range(L)]
        return np.array(cost).reshape(L, 1), lo, hi
    L, R = draw(st.integers(1, 5)), draw(st.integers(2, 9))
    lo = draw(st.lists(st.integers(0, 2), min_size=L, max_size=L))
    hi = [l + draw(st.integers(0, 3)) for l in lo]
    assume(sum(lo) <= R <= sum(hi))
    values = np.array(draw(st.lists(st.integers(0, 30), min_size=9, max_size=9)))
    if kind == "right":  # every right node costs the same at every left node
        cost = np.tile(values[:R], (L, 1))
    else:  # every left node costs the same for every right node
        cost = np.tile(values[:L, None], (1, R))
    assume(cost.min() < cost.max())
    return cost, lo, hi


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(reduction_instances())
def test_row_reduction_leaves_duals_the_search_can_use(case):
    seen = []
    reduce_rows = bmatching._reduce_rows

    def spy(rows, owner, offset):
        v, col_of, row_of, free = reduce_rows(rows, owner, offset)
        # copies: the search goes on to change these arrays in place
        seen.append((rows, owner, offset, v.copy(), col_of.copy(), row_of.copy(), list(free)))
        return v, col_of, row_of, free

    cost, lo, hi = case
    inst = BMatchingInstance(cost, lo, hi)
    with mock.patch.object(bmatching, "_reduce_rows", spy):
        got = solve(inst)
    assert got.weight == reference_solve(inst).weight
    if not seen:  # a constant table
        assert inst.cost.min() == inst.cost.max()
        return
    [(rows, owner, offset, v, col_of, row_of, free)] = seen
    held = np.flatnonzero(col_of >= 0)
    assert sorted(free) == np.flatnonzero(col_of < 0).tolist()
    assert (row_of[col_of[held]] == held).all()
    assert (row_of >= 0).sum() == len(held)
    # only held columns lost v, so free columns keep v = 0 ...
    assert (v <= 0).all() and (v[row_of < 0] == 0).all()
    # ... every held column is its row's cheapest at reduced cost cost - v ...
    reduced = rows[:, owner] + offset - v
    assert (reduced[held, col_of[held]] == reduced[held].min(axis=1)).all()
    # ... and v stays inside the bound that keeps int64 exact
    M = int(inst.cost.sum()) + 1
    assert v.min() > -8 * len(rows) * M


def test_single_slot_column_has_no_second_price():
    # R = 1 with one slot: a bid has no second-cheapest column to rise to
    got = solve(BMatchingInstance([[5], [2], [9]], [0, 0, 0], [1, 0, 0]))
    assert got.assign.tolist() == [0] and got.weight == 5
    got = solve(BMatchingInstance([[5], [2], [9]], [0, 1, 0], [0, 1, 0]))
    assert got.assign.tolist() == [1] and got.weight == 2
    v, col_of, row_of, free = bmatching._reduce_rows(
        np.array([[5, 2, 9]]), np.array([0]), np.zeros(1, np.int64)
    )
    assert v.tolist() == [0] and col_of.tolist() == [0] and row_of.tolist() == [0]
    assert free == []


def test_constant_rows_in_a_varied_table():
    # right node r costs r everywhere: every assignment ties, so every bid
    # is a tie; left node l costing l everywhere makes only degrees matter
    R = 12
    by_right = np.tile(np.arange(R), (4, 1))
    got = solve(BMatchingInstance(by_right, [1] * 4, [5] * 4))
    assert got.weight == sum(range(R))
    assert (np.bincount(got.assign, minlength=4) >= 1).all()
    by_left = np.tile(np.arange(4)[:, None], (1, R))
    got = solve(BMatchingInstance(by_left, [1] * 4, [5] * 4))
    assert np.bincount(got.assign, minlength=4).tolist() == [5, 5, 1, 1]
    assert got.weight == 0 * 5 + 1 * 5 + 2 + 3


def test_mandatory_slots_are_filled_before_cheaper_optional_ones():
    # node 1 must take two right nodes although node 0 is cheaper for all:
    # the -M shift on node 1's mandatory slots outbids node 0's spare slots
    cost = [[0] * 6, [9] * 6]
    got = solve(BMatchingInstance(cost, [1, 2], [6, 6]))
    assert np.bincount(got.assign, minlength=2).tolist() == [4, 2]
    assert got.weight == 18


def test_constant_table_skips_the_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("a constant table needs no search")

    monkeypatch.setattr("faircc.bmatching._assign", no_search)
    got = solve(BMatchingInstance(np.ones((300, 600), np.int64), [1] * 300, [3] * 300))
    # every node's mandatory slot in node order, then the optional slots in
    # slot order: nodes 0..149 take their two optional slots each
    deal = list(range(300)) + [l for l in range(150) for _ in range(2)]
    assert got.assign.tolist() == deal
    assert got.weight == 600


def pinned_instances():
    """30 seeded instances that reach both phases of the solver:
    1:1 pair-cost and few-valued tables that leave rows free after the row
    reduction, 1..2 and per-node intervals under the -M shift, exact 1:2
    tables, and costs near the int64 limit."""
    rng = np.random.default_rng(2024)
    insts = []
    for n in (20, 40, 60, 80):  # pair costs of a random 1:1 graph, as fairlet_n400's
        g = random_graph(2 * n, seed=n)
        colors = rng.permutation(np.repeat([0, 1], n))
        table = pair_cost_table(g, np.flatnonzero(colors == 0), np.flatnonzero(colors == 1))
        insts.append((table, [1] * n, [1] * n))
    for n, top in ((16, 2), (30, 3), (45, 4), (60, 8)):  # few values: many ties
        insts.append((rng.integers(0, top, (n, n)), [1] * n, [1] * n))
    for L, R, top in (
        (8, 12, 10), (15, 22, 5), (20, 31, 40), (30, 47, 3),
        (40, 70, 100), (12, 23, 2), (25, 26, 20), (35, 60, 9),
    ):
        insts.append((rng.integers(0, top, (L, R)), [1] * L, [2] * L))
    for L, R in ((10, 18), (30, 50)):  # per-node intervals from 0..1 up to 1..3
        lo = rng.integers(0, 2, L)
        cost = rng.integers(0, 30, (L, R))
        insts.append((cost, lo.tolist(), (lo + rng.integers(1, 3, L)).tolist()))
    for L, top in ((6, 10), (15, 4), (20, 50), (30, 3), (40, 12), (24, 2)):
        insts.append((rng.integers(0, top, (L, 2 * L)), [2] * L, [2] * L))
    for L, R, lo, hi in (
        (10, 10, 1, 1), (25, 25, 1, 1), (12, 18, 1, 2),
        (20, 33, 1, 2), (9, 18, 2, 2), (16, 32, 2, 2),
    ):  # costs near the limit, as in test_costs_that_could_overflow_int64_are_rejected
        top = (2**56 // (R + 1) - 1) // (L * R) - 1
        choices = np.array([0, top, top - 1, top // 2])
        near = rng.random((L, R)) < 0.5
        cost = np.where(near, choices[rng.integers(0, 4, (L, R))], rng.integers(0, top, (L, R)))
        insts.append((cost, [lo] * L, [hi] * L))
    return insts


def test_solve_pinned_assignments():
    """The assignment ``solve`` picks among equal optima, not only its
    weight, stays what it was: a rewrite of the solver's loops must keep
    both phases' visit order and tie-breaking. Each weight is also checked
    against the reference solver."""
    freed = []
    reduce_rows = bmatching._reduce_rows

    def spy(rows, owner, offset):
        reduced = reduce_rows(rows, owner, offset)
        freed.append(len(reduced[3]))
        return reduced

    digest = hashlib.sha256()
    weights = []
    with mock.patch.object(bmatching, "_reduce_rows", spy):
        for cost, lo, hi in pinned_instances():
            inst = BMatchingInstance(cost, lo, hi)
            got = solve(inst)
            assert got.weight == reference_solve(inst).weight
            digest.update(got.assign.astype("<i8").tobytes())
            weights.append(got.weight)
    digest.update(repr(weights).encode())
    assert len(weights) == 30 and sum(n > 0 for n in freed) >= 10  # the search runs
    assert digest.hexdigest() == PINNED_DIGEST
