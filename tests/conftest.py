"""Shared helpers: random instance generation and independent brute-force
oracles used to freeze expected values."""

import itertools
import random

import numpy as np
import pytest

from faircc import (
    Clustering,
    ColorAssignment,
    InfeasibleSpecError,
    InvalidInputError,
    OracleLimitError,
    SignedCompleteGraph,
)
from faircc.bmatching import _UNREACHED, BMatching, BMatchingInstance, solve
from faircc.fair_clustering import build_matchings, pair_cost_table
from faircc.ingest import color_ids
from faircc.model import check_spec


def random_graph(n, seed, neg_prob=0.5):
    rng = random.Random(seed)
    signs = np.ones((n, n), dtype=np.int8)
    for u in range(n):
        for v in range(u + 1, n):
            signs[u, v] = signs[v, u] = -1 if rng.random() < neg_prob else 1
    np.fill_diagonal(signs, 0)
    return SignedCompleteGraph(n, signs)


def random_colors(counts, seed):
    rng = random.Random(seed)
    color_of = [c for c, k in enumerate(counts) for _ in range(k)]
    rng.shuffle(color_of)
    return ColorAssignment(color_of)


def fairlets_of(g, colors, spec, unit_costs=False):
    """Fairlet ids from the seed-free stage."""
    return build_matchings(g, colors, spec, unit_costs)[0]


def reference_fairlets(g, colors, spec, unit_costs=False):
    """The reference for ``build_matchings``: the fairlet ids and matching
    weights as two stages built them, first one (BMatching, base vertex
    ids, color vertex ids) triple per non-base color, then the ids from the
    triples."""
    check_spec(colors, spec)
    lefts = colors.vertices_of(spec.base_color)
    matchings = {}
    for color, (p, q) in sorted(spec.bounds.items()):
        rights = colors.vertices_of(color)
        if unit_costs:  # a read-only constant view, which the instance keeps
            table = np.broadcast_to(np.int64(1), (len(lefts), len(rights)))
        else:
            table = pair_cost_table(g, lefts, rights)
        inst = BMatchingInstance(table, (p,) * len(lefts), (q,) * len(lefts))
        matchings[color] = (solve(inst), lefts, rights)
    # check_spec has made the base and the matched colors cover every vertex
    fairlets = np.empty(colors.n, np.int64)
    fairlets[lefts] = np.arange(len(lefts))
    for matching, _, rights in matchings.values():
        fairlets[rights] = matching.assign
    fairlets.setflags(write=False)
    return fairlets, {color: matching.weight for color, (matching, _, _) in matchings.items()}


def pair_cost(g, u, v):
    """Disagreement increase from forcing u and v into one cluster, counted
    pair by pair: the reference for ``pair_cost_table``."""
    if u == v:
        raise ValueError("pair cost needs two distinct vertices")
    cost = 1 if g.signs[u, v] < 0 else 0
    for w in range(g.n):
        if w != u and w != v and g.signs[u, w] != g.signs[v, w]:
            cost += 1
    return cost


def all_partitions(n):
    """Every set partition of range(n) as a restricted growth string."""
    assign = [0] * n

    def walk(v, used):
        if v == n:
            yield tuple(assign)
            return
        for b in range(used + 1):
            assign[v] = b
            yield from walk(v + 1, max(used, b + 1))

    yield from walk(0, 0)


def partition_cost(g, assign):
    cost = 0
    for u, v in itertools.combinations(range(g.n), 2):
        same = assign[u] == assign[v]
        sign = g.signs[u, v]
        if (sign < 0 and same) or (sign > 0 and not same):
            cost += 1
    return cost


def is_fair_partition(colors, spec, assign):
    for b in set(assign):
        hist = {}
        for v, bv in enumerate(assign):
            if bv == b:
                c = colors.color_of[v]
                hist[c] = hist.get(c, 0) + 1
        n1 = hist.get(spec.base_color, 0)
        if n1 < 1:
            return False
        for c, (p, q) in spec.bounds.items():
            if not n1 * p <= hist.get(c, 0) <= n1 * q:
                return False
    return True


def brute_opt(g):
    return min(partition_cost(g, a) for a in all_partitions(g.n))


def brute_opt_fair(g, colors, spec):
    costs = [
        partition_cost(g, a)
        for a in all_partitions(g.n)
        if is_fair_partition(colors, spec, a)
    ]
    return min(costs) if costs else None


@pytest.fixture
def rng():
    return random.Random(0)


# The sign checks of the graph constructor before they read the values as
# given: a cast to int8 first, then a compare with the cast for any other
# dtype, and a str/bytes rule because the cast parses '1'.


def reference_graph_error(n, signs):
    """The message the cast-first checks gave for an n x n sign matrix
    (n >= 1), or None when they accepted it."""
    given = np.asarray(signs)
    if given.shape != (n, n):
        return f"sign matrix must be {n}x{n}"
    if given.dtype.kind in "US":
        kind = "str" if given.dtype.kind == "U" else "bytes"
        return f"sign matrix must hold numbers, not {kind}"
    with np.errstate(invalid="ignore"):  # NaN and inf are caught below
        s = given.astype(np.int8, copy=False)
    if s is not given:  # the cast wraps 257 to 1 and truncates 1.5 to 1
        changed = s != given
        if changed.diagonal().any():
            return "self-pairs must carry no sign"
        if changed.any():
            return "every distinct pair needs a +/-1 sign"
    if not np.array_equal(s, s.T):
        return "sign matrix must be symmetric"
    if np.any(np.diag(s) != 0):
        return "self-pairs must carry no sign"
    if np.count_nonzero(s == -1) + np.count_nonzero(s == 1) != n * (n - 1):
        return "every distinct pair needs a +/-1 sign"
    return None


# The objective and the pivot before the packed scoring and the lockstep
# pass: one n x n compare per clustering, one pass per seed.


def reference_disagreements(g, c):
    """Pairs whose "same cluster" differs from "positive", from one n x n
    compare; each diagonal entry (same, not positive) adds one, each pair
    two."""
    mismatched = np.count_nonzero((c.cluster_of[:, None] == c.cluster_of) != (g.signs > 0))
    return int(mismatched - g.n) // 2


def reference_pivot_cluster(g, seed):
    """One pivot pass; the cluster id of every vertex, ids assigned in
    order of cluster creation."""
    rng = random.Random(seed)
    label = np.empty(g.n, np.int64)
    remaining = np.arange(g.n)
    next_id = 0
    while len(remaining):
        pivot = remaining[rng.randrange(len(remaining))]
        joined = g.signs[pivot, remaining] >= 0
        label[remaining[joined]] = next_id
        next_id += 1
        remaining = remaining[~joined]
    return label


def reference_best_of_restarts(g, run):
    """The clustering of seeds run.seed .. run.seed+run.restarts-1 with the
    fewest disagreements, the earliest seed on ties, renumbered by first
    appearance."""
    restarts = (Clustering(reference_pivot_cluster(g, run.seed + k)) for k in range(run.restarts))
    best = min(restarts, key=lambda c: reference_disagreements(g, c))
    return Clustering.from_labels(best.cluster_of)


# The dataset-to-graph step before it summed first-appearance codes into one
# similarity matrix: one object-array compare per categorical column, an
# all-ones matrix for a constant numeric column, and the checked constructor.


def reference_similarities(ds):
    """The n x n mean similarity of ``ds``'s rows as the object-compare
    ``build_graph`` summed it, for two or more rows and a feature column."""
    features = ds.schema.feature_columns()
    n = ds.n
    sims = np.zeros((n, n))
    for name, kind in features:
        if kind == "categorical":
            vals = np.array([row[name] for row in ds.rows], dtype=object)
            col_sim = (vals[:, None] == vals[None, :]).astype(float)
        else:
            vals = np.array([row[name] for row in ds.rows], dtype=float)
            lo, hi = vals.min(), vals.max()
            if hi > lo:
                norm = (vals - lo) / (hi - lo)
                col_sim = 1.0 - np.abs(norm[:, None] - norm[None, :])
            else:
                col_sim = np.ones((n, n))  # constant column
        sims += col_sim
    sims /= len(features)
    return sims


def reference_build_graph(ds, tau=0.5, ids=None):
    """(graph, colors) of ``ds`` as the object-compare ``build_graph``
    built them from ``reference_similarities``, through the checked
    constructor."""
    signs = np.where(reference_similarities(ds) >= tau, 1, -1).astype(np.int8)
    np.fill_diagonal(signs, 0)
    g = SignedCompleteGraph(ds.n, signs)
    ids = color_ids(ds) if ids is None else ids
    return g, ColorAssignment([ids[v] for v in ds.protected_values()])


# Tuple-based references for the per-vertex model: the validation, label
# canonicalization and fairness counting the model did with Python loops
# before its fields became int64 arrays.


def reference_color_assignment(color_of):
    """(color ids, counts) as tuples, or the error, of the tuple-based
    ColorAssignment."""
    colors = tuple(int(c) for c in color_of)
    if not colors:
        raise InvalidInputError("empty color assignment")
    k = max(colors) + 1
    if min(colors) < 0:
        raise InvalidInputError("color ids must be nonnegative")
    if k > len(colors):
        raise InvalidInputError(f"color id {k - 1} is not below n={len(colors)}")
    counts = [0] * k
    for c in colors:
        counts[c] += 1
    if any(cnt == 0 for cnt in counts):
        raise InvalidInputError("color ids must form a contiguous range")
    return colors, tuple(counts)


def reference_clustering(cluster_of):
    """Cluster ids as a tuple, or the error, of the tuple-based Clustering."""
    ids = tuple(map(int, cluster_of))
    if not ids:
        raise InvalidInputError("empty clustering")
    used = set(ids)
    if used != set(range(len(used))):
        raise InvalidInputError("cluster ids must be contiguous from 0")
    return ids


def reference_labels(labels):
    """Ids in order of first appearance, through a dict."""
    remap = {}
    return [remap.setdefault(lab, len(remap)) for lab in labels]


def reference_color_counts(color_of, cluster_of):
    """{color: count} of every cluster, indexed by cluster id."""
    counts = [{} for _ in range(max(cluster_of) + 1)]
    for cluster, color in zip(cluster_of, color_of):
        hist = counts[cluster]
        hist[color] = hist.get(color, 0) + 1
    return counts


def reference_fairness(color_of, cluster_of, spec):
    """(histograms, verdicts) of every cluster: n1 >= 1 base vertices and
    n1*p <= n_i <= n1*q for every bounded color i, a missing color
    counting 0."""
    counts = reference_color_counts(color_of, cluster_of)
    verdicts = []
    for hist in counts:
        n1 = hist.get(spec.base_color, 0)
        verdicts.append(
            n1 >= 1
            and all(n1 * p <= hist.get(i, 0) <= n1 * q for i, (p, q) in spec.bounds.items())
        )
    return counts, verdicts


def reference_violations(counts, verdicts, limit=3):
    """describe_violations text of the tuple-based FairnessReport."""
    bad = [i for i, ok in enumerate(verdicts) if not ok]
    text = "; ".join(f"cluster {i} {dict(sorted(counts[i].items()))}" for i in bad[:limit])
    if len(bad) > limit:
        text += f"; and {len(bad) - limit} more"
    return text


def reference_color_distribution(color_of, cluster_of):
    """Histograms, largest cluster first, ties to the smallest vertex."""
    counts = reference_color_counts(color_of, cluster_of)
    smallest = {}
    for v, cluster in enumerate(cluster_of):
        smallest.setdefault(cluster, v)
    order = sorted(range(len(counts)), key=lambda i: (-sum(counts[i].values()), smallest[i]))
    return [counts[i] for i in order]


# The oracle's search before it pruned by fairness feasibility and by a
# cost-to-go bound: it checks fairness at the leaves only and prunes on the
# cost so far.
def reference_best_partition(g, colors=None, spec=None):
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


# The matcher before it answered constant cost tables without a search and
# before its Dijkstra step reused its buffers.
def _reference_assign(rows, owner, offset):
    """Column of each row in a minimum-cost assignment of every row to a
    distinct column, where column j of row i costs
    ``rows[i, owner[j]] + offset[j]`` (n rows, m >= n columns, int64)."""
    n, m = len(rows), len(owner)
    u = np.zeros(n, np.int64)
    v = np.zeros(m, np.int64)
    row_of = np.full(m, -1)
    col_of = np.full(n, -1)
    for start in range(n):
        dist = np.full(m, _UNREACHED)
        pred = np.empty(m, np.int64)
        done = np.zeros(m, bool)
        base = offset - v
        i, low = start, 0
        while True:  # Dijkstra from ``start`` until it reaches a free column
            reach = rows[i].take(owner)
            reach += base
            reach += low - u[i]
            better = reach < dist
            better &= ~done
            np.copyto(dist, reach, where=better)
            np.copyto(pred, i, where=better)
            j = int(np.argmin(np.where(done, _UNREACHED, dist)))
            low = int(dist[j])
            done[j] = True
            if row_of[j] < 0:
                break
            i = row_of[j]
        cols = np.flatnonzero(done)
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


def reference_solve(inst):
    """Feasible matching of exactly minimum total cost, always by search."""
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
    assign = owner[_reference_assign(np.ascontiguousarray(inst.cost.T), owner, offset)]
    weight = int(inst.cost[assign, np.arange(R)].sum())
    return BMatching(assign, weight)


_MAX_R = 8  # opt_bmatching's cap on the right side


def opt_bmatching(inst):
    """Exhaustive minimum over all right-to-left assignments meeting the
    degree intervals. Independent verifier for ``solve``; it
    takes at most _MAX_R right nodes and raises OracleLimitError above."""
    L, R = inst.left_size, inst.right_size
    if R > _MAX_R:
        raise OracleLimitError(f"R={R} exceeds oracle limit {_MAX_R}")
    cost = inst.cost.tolist()
    best = None
    assign = [0] * R
    deg = [0] * L

    def remaining_need():
        return sum(max(inst.degree_lo[l] - deg[l], 0) for l in range(L))

    def walk(r, weight):
        nonlocal best
        if r == R:
            if all(deg[l] >= inst.degree_lo[l] for l in range(L)):
                if best is None or weight < best[0]:
                    best = (weight, tuple(assign))
            return
        if remaining_need() > R - r:
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
    return BMatching(best[1], best[0])
