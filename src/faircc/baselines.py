"""Comparison algorithms: plain pivot clustering, matching-components,
unit-weight matching pipeline, and greedy fairness repair of an unfair
clustering.

The repair (``ccmerge``) edits one per-vertex label array in which -1 marks
the pool of removed vertices. A pooled base vertex that no fair group can
be formed around joins the cluster with the most positive edges to it,
which is always able to take it.
"""

from __future__ import annotations

import numpy as np

from .errors import InfeasibleSpecError, InvalidInputError
from .model import (
    Clustering,
    ColorAssignment,
    FairnessSpec,
    SignedCompleteGraph,
    check_fairness,
    check_spec,
)
from .pivot import PivotRun, best_of_restarts


def run_cc(
    g: SignedCompleteGraph, pivot: PivotRun = PivotRun(), scored=None, window=None
) -> Clustering:
    """Unconstrained best-of-restarts pivot clustering, the ``cc`` baseline
    and, on the base color's graph, faircc's second stage. ``scored`` is the
    graph's pool of scored restarts and ``window`` the seeds its first pass
    runs, as in ``best_of_restarts``."""
    return best_of_restarts(g, pivot, scored, window)


def run_wmatch(fairlets) -> Clustering:
    """Each fairlet (matching component) becomes its own cluster; the
    result needs no seed. ``fairlets`` are
    build_matchings(g, colors, spec)[0]."""
    return Clustering.from_labels(fairlets)


def run_ccmerge(
    g: SignedCompleteGraph,
    colors: ColorAssignment,
    spec: FairnessSpec,
    clustering: Clustering,
) -> Clustering:
    """Greedy fairness repair of an unconstrained ``clustering``, in the
    baseline usually run_cc(g, pivot).

    Every unfair cluster keeps its largest run of minimal fair groups (one
    base vertex plus p_c of each color c, members ranked by positive degree
    inside the cluster) and pools the rest. The clusters, renumbered largest
    first, each take one minimal fair group from the pool, chosen to
    maximize positive edges into the cluster. Pooled base vertices then
    form new groups while the pool holds one, or else join the friendliest
    cluster, whose raised lower bounds are met from the pool and then from
    the other clusters' surplus. Leftover slack vertices go to the
    friendliest cluster whose upper bound still has room. Every rank and
    choice breaks ties toward the smaller id.
    """
    check_spec(colors, spec)
    if clustering.n != g.n:
        raise InvalidInputError("clustering length does not match graph")
    pos = g.signs > 0
    color = colors.color_of
    base, k = spec.base_color, colors.num_colors
    non_base = sorted(spec.bounds)
    # the fewest vertices of each color per base vertex
    least = np.array([spec.bounds.get(c, (1, 1))[0] for c in range(k)])
    label = clustering.cluster_of.copy()  # -1: pooled

    def ranked(vertices, anchor):
        """``vertices`` by positive degree into ``anchor``, highest first,
        ties to the smaller id."""
        deg = pos[np.ix_(vertices, anchor)].sum(1)
        return vertices[np.lexsort((vertices, -deg))]

    def members(cluster, c):
        return np.flatnonzero((label == cluster) & (color == c))

    def counts():
        """Color counts of the pool, then of every cluster."""
        rows = label.max() + 2
        return np.bincount((label + 1) * k + color, minlength=rows * k).reshape(rows, k)

    def friendliness(v):
        """Positive edges from ``v`` into every cluster."""
        placed = label >= 0
        return np.bincount(label[placed], pos[v, placed], minlength=label.max() + 1)

    def add_group(cluster):
        """Move one minimal fair group from the pool into ``cluster`` and
        say whether the pool held one. Each color is ranked against the
        cluster's members, or in a new cluster against the group so far,
        which so starts from the smallest pooled base vertex."""
        if (counts()[0] < least).any():
            return False
        anchor = np.flatnonzero(label == cluster)
        grows = not anchor.size
        for c in [base] + non_base:
            label[ranked(members(-1, c), anchor)[: least[c]]] = cluster
            if grows:
                anchor = np.flatnonzero(label == cluster)
        return True

    def place_base(v):
        """Host pooled base vertex ``v`` in the friendliest cluster and meet
        the host's raised lower bounds from the pool, then from the other
        clusters' surplus, friendliest first. Every cluster meets its lower
        bounds and check_spec gave N_c >= p_c * B, so the pool and that
        surplus hold at least p_c * (pooled bases + host bases) minus the
        host's count of c: all the host needs."""
        order = np.argsort(-friendliness(v), kind="stable")
        host = order[0]
        anchor = np.flatnonzero(label == host)
        cnt = counts()
        surplus = cnt - cnt[:, [base]] * least
        surplus[0] = cnt[0]  # the pool gives all it holds
        for c in non_base:
            need = least[c] - surplus[host + 1, c]
            for donor in [-1, *order[1:]]:
                if need <= 0:
                    break
                take = ranked(members(donor, c), anchor)[: min(surplus[donor + 1, c], need)]
                label[take] = host
                need -= len(take)
            if need > 0:
                raise InfeasibleSpecError("cannot place a base vertex fairly")
        label[v] = host

    report = check_fairness(colors, clustering, spec)
    for cluster in np.flatnonzero(~report.cluster_pass):
        inside = np.flatnonzero(label == cluster)
        groups = (report.cluster_color_counts[cluster] // least).min()
        for c in range(k):
            label[ranked(inside[color[inside] == c], inside)[groups * least[c] :]] = -1
    # renumber the kept clusters largest first, ties by smallest member
    placed = label >= 0
    ids, first, sizes = np.unique(label[placed], return_index=True, return_counts=True)
    rank = np.empty(clustering.num_clusters, np.int64)
    rank[ids[np.lexsort((first, -sizes))]] = np.arange(len(ids))
    label[placed] = rank[label[placed]]

    for cluster in range(len(ids)):
        add_group(cluster)
    while (pooled := members(-1, base)).size:
        if not add_group(label.max() + 1):
            place_base(pooled[0])
    # interval slack: leftover non-base vertices go to clusters with room
    for c in non_base:
        q = spec.bounds[c][1]
        for v in members(-1, c):
            cnt = counts()[1:]
            room = cnt[:, c] < cnt[:, base] * q
            if not room.any():
                raise InfeasibleSpecError(f"no cluster can absorb leftover color {c}")
            label[v] = np.argmax(np.where(room, friendliness(v), -1))
    return Clustering.from_labels(label)
