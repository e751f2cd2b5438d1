"""Comparison algorithms: plain pivot clustering, matching-components,
unit-weight matching pipeline, and greedy fairness repair of an unfair
clustering.
"""

from __future__ import annotations

from .errors import InfeasibleSpecError, InvalidInputError
from .fair_clustering import build_fairlets, check_spec, run_pipeline
from .model import (
    Clustering,
    ColorAssignment,
    FairnessSpec,
    SignedCompleteGraph,
)
from .pivot import PivotRun, best_of_restarts


def run_cc(g: SignedCompleteGraph, pivot: PivotRun = PivotRun()) -> Clustering:
    """Unconstrained best-of-restarts pivot clustering; no fairness
    guarantee."""
    return best_of_restarts(g, pivot)


def run_wmatch(
    g: SignedCompleteGraph,
    colors: ColorAssignment,
    spec: FairnessSpec,
    pivot: PivotRun = PivotRun(),
    fairlets=None,
) -> Clustering:
    """Each fairlet (matching component) becomes its own cluster; the
    result needs no seed. ``fairlets`` stands in for
    build_fairlets(g, colors, spec)."""
    if fairlets is None:
        fairlets = build_fairlets(g, colors, spec)
    return Clustering.from_labels(fairlets.tolist())


def run_ufaircc(
    g: SignedCompleteGraph,
    colors: ColorAssignment,
    spec: FairnessSpec,
    pivot: PivotRun = PivotRun(),
    fairlets=None,
) -> Clustering:
    """Fairlet pipeline with every matching cost set to 1. ``fairlets``
    stands in for build_fairlets(g, colors, spec, unit_costs=True)."""
    return run_pipeline(g, colors, spec, pivot, unit_costs=True, fairlets=fairlets)


def _pos_degree_to(g, v, members):
    return sum(1 for u in members if u != v and g.signs[v, u] > 0)


def _ordered_by_pos_degree(g, vertices, members):
    """Highest positive degree into ``members`` first, ties by smaller id."""
    return sorted(vertices, key=lambda v: (-_pos_degree_to(g, v, members), v))


def run_ccmerge(
    g: SignedCompleteGraph,
    colors: ColorAssignment,
    spec: FairnessSpec,
    clustering: Clustering,
) -> Clustering:
    """Greedy fairness repair of an unconstrained ``clustering``, in the
    baseline usually run_cc(g, pivot).

    Clusters are processed in decreasing size; each keeps its largest fair
    sub-multiset (members ranked by positive degree inside the cluster),
    surplus vertices go to a donor pool. Pool vertices are then appended to
    the processed clusters, largest first, in minimal fair groups chosen to
    maximize positive edges into the target; leftover groups become new
    clusters and any remaining slack vertices go wherever the interval
    constraint still has room.
    """
    check_spec(colors, spec)
    if clustering.n != g.n:
        raise InvalidInputError("clustering length does not match graph")
    base = spec.base_color
    non_base = sorted(spec.bounds)
    initial = clustering.clusters()
    initial.sort(key=lambda m: (-len(m), min(m)))

    pool = {c: [] for c in [base] + non_base}
    kept = []
    for members in initial:
        by_color = {
            c: _ordered_by_pos_degree(
                g, [v for v in members if colors.color_of[v] == c], members
            )
            for c in pool
        }
        n1 = len(by_color[base])
        already_fair = n1 >= 1 and all(
            n1 * p <= len(by_color[c]) <= n1 * q for c, (p, q) in spec.bounds.items()
        )
        if already_fair:
            kept.append(list(members))
            continue
        k = n1
        for c in non_base:
            k = min(k, len(by_color[c]) // spec.bounds[c][0])
        if k >= 1:
            # keep minimal fair groups: k base plus k*p_i of each color
            keep = list(by_color[base][:k])
            for c in non_base:
                keep.extend(by_color[c][: k * spec.bounds[c][0]])
            kept.append(keep)
            keep_set = set(keep)
        else:
            keep_set = set()
        for c in pool:
            pool[c].extend(v for v in by_color[c] if v not in keep_set)

    def pop_group(target_members):
        """Remove one minimal fair group from the pool, greedily maximizing
        positive edges into ``target_members`` (or mutual cohesion when the
        target is empty)."""
        if not pool[base]:
            return None
        if any(len(pool[c]) < spec.bounds[c][0] for c in non_base):
            return None
        if target_members:
            b = _ordered_by_pos_degree(g, pool[base], target_members)[0]
        else:
            b = min(pool[base])
        group = [b]
        pool[base].remove(b)
        for c in non_base:
            anchor = target_members if target_members else group
            picks = _ordered_by_pos_degree(g, pool[c], anchor)[: spec.bounds[c][0]]
            for v in picks:
                pool[c].remove(v)
            group.extend(picks)
        return group

    def color_count(members, c):
        return sum(1 for u in members if colors.color_of[u] == c)

    def place_base(v):
        """Host a lone base vertex: pick the friendliest cluster and cover
        its per-color deficits from the pool, stealing surplus vertices
        from other clusters when the pool runs dry."""
        pool[base].remove(v)
        order = sorted(
            range(len(kept)), key=lambda i: (-_pos_degree_to(g, v, kept[i]), i)
        )
        for idx in order:
            host = kept[idx]
            n1 = color_count(host, base)
            moves = []
            feasible = True
            for c in non_base:
                # a host already above the new lower bound needs nothing
                need = max((n1 + 1) * spec.bounds[c][0] - color_count(host, c), 0)
                take = _ordered_by_pos_degree(g, pool[c], host)[:need]
                need -= len(take)
                moves.extend(("pool", c, u) for u in take)
                if need > 0:
                    for jdx in order:
                        if jdx == idx or need <= 0:
                            continue
                        donor = kept[jdx]
                        d1 = color_count(donor, base)
                        surplus = color_count(donor, c) - d1 * spec.bounds[c][0]
                        grab = _ordered_by_pos_degree(
                            g, [u for u in donor if colors.color_of[u] == c], host
                        )[: min(surplus, need)]
                        moves.extend(("steal", jdx, u) for u in grab)
                        need -= len(grab)
                if need > 0:
                    feasible = False
                    break
            if not feasible:
                continue
            for kind, where, u in moves:
                if kind == "pool":
                    pool[where].remove(u)
                else:
                    kept[where].remove(u)
                host.append(u)
            host.append(v)
            return
        raise InfeasibleSpecError("cannot place a base vertex fairly")

    kept.sort(key=lambda m: (-len(m), min(m)))
    for members in kept:
        group = pop_group(members)
        if group:
            members.extend(group)
    while pool[base]:
        group = pop_group(None)
        if group is not None:
            kept.append(group)
        else:
            place_base(min(pool[base]))
    # interval slack: leftover non-base vertices go to clusters with room
    for c in non_base:
        q = spec.bounds[c][1]
        for v in sorted(pool[c]):
            candidates = []
            for idx, members in enumerate(kept):
                n1 = sum(1 for u in members if colors.color_of[u] == base)
                nc = sum(1 for u in members if colors.color_of[u] == c)
                if nc < n1 * q:
                    candidates.append(idx)
            if not candidates:
                raise InfeasibleSpecError(f"no cluster can absorb leftover color {c}")
            best = max(candidates, key=lambda i: (_pos_degree_to(g, v, kept[i]), -i))
            kept[best].append(v)
        pool[c] = []

    label = {}
    for idx, members in enumerate(kept):
        for v in members:
            label[v] = idx
    return Clustering.from_labels([label[v] for v in range(g.n)])
