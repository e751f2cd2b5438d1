"""Fairlet pipeline: pair costs, per-color b-matchings, hyper-node
formation, pivot clustering on the base color, and attachment.

The pair cost of clustering a non-base vertex u with a base vertex v is the
number of third vertices whose edge labels to u and v disagree, plus one if
(u, v) itself is negative, i.e. exactly how much the total disagreement
count grows when the two are forced together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bmatching import BMatching, BMatchingInstance, solve
from .errors import FairCCError, InfeasibleSpecError, InvalidInputError
from .model import (
    Clustering,
    ColorAssignment,
    FairnessSpec,
    SignedCompleteGraph,
    check_fairness,
    disagreements,
)
from .oracle import OracleLimit, opt_fair
from .pivot import PivotRun, best_of_restarts


@dataclass(frozen=True)
class HyperNode:
    """A base-color vertex plus the non-base vertices matched to it."""

    representative: int
    attached: tuple

    @property
    def members(self):
        return (self.representative,) + self.attached


def pair_cost(g: SignedCompleteGraph, u: int, v: int) -> int:
    """Disagreement increase from forcing u and v into one cluster."""
    if u == v:
        raise InvalidInputError("pair cost needs two distinct vertices")
    cost = 1 if g.signs[u, v] < 0 else 0
    for w in range(g.n):
        if w != u and w != v and g.signs[u, w] != g.signs[v, w]:
            cost += 1
    return cost


def pair_cost_table(g: SignedCompleteGraph, lefts, rights) -> np.ndarray:
    """Vectorized pair costs, rows indexed by ``lefts`` (base vertices).

    Row u of the sign matrix dotted with row v sums +1 over the n-2 third
    vertices that agree and -1 over those that disagree (the diagonal zeros
    drop w = u and w = v), so the disagreeing count is (n-2 - dot)/2. The
    product runs in float32, exact for integers below 2**24.
    """
    S = g.signs
    dot = S[lefts].astype(np.float32) @ S[rights].astype(np.float32).T
    diff = (g.n - 2 - dot.astype(np.int64)) // 2
    return diff + (S[np.ix_(lefts, rights)] < 0)


def check_spec(colors: ColorAssignment, spec: FairnessSpec):
    """Raise InfeasibleSpecError unless ``spec`` bounds exactly the non-base
    colors and each color's global count fits its ratio to the base color,
    the two conditions a per-color b-matching needs."""
    if set(spec.bounds) != set(range(colors.num_colors)) - {spec.base_color}:
        raise InfeasibleSpecError("spec must bound every non-base color")
    lefts = len(colors.vertices_of(spec.base_color))
    for color, (p, q) in sorted(spec.bounds.items()):
        rights = colors.counts[color]
        if not p * lefts <= rights <= q * lefts:
            raise InfeasibleSpecError(
                f"color {color}: {rights} vertices cannot match {lefts} base vertices "
                f"at ratio 1:{p}..1:{q}"
            )


def build_matchings(
    g: SignedCompleteGraph,
    colors: ColorAssignment,
    spec: FairnessSpec,
    unit_costs: bool = False,
) -> dict:
    """One min-cost b-matching per non-base color against the base color.

    Returns color -> (BMatching, base vertex list, color vertex list).
    """
    check_spec(colors, spec)
    lefts = colors.vertices_of(spec.base_color)
    out = {}
    for color, (p, q) in sorted(spec.bounds.items()):
        rights = colors.vertices_of(color)
        if unit_costs:
            table = np.ones((len(lefts), len(rights)), np.int64)
        else:
            table = pair_cost_table(g, lefts, rights)
        inst = BMatchingInstance(table, (p,) * len(lefts), (q,) * len(lefts))
        out[color] = (solve(inst), lefts, rights)
    return out


def hyper_nodes(matchings, lefts) -> list:
    """Fold the per-color matchings into one HyperNode per base vertex."""
    attached = {v: [] for v in lefts}
    for _, (matching, left_list, right_list) in sorted(matchings.items()):
        for r, l in enumerate(matching.assign):
            attached[left_list[l]].append(right_list[r])
    return [HyperNode(v, tuple(sorted(attached[v]))) for v in lefts]


def build_fairlets(g, colors, spec, unit_costs=False) -> tuple:
    """The seed-free first stage: match every non-base color to the base
    color and fold the matchings into one HyperNode per base vertex.
    ``unit_costs`` swaps the pair costs for constant 1 entries."""
    matchings = build_matchings(g, colors, spec, unit_costs=unit_costs)
    return tuple(hyper_nodes(matchings, colors.vertices_of(spec.base_color)))


def cluster_fairlets(g, colors, spec, fairlets, pivot) -> Clustering:
    """The seeded second stage: pivot on the fairlet representatives, give
    every fairlet its representative's cluster, and check fairness."""
    run = PivotRun(pivot.seed, pivot.restarts, tuple(f.representative for f in fairlets))
    label = best_of_restarts(g, run)
    cluster_label = {}
    for fairlet in fairlets:
        for v in fairlet.members:
            cluster_label[v] = label[fairlet.representative]
    c = Clustering.from_labels([cluster_label[v] for v in range(g.n)])
    report = check_fairness(colors, c, spec)
    if not report.overall_pass:
        raise FairCCError(
            "internal error: pipeline produced an unfair clustering: "
            + report.describe_violations()
        )
    return c


def run_pipeline(g, colors, spec, pivot, unit_costs=False, fairlets=None):
    """Both stages. Shared by every fair variant; pass ``fairlets`` when
    build_fairlets(g, colors, spec, unit_costs) is already at hand."""
    if fairlets is None:
        fairlets = build_fairlets(g, colors, spec, unit_costs)
    return cluster_fairlets(g, colors, spec, fairlets, pivot)


def fair_cc(
    g: SignedCompleteGraph,
    colors: ColorAssignment,
    spec: FairnessSpec,
    pivot: PivotRun = PivotRun(),
    try_all_bases: bool = False,
    fairlets: tuple | None = None,
) -> Clustering:
    """Fair clustering for any number of colors under an exact (1:p_i) or
    interval (1:p_i..1:q_i) spec.

    With ``try_all_bases`` (only valid when every ratio is 1:1) the pipeline
    runs once per candidate base color and keeps the cheapest result.
    ``fairlets``, if given, are build_fairlets(g, colors, spec) and stand in
    for that build (with ``try_all_bases``, for the base-color pass whose
    spec equals ``spec``).
    """
    if not try_all_bases:
        return run_pipeline(g, colors, spec, pivot, fairlets=fairlets)
    if any(bounds != (1, 1) for bounds in spec.bounds.values()):
        raise InvalidInputError("try_all_bases requires all ratios 1:1")
    best = None
    for base in range(colors.num_colors):
        alt = FairnessSpec.exact(
            {c: 1 for c in range(colors.num_colors) if c != base}, base_color=base
        )
        own = fairlets if alt == spec else None
        c = run_pipeline(g, colors, alt, pivot, fairlets=own)
        cost = disagreements(g, c)
        if best is None or cost < best[0]:
            best = (cost, c)
    return best[1]


def approximation_budget(spec: FairnessSpec, num_colors: int, alpha: int = 3) -> int:
    """Worst-case multiplier on the fair optimum guaranteed by the
    pipeline: (q^2+2q)*alpha + 4q^2 for two colors, and the multi-color
    charging constant otherwise."""
    qs = [q for _, q in spec.bounds.values()]
    qmax = max(qs)
    if num_colors == 2:
        return (qmax * qmax + 2 * qmax) * alpha + 4 * qmax * qmax
    k = num_colors
    return (((k - 1) * qmax) ** 2 + 2 * qmax) * alpha + sum(
        2 * q * (k + 1) * qmax for q in qs
    )


@dataclass(frozen=True)
class MatchingBoundReport:
    """Per-color matching weights against the 2*q_i*OPT_fair budget."""

    weights: dict  # color -> w(M_i)
    opt_fair_value: int
    budgets: dict  # color -> 2*q_i*OPT_fair
    passes: dict
    overall_pass: bool


def matching_weight_bound_check(
    g: SignedCompleteGraph,
    colors: ColorAssignment,
    spec: FairnessSpec,
    limit: OracleLimit | None = None,
) -> MatchingBoundReport:
    """Verify w(M_i) <= 2*q_i*OPT_fair for every per-color matching (with
    q_i = p_i in exact-ratio mode this is the 2p bound, and 2*OPT at 1:1)."""
    matchings = build_matchings(g, colors, spec)
    _, opt_value = opt_fair(g, colors, spec, limit=limit)
    weights, budgets, passes = {}, {}, {}
    for color, (matching, _, _) in matchings.items():
        _, q = spec.bounds[color]
        weights[color] = matching.weight
        budgets[color] = 2 * q * opt_value
        passes[color] = matching.weight <= budgets[color]
    return MatchingBoundReport(weights, opt_value, budgets, passes, all(passes.values()))
