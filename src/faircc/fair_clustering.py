"""Fairlet pipeline: pair costs, per-color b-matchings, fairlet ids,
pivot clustering on the base color, and attachment.

The stages take values, so a caller that runs several of them on one
instance (the CLI's memo) builds each seed-free or per-seed layer once:
``build_matchings`` -> ``build_fairlets`` is seed-free, ``pivot_base`` is
seeded, and ``run_pipeline`` attaches the fairlets to the base clusters.

The pair cost of clustering a non-base vertex u with a base vertex v is the
number of third vertices whose edge labels to u and v disagree, plus one if
(u, v) itself is negative, i.e. exactly how much the total disagreement
count grows when the two are forced together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bmatching import BMatchingInstance, solve
from .errors import FairCCError, InvalidInputError
from .model import (
    Clustering,
    ColorAssignment,
    FairnessSpec,
    SignedCompleteGraph,
    check_fairness,
    check_spec,
    disagreements,
)
from .oracle import opt_fair
from .pivot import PivotRun, best_of_restarts


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


def build_fairlets(colors: ColorAssignment, spec: FairnessSpec, matchings: dict) -> np.ndarray:
    """The seed-free first stage: the read-only fairlet id of every vertex,
    from ``matchings`` = build_matchings(g, colors, spec, unit_costs). The
    i-th base vertex and every vertex matched to it get id i."""
    lefts = colors.vertices_of(spec.base_color)
    # check_spec has made the base and the matched colors cover every vertex
    fairlets = np.empty(colors.n, np.int64)
    fairlets[lefts] = np.arange(len(lefts))
    for matching, _, rights in matchings.values():
        fairlets[rights] = matching.assign
    fairlets.setflags(write=False)
    return fairlets


def pivot_base(g, colors, spec, pivot) -> Clustering:
    """The seeded second stage: best-of-restarts pivot on the graph induced
    by the base color, one label per base vertex in vertex order."""
    lefts = colors.vertices_of(spec.base_color)
    induced = SignedCompleteGraph(len(lefts), g.signs[np.ix_(lefts, lefts)])
    return best_of_restarts(induced, pivot)


def run_pipeline(colors, spec, fairlets, base: Clustering) -> Clustering:
    """Give every fairlet its base vertex's cluster in ``base`` and check
    fairness."""
    c = Clustering.from_labels(np.asarray(base.cluster_of)[fairlets].tolist())
    report = check_fairness(colors, c, spec)
    if not report.overall_pass:
        raise FairCCError(
            "internal error: pipeline produced an unfair clustering: "
            + report.describe_violations()
        )
    return c


def fair_cc(
    g: SignedCompleteGraph,
    colors: ColorAssignment,
    spec: FairnessSpec,
    pivot: PivotRun = PivotRun(),
    try_all_bases: bool = False,
) -> Clustering:
    """Fair clustering for any number of colors under an exact (1:p_i) or
    interval (1:p_i..1:q_i) spec.

    With ``try_all_bases`` (only valid when every ratio is 1:1) the pipeline
    runs once per candidate base color and keeps the cheapest result.
    """

    def stages(one):
        fairlets = build_fairlets(colors, one, build_matchings(g, colors, one))
        return run_pipeline(colors, one, fairlets, pivot_base(g, colors, one, pivot))

    if not try_all_bases:
        return stages(spec)
    if any(bounds != (1, 1) for bounds in spec.bounds.values()):
        raise InvalidInputError("try_all_bases requires all ratios 1:1")
    specs = (
        FairnessSpec.exact({c: 1 for c in range(colors.num_colors) if c != base}, base_color=base)
        for base in range(colors.num_colors)
    )
    # min keeps the first of equally cheap results: the smallest base color
    return min(map(stages, specs), key=lambda c: disagreements(g, c))


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
    matchings: dict,
) -> MatchingBoundReport:
    """Verify w(M_i) <= 2*q_i*OPT_fair for every per-color matching of
    ``matchings`` = build_matchings(g, colors, spec) (with q_i = p_i in
    exact-ratio mode this is the 2p bound, and 2*OPT at 1:1)."""
    _, opt_value = opt_fair(g, colors, spec)
    weights, budgets, passes = {}, {}, {}
    for color, (matching, _, _) in matchings.items():
        _, q = spec.bounds[color]
        weights[color] = matching.weight
        budgets[color] = 2 * q * opt_value
        passes[color] = matching.weight <= budgets[color]
    return MatchingBoundReport(weights, opt_value, budgets, passes, all(passes.values()))
