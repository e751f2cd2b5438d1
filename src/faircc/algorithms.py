"""The algorithm registry: ``run_algorithm`` is the one entry point for the
five clusterings the paper compares.

A memo dict, kept by the caller for one instance and spec, carries the
layers that several calls share, each built on first use: the seed-free
fairlet ids and matching weights per cost kind and base color (pair costs
for ``faircc`` and ``wmatch``, unit costs for ``ufaircc``), and per graph,
the full one (``cc``, ``ccmerge``) or a base color's induced one
(``faircc``, ``ufaircc``), its pool of scored pivot restarts and its pivot
clustering, cost and kept restart seed per PivotRun, all kept by
``cc_clustering``. PivotRuns whose seed windows overlap so run and score
each seed once. A caller that knows every PivotRun it will ask for puts the
union of their seed windows, a PivotRun, under ``"window"``; each pool then
runs and scores that whole window in its first pass, one lockstep pass per
pool. A fair algorithm's result depends on its PivotRun only through the
restart its graph's pool keeps, so each checked result is scored once and
kept as (clustering, cost) under (algorithm, base color, kept seed), the
seed None for the seedless ``wmatch``, and a later call that keeps the same
restart returns it without a repair, attachment, fairness check or scoring.
Stages are called through their modules, so code that replaces one there
(``fair_clustering.build_matchings``, ...) sees every call.
"""

from __future__ import annotations

import numpy as np

from . import baselines, fair_clustering
from .errors import FairCCError, InvalidInputError
from .model import FairnessSpec, SignedCompleteGraph, check_fairness, check_spec, disagreements
from .pivot import PivotRun

ALGORITHMS = ("cc", "wmatch", "ufaircc", "ccmerge", "faircc")


def matchings(g, colors, spec, memo, unit_costs=False) -> tuple:
    """build_matchings(g, colors, spec, unit_costs), the fairlet ids and
    matching weights, built once per memo."""
    key = ("matchings", unit_costs, spec.base_color)
    if key not in memo:
        memo[key] = fair_clustering.build_matchings(g, colors, spec, unit_costs)
    return memo[key]


def cc_clustering(g, pivot, memo, colors=None, base=None) -> tuple:
    """run_cc(pivot), its disagreements and the seed of the restart it
    keeps, found once per memo under ("cc", base, pivot), on ``g`` or, with
    ``colors`` and ``base``, on the graph that base color induces (built
    once per memo), one label per base vertex in vertex order; the cost and
    seed are the fewest disagreements in that graph's pool and the earliest
    seed that scores them, the restart run_cc keeps."""
    key = ("cc", base, pivot)
    if key not in memo:
        if ("restarts", base) not in memo:
            if base is not None:
                lefts = colors.vertices_of(base)
                # a principal submatrix of a valid sign matrix is one
                g = SignedCompleteGraph._trusted(g.signs[np.ix_(lefts, lefts)])
            memo[("restarts", base)] = g, {}
        graph, pool = memo[("restarts", base)]
        clustering = baselines.run_cc(graph, pivot, pool, memo.get("window"))
        memo[key] = clustering, *min((pool[seed][0], seed) for seed in pivot.seeds)
    return memo[key]


def run_algorithm(
    algo, g, colors=None, spec=None, pivot=PivotRun(), memo=None, try_all_bases=False
):
    """The clustering ``algo`` finds on one instance and its disagreements,
    as (clustering, cost); ``cc`` needs only the graph, the fair algorithms
    also ``colors`` and ``spec``. A ``cc`` cost is its restart pool's score.

    With ``try_all_bases`` (``faircc`` only, every ratio 1:1, a spec that
    check_spec accepts) faircc runs once per candidate base color and keeps
    the cheapest result, ties to the smallest base color.

    A fair algorithm never returns a clustering that breaks ``spec``; it
    raises FairCCError naming the algorithm, the seed and the unfair clusters.
    """
    memo = {} if memo is None else memo
    if algo not in ALGORITHMS:
        raise InvalidInputError(f"unknown algorithm {algo!r}")
    if try_all_bases and algo != "faircc":
        raise InvalidInputError("try_all_bases applies only to faircc")
    if algo == "cc":
        return cc_clustering(g, pivot, memo)[:2]
    if colors is None or spec is None:
        raise InvalidInputError(f"algorithm {algo!r} needs colors and a fairness spec")
    if colors.n != g.n:
        raise InvalidInputError(f"colors cover {colors.n} vertices but the graph has {g.n}")
    if try_all_bases:
        if any(bounds != (1, 1) for bounds in spec.bounds.values()):
            raise InvalidInputError("try_all_bases requires all ratios 1:1")
        check_spec(colors, spec)
        bases = range(colors.num_colors)
        specs = [FairnessSpec.exact({c: 1 for c in bases if c != base}, base) for base in bases]
        results = [run_algorithm("faircc", g, colors, one, pivot, memo) for one in specs]
        clustering, cost = min(results, key=lambda result: result[1])  # the first of equal costs
    else:
        pivoted = kept = None  # wmatch pivots nothing
        if algo != "wmatch":  # ccmerge repairs the full graph's pivot
            base = None if algo == "ccmerge" else spec.base_color
            pivoted, _, kept = cc_clustering(g, pivot, memo, colors, base)
        key = (algo, spec.base_color, kept)
        if key in memo:
            return memo[key]
        if algo == "ccmerge":
            clustering = baselines.run_ccmerge(g, colors, spec, pivoted)
        else:
            fairlets, _ = matchings(g, colors, spec, memo, unit_costs=algo == "ufaircc")
            if algo == "wmatch":
                clustering = baselines.run_wmatch(fairlets)
            else:
                clustering = fair_clustering.run_pipeline(fairlets, pivoted)
    report = check_fairness(colors, clustering, spec)
    if not report.overall_pass:
        raise FairCCError(
            f"{algo} seed {pivot.seed}: unfair clustering: {report.describe_violations()}"
        )
    if try_all_bases:
        return clustering, cost
    memo[key] = clustering, disagreements(g, clustering)
    return memo[key]
