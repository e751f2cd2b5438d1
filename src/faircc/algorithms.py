"""The algorithm registry: ``run_algorithm`` is the one entry point for the
five clusterings the paper compares.

A memo dict, kept by the caller for one instance and spec, carries the
layers that several calls share, each built on first use: the seed-free
fairlet ids and matching weights per cost kind and base color (pair costs
for ``faircc`` and ``wmatch``, unit costs for ``ufaircc``), the base-color
pivot per PivotRun and base color, and the ``cc`` clustering and its cost
per PivotRun, which ``ccmerge`` repairs. Below those it keeps the pools of
scored pivot restarts, one for the graph and one per base color with its
induced graph, so that PivotRuns whose seed windows overlap run and score
each seed once. A caller that knows every PivotRun it will ask for puts the
union of their seed windows, a PivotRun, under ``"window"``; each pool then
runs and scores that whole window in its first pass, one lockstep pass per
pool. Stages are called through their modules, so code that replaces one
there (``fair_clustering.build_matchings``, ...) sees every call.
"""

from __future__ import annotations

from . import baselines, fair_clustering
from .errors import FairCCError, InvalidInputError
from .model import FairnessSpec, check_fairness, disagreements
from .pivot import PivotRun

ALGORITHMS = ("cc", "wmatch", "ufaircc", "ccmerge", "faircc")


def matchings(g, colors, spec, memo, unit_costs=False) -> tuple:
    """build_matchings(g, colors, spec, unit_costs), the fairlet ids and
    matching weights, built once per memo."""
    key = ("matchings", unit_costs, spec.base_color)
    if key not in memo:
        memo[key] = fair_clustering.build_matchings(g, colors, spec, unit_costs)
    return memo[key]


def cc_clustering(g, pivot, memo) -> tuple:
    """run_cc(g, pivot) and its disagreements, found once per memo; the
    cost is the kept restart's score in the graph's pool."""
    key = ("cc", pivot)
    if key not in memo:
        pool = memo.setdefault("restarts", {})
        clustering = baselines.run_cc(g, pivot, pool, memo.get("window"))
        memo[key] = clustering, min(pool[seed][0] for seed in pivot.seeds)
    return memo[key]


def run_algorithm(
    algo, g, colors=None, spec=None, pivot=PivotRun(), memo=None, try_all_bases=False
):
    """The clustering ``algo`` finds on one instance; ``cc`` needs only the
    graph, the fair algorithms also ``colors`` and ``spec``.

    With ``try_all_bases`` (``faircc`` only, every ratio 1:1) faircc runs
    once per candidate base color and keeps the cheapest result, ties to the
    smallest base color.

    A fair algorithm never returns a clustering that breaks ``spec``; it
    raises FairCCError naming the algorithm, the seed and the unfair clusters.
    """
    memo = {} if memo is None else memo
    if algo not in ALGORITHMS:
        raise InvalidInputError(f"unknown algorithm {algo!r}")
    if try_all_bases and algo != "faircc":
        raise InvalidInputError("try_all_bases applies only to faircc")
    if algo == "cc":
        return cc_clustering(g, pivot, memo)[0]
    if colors is None or spec is None:
        raise InvalidInputError(f"algorithm {algo!r} needs colors and a fairness spec")
    if algo == "ccmerge":
        clustering = baselines.run_ccmerge(g, colors, spec, cc_clustering(g, pivot, memo)[0])
    elif try_all_bases:
        if any(bounds != (1, 1) for bounds in spec.bounds.values()):
            raise InvalidInputError("try_all_bases requires all ratios 1:1")
        bases = range(colors.num_colors)
        specs = [FairnessSpec.exact({c: 1 for c in bases if c != base}, base) for base in bases]
        results = [run_algorithm("faircc", g, colors, one, pivot, memo) for one in specs]
        clustering = min(results, key=lambda c: disagreements(g, c))  # the first of equal costs
    else:
        fairlets, _ = matchings(g, colors, spec, memo, unit_costs=algo == "ufaircc")
        if algo == "wmatch":
            clustering = baselines.run_wmatch(fairlets)
        else:
            key = ("base", pivot, spec.base_color)
            if key not in memo:
                pool = memo.setdefault(("base restarts", spec.base_color), {})
                memo[key] = fair_clustering.pivot_base(
                    g, colors, spec, pivot, pool, memo.get("window")
                )
            clustering = fair_clustering.run_pipeline(fairlets, memo[key])
    report = check_fairness(colors, clustering, spec)
    if not report.overall_pass:
        raise FairCCError(
            f"{algo} seed {pivot.seed}: unfair clustering: {report.describe_violations()}"
        )
    return clustering
