"""Fairlet pipeline: pair costs, the per-color b-matchings that give the
fairlet ids, and attachment of the fairlets to a clustering of the base
color.

The stages take values, so a caller that runs several of them on one
instance (the registry ``algorithms.run_algorithm`` and its memo) builds
each layer once: ``build_matchings`` is the seed-free fairlet stage, and
``run_pipeline`` attaches the fairlets to the base clusters, which the
registry finds as it finds every pivot clustering, by ``cc`` on the graph
the base color induces. ``approximation_budget`` is the pipeline's
guarantee against the fair optimum.

``build_matchings`` also returns every matching weight w(M_i), which the
paper's lemma bounds by 2*q_i*OPT_fair. The module computes no optimum:
``faircc verify`` checks the lemma and the budget against one
``oracle.opt_fair`` per instance.

The pair cost of clustering a non-base vertex u with a base vertex v is the
number of third vertices whose edge labels to u and v disagree, plus one if
(u, v) itself is negative, i.e. exactly how much the total disagreement
count grows when the two are forced together.
"""

from __future__ import annotations

import numpy as np

from .bmatching import BMatchingInstance, solve
from .errors import InvalidInputError
from .model import Clustering, ColorAssignment, FairnessSpec, SignedCompleteGraph, check_spec


def pair_cost_table(g: SignedCompleteGraph, lefts, rights) -> np.ndarray:
    """Vectorized pair costs, rows indexed by ``lefts`` (base vertices).

    Row u of the sign matrix dotted with row v sums +1 over the n-2 third
    vertices that agree and -1 over those that disagree (the diagonal zeros
    drop w = u and w = v), so the disagreeing count is (n-2 - dot)/2. The
    product runs in float32, exact for integers below 2**24.

    The table is built R x L in place and returned as its read-only
    transpose, so ``BMatchingInstance`` keeps it and ``solve`` reads its
    R x L rows, neither making a copy.
    """
    S = g.signs
    table = (S[rights].astype(np.float32) @ S[lefts].astype(np.float32).T).astype(np.int64)
    np.subtract(g.n - 2, table, out=table)
    table //= 2
    table += S[np.ix_(rights, lefts)] < 0
    table.setflags(write=False)
    return table.T


def build_matchings(
    g: SignedCompleteGraph,
    colors: ColorAssignment,
    spec: FairnessSpec,
    unit_costs: bool = False,
) -> tuple:
    """The seed-free first stage: one min-cost b-matching per non-base
    color against the base color.

    Returns ``(fairlets, weights)``: the read-only fairlet id of every
    vertex, where the i-th base vertex and every vertex matched to it get
    id i, and color -> w(M_color).
    """
    check_spec(colors, spec)
    lefts = colors.vertices_of(spec.base_color)
    # check_spec has made the base and the matched colors cover every vertex
    fairlets = np.empty(colors.n, np.int64)
    fairlets[lefts] = np.arange(len(lefts))
    weights = {}
    for color, (p, q) in sorted(spec.bounds.items()):
        rights = colors.vertices_of(color)
        if unit_costs:  # a read-only constant view, which the instance keeps
            table = np.broadcast_to(np.int64(1), (len(lefts), len(rights)))
        else:
            table = pair_cost_table(g, lefts, rights)
        matching = solve(BMatchingInstance(table, (p,) * len(lefts), (q,) * len(lefts)))
        fairlets[rights] = matching.assign
        weights[color] = matching.weight
    fairlets.setflags(write=False)
    return fairlets, weights


def run_pipeline(fairlets, base: Clustering) -> Clustering:
    """Give every fairlet its base vertex's cluster in ``base``."""
    return Clustering.from_labels(base.cluster_of[fairlets])


# pivot's expected approximation ratio on the base color (Ailon, Charikar
# and Newman 2008)
_PIVOT_RATIO = 3


def approximation_budget(spec: FairnessSpec, num_colors: int) -> int:
    """Worst-case multiplier on the fair optimum guaranteed by the
    pipeline: (q^2+2q)*alpha + 4q^2 for two colors, and the multi-color
    charging constant otherwise, with alpha = ``_PIVOT_RATIO``."""
    qs = [q for _, q in spec.bounds.values()]
    if not qs:
        raise InvalidInputError("approximation_budget needs a spec that bounds a color")
    qmax = max(qs)
    if num_colors == 2:
        return (qmax * qmax + 2 * qmax) * _PIVOT_RATIO + 4 * qmax * qmax
    k = num_colors
    return (((k - 1) * qmax) ** 2 + 2 * qmax) * _PIVOT_RATIO + sum(
        2 * q * (k + 1) * qmax for q in qs
    )

