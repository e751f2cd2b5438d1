"""Output checks that use only numpy and the benchmark's own copy of each
instance, never the package under test.

Every checker returns (clusterings, total_disagreements) on success and
raises CheckError with a reason otherwise.
"""

from __future__ import annotations

import csv
import json
import re

import numpy as np

from workloads import FAIR_ALGOS, WORKLOADS, bounds


class CheckError(Exception):
    pass


def disagreements(signs, labels):
    """Negative pairs inside a cluster plus positive pairs cut between
    clusters, counted once per unordered pair."""
    same = labels[:, None] == labels[None, :]
    bad = ((signs < 0) & same) | ((signs > 0) & ~same)
    return int(np.triu(bad, 1).sum())


def unfair_clusters(colors, labels, spec_bounds):
    """Number of clusters with no base vertex or a color count outside
    [n1 * p, n1 * q]; color 0 is the base."""
    k = int(colors.max()) + 1
    counts = np.bincount(labels * k + colors, minlength=(int(labels.max()) + 1) * k)
    counts = counts.reshape(-1, k)
    base = counts[:, 0]
    bad = base < 1
    for color, (p, q) in spec_bounds.items():
        bad |= (counts[:, color] < p * base) | (counts[:, color] > q * base)
    return int(bad.sum())


def n_pairs(signs):
    n = len(signs)
    return n * (n - 1) // 2


def _read_labels(path, n):
    with open(path) as fh:
        labels = json.load(fh)["cluster_of"]
    if len(labels) != n or not all(isinstance(x, int) and x >= 0 for x in labels):
        raise CheckError(f"clustering is not {n} nonnegative integer labels")
    return np.asarray(labels, dtype=np.int64)


def check_cluster(workload, signs, colors, paths, stdout):
    wl = WORKLOADS[workload]
    labels = _read_labels(paths["clustering"], len(signs))
    with open(paths["result"]) as fh:
        row = json.loads(fh.readline())
    cost = disagreements(signs, labels)
    if row["disagreements"] != cost:
        raise CheckError(f"result claims {row['disagreements']} disagreements, recomputed {cost}")
    if row["clusters"] != len(np.unique(labels)):
        raise CheckError("result cluster count differs from the clustering")
    if wl["algo"] in FAIR_ALGOS:
        bad = unfair_clusters(colors, labels, bounds(workload))
        if bad or row["fair"] is not True:
            raise CheckError(f"{bad} unfair clusters (result fair={row['fair']})")
    return 1, cost


def check_experiment(workload, signs, colors, paths, stdout):
    """The experiment CSV carries costs, not labels, so the checks are
    consistency checks: one row per (algo, seed), each cost within the
    possible range, fair flags on fair algorithms, and mean rows that match
    their per-seed rows."""
    wl = WORKLOADS[workload]
    n = len(signs)
    with open(paths["csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    per_seed = [r for r in rows if r["seed"] != "mean"]
    means = {r["algo"]: r for r in rows if r["seed"] == "mean"}
    cells = sorted((r["algo"], int(r["seed"])) for r in per_seed)
    expected = sorted((a, s) for a in wl["algos"] for s in range(wl["runs"]))
    if cells != expected or sorted(means) != sorted(wl["algos"]):
        raise CheckError("experiment rows do not cover every (algo, seed) cell once")
    total = 0
    for algo in wl["algos"]:
        group = [r for r in per_seed if r["algo"] == algo]
        costs = [int(r["disagreements"]) for r in group]
        if any(r["n"] != str(n) for r in group) or not all(0 <= c <= n_pairs(signs) for c in costs):
            raise CheckError(f"{algo}: bad n or cost out of range")
        if algo in FAIR_ALGOS and any(r["fair"] != "true" for r in group):
            raise CheckError(f"{algo}: row marked unfair")
        if means[algo]["disagreements"] != f"{np.mean(costs):.2f}":
            raise CheckError(f"{algo}: mean row does not match its seed rows")
        total += sum(costs)
    return len(per_seed), total


_LINE = re.compile(r"^(PASS|FAIL)  (.*): (-?\d+) (<=|==) (-?\d+)$")
_BUDGET = re.compile(r"cost\(faircc\) <= (\d+)\*OPT_fair")
_WEIGHT = re.compile(r"w\(M_\d+\) <= 2\*(\d+)\*OPT_fair")


def check_verify(workload, signs, colors, paths, stdout):
    """verify prints one PASS/FAIL line per checked bound and no
    clustering, so the faircc cost is read from its line. Each line's
    right-hand side must imply the same OPT_fair, and the cost must lie
    between OPT_fair and the budget."""
    lines = [_LINE.match(line) for line in stdout.splitlines() if line[:4] in ("PASS", "FAIL")]
    if not lines or not all(lines):
        raise CheckError("verify printed no parsable PASS/FAIL lines")
    if any(m.group(1) == "FAIL" for m in lines):
        raise CheckError("verify printed a FAIL line")
    opts, cost = set(), None
    for m in lines:
        label, lhs, rhs = m.group(2), int(m.group(3)), int(m.group(5))
        weight = _WEIGHT.fullmatch(label)
        budget = _BUDGET.fullmatch(label)
        if weight:
            opts.add(rhs / (2 * int(weight.group(1))))
        elif budget:
            opts.add(rhs / int(budget.group(1)))
            cost = lhs
    if cost is None or len(opts) != 1:
        raise CheckError(f"verify lines disagree on OPT_fair: {sorted(opts)}")
    opt = opts.pop()
    if not opt <= cost <= n_pairs(signs):
        raise CheckError(f"faircc cost {cost} below OPT_fair {opt} or out of range")
    return 1, cost


CHECKERS = {"cluster": check_cluster, "experiment": check_experiment, "verify": check_verify}
