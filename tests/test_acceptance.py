"""End-to-end acceptance suite.

Each test checks one documented guarantee of the package over a randomized
sweep and prints a single PASS/FAIL line, so the suite output doubles as a
verification report.
"""

import itertools
import json
import random
import statistics
import sys
import time

import numpy as np

from faircc import (
    BMatchingInstance,
    ColorAssignment,
    FairnessSpec,
    InfeasibleSpecError,
    SignedCompleteGraph,
    check_fairness,
    disagreements,
    mirror_graph,
    opt_fair,
    run_algorithm,
    run_ccmerge,
    solve,
)
from faircc.baselines import run_cc, run_wmatch
from faircc.cli import main as cli_main
from faircc.fair_clustering import approximation_budget, build_matchings
from faircc.pivot import PivotRun, best_of_restarts
from conftest import (
    brute_opt,
    brute_opt_fair,
    fairlets_of,
    opt_bmatching,
    random_colors,
    random_graph,
)


def report(label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  {label}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, label


def test_fairness_hard_invariant():
    """Every fairness-guaranteed algorithm yields a fair clustering on every
    feasible instance: n <= 12, 2-3 colors, exact and interval specs."""
    start = time.perf_counter()
    configs = [
        ((4, 4), FairnessSpec.exact({1: 1})),
        ((6, 6), FairnessSpec.exact({1: 1})),
        ((3, 6), FairnessSpec.exact({1: 2})),
        ((4, 8), FairnessSpec.exact({1: 2})),
        ((3, 3, 3), FairnessSpec.exact({1: 1, 2: 1})),
        ((4, 4, 4), FairnessSpec.exact({1: 1, 2: 1})),
        ((4, 6), FairnessSpec(0, {1: (1, 2)})),
        ((5, 7), FairnessSpec(0, {1: (1, 2)})),
    ]
    instances = 0
    violations = 0
    for seed in range(65):
        for counts, spec in configs:
            g = random_graph(sum(counts), seed * 31 + instances)
            colors = random_colors(counts, seed)
            pivot = PivotRun(seed, 5)
            outputs = [
                run_wmatch(fairlets_of(g, colors, spec)),
                run_algorithm("ufaircc", g, colors, spec, pivot)[0],
                run_ccmerge(g, colors, spec, run_cc(g, pivot)),
            ]
            outputs.append(run_algorithm("faircc", g, colors, spec, pivot)[0])
            for c in outputs:
                if not check_fairness(colors, c, spec).overall_pass:
                    violations += 1
            instances += 1
    elapsed = time.perf_counter() - start
    ok = instances >= 500 and violations == 0 and elapsed < 60
    report(
        "fairness invariant: all fair algorithms, zero violations",
        ok,
        f"{instances} instances, {violations} violations, {elapsed:.1f}s",
    )


def test_matching_solver_exactness():
    """The slot-expanded assignment solver matches exhaustive enumeration
    on random b-matching instances, including proper degree intervals."""
    start = time.perf_counter()
    rng = random.Random(77)
    checked = 0
    interval_cases = 0
    mismatches = 0
    while checked < 200:
        L = rng.randrange(1, 5)
        R = rng.randrange(1, 9)
        cost = [[rng.randrange(12) for _ in range(R)] for _ in range(L)]
        lo = [rng.randrange(0, 3) for _ in range(L)]
        hi = [l + rng.randrange(0, 4) for l in lo]
        if not sum(lo) <= R <= sum(hi):
            continue
        inst = BMatchingInstance(cost, lo, hi)
        try:
            got = solve(inst)
        except InfeasibleSpecError:
            try:
                opt_bmatching(inst)
                mismatches += 1
            except InfeasibleSpecError:
                pass
            continue
        if got.weight != opt_bmatching(inst).weight:
            mismatches += 1
        if any(a < b for a, b in zip(lo, hi)):
            interval_cases += 1
        checked += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and interval_cases > 0 and elapsed < 30
    report(
        "matching solver exactness vs enumeration",
        ok,
        f"{checked} instances, {interval_cases} with lo<hi, {elapsed:.1f}s",
    )


def test_matching_weight_lemmas():
    """w(M_i) <= 2*q_i*OPT_fair for 1:1, 1:p (p in {2,3}), and three
    colors, on random instances with n <= 8 and a few with n = 14 and 16."""
    families = [
        ((3, 3), FairnessSpec.exact({1: 1}), 70),
        ((4, 4), FairnessSpec.exact({1: 1}), 20),
        ((2, 4), FairnessSpec.exact({1: 2}), 45),
        ((2, 6), FairnessSpec.exact({1: 3}), 45),
        ((2, 2, 2), FairnessSpec.exact({1: 1, 2: 1}), 25),
        ((2, 2, 4), FairnessSpec.exact({1: 1, 2: 2}), 25),
        ((7, 7), FairnessSpec.exact({1: 1}), 3),
        ((4, 4, 8), FairnessSpec.exact({1: 1, 2: 2}), 2),
        ((8, 8), FairnessSpec.exact({1: 1}), 2),
    ]
    instances = 0
    violations = 0
    for counts, spec, reps in families:
        for seed in range(reps):
            g = random_graph(sum(counts), seed * 13 + instances)
            colors = random_colors(counts, seed)
            weights = build_matchings(g, colors, spec)[1]
            opt = opt_fair(g, colors, spec)[1]
            if any(w > 2 * spec.bounds[c][1] * opt for c, w in weights.items()):
                violations += 1
            instances += 1
    ok = instances >= 200 and violations == 0
    report(
        "matching weight lemma w(M_i) <= 2*q_i*OPT_fair",
        ok,
        f"{instances} instances, {violations} violations",
    )


def test_balanced_pipeline_constant():
    """cost(FairCC) <= 13 * OPT_fair on random balanced 1:1 instances, 100
    each at n = 4, 6 and 8 against enumeration and a few at n = 14 and 16
    against the exact oracle."""
    spec = FairnessSpec.exact({1: 1})
    instances = 0
    violations = 0
    for counts, reps in (((2, 2), 100), ((3, 3), 100), ((4, 4), 100), ((7, 7), 3), ((8, 8), 2)):
        for seed in range(reps):
            g = random_graph(sum(counts), seed * 17 + instances)
            colors = random_colors(counts, seed)
            c, _ = run_algorithm("faircc", g, colors, spec, PivotRun(seed, 25))
            if g.n <= 8:
                opt = brute_opt_fair(g, colors, spec)
            else:
                opt = opt_fair(g, colors, spec)[1]
            if disagreements(g, c) > 13 * opt:
                violations += 1
            instances += 1
    ok = instances >= 300 and violations == 0
    report(
        "balanced pipeline within 13 * OPT_fair",
        ok,
        f"{instances} instances, {violations} violations",
    )


def test_unbalanced_pipeline_constants():
    """Exact-ratio budget ((p^2+2p)*3 + 4p^2) for p in {2,3} and the
    interval budget for bounds 1:1..1:2, against enumeration at n <= 8 and
    the exact oracle at n = 14 and 16."""
    cases = [
        ((2, 4), FairnessSpec.exact({1: 2}), 40, 70),
        ((2, 6), FairnessSpec.exact({1: 3}), 81, 70),
        ((2, 3), FairnessSpec(0, {1: (1, 2)}), 40, 70),
        ((6, 8), FairnessSpec(0, {1: (1, 2)}), 40, 2),
        ((4, 12), FairnessSpec.exact({1: 3}), 81, 2),
    ]
    instances = 0
    violations = 0
    for counts, spec, budget, reps in cases:
        assert approximation_budget(spec, len(counts)) == budget
        for seed in range(reps):
            g = random_graph(sum(counts), seed * 23 + instances)
            colors = random_colors(counts, seed)
            c, _ = run_algorithm("faircc", g, colors, spec, PivotRun(seed, 25))
            if g.n <= 8:
                opt = brute_opt_fair(g, colors, spec)
            else:
                opt = opt_fair(g, colors, spec)[1]
            if disagreements(g, c) > budget * opt:
                violations += 1
            instances += 1
    ok = instances >= 200 and violations == 0
    report(
        "unbalanced pipeline within its stated budget (40 / 81 / 40)",
        ok,
        f"{instances} instances, {violations} violations",
    )


def test_mirror_identity_exhaustive_and_random():
    """opt_fair(mirror(G), 1:1) == 4 * opt_cc(G): exhaustively for every
    n=4 sign pattern, for 100 random n=5 graphs and for 20 random n=6
    graphs, whose mirrors have 12 vertices."""
    start = time.perf_counter()
    spec = FairnessSpec.exact({1: 1})
    failures = 0
    pairs = list(itertools.combinations(range(4), 2))
    for bits in range(1 << len(pairs)):
        neg = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = SignedCompleteGraph.from_negative_edges(4, neg)
        h, colors = mirror_graph(g)
        _, fair_v = opt_fair(h, colors, spec)
        if fair_v != 4 * brute_opt(g):
            failures += 1
    for n, count in ((5, 100), (6, 20)):
        for seed in range(count):
            g = random_graph(n, seed * 7 + 1)
            h, colors = mirror_graph(g)
            _, fair_v = opt_fair(h, colors, spec)
            if fair_v != 4 * brute_opt(g):
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 120
    report(
        "mirror identity opt_fair(mirror) == 4*opt_cc",
        ok,
        f"64 exhaustive + 100 random n=5 + 20 random n=6, {failures} failures, {elapsed:.1f}s",
    )


def test_pivot_expected_approximation():
    """Mean pivot cost over 500 seeds stays within 3.45 * OPT on 20 fixed
    graphs (3-approximation in expectation plus sampling slack)."""
    graphs = []
    seed = 0
    while len(graphs) < 20:
        n = 6 + len(graphs) % 3
        g = random_graph(n, 1000 + seed)
        seed += 1
        opt = brute_opt(g)
        if opt >= 1:
            graphs.append((g, opt))
    failures = 0
    for g, opt in graphs:
        costs = [
            disagreements(g, best_of_restarts(g, PivotRun(s, 1))) for s in range(500)
        ]
        if statistics.mean(costs) > 3.45 * opt:
            failures += 1
    report(
        "pivot mean cost within 3.45 * OPT over 500 seeds",
        failures == 0,
        f"20 graphs, {failures} failures",
    )


SCHEMA_JSON = json.dumps(
    {
        "columns": [
            {"name": "id", "kind": "id"},
            {"name": "x", "kind": "numeric"},
            {"name": "y", "kind": "numeric"},
            {"name": "job", "kind": "categorical"},
            {"name": "group", "kind": "protected"},
        ]
    }
)


def synthetic_csv(path, seed, shuffle=True):
    """150 rows, colors split 60/90, two latent blocks cutting across the
    color split so fairness genuinely constrains the clustering."""
    rng = random.Random(seed)
    lines = ["id,x,y,job,group"]
    rows = []
    for i in range(150):
        group = "R" if i < 60 else "B"
        block = i % 2
        x = (10 if block == 0 else 90) + rng.randrange(-8, 9)
        y = (80 if block == 0 else 20) + rng.randrange(-8, 9)
        job = ("a" if block == 0 else "b") if rng.random() < 0.9 else "c"
        rows.append((f"r{i}", x, y, job, group))
    if shuffle:
        rng.shuffle(rows)
        # the smaller color must appear first so it becomes the base color
        first_r = next(i for i, row in enumerate(rows) if row[4] == "R")
        rows[0], rows[first_r] = rows[first_r], rows[0]
    lines += [",".join(str(f) for f in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def run_trend(tmp_path, tag, seed):
    csv_path = tmp_path / f"{tag}.csv"
    synthetic_csv(csv_path, seed)
    schema = tmp_path / "schema.json"
    schema.write_text(SCHEMA_JSON)
    graph = tmp_path / f"{tag}_graph.json"
    colors = tmp_path / f"{tag}_colors.csv"
    assert cli_main(
        [
            "ingest",
            "--csv", str(csv_path),
            "--schema", str(schema),
            "--tau", "0.75",
            "--out-graph", str(graph),
            "--out-colors", str(colors),
        ]
    ) == 0
    out = tmp_path / f"{tag}_results.csv"
    assert cli_main(
        [
            "experiment",
            "--graph", str(graph),
            "--colors", str(colors),
            "--algos", "cc,faircc,wmatch,ufaircc,ccmerge",
            "--bounds", "1:1..1:2",
            "--runs", "5",
            "--restarts", "10",
            "--out", str(out),
        ]
    ) == 0
    means = {}
    import csv as csvmod

    with open(out, newline="") as fh:
        for row in csvmod.DictReader(fh):
            if row["seed"] == "mean":
                means[row["algo"]] = float(row["disagreements"])
    return means


def test_trend_faircc_beats_fair_baselines(tmp_path):
    """On two ingested 150-node datasets with interval fairness, mean
    disagreements order as CC <= FairCC <= min(wMatch, uFairCC) and
    FairCC <= CCMerge over 5 seeds."""
    start = time.perf_counter()
    ok = True
    details = []
    for tag, seed in (("alpha", 5), ("beta", 23)):
        m = run_trend(tmp_path, tag, seed)
        ok &= m["cc"] <= m["faircc"] <= min(m["wmatch"], m["ufaircc"])
        ok &= m["faircc"] <= m["ccmerge"]
        details.append(
            f"{tag}: cc={m['cc']} faircc={m['faircc']} wmatch={m['wmatch']} "
            f"ufaircc={m['ufaircc']} ccmerge={m['ccmerge']}"
        )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300
    report(
        "trend: cc <= faircc <= min(wmatch, ufaircc), faircc <= ccmerge",
        ok,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_end_to_end_determinism(tmp_path):
    """Rerunning every command with identical seeds reproduces identical
    bytes in every output file."""
    csv_path = tmp_path / "data.csv"
    # unshuffled: the smaller color occupies the lowest row indices, so it
    # stays the base color under any sample
    synthetic_csv(csv_path, 3, shuffle=False)
    schema = tmp_path / "schema.json"
    schema.write_text(SCHEMA_JSON)

    def run_all(prefix):
        graph = tmp_path / f"{prefix}_g.json"
        colors = tmp_path / f"{prefix}_c.csv"
        assert cli_main(
            [
                "ingest",
                "--csv", str(csv_path),
                "--schema", str(schema),
                "--sample", "90",
                "--balance", "1:2",
                "--seed", "9",
                "--out-graph", str(graph),
                "--out-colors", str(colors),
            ]
        ) == 0
        assert cli_main(
            [
                "cluster",
                "--graph", str(graph),
                "--colors", str(colors),
                "--algo", "faircc",
                "--bounds", "1:1..1:2",
                "--seed", "4",
                "--out-clustering", str(tmp_path / f"{prefix}_k.json"),
                "--out-result", str(tmp_path / f"{prefix}_r.json"),
            ]
        ) == 0
        assert cli_main(
            [
                "experiment",
                "--graph", str(graph),
                "--colors", str(colors),
                "--algos", "cc,faircc,ccmerge",
                "--bounds", "1:1..1:2",
                "--runs", "3",
                "--restarts", "5",
                "--out", str(tmp_path / f"{prefix}_e.csv"),
            ]
        ) == 0
        return [
            (tmp_path / f"{prefix}_{s}").read_bytes()
            for s in ("g.json", "c.csv", "k.json", "r.json", "e.csv")
        ]

    ok = run_all("one") == run_all("two")
    report("determinism: identical seeds give byte-identical outputs", ok)
