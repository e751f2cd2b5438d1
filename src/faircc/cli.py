"""Batch front-end: ingest CSV data, run any algorithm, sweep the
experiment matrix, verify the approximation bounds, and emit plot-ready
CSV/JSON.

Exit codes: 0 success, 1 invalid input, 2 infeasible fairness spec,
3 parse error, 4 oracle size limit exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time

import numpy as np

from . import baselines, fair_clustering, ingest, oracle
from .errors import FairCCError, ParseError
from .model import (
    ColorAssignment,
    FairnessSpec,
    SignedCompleteGraph,
    check_fairness,
    color_distribution,
    disagreements,
)
from .pivot import PivotRun

ALGORITHMS = ("cc", "wmatch", "ufaircc", "ccmerge", "faircc")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _at_least(low):
    """argparse type: an integer no smaller than ``low``."""

    def integer(text):
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _read(path):
    """Text of an input file; one that cannot be read is a ParseError."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def _check_out_dirs(*paths):
    """Raise a ParseError, before any input is read, for an output path
    whose directory does not exist."""
    for path in paths:
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ParseError(f"cannot write {path}: no such directory")


def parse_spec(ratio, bounds):
    """--ratio '1:p[:p3...]' or --bounds '1:p[:p3...]..1:q[:q3...]'."""
    if ratio and bounds:
        raise ParseError("--ratio and --bounds are mutually exclusive")
    if ratio:
        parts = ingest._parse_ratio(ratio)
        return FairnessSpec.exact({i: p for i, p in enumerate(parts) if i > 0})
    if bounds:
        if ".." not in bounds:
            raise ParseError(f"bad bounds {bounds!r}, expected lo..hi")
        lo_text, hi_text = bounds.split("..", 1)
        lo = ingest._parse_ratio(lo_text)
        hi = ingest._parse_ratio(hi_text)
        if len(lo) != len(hi):
            raise ParseError("bounds sides must name the same colors")
        for color, (p, q) in enumerate(zip(lo, hi)):
            if p > q:
                raise ParseError(f"bounds for color {color}: lower 1:{p} exceeds upper 1:{q}")
        return FairnessSpec(0, {i: (lo[i], hi[i]) for i in range(1, len(lo))})
    return None


def run_algorithm(algo, g, colors, spec, pivot, memo, try_all_bases=False):
    """Run one algorithm on one instance.

    ``memo`` is a dict the caller keeps for this instance (and spec). It
    carries the layers that several calls share, each computed on first
    use: the seed-free matchings per ``unit_costs`` (``faircc`` and
    ``wmatch`` use pair costs, ``ufaircc`` unit costs), and per PivotRun
    the base-color pivot (``faircc`` and ``ufaircc``) and the ``cc``
    clustering, which ``ccmerge`` repairs.
    """
    if algo == "cc":
        if ("cc", pivot) not in memo:
            memo["cc", pivot] = baselines.run_cc(g, pivot)
        return memo["cc", pivot]
    if spec is None:
        raise ParseError(f"algorithm {algo!r} needs --ratio or --bounds")
    if algo == "ccmerge":
        cc = run_algorithm("cc", g, colors, spec, pivot, memo)
        return baselines.run_ccmerge(g, colors, spec, cc)
    if algo == "faircc" and try_all_bases:
        return fair_clustering.fair_cc(g, colors, spec, pivot, try_all_bases=True)
    if algo not in ("wmatch", "ufaircc", "faircc"):
        raise ParseError(f"unknown algorithm {algo!r}")
    unit_costs = algo == "ufaircc"
    if ("matchings", unit_costs) not in memo:
        memo["matchings", unit_costs] = fair_clustering.build_matchings(
            g, colors, spec, unit_costs
        )
    fairlets = fair_clustering.build_fairlets(colors, spec, memo["matchings", unit_costs])
    if algo == "wmatch":
        return baselines.run_wmatch(fairlets)
    if ("base", pivot) not in memo:
        memo["base", pivot] = fair_clustering.pivot_base(g, colors, spec, pivot)
    return fair_clustering.run_pipeline(colors, spec, fairlets, memo["base", pivot])


def _load_instance(graph_path, colors_path):
    g = SignedCompleteGraph.from_json(_read(graph_path))
    colors = None
    if colors_path:
        colors = ColorAssignment.from_csv(_read(colors_path))
        if colors.n != g.n:
            raise ParseError("colors file does not match graph size")
    return g, colors


def _result_row(dataset, algo, seed, g, colors, spec, clustering, millis):
    fair = None
    if spec is not None and colors is not None:
        fair = check_fairness(colors, clustering, spec).overall_pass
    top5 = []
    if colors is not None:
        top5 = [
            {str(c): cnt for c, cnt in sorted(hist.items())}
            for hist in color_distribution(colors, clustering)[:5]
        ]
    return {
        "dataset": dataset,
        "algo": algo,
        "seed": seed,
        "n": g.n,
        "colors": colors.num_colors if colors else 0,
        "spec": spec.describe() if spec else "",
        "disagreements": disagreements(g, clustering),
        "fair": fair,
        "clusters": clustering.num_clusters,
        "millis": millis,
        "top5": top5,
    }


def cmd_ingest(args):
    if args.balance is not None and args.sample is None:
        raise ParseError("--balance needs --sample")
    _check_out_dirs(args.out_graph, args.out_colors)
    schema = ingest.Schema.from_json(_read(args.schema))
    ds, dropped = ingest.load_csv(args.csv, schema)
    if dropped:
        print(f"dropped {dropped} rows missing the protected attribute")
    # a balanced sample takes its ratio terms in the full data's color order
    ids = ingest.color_ids(ds)
    if args.sample is not None:
        ds = ingest.sample(ds, args.sample, args.seed, balance=args.balance)
        if args.balance is None:
            ids = ingest.color_ids(ds)  # a plain sample may miss a color
    g, colors = ingest.build_graph(ds, ingest.SimilarityConfig(tau=args.tau), ids)
    with open(args.out_graph, "w") as fh:
        fh.write(g.to_json() + "\n")
    with open(args.out_colors, "w") as fh:
        fh.write(colors.to_csv())
    names = ", ".join(f"{value}={color}" for value, color in ids.items())
    print(
        f"wrote {g.n} vertices, {len(g.negative_edges())} negative edges, "
        f"colors {names}"
    )
    return 0


def cmd_cluster(args):
    _check_out_dirs(args.out_clustering, args.out_result)
    g, colors = _load_instance(args.graph, args.colors)
    spec = parse_spec(args.ratio, args.bounds)
    if args.algo != "cc" and colors is None:
        raise ParseError(f"algorithm {args.algo!r} needs --colors")
    pivot = PivotRun(args.seed, args.restarts)
    start = time.perf_counter()
    clustering = run_algorithm(
        args.algo, g, colors, spec, pivot, {}, try_all_bases=args.try_all_bases
    )
    millis = int((time.perf_counter() - start) * 1000) if args.timing else 0
    row = _result_row(
        args.dataset, args.algo, args.seed, g, colors, spec, clustering, millis
    )
    if args.algo != "cc" and spec is not None and row["fair"] is False:
        raise FairCCError(
            "fairness-guaranteed algorithm produced an unfair clustering: "
            + check_fairness(colors, clustering, spec).describe_violations()
        )
    with open(args.out_clustering, "w") as fh:
        fh.write(clustering.to_json() + "\n")
    with open(args.out_result, "w") as fh:
        fh.write(json.dumps(row) + "\n")
    print(f"{args.algo}: {row['disagreements']} disagreements, {row['clusters']} clusters")
    return 0


CSV_COLUMNS = (
    "dataset",
    "algo",
    "seed",
    "n",
    "colors",
    "spec",
    "disagreements",
    "fair",
    "clusters",
    "millis",
)


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def cmd_experiment(args):
    _check_out_dirs(args.out)
    g, colors = _load_instance(args.graph, args.colors)
    spec = parse_spec(args.ratio, args.bounds)
    algos = args.algos.split(",")
    for algo in algos:
        if algo not in ALGORITHMS:
            raise ParseError(f"unknown algorithm {algo!r}")
    if any(a != "cc" for a in algos) and (spec is None or colors is None):
        raise ParseError("fair algorithms need --colors and --ratio or --bounds")
    seeds = [args.seed + k for k in range(args.runs)]
    rows = []
    memo = {}
    for algo in algos:
        for seed in seeds:
            start = time.perf_counter()
            pivot = PivotRun(seed, args.restarts)
            clustering = run_algorithm(algo, g, colors, spec, pivot, memo)
            millis = int((time.perf_counter() - start) * 1000) if args.timing else 0
            row = _result_row(args.dataset, algo, seed, g, colors, spec, clustering, millis)
            if algo != "cc" and spec is not None and row["fair"] is False:
                raise FairCCError(
                    f"{algo} seed {seed}: fairness invariant violated: "
                    + check_fairness(colors, clustering, spec).describe_violations()
                )
            rows.append(row)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(row[c]) for c in CSV_COLUMNS])
    for algo in algos:
        group = [row for row in rows if row["algo"] == algo]
        writer.writerow(
            [
                args.dataset,
                algo,
                "mean",
                g.n,
                colors.num_colors if colors else 0,
                spec.describe() if spec else "",
                f"{np.mean([r['disagreements'] for r in group]):.2f}",
                _csv_cell(all(r["fair"] for r in group) if spec else None),
                f"{np.mean([r['clusters'] for r in group]):.2f}",
                f"{np.mean([r['millis'] for r in group]):.2f}",
            ]
        )
    with open(args.out, "w") as fh:
        fh.write(buf.getvalue())
    print(f"wrote {len(rows)} result rows to {args.out}")
    return 0


def _print_check(label, lhs, rel, rhs):
    ok = lhs <= rhs if rel == "<=" else lhs == rhs
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {lhs} {rel} {rhs}")
    return ok


def _verify_instance(g, colors, spec, pivot):
    ok = True
    matchings = fair_clustering.build_matchings(g, colors, spec)
    report = fair_clustering.matching_weight_bound_check(g, colors, spec, matchings)
    for color in sorted(report.weights):
        q = spec.bounds[color][1]
        ok &= _print_check(
            f"w(M_{color}) <= 2*{q}*OPT_fair",
            report.weights[color],
            "<=",
            report.budgets[color],
        )
    memo = {("matchings", False): matchings}
    clustering = run_algorithm("faircc", g, colors, spec, pivot, memo)
    cost = disagreements(g, clustering)
    budget = fair_clustering.approximation_budget(spec, colors.num_colors)
    ok &= _print_check(
        f"cost(faircc) <= {budget}*OPT_fair", cost, "<=", budget * report.opt_fair_value
    )
    return ok


def cmd_verify(args):
    pivot = PivotRun(args.seed, args.restarts)
    if args.mirror:
        g = SignedCompleteGraph.from_json(_read(args.mirror))
        _, opt_g = oracle.opt_cc(g)
        h, colors = oracle.mirror_graph(g)
        spec = FairnessSpec.exact({1: 1})
        _, opt_h = oracle.opt_fair(h, colors, spec)
        ok = _print_check("opt_fair(mirror) == 4*opt_cc", opt_h, "==", 4 * opt_g)
        return 0 if ok else 1
    if args.random is not None:
        rng = random.Random(args.seed)
        ok = True
        for _ in range(args.random):
            half = rng.randrange(1, args.max_n // 2 + 1)
            n = 2 * half
            signs = np.ones((n, n), dtype=np.int8)
            for u in range(n):
                for v in range(u + 1, n):
                    signs[u, v] = signs[v, u] = 1 if rng.random() < 0.5 else -1
            np.fill_diagonal(signs, 0)
            g = SignedCompleteGraph(n, signs)
            order = list(range(n))
            rng.shuffle(order)
            color_of = [0] * n
            for v in order[half:]:
                color_of[v] = 1
            colors = ColorAssignment(tuple(color_of))
            spec = FairnessSpec.exact({1: 1})
            ok &= _verify_instance(g, colors, spec, pivot)
        return 0 if ok else 1
    if args.graph is None:
        raise ParseError("verify needs --graph, --mirror or --random")
    g, colors = _load_instance(args.graph, args.colors)
    spec = parse_spec(args.ratio, args.bounds)
    if spec is None or colors is None:
        raise ParseError("verify needs --colors and --ratio/--bounds")
    return 0 if _verify_instance(g, colors, spec, pivot) else 1


def cmd_gen(args):
    _check_out_dirs(args.out_graph, args.out_colors)
    g = SignedCompleteGraph.from_json(_read(args.mirror))
    h, colors = oracle.mirror_graph(g)
    with open(args.out_graph, "w") as fh:
        fh.write(h.to_json() + "\n")
    with open(args.out_colors, "w") as fh:
        fh.write(colors.to_csv())
    print(f"wrote mirror instance with {h.n} vertices")
    return 0


def build_parser():
    parser = _Parser(prog="faircc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="CSV -> signed graph + colors")
    p.add_argument("--csv", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--sample", type=_at_least(1), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--balance", default=None, help="exact color ratio of the --sample, e.g. 1:2")
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-colors", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("cluster", help="run one algorithm on one instance")
    p.add_argument("--graph", required=True)
    p.add_argument("--colors", default=None)
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--ratio", default=None)
    p.add_argument("--bounds", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=_at_least(1), default=25)
    p.add_argument("--try-all-bases", action="store_true")
    p.add_argument("--timing", action="store_true", help="record real wall time")
    p.add_argument("--dataset", default="instance")
    p.add_argument("--out-clustering", required=True)
    p.add_argument("--out-result", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("experiment", help="algorithm x seed matrix -> CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--colors", default=None)
    p.add_argument("--algos", required=True, help="comma-separated list")
    p.add_argument("--ratio", default=None)
    p.add_argument("--bounds", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=_at_least(1), default=5)
    p.add_argument("--restarts", type=_at_least(1), default=25)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--dataset", default="instance")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", help="check the approximation bounds")
    p.add_argument("--graph", default=None)
    p.add_argument("--colors", default=None)
    p.add_argument("--ratio", default=None)
    p.add_argument("--bounds", default=None)
    p.add_argument("--mirror", default=None, help="base graph for the mirror identity")
    p.add_argument("--random", type=_at_least(1), default=None, help="random instance sweep")
    p.add_argument("--max-n", type=_at_least(2), default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=_at_least(1), default=25)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit derived instances")
    p.add_argument("--mirror", required=True, help="graph to duplicate")
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-colors", required=True)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except FairCCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
