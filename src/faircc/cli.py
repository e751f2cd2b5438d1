"""Batch front-end: ingest CSV data, run any algorithm, sweep the
experiment matrix, verify the approximation bounds, and emit plot-ready
CSV/JSON.

Exit codes: 0 success, 1 invalid input, 2 infeasible fairness spec,
3 parse error, 4 oracle size limit exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys
import time

import numpy as np

from . import fair_clustering, ingest, oracle
from .algorithms import ALGORITHMS, matchings, run_algorithm
from .errors import FairCCError, ParseError
from .model import (
    ColorAssignment,
    FairnessSpec,
    SignedCompleteGraph,
    check_fairness,
    color_distribution,
)
from .pivot import PivotRun


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


def _unit_interval(text):
    """argparse type: a number in [0, 1], not nan."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _algorithm_list(text):
    """argparse type: comma-separated algorithm names, none unknown or repeated."""
    algos = text.split(",")
    for algo in algos:
        if algo not in ALGORITHMS:
            raise argparse.ArgumentTypeError(f"unknown algorithm {algo!r}")
    if len(set(algos)) < len(algos):
        raise argparse.ArgumentTypeError(f"an algorithm is named twice in {text!r}")
    return algos


class _Noted(argparse.Action):
    """Store an option's value and add its dest to ``given``, so a command
    can refuse an option it would ignore, even one given its default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


def _read(path):
    """Text of a UTF-8 input file."""
    with ingest._reading(path), open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_graph(path):
    """The graph of a graph JSON file, handed to ``from_json`` as bytes:
    it decodes only the text that its byte scan declines."""
    with ingest._reading(path):
        with open(path, "rb") as fh:
            data = fh.read()
        return SignedCompleteGraph.from_json(data)


# The types below raise ParseError, which argparse passes through, not
# ArgumentTypeError, so their messages carry no "argument --flag:" prefix.
def _out_path(path):
    """argparse type: an output path whose directory exists, so a run
    refuses it before any input is read."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ParseError(f"cannot write {path}: no such directory")
    return path


def _ratio_spec(text):
    """argparse type: --ratio '1:p[:p3...]', an exact spec."""
    parts = ingest._parse_ratio(text)
    return FairnessSpec.exact({i: p for i, p in enumerate(parts) if i > 0})


def _bounds_spec(text):
    """argparse type: --bounds '1:p[:p3...]..1:q[:q3...]', an interval spec."""
    if ".." not in text:
        raise ParseError(f"bad bounds {text!r}, expected lo..hi")
    lo_text, hi_text = text.split("..", 1)
    lo = ingest._parse_ratio(lo_text)
    hi = ingest._parse_ratio(hi_text)
    if len(lo) != len(hi):
        raise ParseError("bounds sides must name the same colors")
    for color, (p, q) in enumerate(zip(lo, hi)):
        if p > q:
            raise ParseError(f"bounds for color {color}: lower 1:{p} exceeds upper 1:{q}")
    return FairnessSpec(0, {i: (lo[i], hi[i]) for i in range(1, len(lo))})


def _load_instance(graph_path, colors_path):
    g = _read_graph(graph_path)
    colors = None
    if colors_path:
        colors = ColorAssignment.from_csv(_read(colors_path))
        if colors.n != g.n:
            raise ParseError("colors file does not match graph size")
    return g, colors


def _result_row(dataset, algo, seed, g, colors, spec, clustering, cost, millis):
    fair = None
    if spec is not None and colors is not None:
        # run_algorithm raises on a fair algorithm's unfair result
        fair = algo != "cc" or check_fairness(colors, clustering, spec).overall_pass
    return {
        "dataset": dataset,
        "algo": algo,
        "seed": seed,
        "n": g.n,
        "colors": colors.num_colors if colors else 0,
        "spec": spec.describe() if spec else "",
        "disagreements": cost,
        "fair": fair,
        "clusters": clustering.num_clusters,
        "millis": millis,
    }


def _write_instance(args, g, colors):
    """Write graph ``g`` to ``args.out_graph`` as graph JSON and ``colors``
    to ``args.out_colors`` as a colors CSV."""
    with open(args.out_graph, "w", encoding="utf-8") as fh:
        fh.write(g.to_json() + "\n")
    with open(args.out_colors, "w", encoding="utf-8") as fh:
        fh.write(colors.to_csv())


def cmd_ingest(args):
    if args.balance is not None:
        if args.sample is None:
            raise ParseError("--balance needs --sample")
        ingest._parse_ratio(args.balance)  # a bad ratio exits before any input is read
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
    g, colors = ingest.build_graph(ds, args.tau, ids)
    _write_instance(args, g, colors)
    names = ", ".join(f"{value}={color}" for value, color in ids.items())
    print(
        f"wrote {g.n} vertices, {g.n * (g.n - 1) // 2 - g.positive_pairs} negative edges, "
        f"colors {names}"
    )
    return 0


def _run_cells(args, algos, seeds, try_all_bases=False):
    """Load the instance that ``args`` names and run every (algo, seed)
    cell under ``args.spec`` through one memo, algo-major; returns the
    result rows, the last cell's clustering and the colors. The memo's
    window is the union of the cells' seed windows, so each restart pool
    runs once, and a row's cost is the one the memo scored with its result,
    so a cell that reuses a result scores nothing."""
    fair = [algo for algo in algos if algo != "cc"]
    if fair and args.colors is None:
        raise ParseError(f"algorithm {fair[0]!r} needs --colors")
    if fair and args.spec is None:
        raise ParseError(f"algorithm {fair[0]!r} needs --ratio or --bounds")
    g, colors = _load_instance(args.graph, args.colors)
    spec = args.spec
    window = PivotRun(min(seeds), max(seeds) - min(seeds) + args.restarts)
    rows, memo = [], {"window": window}
    for algo in algos:
        for seed in seeds:
            start = time.perf_counter()
            pivot = PivotRun(seed, args.restarts)
            clustering, cost = run_algorithm(algo, g, colors, spec, pivot, memo, try_all_bases)
            millis = int((time.perf_counter() - start) * 1000) if args.timing else 0
            rows.append(
                _result_row(args.dataset, algo, seed, g, colors, spec, clustering, cost, millis)
            )
    return rows, clustering, colors


def cmd_cluster(args):
    if args.try_all_bases and args.algo != "faircc":
        raise ParseError("--try-all-bases applies only to --algo faircc")
    (row,), clustering, colors = _run_cells(args, [args.algo], [args.seed], args.try_all_bases)
    hists = [] if colors is None else color_distribution(colors, clustering)[:5]
    row["top5"] = [{str(c): cnt for c, cnt in sorted(hist.items())} for hist in hists]
    with open(args.out_clustering, "w", encoding="utf-8") as fh:
        fh.write(clustering.to_json() + "\n")
    with open(args.out_result, "w", encoding="utf-8") as fh:
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


def _mean_row(group):
    """The mean row of one algorithm's result rows: their dataset, algo, n,
    colors and spec, the mean of every other CSV column but seed and fair,
    and a fair cell that is empty when theirs are (no colors or spec)."""
    row = {column: group[0][column] for column in ("dataset", "algo", "n", "colors", "spec")}
    verdicts = [r["fair"] for r in group]
    row.update(seed="mean", fair=None if None in verdicts else all(verdicts))
    for column in CSV_COLUMNS:
        if column not in row:
            row[column] = f"{np.mean([r[column] for r in group]):.2f}"
    return row


def cmd_experiment(args):
    seeds = [args.seed + k for k in range(args.runs)]
    rows, _, _ = _run_cells(args, args.algos, seeds)
    means = [_mean_row([row for row in rows if row["algo"] == algo]) for algo in args.algos]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows + means:
            writer.writerow([_csv_cell(row[c]) for c in CSV_COLUMNS])
    print(f"wrote {len(rows)} result rows to {args.out}")
    return 0


def _print_check(label, lhs, rel, rhs):
    ok = lhs <= rhs if rel == "<=" else lhs == rhs
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {lhs} {rel} {rhs}")
    return ok


def _verify_instance(g, colors, spec, pivot):
    ok = True
    # opt_fair checks the colors, the spec and the oracle's size cap before
    # any matcher work
    _, opt = oracle.opt_fair(g, colors, spec)
    memo = {}
    _, weights = matchings(g, colors, spec, memo)
    # the matching lemma, with q = p in exact-ratio mode
    for color in sorted(weights):
        q = spec.bounds[color][1]
        ok &= _print_check(f"w(M_{color}) <= 2*{q}*OPT_fair", weights[color], "<=", 2 * q * opt)
    _, cost = run_algorithm("faircc", g, colors, spec, pivot, memo)
    budget = fair_clustering.approximation_budget(spec, colors.num_colors)
    ok &= _print_check(f"cost(faircc) <= {budget}*OPT_fair", cost, "<=", budget * opt)
    return ok


def cmd_verify(args):
    if args.graph is None and args.mirror is None and args.random is None:
        raise ParseError("verify needs --graph, --mirror or --random")
    # only --random draws instances, and --mirror runs no pivot
    if args.max_n is not None and args.random is None:
        raise ParseError("verify --max-n needs --random")
    if args.mirror is not None and args.given & {"seed", "restarts"}:
        raise ParseError("verify --mirror takes no --seed or --restarts")
    pivot = PivotRun(args.seed, args.restarts)
    if args.graph is not None:
        if args.spec is None or args.colors is None:
            raise ParseError("verify needs --colors and --ratio/--bounds")
        g, colors = _load_instance(args.graph, args.colors)
        return 0 if _verify_instance(g, colors, args.spec, pivot) else 1
    # each makes its own colors and 1:1 spec
    if args.colors is not None or args.spec is not None:
        flag = "--mirror" if args.mirror is not None else "--random"
        raise ParseError(f"verify {flag} takes no --colors, --ratio or --bounds")
    if args.mirror is not None:
        g = _read_graph(args.mirror)
        h, colors = oracle.mirror_graph(g)
        # the 2n-vertex mirror meets the oracle's size cap first
        _, opt_h = oracle.opt_fair(h, colors, FairnessSpec.exact({1: 1}))
        _, opt_g = oracle.opt_cc(g)
        ok = _print_check("opt_fair(mirror) == 4*opt_cc", opt_h, "==", 4 * opt_g)
        return 0 if ok else 1
    rng = random.Random(args.seed)
    max_n = 8 if args.max_n is None else args.max_n
    ok = True
    for _ in range(args.random):
        half = rng.randrange(1, max_n // 2 + 1)
        n = 2 * half
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = SignedCompleteGraph.from_negative_edges(
            n, [pair for pair in pairs if rng.random() >= 0.5]
        )
        order = list(range(n))
        rng.shuffle(order)
        color_of = np.zeros(n, np.int64)
        color_of[order[half:]] = 1
        colors = ColorAssignment(color_of)
        spec = FairnessSpec.exact({1: 1})
        ok &= _verify_instance(g, colors, spec, pivot)
    return 0 if ok else 1


def cmd_gen(args):
    g = _read_graph(args.mirror)
    h, colors = oracle.mirror_graph(g)
    _write_instance(args, h, colors)
    print(f"wrote mirror instance with {h.n} vertices")
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it
    unchanged. Each subcommand's ``func`` is the ``cmd_*`` function bound
    at the first call. ``--colors``, ``--ratio`` | ``--bounds``,
    ``--seed`` and ``--restarts`` are declared once, in parents shared by
    ``cluster``, ``experiment`` and ``verify``, and every spec and output
    path is checked while parsing, before any input is read."""
    parser = _Parser(prog="faircc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.set_defaults(given=frozenset())  # the dests of _Noted options given
    seeded.add_argument("--seed", type=_at_least(0), default=0, action=_Noted)
    instance = argparse.ArgumentParser(add_help=False, parents=[seeded])
    instance.add_argument("--colors", default=None)
    spec = instance.add_mutually_exclusive_group()
    spec.add_argument("--ratio", dest="spec", type=_ratio_spec, metavar="RATIO")
    spec.add_argument("--bounds", dest="spec", type=_bounds_spec, metavar="BOUNDS")
    instance.add_argument("--restarts", type=_at_least(1), default=25, action=_Noted)

    p = sub.add_parser("ingest", parents=[seeded], help="CSV -> signed graph + colors")
    p.add_argument("--csv", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--tau", type=_unit_interval, default=0.5)
    p.add_argument("--sample", type=_at_least(1), default=None)
    p.add_argument("--balance", default=None, help="exact color ratio of the --sample, e.g. 1:2")
    p.add_argument("--out-graph", required=True, type=_out_path)
    p.add_argument("--out-colors", required=True, type=_out_path)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("cluster", parents=[instance], help="run one algorithm on one instance")
    p.add_argument("--graph", required=True)
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--try-all-bases", action="store_true")
    p.add_argument("--timing", action="store_true", help="record real wall time")
    p.add_argument("--dataset", default="instance")
    p.add_argument("--out-clustering", required=True, type=_out_path)
    p.add_argument("--out-result", required=True, type=_out_path)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("experiment", parents=[instance], help="algorithm x seed matrix -> CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--algos", required=True, type=_algorithm_list, help="comma-separated list")
    p.add_argument("--runs", type=_at_least(1), default=5)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--dataset", default="instance")
    p.add_argument("--out", required=True, type=_out_path)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", parents=[instance], help="check the approximation bounds")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--graph", default=None)
    source.add_argument("--mirror", default=None, help="base graph for the mirror identity")
    source.add_argument("--random", type=_at_least(1), default=None, help="random instance sweep")
    p.add_argument("--max-n", type=_at_least(2), default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit derived instances")
    p.add_argument("--mirror", required=True, help="graph to duplicate")
    p.add_argument("--out-graph", required=True, type=_out_path)
    p.add_argument("--out-colors", required=True, type=_out_path)
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
