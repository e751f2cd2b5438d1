"""Time two source trees on fixed instance sets, and check that they agree.

Usage, from the repository root:

    python tools/bench_ab.py oracle --base OLD/src --new src > BENCH_oracle.json
    python tools/bench_ab.py experiment --base OLD/src --new src > BENCH_experiment.json
    python tools/bench_ab.py matcher --base OLD/src --new src > BENCH_matcher.json

Every set is a row of the table SETS, built by ``instances`` with the
benchmark's generators (``pipebench/workloads.py``): a workload part is the
first ops of that workload at a benchmark seed, under its bounds; a shape
part is ``graphs`` graphs of a sign kind and color counts, graph i drawing
its signs, then its colors, from the rng keyed (i, n, number of colors).
A suite is its sets, its call and the fingerprint of a call's result.

Each of ROUNDS rounds measures every set once per tree, in a fresh
interpreter with OPENBLAS_NUM_THREADS=1, alternating which tree goes first.
A measure is one loop for every suite: the first instance, traced, warms
the interpreter up and gives ``cold_peak_kb`` (it builds any lazily built
table); one pass takes each instance's thread CPU time; one pass under
tracemalloc takes each instance's peak and result fingerprint. Each tree
reports the minimum, median, mean and maximum over the instances of their
least time over the rounds (``cpu_ms_*``) and ``peak_kb``, the largest
traced peak of one call. Every true/false of a set is a verdict; the tool
prints the JSON and then exits 1 if any is false. A suite's ``identical_*``
verdict says that every round of both trees gave the same fingerprint on
every instance.

``oracle`` times ``oracle.best_partition`` on ``n10`` (the ``oracle_n10``
workload) and random graphs of 12, 14 and 16 vertices. Its fingerprint is
the cost, -1 for "no fair partition"; ties may resolve to different
optimal partitions in the two trees. ``new_fair_at_cost`` says that every
assignment the new tree returns, in every round, is fair and has as many
disagreements as its cost.

``experiment`` times one ``experiment`` CLI run (the ``sweep_n120``
workload's command line: all five algorithms, ``--runs 5``) on files
written before the passes. Its fingerprint is the exit code, stdout and CSV
bytes. ``calls_per_instance`` counts, per run of the traced pass, the
functions in COUNTED: ccmerge repairs, faircc and ufaircc attachments,
wmatch clusterings, and ``run_algorithm``'s fairness gate and scoring.

``matcher`` times ``fair_clustering.build_matchings``, the per-color
b-matchings of the fairlet stage, pair-cost tables included, on two
workloads and planted graphs at n = 2400 (bounds 1:1..1:2, so two slots per
base vertex and the -M shift) and n = 3200. Its fingerprint is every
vertex's fairlet id and every color's matching weight.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 5
RANDOM = {"kind": "random"}
PLANTED = {"kind": "planted", "blocks": 8, "noise": 0.15}
# set: its parts, each (workload, benchmark seed, ops) or (sign kind, color
# counts, bounds, graphs)
SETS = {
    "n10": [("oracle_n10", 0, 200)],
    "n12": [
        (RANDOM, (4, 8), {1: (1, 2)}, 3),
        (RANDOM, (4, 4, 4), {1: (1, 1), 2: (1, 1)}, 3),
        (RANDOM, (6, 6), {1: (1, 1)}, 3),
        (RANDOM, (3, 4, 5), {1: (1, 2), 2: (1, 2)}, 3),
    ],
    "n14": [(RANDOM, (7, 7), {1: (1, 1)}, 4), (RANDOM, (14,), {}, 2)],
    "n16": [(RANDOM, (8, 8), {1: (1, 1)}, 4)],
    "seed0": [("sweep_n120", 0, 20)],
    "seed7": [("sweep_n120", 7, 20)],
    "fairlet_n400": [("fairlet_n400", 0, 20)],
    "sweep_n120": [("sweep_n120", 0, 20)],
    "n2400": [(PLANTED, (960, 1440), {1: (1, 2)}, 1)],
    "n3200": [(PLANTED, (1600, 1600), {1: (1, 1)}, 2)],
}


def instances(name):
    """(graph, colors, spec) of every instance of set ``name``."""
    import numpy as np
    from faircc import ColorAssignment, FairnessSpec, SignedCompleteGraph
    from workloads import bounds, make_colors, make_instance, make_signs

    out = []
    for source, *part in SETS[name]:
        if isinstance(source, str):  # a workload
            seed, ops = part
            out += [(*make_instance(source, seed, op), bounds(source)) for op in range(ops)]
            continue
        counts, spec_bounds, graphs = part
        n = sum(counts)
        for graph in range(graphs):
            rng = np.random.default_rng([graph, n, len(counts)])
            out.append((make_signs(n, source, rng), make_colors(counts, rng), spec_bounds))
    return [
        (SignedCompleteGraph(len(s), s), ColorAssignment(c), FairnessSpec(0, b)) for s, c, b in out
    ]


def oracle(insts):
    from faircc import Clustering, check_fairness, disagreements
    from faircc.oracle import best_partition

    def fair_at_cost(args, out):
        (g, colors, spec), (cost, assign) = args, out
        if assign is None:
            return cost == -1
        c = Clustering(assign)
        return check_fairness(colors, c, spec).overall_pass and disagreements(g, c) == cost

    return insts, best_partition, lambda out: out[0], fair_at_cost, {}


def matcher(insts):
    from faircc.fair_clustering import build_matchings

    return insts, build_matchings, lambda out: (out[0].tolist(), sorted(out[1].items())), None, {}


COUNTED = (
    "baselines.run_ccmerge", "fair_clustering.run_pipeline", "baselines.run_wmatch",
    "algorithms.check_fairness", "algorithms.disagreements",
)


def experiment(insts):
    from faircc import cli
    from workloads import cli_argv, write_instance

    csv = "x.csv"  # every experiment's, by relative path, so stdout names it alike in both trees
    calls = dict.fromkeys((name.partition(".")[2] for name in COUNTED), 0)
    for name in COUNTED:
        module_name, _, attr = name.partition(".")
        module = importlib.import_module(f"faircc.{module_name}")

        def counted(*args, _attr=attr, _original=getattr(module, attr), **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        setattr(module, attr, counted)

    args = []
    for op, (g, colors, _) in enumerate(insts):
        paths = {"graph": f"g{op}.json", "colors": f"c{op}.csv", "csv": csv}
        write_instance(g.signs, colors.color_of, paths["graph"], paths["colors"])
        args.append((paths,))

    def run(paths):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(cli_argv("sweep_n120", paths))
        return rc, out.getvalue()

    def fingerprint(out):
        return (*out, Path(csv).read_bytes())

    return args, run, fingerprint, None, calls


# suite: (sets, identity verdict, check verdict or None, factory), where
# factory(instances) gives (every instance's call arguments, call,
# fingerprint(result), check(arguments, result) or None, the counts of
# COUNTED calls)
SUITES = {
    "oracle": (("n10", "n12", "n14", "n16"), "identical_costs", "new_fair_at_cost", oracle),
    "experiment": (("seed0", "seed7"), "identical_csv", None, experiment),
    "matcher": (
        ("fairlet_n400", "sweep_n120", "n2400", "n3200"), "identical_fairlets", None, matcher,
    ),
}


def measure(suite, name):
    """One round's JSON line for set ``name``: a traced warm-up on the first
    instance, a timed pass and a traced pass over every instance."""
    args, call, fingerprint, check, calls = SUITES[suite][3](instances(name))

    def traced(inst_args):
        tracemalloc.start()
        out = call(*inst_args)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak, out

    cold_peak, _ = traced(args[0])
    times = []
    for inst_args in args:
        start = time.thread_time()
        call(*inst_args)
        times.append(time.thread_time() - start)
    calls.update(dict.fromkeys(calls, 0))
    peaks, results, checked = [], [], True
    for inst_args in args:
        peak, out = traced(inst_args)
        peaks.append(peak)
        results.append(hashlib.sha256(repr(fingerprint(out)).encode()).hexdigest())
        checked &= check is None or check(inst_args, out)
    return {
        "times": times,
        "cold_peak": cold_peak,
        "peak": max(peaks),
        "results": results,
        "checked": checked,
        "calls": {attr: count / len(args) for attr, count in calls.items()},
    }


def summary(runs):
    """One tree's entry for a set, from its rounds."""
    best = [min(per) for per in zip(*(run["times"] for run in runs))]
    stats = {"min": min, "median": statistics.median, "mean": statistics.mean, "max": max}
    return {
        **{f"cpu_ms_{stat}": round(1000 * f(best), 3) for stat, f in stats.items()},
        "peak_kb": round(max(run["peak"] for run in runs) / 1024, 1),
        "cold_peak_kb": round(max(run["cold_peak"] for run in runs) / 1024, 1),
        **({"calls_per_instance": runs[0]["calls"]} if runs[0]["calls"] else {}),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--base", help="src directory of the old tree")
    parser.add_argument("--new", help="src directory of the new tree")
    parser.add_argument("--measure", nargs=2, metavar=("SRC", "SET"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sets, identical, checked, _ = SUITES[args.suite]
    if args.measure:
        src, name = args.measure
        sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "pipebench")]
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # the experiment suite's files
            print(json.dumps(measure(args.suite, name)))
        return 0
    if not (args.base and args.new):
        parser.error("--base and --new are required")
    import numpy

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    out = {
        "host": {
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "rounds": ROUNDS,
        "sets": {},
    }
    for name in sets:
        runs = {"base": [], "new": []}
        for r in range(ROUNDS):
            for side in ("base", "new") if r % 2 == 0 else ("new", "base"):
                line = subprocess.run(
                    [sys.executable, __file__, args.suite, "--measure", getattr(args, side), name],
                    env=env, stdout=subprocess.PIPE, text=True, check=True,
                ).stdout
                runs[side].append(json.loads(line))
        first = runs["base"][0]["results"]
        out["sets"][name] = {
            "instances": len(first),
            identical: all(run["results"] == first for run in runs["base"] + runs["new"]),
            **({checked: all(run["checked"] for run in runs["new"])} if checked else {}),
            **{side: summary(runs[side]) for side in runs},
        }
    ok = all(v for s in out["sets"].values() for v in s.values() if isinstance(v, bool))
    print(json.dumps(out, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
