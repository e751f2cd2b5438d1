"""Time ``oracle.best_partition`` of two source trees on fixed instance sets.

Usage, from the repository root:

    python tools/bench_oracle.py --base OLD/src --new src > out.json

Each of ROUNDS rounds runs every instance set once per tree, each in a
fresh interpreter, alternating which tree goes first. An instance's time is
its least thread CPU time over the rounds, and each set reports the
minimum, median, mean and maximum of its instances' times.
``cold_peak_kb`` is the traced peak of the first call in the interpreter
(it builds any lazily built table); ``peak_kb`` is the largest traced peak
of one later call. ``identical_costs`` says whether the two trees return
the same cost on every instance, the -1 of "no fair partition" included;
``new_fair_at_cost`` says whether every assignment the new tree returns is
fair and has as many disagreements as its cost, in every round. Ties may
resolve to different optimal partitions in the two trees.

The sets: ``n10`` is the 200 instances of the benchmark's ``oracle_n10``
workload at seed 0 (5:5, ratio 1:1); ``n12`` is 3 random graphs each at
4:8 (1:1..1:2), 4:4:4 (1:1:1), 6:6 (1:1) and 3:4:5 (1:1:1..1:2:2); ``n14``
is 4 random graphs at 7:7 (1:1) and 2 on one color; ``n16`` is 4 random
graphs at 8:8 (1:1).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETS = ("n10", "n12", "n14", "n16")
ROUNDS = 5


def instances(name):
    import numpy as np

    from faircc import ColorAssignment, FairnessSpec, SignedCompleteGraph
    from workloads import make_instance

    def random_instance(counts, bounds, seed):
        n = sum(counts)
        rng = np.random.default_rng([seed, n, len(counts)])
        upper = np.triu(rng.random((n, n)) < 0.5, 1)
        signs = np.where(upper | upper.T, 1, -1).astype(np.int8)
        np.fill_diagonal(signs, 0)
        colors = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        return SignedCompleteGraph(n, signs), ColorAssignment(colors), FairnessSpec(0, bounds)

    if name == "n10":
        return [
            (SignedCompleteGraph(10, s), ColorAssignment(c), FairnessSpec(0, {1: (1, 1)}))
            for s, c in (make_instance("oracle_n10", 0, op) for op in range(200))
        ]
    shapes = {  # (color counts, bounds, graphs)
        "n12": [
            ((4, 8), {1: (1, 2)}, 3),
            ((4, 4, 4), {1: (1, 1), 2: (1, 1)}, 3),
            ((6, 6), {1: (1, 1)}, 3),
            ((3, 4, 5), {1: (1, 2), 2: (1, 2)}, 3),
        ],
        "n14": [((7, 7), {1: (1, 1)}, 4), ((14,), {}, 2)],
        "n16": [((8, 8), {1: (1, 1)}, 4)],
    }[name]
    return [
        random_instance(counts, bounds, seed)
        for counts, bounds, graphs in shapes
        for seed in range(graphs)
    ]


def measure(src, name):
    """One round on one set in this interpreter: a JSON line on stdout."""
    sys.path[:0] = [src, str(ROOT / "pipebench")]
    from faircc import Clustering, check_fairness, disagreements
    from faircc.oracle import best_partition

    def fair_at_cost(g, colors, spec, cost, assign):
        if assign is None:
            return cost == -1
        c = Clustering(assign)
        return check_fairness(colors, c, spec).overall_pass and disagreements(g, c) == cost

    insts = instances(name)
    tracemalloc.start()
    best_partition(*insts[0])
    cold_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    times, peaks, results = [], [], []
    for inst in insts:
        start = time.thread_time()
        best_partition(*inst)
        times.append(time.thread_time() - start)
    for inst in insts:
        tracemalloc.start()
        results.append(best_partition(*inst))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    print(json.dumps({
        "times": times,
        "cold_peak": cold_peak,
        "peak": max(peaks),
        "costs": [cost for cost, _ in results],
        "fair_at_cost": all(fair_at_cost(*i, *r) for i, r in zip(insts, results)),
    }))


def summary(runs):
    best = [min(per) for per in zip(*(run["times"] for run in runs))]
    return {
        "cpu_ms_min": round(1000 * min(best), 3),
        "cpu_ms_median": round(1000 * statistics.median(best), 3),
        "cpu_ms_mean": round(1000 * statistics.mean(best), 3),
        "cpu_ms_max": round(1000 * max(best), 3),
        "peak_kb": round(max(run["peak"] for run in runs) / 1024, 1),
        "cold_peak_kb": round(max(run["cold_peak"] for run in runs) / 1024, 1),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="src directory of the old tree")
    parser.add_argument("--new", help="src directory of the new tree")
    parser.add_argument("--measure", nargs=2, metavar=("SRC", "SET"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        measure(*args.measure)
        return
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
    for name in SETS:
        runs = {"base": [], "new": []}
        for r in range(ROUNDS):
            for side in ("base", "new") if r % 2 == 0 else ("new", "base"):
                src = str(Path(getattr(args, side)).resolve())
                line = subprocess.run(
                    [sys.executable, __file__, "--measure", src, name],
                    env=env, capture_output=True, text=True, check=True,
                ).stdout
                runs[side].append(json.loads(line))
        out["sets"][name] = {
            "instances": len(runs["base"][0]["times"]),
            "identical_costs": all(
                run["costs"] == runs["base"][0]["costs"] for run in runs["base"] + runs["new"]
            ),
            "new_fair_at_cost": all(run["fair_at_cost"] for run in runs["new"]),
            "base": summary(runs["base"]),
            "new": summary(runs["new"]),
        }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
