"""Time two source trees on fixed instance sets, and check that they agree.

Usage, from the repository root:

    python tools/bench_ab.py oracle --base OLD/src --new src > BENCH_oracle.json
    python tools/bench_ab.py experiment --base OLD/src --new src > BENCH_experiment.json
    python tools/bench_ab.py matcher --base OLD/src --new src > BENCH_matcher.json

Each of ROUNDS rounds runs every set of the suite once per tree, each in a
fresh interpreter with OPENBLAS_NUM_THREADS=1, alternating which tree goes
first. An instance's time is its least thread CPU time over the rounds, and
each tree reports the minimum, median, mean and maximum of its instances'
times (``cpu_ms_*``). Every true/false a set reports is a verdict: the tool
prints the JSON and then exits 1 if any verdict is false.

``oracle`` times ``oracle.best_partition``. ``identical_costs`` says whether
the two trees return the same cost on every instance, the -1 of "no fair
partition" included; ``new_fair_at_cost`` says whether every assignment the
new tree returns is fair and has as many disagreements as its cost, in every
round. Ties may resolve to different optimal partitions in the two trees.
``cold_peak_kb`` is the traced peak of the first call in the interpreter (it
builds any lazily built table); ``peak_kb`` is the largest traced peak of one
later call. The sets: ``n10`` is the 200 instances of the benchmark's
``oracle_n10`` workload at seed 0 (5:5, ratio 1:1); ``n12`` is 3 random graphs
each at 4:8 (1:1..1:2), 4:4:4 (1:1:1), 6:6 (1:1) and 3:4:5 (1:1:1..1:2:2);
``n14`` is 4 random graphs at 7:7 (1:1) and 2 on one color; ``n16`` is 4
random graphs at 8:8 (1:1).

``experiment`` times ``experiment`` with all five algorithms and ``--runs 5``
(the ``sweep_n120`` workload's command line) on the first INSTANCES
instances of that workload at benchmark seeds 0 and 7, one set each.
``identical_csv`` says whether every experiment writes the same CSV bytes
and prints the same stdout and exit code in both trees, in every round.
``calls_per_experiment`` counts, per experiment, the ccmerge repairs
(``baselines.run_ccmerge``), the faircc and ufaircc attachments
(``fair_clustering.run_pipeline``), the wmatch clusterings
(``baselines.run_wmatch``), the fairness gate of ``run_algorithm``
(``algorithms.check_fairness``) and its scoring calls
(``algorithms.disagreements``).

``matcher`` times ``fair_clustering.build_matchings``, the per-color
b-matchings of the fairlet stage, pair-cost tables included.
``identical_fairlets`` says whether both trees return the same fairlet id of
every vertex and the same matching weights on every instance, in every
round; ``peak_kb`` is the largest traced peak of one call. The sets:
``fairlet_n400`` and ``sweep_n120`` are the first MATCHED instances of those
workloads at seed 0 under their bounds; ``n2400`` is 1 planted graph (8
blocks, 15% noise) at 960:1440 under bounds 1:1..1:2, so two slots per base
vertex and the -M shift; ``n3200`` is 2 planted graphs (8 blocks, 15%
noise) at 1600:1600 under ratio 1:1.
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


def oracle_instances(name):
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


def oracle_measure(name):
    from faircc import Clustering, check_fairness, disagreements
    from faircc.oracle import best_partition

    def fair_at_cost(g, colors, spec, cost, assign):
        if assign is None:
            return cost == -1
        c = Clustering(assign)
        return check_fairness(colors, c, spec).overall_pass and disagreements(g, c) == cost

    insts = oracle_instances(name)
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
    return {
        "times": times,
        "cold_peak": cold_peak,
        "peak": max(peaks),
        "costs": [cost for cost, _ in results],
        "fair_at_cost": all(fair_at_cost(*i, *r) for i, r in zip(insts, results)),
    }


def agree(runs, key):
    """Whether every round of both trees returned the base tree's first
    round's ``key``."""
    return all(run[key] == runs["base"][0][key] for run in runs["base"] + runs["new"])


def oracle_verdicts(runs):
    return {
        "instances": len(runs["base"][0]["times"]),
        "identical_costs": agree(runs, "costs"),
        "new_fair_at_cost": all(run["fair_at_cost"] for run in runs["new"]),
    }


def oracle_extras(runs):
    return {
        "peak_kb": round(max(run["peak"] for run in runs) / 1024, 1),
        "cold_peak_kb": round(max(run["cold_peak"] for run in runs) / 1024, 1),
    }


WORKLOAD = "sweep_n120"
INSTANCES = 20
COUNTED = (
    ("baselines", "run_ccmerge"),
    ("fair_clustering", "run_pipeline"),
    ("baselines", "run_wmatch"),
    ("algorithms", "check_fairness"),
    ("algorithms", "disagreements"),
)


def experiment_measure(name):
    from faircc import cli
    from workloads import cli_argv, make_instance, write_instance

    seed = int(name.removeprefix("seed"))
    calls = dict.fromkeys((attr for _, attr in COUNTED), 0)

    def counted(module, attr):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        setattr(module, attr, wrapper)

    for module, attr in COUNTED:
        counted(importlib.import_module(f"faircc.{module}"), attr)
    paths = {"graph": "g.json", "colors": "c.csv", "csv": "x.csv"}

    def run(op):
        """(thread CPU seconds, digest of exit code, stdout and CSV) of op ``op``."""
        write_instance(*make_instance(WORKLOAD, seed, op), paths["graph"], paths["colors"])
        out = io.StringIO()
        start = time.thread_time()
        with contextlib.redirect_stdout(out):
            rc = cli.main(cli_argv(WORKLOAD, paths))
        elapsed = time.thread_time() - start
        digest = hashlib.sha256(f"{rc}\n{out.getvalue()}".encode())
        digest.update(Path(paths["csv"]).read_bytes())
        return elapsed, digest.hexdigest()

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative paths, so stdout names the same CSV in both trees
        run(-1)  # the workload's tiny set-up instance warms the interpreter up
        calls.update(dict.fromkeys(calls, 0))
        times, digests = zip(*(run(op) for op in range(INSTANCES)))
    return {"times": times, "calls": calls, "digests": digests}


def experiment_verdicts(runs):
    return {"identical_csv": agree(runs, "digests")}


def experiment_extras(runs):
    return {
        "calls_per_experiment": {
            name: calls / INSTANCES for name, calls in runs[0]["calls"].items()
        },
    }


MATCHED = 20  # instances of each workload set of the matcher suite
# the matcher suite's planted sets (8 blocks, 15% noise): graphs, color
# counts and bounds
PLANTED = {
    "n2400": (1, [960, 1440], {1: (1, 2)}),
    "n3200": (2, [1600, 1600], {1: (1, 1)}),
}


def matcher_instances(name):
    import numpy as np

    from faircc import ColorAssignment, FairnessSpec, SignedCompleteGraph
    from workloads import bounds, make_colors, make_instance, make_signs

    if name in PLANTED:
        graphs, counts, spec_bounds = PLANTED[name]
        n, planted = sum(counts), {"kind": "planted", "blocks": 8, "noise": 0.15}
        rngs = [np.random.default_rng([graph, n]) for graph in range(graphs)]
        pairs = [(make_signs(n, planted, rng), make_colors(counts, rng)) for rng in rngs]
        spec = FairnessSpec(0, spec_bounds)
    else:
        pairs = [make_instance(name, 0, op) for op in range(MATCHED)]
        spec = FairnessSpec(0, bounds(name))
    return [(SignedCompleteGraph(len(s), s), ColorAssignment(c), spec) for s, c in pairs]


def matcher_measure(name):
    from faircc import ColorAssignment, FairnessSpec, SignedCompleteGraph
    from faircc.fair_clustering import build_matchings
    from workloads import make_instance

    insts = matcher_instances(name)
    signs, colors = make_instance("fairlet_n400", 0, -1)  # a tiny 4:4 warm-up
    tiny = SignedCompleteGraph(8, signs), ColorAssignment(colors), FairnessSpec(0, {1: (1, 1)})
    build_matchings(*tiny)
    times, peaks, digests = [], [], []
    for inst in insts:
        start = time.thread_time()
        build_matchings(*inst)
        times.append(time.thread_time() - start)
    for inst in insts:
        tracemalloc.start()
        fairlets, weights = build_matchings(*inst)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        digest = hashlib.sha256(fairlets.astype("<i8").tobytes())
        digest.update(repr(sorted(weights.items())).encode())
        digests.append(digest.hexdigest())
    return {"times": times, "peak": max(peaks), "digests": digests}


def matcher_verdicts(runs):
    return {
        "instances": len(runs["base"][0]["times"]),
        "identical_fairlets": agree(runs, "digests"),
    }


def matcher_extras(runs):
    return {"peak_kb": round(max(run["peak"] for run in runs) / 1024, 1)}


# name: (sets, measure(set) -> one round's JSON, verdicts(runs of both trees),
# extras(runs of one tree), the file's own top-level keys)
SUITES = {
    "oracle": (("n10", "n12", "n14", "n16"), oracle_measure, oracle_verdicts, oracle_extras, {}),
    "experiment": (
        ("seed0", "seed7"), experiment_measure, experiment_verdicts, experiment_extras,
        {"workload": WORKLOAD, "instances": INSTANCES},
    ),
    "matcher": (
        ("fairlet_n400", "sweep_n120", "n2400", "n3200"), matcher_measure, matcher_verdicts,
        matcher_extras, {},
    ),
}


def cpu_ms(runs):
    best = [min(per) for per in zip(*(run["times"] for run in runs))]
    return {
        "cpu_ms_min": round(1000 * min(best), 3),
        "cpu_ms_median": round(1000 * statistics.median(best), 3),
        "cpu_ms_mean": round(1000 * statistics.mean(best), 3),
        "cpu_ms_max": round(1000 * max(best), 3),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--base", help="src directory of the old tree")
    parser.add_argument("--new", help="src directory of the new tree")
    parser.add_argument("--measure", nargs=2, metavar=("SRC", "SET"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sets, measure, verdicts, extras, header = SUITES[args.suite]
    if args.measure:
        src, name = args.measure
        sys.path[:0] = [src, str(ROOT / "pipebench")]
        print(json.dumps(measure(name)))
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
        **header,
        "rounds": ROUNDS,
        "sets": {},
    }
    for name in sets:
        runs = {"base": [], "new": []}
        for r in range(ROUNDS):
            for side in ("base", "new") if r % 2 == 0 else ("new", "base"):
                src = str(Path(getattr(args, side)).resolve())
                line = subprocess.run(
                    [sys.executable, __file__, args.suite, "--measure", src, name],
                    env=env, stdout=subprocess.PIPE, text=True, check=True,
                ).stdout
                runs[side].append(json.loads(line))
        out["sets"][name] = {
            **verdicts(runs),
            **{side: {**cpu_ms(runs[side]), **extras(runs[side])} for side in runs},
        }
    ok = all(v for s in out["sets"].values() for v in s.values() if isinstance(v, bool))
    if args.suite == "experiment":  # its file also holds its one verdict over every set
        out["identical_csv"] = ok
    print(json.dumps(out, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
