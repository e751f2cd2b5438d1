"""Time ``experiment`` of two source trees on the benchmark's sweep instances.

Usage, from the repository root:

    python tools/bench_experiment.py --base OLD/src --new src > out.json

Each set runs ``experiment`` with all five algorithms and ``--runs 5`` (the
``sweep_n120`` workload's command line) on the first INSTANCES instances of
that workload at one benchmark seed. Each of ROUNDS rounds runs every set
once per tree, each in a fresh interpreter, alternating which tree goes
first. An instance's time is its least thread CPU time over the rounds, and
each tree reports the minimum, median, mean and maximum of its instances'
times. ``calls_per_experiment`` counts, per experiment, the ccmerge repairs
(``baselines.run_ccmerge``), the faircc and ufaircc attachments
(``fair_clustering.run_pipeline``), the wmatch clusterings
(``baselines.run_wmatch``), the fairness gate of ``run_algorithm``
(``algorithms.check_fairness``) and the scoring calls (``disagreements``,
summed over its ``cli`` and ``algorithms`` bindings; a binding a tree lacks
counts 0). ``identical_csv`` says whether every experiment writes the same
CSV bytes and prints the same stdout in both trees, in every round.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD = "sweep_n120"
SEEDS = (0, 7)
INSTANCES = 20
ROUNDS = 5
COUNTED = (
    ("baselines", "run_ccmerge"),
    ("fair_clustering", "run_pipeline"),
    ("baselines", "run_wmatch"),
    ("algorithms", "check_fairness"),
    ("cli", "disagreements"),
    ("algorithms", "disagreements"),
)


def measure(src, seed):
    """One round of one set in this interpreter: a JSON line on stdout."""
    sys.path[:0] = [src, str(ROOT / "pipebench")]
    from faircc import cli
    from workloads import cli_argv, make_instance, write_instance

    calls = {name: 0 for _, name in COUNTED}

    def counted(module, name):
        if not hasattr(module, name):
            return
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        setattr(module, name, wrapper)

    for module, name in COUNTED:
        counted(importlib.import_module(f"faircc.{module}"), name)
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
        calls.update((name, 0) for name in calls)
        times, digests = zip(*(run(op) for op in range(INSTANCES)))
    print(json.dumps({"times": times, "calls": calls, "digests": digests}))


def summary(runs):
    best = [min(per) for per in zip(*(run["times"] for run in runs))]
    return {
        "cpu_ms_min": round(1000 * min(best), 3),
        "cpu_ms_median": round(1000 * statistics.median(best), 3),
        "cpu_ms_mean": round(1000 * statistics.mean(best), 3),
        "cpu_ms_max": round(1000 * max(best), 3),
        "calls_per_experiment": {
            name: calls / len(best) for name, calls in runs[0]["calls"].items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="src directory of the old tree")
    parser.add_argument("--new", help="src directory of the new tree")
    parser.add_argument("--measure", nargs=2, metavar=("SRC", "SEED"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        measure(args.measure[0], int(args.measure[1]))
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
        "workload": WORKLOAD,
        "instances": INSTANCES,
        "rounds": ROUNDS,
        "sets": {},
    }
    for seed in SEEDS:
        runs = {"base": [], "new": []}
        for r in range(ROUNDS):
            for side in ("base", "new") if r % 2 == 0 else ("new", "base"):
                src = str(Path(getattr(args, side)).resolve())
                line = subprocess.run(
                    [sys.executable, __file__, "--measure", src, str(seed)],
                    env=env, capture_output=True, text=True, check=True,
                ).stdout
                runs[side].append(json.loads(line))
        out["sets"][f"seed{seed}"] = {
            "identical_csv": all(
                run["digests"] == runs["base"][0]["digests"]
                for run in runs["base"] + runs["new"]
            ),
            "base": summary(runs["base"]),
            "new": summary(runs["new"]),
        }
    out["identical_csv"] = all(s["identical_csv"] for s in out["sets"].values())
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
