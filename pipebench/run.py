"""Pipeline benchmark for the faircc CLI.

Usage, from the repository root:

    python3 pipebench/run.py --workload fairlet_n400 --seed 0 --seconds 20 --trace 0

Each workload is a closed loop with one client in one process: the next op
starts when the previous one returns. An op is one call of
``faircc.cli.main(argv)`` on a fresh instance that the benchmark generated
from ``--seed`` and wrote as graph JSON plus colors CSV before the op's
clock started; no instance repeats within a run. Ops run until ``--seconds``
of op time have passed (or WALL_CAP times that of wall time) and at least
the workload's ``quality_ops`` ops are done. Every op's output is checked
with numpy against the benchmark's own copy of the instance (see checks.py).

Op time is CPU time (see ``cpu_clock``), and the garbage collector runs
before every op, outside its clock, so each op starts from the collector
state of a fresh CLI process. Throughput, ``ops_per_ref_s``, is stated per
reference second of the same run (see reference.py), so that the host's
speed drift between runs drops out; the raw ops per CPU second are printed
on the line before the result.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's layer functions (see spans.py) on every other op, leaves the ops
in between untraced to measure the tracing overhead, and reports the
per-layer metrics, each per traced op. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# Cap BLAS/OpenMP pools at the cores available before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, cli_argv, make_instance, write_instance  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPS = 5  # timed fresh-interpreter runs per set-up measurement
# The loop also ends after WALL_CAP * --seconds of wall time, once the
# minimum ops are done, so a host that lends the process little CPU cannot
# stretch a run past the time the runs of a check are allowed.
WALL_CAP = 1.5


def import_cli():
    """Import faircc.cli from this checkout's src/ and nowhere else."""
    package_dir = SRC / "faircc"
    if not (package_dir / "cli.py").is_file():
        sys.exit(f"pipebench: no package at {package_dir}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import faircc.cli

    if Path(faircc.__file__).resolve().parent != package_dir.resolve():
        sys.exit(f"pipebench: imported faircc from {faircc.__file__}, not {package_dir}")
    return faircc


def op_paths(workdir, tag):
    base = Path(workdir) / str(tag)
    return {
        "graph": f"{base}.graph.json",
        "colors": f"{base}.colors.csv",
        "clustering": f"{base}.clustering.json",
        "result": f"{base}.result.json",
        "csv": f"{base}.experiment.csv",
    }


def cpu_clock():
    """CPU seconds used by this process and its reaped children.

    Ops are timed on this clock, not on the wall clock: on a shared host the
    wall clock also counts the time the process waits for a core, which in
    half-second windows of a fixed loop cut the wall-clock rate by up to
    half while the CPU-time rate held within a few percent.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def call_cli(cli, argv):
    """One op: (exit code or None on an exception, stdout, CPU seconds)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = cpu_clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # the op fails; the run goes on and reports it
        rc = None
        err.write(traceback.format_exc())
    elapsed = cpu_clock() - start
    if rc != 0:
        print(f"pipebench: exit {rc}: {err.getvalue().strip()}", file=sys.stderr)
    return rc, out.getvalue(), elapsed


def check_op(workload, signs, colors, paths, rc, stdout):
    """(clusterings, total disagreements), or None when the op failed."""
    if rc != 0:
        return None
    try:
        return checks.CHECKERS[WORKLOADS[workload]["command"]](workload, signs, colors, paths, stdout)
    except Exception as exc:  # any unreadable or wrong output fails the op
        print(f"pipebench: {workload}: output check failed: {exc!r}", file=sys.stderr)
        return None


def measure_setup(workload, seed, workdir, cli):
    """(median wall time of a fresh ``python -m faircc.cli`` on the tiny
    instance after one untimed warm-up, whether every run passed its check).
    One untimed in-process op follows, so lazy set-up finishes before the
    timed loop."""
    signs, colors = make_instance(workload, seed, -1)
    paths = op_paths(workdir, "tiny")
    write_instance(signs, colors, paths["graph"], paths["colors"])
    argv = cli_argv(workload, paths)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, ok = [], True
    for rep in range(SETUP_REPS + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "faircc.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            print(f"pipebench: set-up run exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
        ok &= check_op(workload, signs, colors, paths, proc.returncode, proc.stdout) is not None
        if rep:
            times.append(elapsed)
    rc, stdout, _ = call_cli(cli, argv)
    ok &= check_op(workload, signs, colors, paths, rc, stdout) is not None
    return statistics.median(times), ok


def environment(faircc):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),  # read from metadata: importing it would move peak RSS
        "kernel_implementation": getattr(faircc, "KERNEL_IMPLEMENTATION", None),
    }


def layer_metrics(tracer, traced_ops, overhead_frac):
    """Per-layer metrics per traced op; absent functions read 0 and are
    listed on their own output line."""
    summary = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extras": []}

    def agg(name):
        return summary.get(name, empty)

    def per_op(value):
        return value / traced_ops

    solve = agg("bmatching.solve")
    builds = agg("fair_clustering.build_matchings")
    keys = [extra["key"] for _, extra in builds["extras"]]
    metrics = {
        "bmatching.solve_s": (per_op(solve["total_s"]), "s"),
        "bmatching.solve_calls": (per_op(solve["calls"]), "count"),
        "bmatching.cells": (per_op(sum(e["cells"] for _, e in solve["extras"])), "count"),
        "bmatching.weight_sum": (sum({e["key"]: e["weight"] for op, e in solve["extras"] if op == 0}.values()), "cost"),
        "fair_clustering.pair_cost_table_s": (per_op(agg("fair_clustering.pair_cost_table")["total_s"]), "s"),
        "fair_clustering.pair_cost_table_bytes": (
            max((e["bytes"] for _, e in agg("fair_clustering.pair_cost_table")["extras"]), default=0),
            "bytes_computed",
        ),
        "fair_clustering.build_matchings_s": (per_op(builds["total_s"]), "s"),
        "fair_clustering.build_matchings_calls": (per_op(builds["calls"]), "count"),
        "fair_clustering.build_matchings_unique_frac": (len(set(keys)) / len(keys) if keys else 0.0, "frac"),
        "fair_clustering.run_pipeline_self_s": (per_op(agg("fair_clustering.run_pipeline")["self_s"]), "s"),
        "pivot.best_of_restarts_s": (per_op(agg("pivot.best_of_restarts")["total_s"]), "s"),
        "pivot.best_of_restarts_calls": (per_op(agg("pivot.best_of_restarts")["calls"]), "count"),
        "pivot.pivot_cluster_s": (per_op(agg("pivot.pivot_cluster")["total_s"]), "s"),
        "pivot.pivot_cluster_calls": (per_op(agg("pivot.pivot_cluster")["calls"]), "count"),
        "pivot.scoring_s": (per_op(agg("pivot.best_of_restarts")["self_s"]), "s"),
        "baselines.run_cc_s": (per_op(agg("baselines.run_cc")["total_s"]), "s"),
        "baselines.ccmerge_repair_s": (per_op(agg("baselines.run_ccmerge")["self_s"]), "s"),
        "baselines.wmatch_self_s": (per_op(agg("baselines.run_wmatch")["self_s"]), "s"),
        "oracle.opt_fair_s": (per_op(agg("oracle.opt_fair")["total_s"]), "s"),
        "oracle.opt_cc_s": (per_op(agg("oracle.opt_cc")["total_s"]), "s"),
        "oracle.best_partition_s": (per_op(agg("oracle.best_partition")["total_s"]), "s"),
        "oracle.best_partition_calls": (per_op(agg("oracle.best_partition")["calls"]), "count"),
        "model.from_json_s": (per_op(agg("model.from_json")["total_s"]), "s"),
        "model.from_csv_s": (per_op(agg("model.from_csv")["total_s"]), "s"),
        "model.disagreements_s": (per_op(agg("model.disagreements")["total_s"]), "s"),
        "model.disagreements_calls": (per_op(agg("model.disagreements")["calls"]), "count"),
        "model.check_fairness_s": (per_op(agg("model.check_fairness")["total_s"]), "s"),
        "cli.self_s": (per_op(agg("cli.main")["self_s"]), "s"),
        "trace.overhead_frac": (overhead_frac, "frac"),
        "trace.absent_count": (len(tracer.absent) + len(tracer.absent_extras), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(workload, seed, seconds, trace):
    faircc = import_cli()
    cli = sys.modules["faircc.cli"]
    wl = WORKLOADS[workload]
    print(json.dumps({"env": environment(faircc)}))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    tracer = spans.Tracer() if trace else None
    try:
        setup_s, setup_ok = measure_setup(workload, seed, workdir, cli)
        gc.freeze()  # the collection before each op then skips the loaded modules
        busy = {False: 0.0, True: 0.0}  # op CPU seconds, untraced and traced
        done = {False: 0, True: 0}  # ops that passed their checks
        attempted = failed = clusterings = cost = 0
        ref_busy, ref_chunks = 0.0, 0  # CPU seconds and count of reference chunks
        min_ops = max(wl["quality_ops"], 2 if trace else 1)
        reference.warm_up()
        loop_start = time.perf_counter()
        while attempted < min_ops or (
            busy[False] + busy[True] < seconds and time.perf_counter() - loop_start < WALL_CAP * seconds
        ):
            op = attempted
            signs, colors = make_instance(workload, seed, op)
            paths = op_paths(workdir, op)
            write_instance(signs, colors, paths["graph"], paths["colors"])
            argv = cli_argv(workload, paths)
            traced = trace and op % 2 == 0
            if traced:
                tracer.op = op
                tracer.install()
            try:
                rc, stdout, elapsed = call_cli(cli, argv)
            finally:
                if traced:
                    tracer.uninstall()
            attempted += 1
            busy[traced] += elapsed
            while ref_busy < reference.SHARE * (busy[False] + busy[True]):
                ref_busy += reference.timed_chunk()
                ref_chunks += 1
            outcome = check_op(workload, signs, colors, paths, rc, stdout)
            for path in paths.values():
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
            if outcome is None:
                failed += 1
                continue
            done[traced] += 1
            if op < wl["quality_ops"]:
                clusterings += outcome[0]
                cost += outcome[1]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = setup_ok and failed == 0
    ref_chunk_s = ref_busy / ref_chunks
    if trace:
        overhead = 1 - (done[True] / busy[True]) / (done[False] / busy[False]) if done[False] else 0.0
        metrics = layer_metrics(tracer, max(done[True], 1), overhead)
        metrics["host.ref_chunk_s"] = {"value": ref_chunk_s, "unit": "s"}
        absent = sorted(tracer.absent) + sorted(tracer.absent_extras)
        got = metrics["bmatching.weight_sum"]["value"]
        if seed == DEFAULT_SEED and "bmatching.solve" not in absent and got != wl["expected_weight_sum"]:
            print(f"pipebench: bmatching.weight_sum {got} != recorded {wl['expected_weight_sum']}", file=sys.stderr)
            correct = False
        print(json.dumps({"absent": absent}))
        with open(WORK / f"spans_{workload}.jsonl", "w") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in tracer.to_records())
    else:
        ops = done[False]
        ref_s = reference.CHUNKS_PER_REF_S * ref_chunk_s  # CPU seconds of one reference second
        print(json.dumps({"raw": {"ops_per_cpu_s": ops / busy[False], "ref_chunk_s": ref_chunk_s}}))
        metrics = {
            "ops_per_ref_s": {"value": ops * ref_s / busy[False], "unit": "1/ref_s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "disagreements_per_op": {"value": cost / clusterings if clusterings else 0.0, "unit": "disagreements"},
            "ops_ok_frac": {"value": ops / attempted, "unit": "frac"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
