import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from faircc import Clustering, ColorAssignment, SignedCompleteGraph, check_fairness
from faircc import cli
from faircc.cli import main, parse_spec
from conftest import random_colors, random_graph


SCHEMA_JSON = json.dumps(
    {
        "columns": [
            {"name": "id", "kind": "id"},
            {"name": "age", "kind": "numeric"},
            {"name": "job", "kind": "categorical"},
            {"name": "group", "kind": "protected"},
        ]
    }
)


def make_csv(rows):
    lines = ["id,age,job,group"]
    lines += [",".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "schema.json").write_text(SCHEMA_JSON)
    rows = []
    for i in range(8):
        group = "R" if i < 4 else "B"
        job = "eng" if i % 4 < 2 else "law"
        rows.append((f"v{i}", 10 * (i % 4), job, group))
    (tmp_path / "data.csv").write_text(make_csv(rows))
    return tmp_path


def run_ingest(ws):
    return main(
        [
            "ingest",
            "--csv", str(ws / "data.csv"),
            "--schema", str(ws / "schema.json"),
            "--out-graph", str(ws / "graph.json"),
            "--out-colors", str(ws / "colors.csv"),
        ]
    )


def test_parse_spec():
    assert parse_spec(None, None) is None
    spec = parse_spec("1:2", None)
    assert spec.is_exact and spec.bounds == {1: (2, 2)}
    spec = parse_spec(None, "1:1..1:2")
    assert not spec.is_exact and spec.bounds == {1: (1, 2)}
    from faircc import ParseError

    with pytest.raises(ParseError):
        parse_spec("1:2", "1:1..1:2")
    with pytest.raises(ParseError):
        parse_spec(None, "1:1")
    with pytest.raises(ParseError):
        parse_spec(None, "1:1..1:2:3")


def test_end_to_end_flow(workspace, capsys):
    assert run_ingest(workspace) == 0
    g = SignedCompleteGraph.from_json((workspace / "graph.json").read_text())
    colors = ColorAssignment.from_csv((workspace / "colors.csv").read_text())
    assert g.n == 8 and colors.counts == (4, 4)

    rc = main(
        [
            "cluster",
            "--graph", str(workspace / "graph.json"),
            "--colors", str(workspace / "colors.csv"),
            "--algo", "faircc",
            "--ratio", "1:1",
            "--seed", "3",
            "--out-clustering", str(workspace / "clust.json"),
            "--out-result", str(workspace / "result.json"),
        ]
    )
    assert rc == 0
    clustering = Clustering.from_json((workspace / "clust.json").read_text())
    row = json.loads((workspace / "result.json").read_text())
    assert row["algo"] == "faircc" and row["seed"] == 3
    assert row["fair"] is True and row["millis"] == 0
    # independent recheck of the reported numbers
    report = check_fairness(colors, clustering, parse_spec("1:1", None))
    assert report.overall_pass
    assert row["clusters"] == clustering.num_clusters


def test_experiment_csv_schema_and_summary(workspace):
    run_ingest(workspace)
    out = workspace / "results.csv"
    rc = main(
        [
            "experiment",
            "--graph", str(workspace / "graph.json"),
            "--colors", str(workspace / "colors.csv"),
            "--algos", "cc,faircc,wmatch",
            "--ratio", "1:1",
            "--runs", "4",
            "--out", str(out),
        ]
    )
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = rows[0].keys()
    assert list(header) == [
        "dataset", "algo", "seed", "n", "colors", "spec",
        "disagreements", "fair", "clusters", "millis",
    ]
    per_seed = [r for r in rows if r["seed"] != "mean"]
    means = [r for r in rows if r["seed"] == "mean"]
    assert len(per_seed) == 12 and len(means) == 3
    fair_rows = [r for r in per_seed if r["algo"] != "cc"]
    assert all(r["fair"] == "true" for r in fair_rows)
    for m in means:
        group = [r for r in per_seed if r["algo"] == m["algo"]]
        want = sum(int(r["disagreements"]) for r in group) / len(group)
        assert m["disagreements"] == f"{want:.2f}"


def test_experiment_deterministic_bytes(workspace):
    run_ingest(workspace)
    args = [
        "experiment",
        "--graph", str(workspace / "graph.json"),
        "--colors", str(workspace / "colors.csv"),
        "--algos", "cc,faircc,ufaircc,ccmerge",
        "--ratio", "1:1",
        "--runs", "3",
    ]
    assert main(args + ["--out", str(workspace / "a.csv")]) == 0
    assert main(args + ["--out", str(workspace / "b.csv")]) == 0
    assert (workspace / "a.csv").read_bytes() == (workspace / "b.csv").read_bytes()


def test_exit_code_infeasible_spec(workspace, capsys):
    run_ingest(workspace)
    rc = main(
        [
            "cluster",
            "--graph", str(workspace / "graph.json"),
            "--colors", str(workspace / "colors.csv"),
            "--algo", "faircc",
            "--ratio", "1:3",
            "--out-clustering", str(workspace / "c.json"),
            "--out-result", str(workspace / "r.json"),
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_parse_error(workspace, capsys):
    rc = main(
        [
            "cluster",
            "--graph", str(workspace / "missing.json"),
            "--algo", "nope",
            "--out-clustering", "x",
            "--out-result", "y",
        ]
    )
    assert rc == 3
    (workspace / "bad.json").write_text("{not json")
    rc = main(
        [
            "cluster",
            "--graph", str(workspace / "bad.json"),
            "--algo", "cc",
            "--out-clustering", str(workspace / "c.json"),
            "--out-result", str(workspace / "r.json"),
        ]
    )
    assert rc == 3


OUTS = "--out-clustering {ws}/k.json --out-result {ws}/r.json"
INGEST_OUTS = "--out-graph {ws}/g2.json --out-colors {ws}/c2.csv"


@pytest.mark.parametrize(
    "argv,message",
    [
        ("experiment --graph {ws}/g.json --algos cc,faircc --ratio 1:1 --out {ws}/x.csv",
         "need --colors"),
        ("experiment --graph {ws}/g.json --colors {ws}/c.csv --algos cc --runs 0 "
         "--out {ws}/x.csv", "--runs: must be at least 1"),
        ("verify --random 0", "--random: must be at least 1"),
        ("verify", "verify needs --graph, --mirror or --random"),
        ("verify --random 2 --max-n 1", "--max-n: must be at least 2"),
        ("cluster --graph {ws}/g.json --algo cc --restarts 0 " + OUTS,
         "--restarts: must be at least 1"),
        ("experiment --graph {ws}/g.json --algos cc --restarts 0 --out {ws}/x.csv",
         "--restarts: must be at least 1"),
        ("verify --random 1 --restarts 0", "--restarts: must be at least 1"),
        ("cluster --graph {ws}/g.json --algo cc --out-clustering {ws}/nodir/k.json "
         "--out-result {ws}/r.json", "cannot write {ws}/nodir/k.json"),
        ("experiment --graph {ws}/g.json --algos cc --out {ws}/nodir/x.csv",
         "cannot write {ws}/nodir/x.csv"),
        ("ingest --csv {ws}/data.csv --schema {ws}/schema.json --out-graph {ws}/g2.json "
         "--out-colors {ws}/nodir/c2.csv", "cannot write {ws}/nodir/c2.csv"),
        ("gen --mirror {ws}/g.json --out-graph {ws}/nodir/m.json --out-colors {ws}/mc.csv",
         "cannot write {ws}/nodir/m.json"),
        ("cluster --graph {ws}/missing.json --algo cc " + OUTS, "{ws}/missing.json"),
        ("cluster --graph {ws}/g.json --colors {ws}/missing.csv --algo cc " + OUTS,
         "{ws}/missing.csv"),
        ("ingest --csv {ws}/data.csv --schema {ws}/missing.json " + INGEST_OUTS,
         "{ws}/missing.json"),
        ("ingest --csv {ws}/missing.csv --schema {ws}/schema.json " + INGEST_OUTS,
         "{ws}/missing.csv"),
        ("ingest --csv {ws}/data.csv --schema {ws}/schema.json --sample -1 " + INGEST_OUTS,
         "--sample: must be at least 1"),
        ("ingest --csv {ws}/data.csv --schema {ws}/schema.json --balance 1:5 " + INGEST_OUTS,
         "--balance needs --sample"),
        ("cluster --graph {ws}/g.json --colors {ws}/c.csv --algo faircc --bounds 1:2..1:1 "
         + OUTS, "bounds for color 1: lower 1:2 exceeds upper 1:1"),
    ],
    ids=[
        "experiment-no-colors", "experiment-runs-0", "verify-random-0", "verify-bare",
        "verify-max-n-1", "cluster-restarts-0", "experiment-restarts-0",
        "verify-restarts-0", "cluster-out-dir", "experiment-out-dir", "ingest-out-dir",
        "gen-out-dir", "missing-graph", "missing-colors", "missing-schema",
        "missing-csv", "ingest-sample-negative", "ingest-balance-without-sample",
        "cluster-bounds-reversed",
    ],
)
def test_argument_errors_exit_3(workspace, capsys, argv, message):
    """Bad arguments and unreadable input files exit 3 with the reason on
    stderr, before any output file is written."""
    g = random_graph(4, seed=1)
    (workspace / "g.json").write_text(g.to_json())
    (workspace / "c.csv").write_text(ColorAssignment((0, 1, 0, 1)).to_csv())
    before = sorted(workspace.iterdir())
    assert main(argv.format(ws=workspace).split()) == 3
    assert message.format(ws=workspace) in capsys.readouterr().err
    assert sorted(workspace.iterdir()) == before


@pytest.mark.parametrize(
    "graph",
    [
        {"n": "3", "negative_edges": []},
        {"n": 3.0, "negative_edges": []},
        {"n": 3, "negative_edges": [["0", 1]]},
        {"n": 3, "negative_edges": [[0, 1], [0, 1]]},
    ],
)
def test_exit_code_malformed_graph(workspace, capsys, graph):
    (workspace / "bad.json").write_text(json.dumps(graph))
    rc = main(
        [
            "cluster",
            "--graph", str(workspace / "bad.json"),
            "--algo", "cc",
            "--out-clustering", str(workspace / "c.json"),
            "--out-result", str(workspace / "r.json"),
        ]
    )
    assert rc == 3


@pytest.mark.parametrize("n", [3_000_000_000, 10_000_000_000])
def test_exit_code_graph_too_large(workspace, capsys, n):
    """n * n bytes that numpy refuses before touching memory: above the
    address space (MemoryError) and above the int64 size limit (ValueError)."""
    (workspace / "big.json").write_text(json.dumps({"n": n, "negative_edges": []}))
    rc = main(
        [
            "cluster",
            "--graph", str(workspace / "big.json"),
            "--algo", "cc",
            "--out-clustering", str(workspace / "c.json"),
            "--out-result", str(workspace / "r.json"),
        ]
    )
    assert rc == 1
    assert f"n={n}" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["faircc", "wmatch", "ufaircc", "ccmerge"])
def test_exit_code_spec_misses_a_color(workspace, capsys, algo):
    """A two-color ratio on a three-color instance is one infeasible spec
    for every fair algorithm."""
    g = random_graph(6, 0)
    (workspace / "g.json").write_text(g.to_json())
    (workspace / "c.csv").write_text(random_colors((2, 2, 2), 0).to_csv())
    rc = main(
        [
            "cluster",
            "--graph", str(workspace / "g.json"),
            "--colors", str(workspace / "c.csv"),
            "--algo", algo,
            "--ratio", "1:1",
            "--out-clustering", str(workspace / "c.json"),
            "--out-result", str(workspace / "r.json"),
        ]
    )
    assert rc == 2
    assert "spec must bound every non-base color" in capsys.readouterr().err


def write_planted(workspace, n, counts, seed, blocks=8, noise=0.15):
    """Planted-partition instance: same-block pairs positive, others
    negative, each sign flipped with probability ``noise``."""
    rng = np.random.default_rng(seed)
    block = rng.permutation(n) % blocks
    positive = (block[:, None] == block[None, :]) ^ (rng.random((n, n)) < noise)
    iu, iv = np.nonzero(np.triu(~positive, 1))
    colors = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    graph = {"n": n, "negative_edges": np.stack([iu, iv], 1).tolist()}
    (workspace / "g.json").write_text(json.dumps(graph))
    (workspace / "c.csv").write_text("".join(f"{v},{c}\n" for v, c in enumerate(colors.tolist())))


@pytest.mark.parametrize(
    "n,counts,seeds", [(80, (20, 20, 40), range(8)), (200, (50, 50, 100), range(2, 5))]
)
def test_ccmerge_interval_bounds_on_planted_instances(workspace, capsys, n, counts, seeds):
    """Repair must not overfill a host cluster that already holds a surplus
    of some color (it once sliced the pool with a negative deficit)."""
    for seed in seeds:
        write_planted(workspace, n, counts, seed)
        rc = main(
            [
                "cluster",
                "--graph", str(workspace / "g.json"),
                "--colors", str(workspace / "c.csv"),
                "--bounds", "1:1:1..1:2:3",
                "--algo", "ccmerge",
                "--out-clustering", str(workspace / "out.json"),
                "--out-result", str(workspace / "r.json"),
            ]
        )
        assert rc == 0, f"n={n} seed={seed}"
        colors = ColorAssignment.from_csv((workspace / "c.csv").read_text())
        c = Clustering.from_json((workspace / "out.json").read_text())
        spec = parse_spec(None, "1:1:1..1:2:3")
        assert check_fairness(colors, c, spec).overall_pass


@pytest.mark.parametrize("algo", ["faircc", "ufaircc", "wmatch"])
def test_loose_upper_bound_on_cli(workspace, capsys, algo):
    """An upper ratio far above the color counts is valid input and must
    not blow up the matcher."""
    write_planted(workspace, 120, (40, 80), seed=1)
    rc = main(
        [
            "cluster",
            "--graph", str(workspace / "g.json"),
            "--colors", str(workspace / "c.csv"),
            "--bounds", "1:1..1:1000000",
            "--algo", algo,
            "--out-clustering", str(workspace / "out.json"),
            "--out-result", str(workspace / "r.json"),
        ]
    )
    assert rc == 0
    colors = ColorAssignment.from_csv((workspace / "c.csv").read_text())
    c = Clustering.from_json((workspace / "out.json").read_text())
    assert check_fairness(colors, c, parse_spec(None, "1:1..1:1000000")).overall_pass


def test_exit_code_oracle_limit(workspace, capsys):
    g = random_graph(12, 0)
    (workspace / "big.json").write_text(g.to_json())
    rc = main(["verify", "--mirror", str(workspace / "big.json")])
    assert rc == 4


@pytest.mark.parametrize("cap", ["abc", "0", "-3"])
def test_malformed_oracle_cap_exits_1(monkeypatch, capsys, cap):
    monkeypatch.setenv("FAIRCC_ORACLE_MAX_N", cap)
    assert main(["verify", "--random", "1", "--max-n", "4"]) == 1
    assert f"FAIRCC_ORACLE_MAX_N must be a positive integer, got {cap!r}" in capsys.readouterr().err


@pytest.mark.parametrize("color", [99999999999999999999, 10000000000])
def test_exit_code_huge_color_id(workspace, capsys, color):
    """A color id no contiguous range of n ids reaches is rejected before
    any per-color list is allocated."""
    (workspace / "g.json").write_text(random_graph(4, 0).to_json())
    (workspace / "c.csv").write_text(f"0,0\n1,{color}\n2,0\n3,1\n")
    rc = main(
        [
            "cluster",
            "--graph", str(workspace / "g.json"),
            "--colors", str(workspace / "c.csv"),
            "--algo", "cc",
            "--out-clustering", str(workspace / "k.json"),
            "--out-result", str(workspace / "r.json"),
        ]
    )
    assert rc == 1
    assert f"color id {color} is not below n=4" in capsys.readouterr().err


def test_verify_mirror_identity(workspace, capsys):
    g = SignedCompleteGraph.from_negative_edges(3, [(1, 2)])
    (workspace / "tri.json").write_text(g.to_json())
    rc = main(["verify", "--mirror", str(workspace / "tri.json")])
    out = capsys.readouterr().out
    assert rc == 0 and "PASS" in out and "FAIL" not in out


def test_verify_random_sweep(capsys):
    rc = main(["verify", "--random", "5", "--max-n", "6", "--restarts", "10"])
    out = capsys.readouterr().out
    assert rc == 0 and out.count("PASS") >= 10 and "FAIL" not in out


def test_gen_mirror(workspace):
    g = random_graph(4, 2)
    (workspace / "base.json").write_text(g.to_json())
    rc = main(
        [
            "gen",
            "--mirror", str(workspace / "base.json"),
            "--out-graph", str(workspace / "mirror.json"),
            "--out-colors", str(workspace / "mirror_colors.csv"),
        ]
    )
    assert rc == 0
    h = SignedCompleteGraph.from_json((workspace / "mirror.json").read_text())
    colors = ColorAssignment.from_csv((workspace / "mirror_colors.csv").read_text())
    assert h.n == 8 and colors.counts == (4, 4)


def test_ingest_with_balanced_sample(workspace, capsys):
    rows = [(f"v{i}", i, "x", "R" if i < 10 else "B") for i in range(30)]
    (workspace / "skew.csv").write_text(make_csv(rows))
    rc = main(
        [
            "ingest",
            "--csv", str(workspace / "skew.csv"),
            "--schema", str(workspace / "schema.json"),
            "--sample", "16",
            "--balance", "1:1",
            "--out-graph", str(workspace / "g.json"),
            "--out-colors", str(workspace / "c.csv"),
        ]
    )
    assert rc == 0
    colors = ColorAssignment.from_csv((workspace / "c.csv").read_text())
    assert colors.counts == (8, 8)


@pytest.mark.parametrize("seed", range(6))
def test_ingest_balanced_sample_round_trip(workspace, capsys, seed):
    """A balanced sample numbers its colors in the order the balance ratio
    was applied, so the same ratio clusters it; numbering by first
    appearance in the sample made M (four of six rows) the base color."""
    rows = [(f"v{i}", i, "x", "F" if i % 3 == 0 else "M") for i in range(40)]
    (workspace / "every3.csv").write_text(make_csv(rows))
    rc = main(
        [
            "ingest",
            "--csv", str(workspace / "every3.csv"),
            "--schema", str(workspace / "schema.json"),
            "--sample", "6",
            "--balance", "1:2",
            "--seed", str(seed),
            "--out-graph", str(workspace / "g.json"),
            "--out-colors", str(workspace / "c.csv"),
        ]
    )
    assert rc == 0
    summary = capsys.readouterr().out
    rc = main(
        [
            "cluster",
            "--graph", str(workspace / "g.json"),
            "--colors", str(workspace / "c.csv"),
            "--algo", "faircc",
            "--ratio", "1:2",
            "--out-clustering", str(workspace / "k.json"),
            "--out-result", str(workspace / "r.json"),
        ]
    )
    assert rc == 0, capsys.readouterr().err
    assert "colors F=0, M=1" in summary


def split_by_color(fairlets):
    """An unfair wmatch result on the instance below, whose first half is
    color 0 and second half color 1: one cluster per color."""
    half = len(fairlets) // 2
    return Clustering.from_labels([0] * half + [1] * half)


def lopsided_fairlets(colors, spec, matchings):
    """Fairlets that glue every non-base vertex to the first base vertex."""
    fairlets = np.zeros(colors.n, np.int64)
    lefts = colors.vertices_of(spec.base_color)
    fairlets[lefts] = np.arange(len(lefts))
    return fairlets


@pytest.mark.parametrize(
    "command,target,replacement,message,counts",
    [
        ("cluster", "baselines.run_wmatch", split_by_color,
         "fairness-guaranteed algorithm produced an unfair clustering",
         ["cluster 0 {0: 4}", "cluster 1 {1: 4}"]),
        ("experiment", "baselines.run_wmatch", split_by_color,
         "wmatch seed 0: fairness invariant violated",
         ["cluster 0 {0: 4}", "cluster 1 {1: 4}"]),
        ("cluster", "fair_clustering.build_fairlets", lopsided_fairlets,
         "internal error: pipeline produced an unfair clustering",
         ["{0: 1, 1: 4}", "{0: 1}"]),
    ],
    ids=["cluster", "experiment", "pipeline"],
)
def test_unfair_result_names_the_clusters(
    workspace, capsys, monkeypatch, command, target, replacement, message, counts
):
    module, name = target.split(".")
    monkeypatch.setattr(getattr(cli, module), name, replacement)
    g = SignedCompleteGraph.from_negative_edges(
        8, [(u, v) for u in range(8) for v in range(u + 1, 8)]
    )
    (workspace / "g.json").write_text(g.to_json())
    (workspace / "c.csv").write_text(ColorAssignment((0,) * 4 + (1,) * 4).to_csv())
    argv = [
        command,
        "--graph", str(workspace / "g.json"),
        "--colors", str(workspace / "c.csv"),
        "--ratio", "1:1",
    ]
    if command == "cluster":
        algo = "wmatch" if name == "run_wmatch" else "faircc"
        argv += ["--algo", algo, "--out-clustering", str(workspace / "k.json"),
                 "--out-result", str(workspace / "r.json")]
    else:
        argv += ["--algos", "cc,wmatch", "--runs", "2", "--out", str(workspace / "x.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    for text in counts:
        assert text in err


@pytest.mark.parametrize("spec", [["--ratio", "1:2"], ["--bounds", "1:1..1:2"]])
def test_experiment_cells_match_cluster(workspace, capsys, spec):
    """Sharing fairlets and cc clusterings across the matrix changes no
    cell: each row equals a fresh ``cluster`` run of the same algo and
    seed."""
    write_planted(workspace, 60, (20, 40), seed=3, blocks=4)
    files = ["--graph", str(workspace / "g.json"), "--colors", str(workspace / "c.csv")]
    rc = main(
        ["experiment", *files, *spec, "--algos", ",".join(cli.ALGORITHMS),
         "--seed", "2", "--runs", "3", "--restarts", "7",
         "--out", str(workspace / "x.csv")]
    )
    assert rc == 0
    with open(workspace / "x.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["seed"] != "mean"]
    assert len(rows) == 3 * len(cli.ALGORITHMS)
    for row in rows:
        rc = main(
            ["cluster", *files, *spec, "--algo", row["algo"], "--seed", row["seed"],
             "--restarts", "7", "--out-clustering", str(workspace / "k.json"),
             "--out-result", str(workspace / "r.json")]
        )
        assert rc == 0
        single = json.loads((workspace / "r.json").read_text())
        assert (int(row["disagreements"]), int(row["clusters"])) == (
            single["disagreements"], single["clusters"]
        ), (row["algo"], row["seed"])


def count_calls(monkeypatch, targets):
    """Count the calls of each (module, name) binding; a name bound in
    several modules counts the calls through all of them."""
    calls = {name: 0 for _, name in targets}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in targets:
        counted(module, name)
    return calls


def test_experiment_builds_shared_layers_once(workspace, monkeypatch):
    """Five algorithms by five seeds: two matching builds (pair costs and
    unit costs), one cc clustering per seed, which ccmerge reuses, and one
    base-color pivot per seed, which faircc and ufaircc share."""
    calls = count_calls(
        monkeypatch,
        [
            (cli.fair_clustering, "build_matchings"),
            (cli.baselines, "run_cc"),
            (cli.fair_clustering, "best_of_restarts"),
            (cli.baselines, "best_of_restarts"),
        ],
    )
    write_planted(workspace, 60, (20, 40), seed=3, blocks=4)
    rc = main(
        ["experiment", "--graph", str(workspace / "g.json"),
         "--colors", str(workspace / "c.csv"), "--bounds", "1:1..1:2",
         "--algos", "cc,faircc,wmatch,ufaircc,ccmerge", "--runs", "5",
         "--restarts", "5", "--out", str(workspace / "x.csv")]
    )
    assert rc == 0
    assert calls == {"build_matchings": 2, "run_cc": 5, "best_of_restarts": 10}


def test_verify_builds_matchings_once_per_instance(monkeypatch, capsys):
    """The bound check and faircc of one verify instance share its
    matchings."""
    calls = count_calls(monkeypatch, [(cli.fair_clustering, "build_matchings")])
    assert main(["verify", "--random", "3"]) == 0
    assert calls == {"build_matchings": 3}
    assert capsys.readouterr().out.count("PASS  cost(faircc)") == 3


def test_traced_layer_names_exist(capsys):
    """Every function the benchmark's tracer wraps still exists, and its
    argument extras still read: a rename fails here, not only in the
    traced benchmark run."""
    path = Path(__file__).resolve().parents[1] / "pipebench" / "spans.py"
    module_spec = importlib.util.spec_from_file_location("pipebench_spans", path)
    spans = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["verify", "--random", "2", "--max-n", "6"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert tracer.absent_extras == set()
    assert {"oracle.opt_fair", "oracle.best_partition", "bmatching.solve"} <= set(tracer.summary())
