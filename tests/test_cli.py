import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from faircc import (
    Clustering,
    ColorAssignment,
    FairCCError,
    FairnessSpec,
    InvalidInputError,
    SignedCompleteGraph,
    check_fairness,
    disagreements,
    run_algorithm,
)
from faircc import algorithms, baselines, cli, fair_clustering, oracle, pivot
from faircc.pivot import PivotRun
from faircc.cli import _bounds_spec, _ratio_spec, main
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
    spec = _ratio_spec("1:2")
    assert spec.is_exact and spec.bounds == {1: (2, 2)}
    spec = _bounds_spec("1:1..1:2")
    assert not spec.is_exact and spec.bounds == {1: (1, 2)}
    from faircc import ParseError

    with pytest.raises(ParseError):
        _ratio_spec("1:x")
    with pytest.raises(ParseError):
        _bounds_spec("1:1")
    with pytest.raises(ParseError):
        _bounds_spec("1:1..1:2:3")


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
    clustering = Clustering(json.loads((workspace / "clust.json").read_text())["cluster_of"])
    row = json.loads((workspace / "result.json").read_text())
    assert row["algo"] == "faircc" and row["seed"] == 3
    assert row["fair"] is True and row["millis"] == 0
    # independent recheck of the reported numbers
    report = check_fairness(colors, clustering, _ratio_spec("1:1"))
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


def out_args(ws):
    """The cluster command's output flags, into ``ws``."""
    return ["--out-clustering", str(ws / "k.json"), "--out-result", str(ws / "r.json")]

INGEST_OUTS = "--out-graph {ws}/g2.json --out-colors {ws}/c2.csv"


@pytest.mark.parametrize(
    "argv,message",
    [
        ("experiment --graph {ws}/g.json --algos cc,faircc --ratio 1:1 --out {ws}/x.csv",
         "algorithm 'faircc' needs --colors"),
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
        ("ingest --csv {ws}/data.csv --schema {ws}/missing.json --sample 4 --balance 1:x "
         + INGEST_OUTS, "bad ratio '1:x'"),
        ("ingest --csv {ws}/data.csv --schema {ws}/missing.json --tau 1.5 " + INGEST_OUTS,
         "--tau: must lie in [0, 1], got 1.5"),
        ("ingest --csv {ws}/data.csv --schema {ws}/missing.json --tau -0.1 " + INGEST_OUTS,
         "--tau: must lie in [0, 1], got -0.1"),
        ("ingest --csv {ws}/data.csv --schema {ws}/missing.json --tau nan " + INGEST_OUTS,
         "--tau: must lie in [0, 1], got nan"),
        ("ingest --csv {ws}/data.csv --schema {ws}/missing.json --tau x " + INGEST_OUTS,
         "--tau: not a number: 'x'"),
        ("cluster --graph {ws}/g.json --colors {ws}/c.csv --algo wmatch " + OUTS,
         "algorithm 'wmatch' needs --ratio or --bounds"),
        ("experiment --graph {ws}/missing.json --algos cc,kmeans --out {ws}/x.csv",
         "argument --algos: unknown algorithm 'kmeans'"),
        ("experiment --graph {ws}/missing.json --algos cc,cc --out {ws}/x.csv",
         "argument --algos: an algorithm is named twice in 'cc,cc'"),
        ("cluster --graph {ws}/missing.json --ratio 1:x --algo cc " + OUTS, "bad ratio '1:x'"),
        ("cluster --algo faircc --graph {ws}/missing.json " + OUTS,
         "algorithm 'faircc' needs --colors"),
        ("verify --graph {ws}/missing.json --ratio 1:1",
         "verify needs --colors and --ratio/--bounds"),
        ("verify --random 1 --bounds 1:1", "bad bounds '1:1', expected lo..hi"),
        ("cluster --graph {ws}/g.json --colors {ws}/c.csv --algo faircc --ratio 1:1 "
         "--bounds 1:1..1:2 " + OUTS, "argument --bounds: not allowed with argument --ratio"),
        ("experiment --graph {ws}/g.json --colors {ws}/c.csv --algos faircc --ratio 1:1 "
         "--bounds 1:1..1:2 --out {ws}/x.csv",
         "argument --bounds: not allowed with argument --ratio"),
        ("verify --graph {ws}/g.json --colors {ws}/c.csv --bounds 1:1..1:2 --ratio 1:1",
         "argument --ratio: not allowed with argument --bounds"),
        ("verify --graph {ws}/g.json --mirror {ws}/g.json",
         "argument --mirror: not allowed with argument --graph"),
        ("verify --random 2 --ratio 1:3 --colors {ws}/missing.csv",
         "verify --random takes no --colors, --ratio or --bounds"),
        ("verify --mirror {ws}/missing.json --bounds 1:1..1:2",
         "verify --mirror takes no --colors, --ratio or --bounds"),
        ("verify --graph {ws}/missing.json --colors {ws}/c.csv --ratio 1:1 --max-n 4",
         "verify --max-n needs --random"),
        ("verify --mirror {ws}/missing.json --max-n 2", "verify --max-n needs --random"),
        ("verify --mirror {ws}/missing.json --seed 5",
         "verify --mirror takes no --seed or --restarts"),
        ("verify --mirror {ws}/missing.json --restarts 3",
         "verify --mirror takes no --seed or --restarts"),
        ("verify --mirror {ws}/g.json --seed 0", "verify --mirror takes no --seed or --restarts"),
        ("cluster --graph {ws}/missing.json --algo cc --seed -1 " + OUTS,
         "argument --seed: must be at least 0, got -1"),
        ("experiment --graph {ws}/missing.json --algos cc --seed -1 --out {ws}/x.csv",
         "argument --seed: must be at least 0, got -1"),
        ("verify --graph {ws}/missing.json --colors {ws}/c.csv --ratio 1:1 --seed -1",
         "argument --seed: must be at least 0, got -1"),
        ("ingest --csv {ws}/missing.csv --schema {ws}/missing.json --seed -1 " + INGEST_OUTS,
         "argument --seed: must be at least 0, got -1"),
    ],
    ids=[
        "experiment-no-colors", "experiment-runs-0", "verify-random-0", "verify-bare",
        "verify-max-n-1", "cluster-restarts-0", "experiment-restarts-0",
        "verify-restarts-0", "cluster-out-dir", "experiment-out-dir", "ingest-out-dir",
        "gen-out-dir", "missing-graph", "missing-colors", "missing-schema",
        "missing-csv", "ingest-sample-negative", "ingest-balance-without-sample",
        "cluster-bounds-reversed", "ingest-balance-bad-ratio", "ingest-tau-above-1",
        "ingest-tau-negative", "ingest-tau-nan", "ingest-tau-not-a-number",
        "cluster-no-spec", "experiment-unknown-algo", "experiment-repeated-algo",
        "cluster-bad-ratio-before-input", "cluster-no-colors-before-input",
        "verify-no-colors-before-input", "verify-random-bad-bounds", "cluster-ratio-and-bounds",
        "experiment-ratio-and-bounds", "verify-ratio-and-bounds", "verify-graph-and-mirror",
        "verify-random-with-spec", "verify-mirror-with-spec", "verify-graph-max-n",
        "verify-mirror-max-n", "verify-mirror-seed", "verify-mirror-restarts",
        "verify-mirror-default-seed", "cluster-seed-negative", "experiment-seed-negative",
        "verify-seed-negative", "ingest-seed-negative",
    ],
)
def test_argument_errors_exit_3(workspace, capsys, argv, message):
    """Bad arguments and unreadable input files exit 3 with the reason on
    stderr, before any output file is written. Spec text, flag
    combinations and output directories are refused before any input is
    read, so a missing input file does not hide them."""
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


@pytest.mark.parametrize(
    "algo", ["faircc", "wmatch", "ufaircc", "ccmerge", "faircc --try-all-bases"]
)
def test_exit_code_spec_misses_a_color(workspace, capsys, algo):
    """A two-color ratio on a three-color instance is one infeasible spec
    for every fair algorithm and for faircc's base sweep, which checks the
    1:1 spec it is given before it builds one per base color."""
    g = random_graph(6, 0)
    (workspace / "g.json").write_text(g.to_json())
    (workspace / "c.csv").write_text(random_colors((2, 2, 2), 0).to_csv())
    rc = main(
        [
            "cluster",
            "--graph", str(workspace / "g.json"),
            "--colors", str(workspace / "c.csv"),
            "--algo", *algo.split(),
            "--ratio", "1:1",
            "--out-clustering", str(workspace / "c.json"),
            "--out-result", str(workspace / "r.json"),
        ]
    )
    assert rc == 2
    assert "spec must bound every non-base color" in capsys.readouterr().err


def test_integer_of_too_many_digits_exits_3(workspace, capsys):
    """json.loads refuses an integer of over 4300 digits with a ValueError;
    the graph reader reports it as a parse error."""
    (workspace / "g.json").write_text('{"n": 3, "negative_edges": [[0, %s]]}' % ("1" * 5000))
    argv = ["cluster", "--graph", str(workspace / "g.json"), "--algo", "cc"]
    rc = main(argv + out_args(workspace))
    assert rc == 3
    assert "bad graph JSON" in capsys.readouterr().err


def test_spec_naming_a_missing_color_reports_unfair(workspace, capsys):
    """``cc`` under a three-color ratio on a two-color instance writes
    "fair": false: the third color counts 0 in every cluster."""
    (workspace / "g.json").write_text(random_graph(8, 3).to_json())
    (workspace / "c.csv").write_text(random_colors((4, 4), 3).to_csv())
    rc = main(
        [
            "cluster",
            "--graph", str(workspace / "g.json"),
            "--colors", str(workspace / "c.csv"),
            "--algo", "cc",
            "--ratio", "1:1:1",
            *out_args(workspace),
        ]
    )
    assert rc == 0
    row = json.loads((workspace / "r.json").read_text())
    assert row["fair"] is False and row["spec"] == "1:1:1"


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
        c = Clustering(json.loads((workspace / "out.json").read_text())["cluster_of"])
        spec = _bounds_spec("1:1:1..1:2:3")
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
    c = Clustering(json.loads((workspace / "out.json").read_text())["cluster_of"])
    assert check_fairness(colors, c, _bounds_spec("1:1..1:1000000")).overall_pass


def test_exit_code_oracle_limit(workspace, capsys):
    g = random_graph(12, 0)
    (workspace / "big.json").write_text(g.to_json())
    rc = main(["verify", "--mirror", str(workspace / "big.json")])
    assert rc == 4


def test_verify_mirror_refuses_an_oversized_mirror_before_searching(
    workspace, monkeypatch, capsys
):
    """verify --mirror meets the oracle's cap on the 2n-vertex mirror before
    it searches the n-vertex base graph: the one refusal, at the top of
    best_partition, comes before either subset DP runs."""
    (workspace / "base.json").write_text(random_graph(14, 0).to_json())
    calls = count_calls(
        monkeypatch, [(oracle, "best_partition"), (oracle, "_fair_optimum"), (oracle, "opt_cc")]
    )
    assert main(["verify", "--mirror", str(workspace / "base.json")]) == 4
    assert calls == {"best_partition": 1, "_fair_optimum": 0, "opt_cc": 0}
    assert "n=28 exceeds oracle limit 16" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,name",
    [
        ("cluster --graph {ws}/bad.json --algo cc " + OUTS, "bad.json"),
        ("verify --mirror {ws}/bad.json", "bad.json"),
        ("ingest --csv {ws}/bad.csv --schema {ws}/schema.json " + INGEST_OUTS, "bad.csv"),
    ],
    ids=["cluster", "verify-mirror", "ingest"],
)
def test_non_utf8_input_exits_3(workspace, capsys, argv, name):
    """An input file that is not UTF-8 text is a parse error naming it."""
    (workspace / "bad.json").write_bytes(b"\xff\xfe{}")
    (workspace / "bad.csv").write_bytes(b"id,age,job,group\nv0,1,\xff,R\nv1,2,x,B\n")
    before = sorted(workspace.iterdir())
    assert main(argv.format(ws=workspace).split()) == 3
    assert f"cannot read {workspace / name}: not UTF-8 text" in capsys.readouterr().err
    assert sorted(workspace.iterdir()) == before


def cluster_cc(ws, graph):
    return main(
        [
            "cluster", "--graph", str(graph), "--algo", "cc",
            "--out-clustering", str(ws / "k.json"), "--out-result", str(ws / "r.json"),
        ]
    )


def test_utf16_graph_without_a_bom_exits_3(workspace, capsys):
    """A UTF-16-LE graph file with no BOM and ASCII text is all ASCII bytes,
    so it decodes as UTF-8, to text that is not graph JSON. json.loads,
    given the bytes, would detect UTF-16 and read the graph; it is given
    the UTF-8 text instead."""
    data = random_graph(4, 0).to_json().encode("utf-16-le")
    assert data.isascii()
    (workspace / "g16.json").write_bytes(data)
    assert cluster_cc(workspace, workspace / "g16.json") == 3
    assert capsys.readouterr().err == (
        "error: bad graph JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)\n"
    )


def test_utf8_graph_with_a_non_ascii_key_reads_as_its_graph(workspace, capsys):
    """Non-ASCII text sends a graph file past the byte scan to json.loads,
    which reads the graph an extra key does not change."""
    plain = random_graph(6, 1).to_json()
    (workspace / "plain.json").write_text(plain, encoding="utf-8")
    (workspace / "named.json").write_text(
        '{"name": "s\u00e4\u00e4ti\u00f6", ' + plain[1:], encoding="utf-8"
    )
    outputs = []
    for graph in ("plain.json", "named.json"):
        assert cluster_cc(workspace, workspace / graph) == 0
        outputs.append(
            (capsys.readouterr(), (workspace / "k.json").read_text(), (workspace / "r.json").read_text())
        )
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "data,message",
    [
        (b'{"n": 2,\r\n "negative_edges": [[0, 1],]}\r\n', "Expecting value: line 2 column 28 (char 36)"),
        (
            b'{"n": 2,\r "negative_edges":\r [[0, 1]]\r, }',
            "Expecting property name enclosed in double quotes: line 4 column 3 (char 40)",
        ),
    ],
    ids=["crlf", "cr"],
)
def test_graph_json_errors_count_positions_in_text_mode(workspace, capsys, data, message):
    """The graph file is read as bytes, but json.loads's error positions are
    those of the text a text-mode read gives, with universal newlines."""
    (workspace / "g.json").write_bytes(data)
    assert cluster_cc(workspace, workspace / "g.json") == 3
    assert capsys.readouterr().err == f"error: bad graph JSON: {message}\n"


@pytest.mark.parametrize("row", ["1,1,9", "1,1_0", "1,\u0661"])
def test_malformed_colors_row_exits_3(workspace, capsys, row):
    (workspace / "g.json").write_text(random_graph(2, 0).to_json())
    (workspace / "c.csv").write_text(f"0,0\n{row}\n", encoding="utf-8")
    argv = ["verify", "--graph", str(workspace / "g.json"), "--colors", str(workspace / "c.csv")]
    assert main(argv + ["--ratio", "1:1"]) == 3
    assert capsys.readouterr().err == f"error: bad colors CSV at line 2: {row!r}\n"


def test_verify_refuses_an_oversized_instance_before_the_matchings(workspace, monkeypatch, capsys):
    """verify checks the oracle's size cap before any matcher work."""
    (workspace / "big.json").write_text(random_graph(18, 0).to_json())
    (workspace / "big.csv").write_text("".join(f"{v},{v % 2}\n" for v in range(18)))
    calls = count_calls(monkeypatch, [(fair_clustering, "build_matchings")])
    rc = main(
        [
            "verify",
            "--graph", str(workspace / "big.json"),
            "--colors", str(workspace / "big.csv"),
            "--ratio", "1:1",
        ]
    )
    assert rc == 4 and calls == {"build_matchings": 0}
    assert "n=18 exceeds oracle limit 16" in capsys.readouterr().err


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


def lopsided_fairlets(g, colors, spec, unit_costs=False):
    """Fairlets that glue every non-base vertex to the first base vertex,
    with made-up matching weights."""
    fairlets = np.zeros(colors.n, np.int64)
    lefts = colors.vertices_of(spec.base_color)
    fairlets[lefts] = np.arange(len(lefts))
    return fairlets, {color: 0 for color in spec.bounds}


@pytest.mark.parametrize(
    "command,target,replacement,message,counts",
    [
        ("cluster", "baselines.run_wmatch", split_by_color,
         "wmatch seed 0: unfair clustering",
         ["cluster 0 {0: 4}", "cluster 1 {1: 4}"]),
        ("experiment", "baselines.run_wmatch", split_by_color,
         "wmatch seed 0: unfair clustering",
         ["cluster 0 {0: 4}", "cluster 1 {1: 4}"]),
        ("cluster", "fair_clustering.build_matchings", lopsided_fairlets,
         "faircc seed 0: unfair clustering",
         ["{0: 1, 1: 4}", "{0: 1}"]),
    ],
    ids=["cluster", "experiment", "pipeline"],
)
def test_unfair_result_names_the_clusters(
    workspace, capsys, monkeypatch, command, target, replacement, message, counts
):
    module, name = target.split(".")
    monkeypatch.setattr(importlib.import_module(f"faircc.{module}"), name, replacement)
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


@pytest.mark.parametrize(
    "algo,name,replacement",
    [
        ("wmatch", "run_wmatch", split_by_color),
        ("ccmerge", "run_ccmerge", lambda g, colors, spec, cc: split_by_color(colors.color_of)),
    ],
    ids=["wmatch", "ccmerge"],
)
def test_registry_rejects_unfair_result(monkeypatch, algo, name, replacement):
    """Fairness is a postcondition of run_algorithm itself, not of the CLI:
    a stage that returns an unfair clustering makes the library call raise,
    naming the algorithm, the seed and the unfair clusters."""
    monkeypatch.setattr(baselines, name, replacement)
    g = SignedCompleteGraph.from_negative_edges(8, [(0, 4)])
    colors = ColorAssignment((0,) * 4 + (1,) * 4)
    message = rf"{algo} seed 3: unfair clustering: cluster 0 \{{0: 4\}}; cluster 1 \{{1: 4\}}"
    with pytest.raises(FairCCError, match=message):
        run_algorithm(algo, g, colors, FairnessSpec.exact({1: 1}), PivotRun(3, 5))


@pytest.mark.parametrize("with_colors", [False, True])
def test_experiment_mean_fair_cell_follows_rows(workspace, with_colors):
    """A mean row's fair cell is empty when its rows' cells are, as for cc
    without --colors, and their conjunction otherwise."""
    write_planted(workspace, 8, (4, 4), seed=1, blocks=2)
    colors = ["--colors", str(workspace / "c.csv")] if with_colors else []
    rc = main(
        ["experiment", "--graph", str(workspace / "g.json"), *colors, "--algos", "cc",
         "--ratio", "1:1", "--runs", "3", "--out", str(workspace / "x.csv")]
    )
    assert rc == 0
    with open(workspace / "x.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["0", "1", "2", "mean"]
    verdicts = {r["fair"] for r in rows[:-1]}
    if with_colors:
        assert verdicts <= {"true", "false"}
        assert rows[-1]["fair"] == ("true" if verdicts == {"true"} else "false")
    else:
        assert verdicts == {""} and rows[-1]["fair"] == ""


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_ingest_non_finite_numeric_exits_3(workspace, capsys, value):
    """A numeric cell that float() reads but is not finite is a parse error
    naming its line and column, not a silently wrong graph."""
    (workspace / "data.csv").write_text(
        make_csv([("v0", 10, "eng", "R"), ("v1", value, "law", "B"), ("v2", 20, "eng", "B")])
    )
    before = sorted(workspace.iterdir())
    assert run_ingest(workspace) == 3
    assert f"line 3: non-finite value '{value}' in 'age'" in capsys.readouterr().err
    assert sorted(workspace.iterdir()) == before


def test_ingest_numeric_range_beyond_float64_exits_1(workspace, capsys):
    (workspace / "data.csv").write_text(
        make_csv([("v0", 1e308, "eng", "R"), ("v1", -1e308, "law", "B"),
                  ("v2", 0, "eng", "R"), ("v3", 1, "law", "B")])
    )
    before = sorted(workspace.iterdir())
    assert run_ingest(workspace) == 1
    assert "numeric column 'age': range -1e+308..1e+308 overflows float64" in capsys.readouterr().err
    assert sorted(workspace.iterdir()) == before


@pytest.mark.parametrize(
    "spec,counts,runs,restarts",
    [
        (["--ratio", "1:2"], (20, 40), 3, 7),
        (["--bounds", "1:1..1:2"], (20, 40), 3, 7),
        # the windows 2..4, 3..5, ..., 7..9 keep restarts 3, 3, 6, 6, 6, 9 on
        # both graphs, so results are both shared and rebuilt within one pool
        (["--bounds", "1:1..1:2"], (20, 40), 6, 3),
        (["--ratio", "1:1:1"], (20, 20, 20), 6, 3),
    ],
    ids=["spec0", "spec1", "spec2", "spec3"],
)
def test_experiment_cells_match_cluster(workspace, capsys, monkeypatch, spec, counts, runs, restarts):
    """Sharing fairlets, cc clusterings, one pivot pass per graph and one
    result per kept restart across the matrix changes no cell: each row
    equals, column by column, the row of a fresh ``cluster`` run of the same
    algo and seed."""
    calls = count_calls(monkeypatch, [(baselines, "run_ccmerge"), (fair_clustering, "run_pipeline")])
    write_planted(workspace, 60, counts, seed=3, blocks=4)
    files = ["--graph", str(workspace / "g.json"), "--colors", str(workspace / "c.csv")]
    rc = main(
        ["experiment", *files, *spec, "--algos", ",".join(cli.ALGORITHMS),
         "--seed", "2", "--runs", str(runs), "--restarts", str(restarts),
         "--out", str(workspace / "x.csv")]
    )
    assert rc == 0
    # the ccmerge, faircc and ufaircc cells that built their result: more
    # than each algorithm's first cell, fewer than all of them
    assert 3 < calls["run_ccmerge"] + calls["run_pipeline"] < 3 * runs
    with open(workspace / "x.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["seed"] != "mean"]
    assert len(rows) == runs * len(cli.ALGORITHMS)
    for row in rows:
        rc = main(
            ["cluster", *files, *spec, "--algo", row["algo"], "--seed", row["seed"],
             "--restarts", str(restarts), "--out-clustering", str(workspace / "k.json"),
             "--out-result", str(workspace / "r.json")]
        )
        assert rc == 0
        single = json.loads((workspace / "r.json").read_text())
        assert row == {c: str(cli._csv_cell(single[c])) for c in cli.CSV_COLUMNS}, (
            row["algo"], row["seed"]
        )


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
    unit costs), one cc clustering per seed on the full graph, which
    ccmerge reuses, and one per seed on the base color's induced graph
    (built once, like the graph the file gives, through the trusted
    constructor), which faircc and ufaircc share, all through run_cc. The
    seed windows 0..4, 1..5, ..., 4..8 overlap, so each graph runs every
    seed 0..8 once, in one pivot pass. Each ccmerge repair, faircc or
    ufaircc attachment runs once per distinct restart its graph's windows
    keep, and wmatch, which needs no seed, once. The registry scores each
    of those 7 results once, where it builds it, and the cc rows take their
    cost from the restart pool, so the CLI scores nothing itself."""
    calls = count_calls(
        monkeypatch,
        [
            (fair_clustering, "build_matchings"),
            (baselines, "run_cc"),
            (baselines, "best_of_restarts"),
            (algorithms.SignedCompleteGraph, "_trusted"),
            (algorithms, "disagreements"),
            (baselines, "run_ccmerge"),
            (fair_clustering, "run_pipeline"),
            (baselines, "run_wmatch"),
        ],
    )
    passed = {}  # graph size -> the seeds of each pivot pass, in call order
    kept = {}  # graph size -> the seed each window k..k+4 keeps
    pivot_cluster = pivot.pivot_cluster

    def spy(g, seeds):
        passed.setdefault(g.n, []).append(list(seeds))
        labels = pivot_cluster(g, seeds)
        cost = {s: disagreements(g, Clustering.from_labels(row)) for s, row in zip(seeds, labels)}
        kept[g.n] = [min((cost[s], s) for s in range(k, k + 5))[1] for k in range(5)]
        return labels

    monkeypatch.setattr(pivot, "pivot_cluster", spy)
    write_planted(workspace, 60, (20, 40), seed=3, blocks=4)
    rc = main(
        ["experiment", "--graph", str(workspace / "g.json"),
         "--colors", str(workspace / "c.csv"), "--bounds", "1:1..1:2",
         "--algos", "cc,faircc,wmatch,ufaircc,ccmerge", "--runs", "5",
         "--restarts", "5", "--out", str(workspace / "x.csv")]
    )
    assert rc == 0
    # two distinct kept restarts per graph: one repair, two attachments each
    assert kept == {60: [3, 3, 6, 6, 6], 20: [1, 1, 6, 6, 6]}
    assert calls == {
        "build_matchings": 2, "run_cc": 10, "best_of_restarts": 10, "_trusted": 2,
        "disagreements": 7, "run_ccmerge": 2, "run_pipeline": 4, "run_wmatch": 1,
    }
    assert not hasattr(cli, "disagreements")
    # one pass per graph, of runs + restarts - 1 seeds
    assert passed == {60: [list(range(9))], 20: [list(range(9))]}


def test_experiment_checks_fairness_once_per_fair_cell(workspace, monkeypatch):
    """Four fair algorithms by two seeds: run_algorithm checks each fair
    result once, and the result row takes its verdict without a second
    check. Cells that keep the same restart share one checked result: the
    windows 0..24 and 1..25 keep restart 7 on the base color's graph, so
    faircc and ufaircc build one result each, and restarts 0 and 25 on the
    full graph, so ccmerge builds two; wmatch needs no seed and builds one."""
    calls = count_calls(
        monkeypatch, [(algorithms, "check_fairness"), (cli, "check_fairness")]
    )
    write_planted(workspace, 40, (20, 20), seed=5, blocks=4)
    rc = main(
        ["experiment", "--graph", str(workspace / "g.json"),
         "--colors", str(workspace / "c.csv"), "--ratio", "1:1",
         "--algos", "faircc,wmatch,ufaircc,ccmerge", "--runs", "2",
         "--out", str(workspace / "x.csv")]
    )
    assert rc == 0
    assert calls == {"check_fairness": 5}
    with open(workspace / "x.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["fair"] for row in rows] == ["true"] * 12  # 8 cells and 4 mean rows


def test_verify_builds_matchings_once_per_instance(monkeypatch, capsys):
    """The bound check and faircc of one verify instance share its
    matchings, and both bounds its one exhaustive search."""
    calls = count_calls(monkeypatch, [(fair_clustering, "build_matchings"), (oracle, "opt_fair")])
    assert main(["verify", "--random", "3"]) == 0
    assert calls == {"build_matchings": 3, "opt_fair": 3}
    assert capsys.readouterr().out.count("PASS  cost(faircc)") == 3


VERIFY_SEED_3 = """\
{}  w(M_1) <= 2*1*OPT_fair: 3 <= {}
PASS  cost(faircc) <= 13*OPT_fair: 4 <= {}
{}  w(M_1) <= 2*1*OPT_fair: 3 <= {}
PASS  cost(faircc) <= 13*OPT_fair: 3 <= {}
"""


def test_verify_checks_both_bounds_against_its_opt_fair(monkeypatch, capsys):
    """verify prints one line per bound, each right-hand side a multiple of
    the instance's OPT_fair: 2*q for the matching weight, the budget for
    faircc's cost. A failed bound prints FAIL and exits 1."""
    assert main(["verify", "--random", "2", "--max-n", "10", "--seed", "3"]) == 0
    assert capsys.readouterr().out == VERIFY_SEED_3.format("PASS", 4, 26, "PASS", 6, 39)
    monkeypatch.setattr(oracle, "opt_fair", lambda g, colors, spec: (None, 1))
    assert main(["verify", "--random", "2", "--max-n", "10", "--seed", "3"]) == 1
    assert capsys.readouterr().out == VERIFY_SEED_3.format("FAIL", 2, 13, "FAIL", 2, 13)


def test_base_sweep_shares_the_memo(monkeypatch):
    """The sweep over base colors keeps one matching build per base color in
    the caller's memo, so a later plain faircc run on base 0 reuses one and
    returns what a fresh memo gives."""
    g, colors = random_graph(24, 302), random_colors((8, 8, 8), 2)
    spec, pivot = FairnessSpec.exact({1: 1, 2: 1}), PivotRun(4, 10)
    fresh = run_algorithm("faircc", g, colors, spec, pivot)
    calls = count_calls(monkeypatch, [(fair_clustering, "build_matchings")])
    memo = {}
    run_algorithm("faircc", g, colors, spec, pivot, memo, try_all_bases=True)
    again = run_algorithm("faircc", g, colors, spec, pivot, memo)
    assert calls == {"build_matchings": 3}
    assert again == fresh


def test_base_sweep_scores_once_per_base(workspace, monkeypatch):
    """cluster --try-all-bases on three colors scores each base color's
    result once, where the registry builds it, and picks the winner by
    those costs, so neither the registry nor the CLI scores the winner
    again."""
    calls = count_calls(monkeypatch, [(algorithms, "disagreements")])
    write_planted(workspace, 30, (10, 10, 10), seed=4, blocks=3)
    rc = main(
        f"cluster --graph {workspace}/g.json --colors {workspace}/c.csv --algo faircc "
        f"--ratio 1:1:1 --try-all-bases {OUTS.format(ws=workspace)}".split()
    )
    assert rc == 0
    assert calls == {"disagreements": 3}
    assert not hasattr(cli, "disagreements")


@pytest.mark.parametrize("algo", ["cc", "wmatch", "ufaircc", "ccmerge"])
def test_try_all_bases_is_for_faircc_only(workspace, capsys, algo):
    """The base sweep is faircc's alone: for any other algorithm the CLI
    exits 3 before writing output, and the library raises."""
    g, colors = random_graph(4, seed=1), ColorAssignment((0, 1, 0, 1))
    (workspace / "g.json").write_text(g.to_json())
    (workspace / "c.csv").write_text(colors.to_csv())
    before = sorted(workspace.iterdir())
    argv = (
        f"cluster --graph {workspace}/g.json --colors {workspace}/c.csv --algo {algo} "
        f"--ratio 1:1 --try-all-bases " + OUTS.format(ws=workspace)
    )
    assert main(argv.split()) == 3
    assert "--try-all-bases applies only to --algo faircc" in capsys.readouterr().err
    assert sorted(workspace.iterdir()) == before
    with pytest.raises(InvalidInputError, match="try_all_bases applies only to faircc"):
        run_algorithm(algo, g, colors, FairnessSpec.exact({1: 1}), try_all_bases=True)


def test_registry_errors_name_no_flags():
    """The library reports an unknown name, or a fair algorithm without
    colors or spec, as invalid input in its own terms, not the CLI's."""
    g, colors = random_graph(4, seed=1), ColorAssignment((0, 1, 0, 1))
    spec = FairnessSpec.exact({1: 1})
    with pytest.raises(InvalidInputError, match="unknown algorithm 'kmeans'"):
        run_algorithm("kmeans", g, colors, spec)
    for algo in ("wmatch", "ufaircc", "ccmerge", "faircc"):
        for args in [(), (colors,), (None, spec)]:
            message = f"algorithm '{algo}' needs colors and a fairness spec"
            with pytest.raises(InvalidInputError, match=message):
                run_algorithm(algo, g, *args)
    assert run_algorithm("cc", g) == run_algorithm("cc", g, colors, spec, memo={})


def test_traced_layer_names_exist(capsys, tmp_path):
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
    # opt_cc, which no benchmark workload calls, is the mirror check's
    # second search
    path = tmp_path / "g.json"
    path.write_text(random_graph(4, seed=2).to_json())
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["verify", "--mirror", str(path)]) == 0
    finally:
        tracer.uninstall()
    calls = {name: agg["calls"] for name, agg in tracer.summary().items()}
    assert calls["oracle.opt_cc"] == 1 and calls["oracle.best_partition"] == 2
