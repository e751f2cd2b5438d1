import csv
import json

import numpy as np
import pytest

from faircc import Clustering, ColorAssignment, SignedCompleteGraph, check_fairness
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
