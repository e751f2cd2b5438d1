"""The A/B timing tool: its driver, with ``subprocess.run`` stubbed by canned
measure lines, so no child interpreter runs; and each suite's real measure
loop, run in-process on a few instances of its first set."""

import importlib
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = {
    "oracle": "BENCH_oracle.json",
    "experiment": "BENCH_experiment.json",
    "matcher": "BENCH_matcher.json",
}
SETS = {
    "oracle": ["n10", "n12", "n14", "n16"],
    "experiment": ["seed0", "seed7"],
    "matcher": ["fairlet_n400", "sweep_n120", "n2400", "n3200"],
}
LINE_KEYS = {"times", "cold_peak", "peak", "results", "checked", "calls"}


def load_tool():
    path = ROOT / "tools" / "bench_ab.py"
    module_spec = importlib.util.spec_from_file_location("bench_ab", path)
    tool = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tool)
    return tool


def key_tree(value):
    """A JSON value's nested keys, every leaf replaced by None."""
    return {k: key_tree(v) for k, v in value.items()} if isinstance(value, dict) else None


def canned_line(suite, side, rnd, spoiled):
    """One round's measure line on three instances. Instance i takes
    (i + 1) ms in the base tree and 2 (i + 1) ms in the new one at its
    fastest, reached in round 2; ``spoiled`` changes one result of the
    new tree's round 3: the fingerprint of one instance (a cost, the
    output of one experiment, the fairlet ids of one instance), or the
    oracle's fairness check."""
    tree = 1 if side == "base" else 2
    bad = spoiled if side == "new" and rnd == 3 else None
    calls = {}
    if suite == "experiment":
        calls = {"run_ccmerge": 1.4, "run_pipeline": 2.5, "run_wmatch": 1.0}
        calls.update(check_fairness=4.9, disagreements=4.9)
    return {
        "times": [1e-3 * tree * (k + 1) * (1 + (rnd - 2) ** 2) for k in range(3)],
        "cold_peak": 4096 * tree,
        "peak": 2048 * tree,
        "results": ["a", "x" if bad not in (None, "fair") else "b", "c"],
        "checked": bad != "fair",
        "calls": calls,
    }


def run_tool(monkeypatch, capsys, tmp_path, suite, spoiled=None):
    """(exit code, printed JSON, per set the trees in the order they ran)."""
    tool = load_tool()
    order = {}

    def fake_run(argv, **kwargs):
        assert argv[2:4] == [suite, "--measure"] and kwargs["env"]["OPENBLAS_NUM_THREADS"] == "1"
        side, name = Path(argv[4]).name, argv[5]
        sides = order.setdefault(name, [])
        rnd = sides.count(side)
        sides.append(side)
        line = json.dumps(canned_line(suite, side, rnd, spoiled))
        return subprocess.CompletedProcess(argv, 0, stdout=line + "\n")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    rc = tool.main([suite, "--base", str(tmp_path / "base"), "--new", str(tmp_path / "new")])
    return rc, json.loads(capsys.readouterr().out), order


@pytest.mark.parametrize("suite", ["oracle", "experiment", "matcher"])
def test_every_verdict_holds(monkeypatch, capsys, tmp_path, suite):
    """Exit 0 with the suite's sets and the committed file's keys; each
    tree's cpu_ms_* summarise every instance's least time over the rounds;
    the rounds alternate which tree goes first."""
    rc, out, order = run_tool(monkeypatch, capsys, tmp_path, suite)
    assert rc == 0 and list(out["sets"]) == SETS[suite]
    assert key_tree(out) == key_tree(json.loads((ROOT / COMMITTED[suite]).read_text()))
    for name, entry in out["sets"].items():
        assert order[name] == ["base", "new", "new", "base"] * 2 + ["base", "new"]
        assert entry["instances"] == 3
        for side, fastest in (("base", 1.0), ("new", 2.0)):
            assert {k: v for k, v in entry[side].items() if k.startswith("cpu_ms")} == {
                "cpu_ms_min": fastest, "cpu_ms_median": 2 * fastest,
                "cpu_ms_mean": 2 * fastest, "cpu_ms_max": 3 * fastest,
            }
            assert entry[side]["peak_kb"] == 2 * fastest
            assert entry[side]["cold_peak_kb"] == 4 * fastest
    assert all(v is True for s in out["sets"].values() for v in s.values() if isinstance(v, bool))


@pytest.mark.parametrize(
    "suite,spoiled,verdict",
    [
        ("oracle", "cost", "identical_costs"),
        ("oracle", "fair", "new_fair_at_cost"),
        ("experiment", "digest", "identical_csv"),
        ("matcher", "fairlet", "identical_fairlets"),
    ],
)
def test_a_false_verdict_exits_1(monkeypatch, capsys, tmp_path, suite, spoiled, verdict):
    """One round of the new tree with a different cost, an unfair or
    mispriced partition, different output bytes or a changed fairlet id
    fails every set, since the stub spoils each set's round 3; the JSON is
    printed all the same."""
    rc, out, _ = run_tool(monkeypatch, capsys, tmp_path, suite, spoiled)
    assert rc == 1
    assert all(s[verdict] is False for s in out["sets"].values())


@pytest.mark.parametrize("suite", ["oracle", "experiment", "matcher"])
def test_the_real_measure_repeats_itself(monkeypatch, tmp_path, suite):
    """The suite's own measure loop on the first 3 instances of its first
    set, twice in one interpreter: a JSON line of the driver's shape whose
    results and checks agree between the two runs."""
    tool = load_tool()
    first = SETS[suite][0]
    (source, seed, _), = tool.SETS[first]
    monkeypatch.setitem(tool.SETS, first, [(source, seed, 3)])
    monkeypatch.syspath_prepend(str(ROOT / "pipebench"))
    monkeypatch.chdir(tmp_path)
    for name in tool.COUNTED:  # the experiment suite wraps these; undo that after the test
        module_name, _, attr = name.partition(".")
        module = importlib.import_module(f"faircc.{module_name}")
        monkeypatch.setattr(module, attr, getattr(module, attr))
    lines = [json.loads(json.dumps(tool.measure(suite, first))) for _ in range(2)]
    for line in lines:
        assert set(line) == LINE_KEYS
        assert len(line["times"]) == len(line["results"]) == 3
        assert line["checked"] is True and 0 < line["peak"] and 0 < line["cold_peak"]
    assert lines[0]["results"] == lines[1]["results"]
    counted = [name.partition(".")[2] for name in tool.COUNTED] if suite == "experiment" else []
    assert list(lines[0]["calls"]) == counted
