"""Tests of the benchmark itself: its checks, its runner and its output.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

import checks
import run
import workloads

ROOT = run.ROOT
sys.path.insert(0, os.path.join(ROOT, "src"))

CLAIM1 = {
    "k": 3,
    "n": 8,
    "edges": [[0, 1, 2], [2, 0, 4], [4, 0, 1], [0, 2, 5], [5, 2, 1],
              [1, 0, 3], [3, 1, 6], [6, 1, 0], [1, 3, 7], [7, 3, 0]],
}


def _minus_first_edge() -> dict:
    return {"k": 3, "n": 8, "edges": CLAIM1["edges"][1:]}


def _verify_call(graph, holds, witness=None, method="auto"):
    return {"kind": "verify", "file": "g.txt", "method": method, "args": [],
            "graph": graph, "holds": holds, "witness": witness}


def _fixed_graphs() -> dict:
    from propertyo import (cyclic_triangle, double_cycle_3graph, general_construction,
                           merged_ten_edge_3graph, ten_edge_3graph)

    builders = {"cyclic2": cyclic_triangle, "h1": double_cycle_3graph, "h2": merged_ten_edge_3graph,
                "claim1": ten_edge_3graph, "general": lambda: general_construction(3)}
    graphs = {}
    for family, build in builders.items():
        g = build()
        graphs[f"{family}.txt"] = {"k": g.k, "n": g.n, "edges": [list(e) for e in g.edges]}
    return graphs


def test_expected_outputs_match_the_reference_decider():
    expected = workloads.load_expected()
    graphs = _fixed_graphs()
    edges = graphs["claim1.txt"]["edges"]
    assert edges == CLAIM1["edges"]
    for i, witness in enumerate(expected["claim1_pad9_deletion_witnesses"]):
        assert list(checks.first_violating_order(9, edges[:i] + edges[i + 1:])) == witness
    for family, witnesses in expected["minimality_witnesses"].items():
        graph = graphs[f"{family}.txt"]
        for i, witness in enumerate(witnesses):
            reduced = graph["edges"][:i] + graph["edges"][i + 1:]
            assert list(checks.first_violating_order(graph["n"], reduced)) == witness
    graphs["claim1_pad9.txt"] = {"k": 3, "n": 9, "edges": edges}
    assert expected["histograms"] == {
        name: checks.consistent_edge_counts(graph["n"], graph["edges"]) for name, graph in graphs.items()
    }
    for census in expected["census"]:
        if census["witness"] is not None:
            witness = [[int(v) for v in e.split()] for e in census["witness"].split(",")]
            assert len(witness) == math.comb(census["n"], census["k"])
            assert checks.first_violating_order(census["n"], witness) is None


def test_reference_decider_agrees_with_the_violating_predicate():
    assert checks.first_violating_order(8, CLAIM1["edges"]) is None
    order = checks.first_violating_order(8, _minus_first_edge()["edges"])
    assert checks.is_violating(order, 8, _minus_first_edge()["edges"])
    assert not checks.is_violating(order, 8, CLAIM1["edges"])


def test_correct_outputs_pass():
    graph = _minus_first_edge()
    witness = list(checks.first_violating_order(8, graph["edges"]))
    stdout = "VIOLATION order=" + " ".join(map(str, witness)) + "\n"
    assert checks.check_call(_verify_call(graph, False, witness), 1, stdout) == []
    holds = "PROPERTY_O method=exhaustive orders=40320\n"
    assert checks.check_call(_verify_call(CLAIM1, True), 0, holds) == []


def test_tampered_witness_is_flagged():
    graph = _minus_first_edge()
    witness = list(checks.first_violating_order(8, graph["edges"]))
    swapped = witness[:]
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    for order in (swapped, witness[:-1], witness[:-1] + [witness[0]]):
        stdout = "VIOLATION order=" + " ".join(map(str, order)) + "\n"
        assert checks.check_call(_verify_call(graph, False), 1, stdout), order


def test_wrong_verdict_is_flagged():
    graph = _minus_first_edge()
    assert checks.check_call(
        _verify_call(graph, False), 0, "PROPERTY_O method=exhaustive orders=40320\n")
    assert checks.check_call(
        _verify_call(CLAIM1, True), 1, "VIOLATION order=0 1 2 3 4 5 6 7\n")
    # a holds verdict must have scanned all n! orders
    assert checks.check_call(
        _verify_call(CLAIM1, True), 0, "PROPERTY_O method=exhaustive orders=40319\n")


def test_histogram_with_an_order_in_the_wrong_bucket_is_flagged():
    counts = workloads.load_expected()["histograms"]["claim1.txt"]
    call = {"kind": "histogram", "counts": counts}
    right = "".join(f"count={c} orders={m}\n" for c, m in counts.items())
    assert checks.check_call(call, 0, right) == []
    # one order moved down a bucket and another up: n! and the weighted sum stay
    moved = dict(counts, **{"2": counts["2"] - 2, "1": counts["1"] + 1, "3": counts["3"] + 1})
    wrong = "".join(f"count={c} orders={m}\n" for c, m in moved.items())
    assert checks.check_call(call, 0, wrong)
    assert checks.check_call(call, 1, right)


def test_wrong_exit_code_and_timeout_are_flagged():
    holds = "PROPERTY_O method=exhaustive orders=40320\n"
    assert checks.check_call(_verify_call(CLAIM1, True), 1, holds)
    assert checks.check_call(_verify_call(CLAIM1, True), 3, holds)
    assert checks.check_call(_verify_call(CLAIM1, True), None, holds) == ["timed out"]
    census = {"kind": "census", "expect": workloads.load_expected()["census"][0]}
    report = "n=5\nk=3\ntotal_enumerated=60466176\nproperty_o_found=0\nfirst_witness=none\n"
    assert checks.check_call(census, 0, report) == []
    assert checks.check_call(census, 1, report)


def test_runner_times_out_and_measures_each_child_alone(tmp_path):
    runner = run.Runner(str(tmp_path), time.monotonic() + 1.0)
    result = runner.run([sys.executable, "-c", "import time; time.sleep(30)"])
    assert result["returncode"] is None
    assert result["wall_s"] < 10

    runner = run.Runner(str(tmp_path), time.monotonic() + 60.0)
    big = runner.run([sys.executable, "-c", "b = bytearray(80 * 2**20); b[::4096] = b'x' * len(b[::4096])"])
    small = runner.run([sys.executable, "-c", "pass"])
    assert big["returncode"] == 0 and small["returncode"] == 0
    assert big["rss_mb"] > 80
    assert small["rss_mb"] < 60


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, units", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_run_prints_every_metric_with_its_unit(trace, units):
    done = _bench("--workload", "refute", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _small_spec() -> dict:
    expected = workloads.load_expected()
    minus0 = _minus_first_edge()
    witness = list(checks.first_violating_order(8, minus0["edges"]))
    calls = [
        _verify_call(minus0, False, witness) | {"file": "minus0.txt", "args": ["verify", "minus0.txt"]},
        _verify_call(minus0, False, method="dfs")
        | {"file": "minus0.txt", "args": ["verify", "minus0.txt", "--method", "dfs"]},
        {"kind": "histogram", "file": "claim1.txt", "args": ["histogram", "claim1.txt"],
         "counts": expected["histograms"]["claim1.txt"]},
        {"kind": "minimality", "file": "claim1.txt", "args": ["minimality", "claim1.txt"],
         "graph": CLAIM1, "witnesses": expected["minimality_witnesses"]["claim1"]},
        {"kind": "census", "n": 6, "k": 3, "jobs": 2, "expect": expected["census"][1],
         "args": ["census", "--n", "6", "--k", "3", "--jobs", "2"]},
        {"kind": "sample", "n": 7, "k": 3, "trials": 20, "seed": 5,
         "args": ["sample", "--n", "7", "--k", "3", "--trials", "20", "--seed", "5"]},
    ]
    return {
        "construct": [["construct", "--family", "claim1", "--out", "claim1.txt"]],
        "files": {"minus0.txt": minus0},
        "calls": calls,
    }


DETERMINISTIC = (
    "cli.calls",
    "core.exhaustive.orders",
    "core.backtracking.placements",
    "core.holds_frac",
    "search.census.tournaments",
    "search.minimality.decisions",
)


def test_counters_repeat_across_two_traced_passes(tmp_path, monkeypatch):
    import layers

    spec = _small_spec()
    counters = []
    for attempt in range(2):
        workdir = tmp_path / f"pass{attempt}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = layers.run(spec)
        assert out["problems"] == []
        assert run.check_pass(spec["calls"], out["results"]) == [[]] * len(spec["calls"])
        cli_pass = [{"wall_s": 0.0, "cpu_s": 0.0}] * len(spec["calls"])
        metrics = run.layer_metrics(out["spans"], cli_pass, [0.0])
        counters.append({name: metrics[name] for name in DETERMINISTIC})
    # claim1 itself, then claim1 minus each of its 10 edges
    assert counters[0]["search.minimality.decisions"] == 11
    assert all(counters[0][name] > 0 for name in DETERMINISTIC)
    assert counters[0] == counters[1]
