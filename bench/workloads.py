"""The benchmark's workloads: their input files, CLI calls and expected outputs.

Each workload is a closed loop of CLI calls made one at a time.  Inputs
that depend on the workload seed are random 3-tournaments drawn with the
standard library's ``random.Random``; the program sees only the files.
Fixed inputs are the paper's constructions, written by ``propertyo
construct``, and graphs the benchmark derives from them.  Expected verdicts
come from ``checks.first_violating_order`` or from ``expected.json``.

Why these workloads:

- verify: every input has Property O, so the exhaustive scan and the
  histogram run all n! orders.  Random tournaments sit beside the padded
  claim1 because padding with isolated vertices flatters a memoised kernel.
- refute: the same deciders on inputs without Property O.  The scan stops at
  the lex-first violating order, so a kernel that builds every mask before
  answering can win on verify and lose here.
- census: the tournament sweep.  (5,3) is bound by the census recursion,
  (8,2) by the coverage-mask build; no core decider runs.
- sample: Monte Carlo; the backtracking decider does almost all the work on
  many small inputs.  At n=7 most searches stop early, at n=8 most run to
  completion.
"""

from __future__ import annotations

import itertools
import json
import os
import random

from checks import first_violating_order

DEFAULT_SEED = 1
RANDOM_INPUTS = 6
CENSUS_JOBS = 2

_HERE = os.path.dirname(os.path.abspath(__file__))

_CONSTRUCT_FLAGS = {"general": ["--k", "3"]}
_SETUP_FAMILIES = {
    "verify": ("cyclic2", "h1", "h2", "claim1", "general"),
    "refute": ("claim1", "h1", "h2"),
    "census": (),
    "sample": (),
}


def load_expected() -> dict:
    with open(os.path.join(_HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def parse_graph_file(path: str) -> dict:
    """{k, n, edges} from a hypergraph file, read without propertyo."""
    k = n = None
    edges = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            if fields[0] == "k":
                k = int(fields[1])
            elif fields[0] == "n":
                n = int(fields[1])
            elif fields[0] == "e":
                edges.append([int(v) for v in fields[1:]])
    if k is None or n is None:
        raise ValueError(f"{path}: missing k or n header")
    return {"k": k, "n": n, "edges": edges}


def write_graph_file(path: str, graph: dict) -> None:
    lines = [f"k {graph['k']}", f"n {graph['n']}"]
    lines += ["e " + " ".join(str(v) for v in e) for e in graph["edges"]]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def random_tournament(rng: random.Random, n: int, k: int) -> list[list[int]]:
    """One uniformly random orientation of every k-subset of range(n)."""
    return [rng.sample(subset, k) for subset in itertools.combinations(range(n), k)]


def random_inputs(workload: str, seed: int, holds: bool) -> list[dict]:
    """RANDOM_INPUTS seeded 3-tournaments on 8 vertices with or without Property O.

    Each comes with its lex-first violating order (None when it holds).
    """
    rng = random.Random(f"{workload}:{seed}")
    chosen = []
    while len(chosen) < RANDOM_INPUTS:
        edges = random_tournament(rng, 8, 3)
        witness = first_violating_order(8, edges)
        if (witness is None) == holds:
            chosen.append({"k": 3, "n": 8, "edges": edges, "witness": witness})
    return chosen


def construct_calls(workload: str) -> list[list[str]]:
    """The ``propertyo construct`` argument lists the workload's set-up runs."""
    return [
        ["construct", "--family", family, *_CONSTRUCT_FLAGS.get(family, []), "--out", f"{family}.txt"]
        for family in _SETUP_FAMILIES[workload]
    ]


def derived_files(workload: str, seed: int, constructed: dict[str, dict]) -> dict[str, dict]:
    """Input files the benchmark writes itself, by file name.

    ``constructed`` maps a construct family to its parsed graph.  Inputs
    without Property O carry their lex-first violating order as "witness".
    """
    files = {}
    if workload == "verify":
        claim1 = constructed["claim1"]
        files["claim1_pad9.txt"] = {"k": 3, "n": 9, "edges": claim1["edges"]}
        for i, g in enumerate(random_inputs(workload, seed, holds=True)):
            files[f"random{i}.txt"] = g
    elif workload == "refute":
        edges = constructed["claim1"]["edges"]
        witnesses = load_expected()["claim1_pad9_deletion_witnesses"]
        for i in range(len(edges)):
            files[f"claim1_pad9_minus{i}.txt"] = {
                "k": 3,
                "n": 9,
                "edges": edges[:i] + edges[i + 1 :],
                "witness": witnesses[i],
            }
        for i, g in enumerate(random_inputs(workload, seed, holds=False)):
            files[f"random{i}.txt"] = g
    return files


def _verify_calls(name: str, graph: dict, holds: bool, witness) -> list[dict]:
    graph = {"k": graph["k"], "n": graph["n"], "edges": graph["edges"]}
    return [
        {
            "kind": "verify",
            "file": name,
            "method": method,
            "args": ["verify", name] + ([] if method == "auto" else ["--method", method]),
            "graph": graph,
            "holds": holds,
            # only the exhaustive scan promises the lex-first order
            "witness": witness if method == "auto" else None,
        }
        for method in ("auto", "dfs")
    ]


def _histogram_call(name: str, graph: dict, expected: dict) -> dict:
    return {
        "kind": "histogram",
        "file": name,
        "args": ["histogram", name],
        "counts": expected["histograms"][name],
    }


def workload_calls(
    workload: str, seed: int, constructed: dict[str, dict], files: dict[str, dict]
) -> list[dict]:
    """The decision calls of one pass of the workload, in order."""
    expected = load_expected()
    calls: list[dict] = []
    if workload == "verify":
        inputs = {f"{f}.txt": constructed[f] for f in _SETUP_FAMILIES["verify"]}
        inputs.update(files)
        for name, graph in inputs.items():
            calls += _verify_calls(name, graph, True, None)
            if not name.startswith("random"):
                calls.append(_histogram_call(name, graph, expected))
    elif workload == "refute":
        for name, graph in files.items():
            calls += _verify_calls(name, graph, False, graph["witness"])
        for family in ("claim1", "h1", "h2"):
            graph = constructed[family]
            calls.append(
                {
                    "kind": "minimality",
                    "file": f"{family}.txt",
                    "args": ["minimality", f"{family}.txt"],
                    "graph": graph,
                    "witnesses": expected["minimality_witnesses"][family],
                }
            )
    elif workload == "census":
        for expect in expected["census"]:
            n, k = expect["n"], expect["k"]
            calls.append(
                {
                    "kind": "census",
                    "n": n,
                    "k": k,
                    "jobs": CENSUS_JOBS,
                    "args": ["census", "--n", str(n), "--k", str(k), "--jobs", str(CENSUS_JOBS)],
                    "expect": expect,
                }
            )
    elif workload == "sample":
        known = expected["sample"]
        for spec in known["calls"]:
            n, k, trials = spec["n"], spec["k"], spec["trials"]
            calls.append(
                {
                    "kind": "sample",
                    "n": n,
                    "k": k,
                    "trials": trials,
                    "seed": seed,
                    "args": ["sample", "--n", str(n), "--k", str(k),
                             "--trials", str(trials), "--seed", str(seed)],
                    "successes": spec["successes"] if seed == known["seed"] else None,
                }
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls
