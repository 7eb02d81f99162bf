import ast
import math
import os
import re
import subprocess
import sys
import time
import types

import pytest

from propertyo import (
    InternalError,
    cyclic_triangle,
    double_cycle_3graph,
    general_construction,
    is_consistent,
    merged_ten_edge_3graph,
    read_hypergraph,
    serialize_hypergraph,
    ten_edge_3graph,
)
import propertyo
from propertyo import cli, constructions, core, cover, pairsearch, search
from propertyo.cli import main

from test_fileformat import MULTI_VIOLATION_MESSAGE, MULTI_VIOLATION_TEXT


def run_cli(*argv):
    return main(list(argv))


def run_python(*args, timeout=None):
    """Run ``python ARGS`` in a fresh interpreter that imports the same
    ``propertyo`` as these tests, installed or not; a run past ``timeout``
    seconds raises ``subprocess.TimeoutExpired``."""
    src = os.path.dirname(os.path.dirname(propertyo.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=timeout,
    )


def run_listing_imports(*argv):
    """Run ``propertyo ARGV`` in a fresh interpreter under ``-X importtime``.

    Returns the finished process, the modules its import statements load
    beyond a bare interpreter's (so that what site imports does not count),
    and the propertyo modules in ``sys.modules`` at exit.  The last also
    holds what loads through the package's lazy exports (importlib), which
    ``-X importtime`` does not list.
    """
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(sorted(m for m in sys.modules"
        " if m.startswith('propertyo.')), file=sys.stderr))\n"
        f"sys.argv = ['propertyo', *{list(argv)!r}]\n"
        "runpy.run_module('propertyo', run_name='__main__')\n"
    )

    def imported(*args):
        result = run_python("-X", "importtime", *args)
        names = {
            line.rsplit("|", 1)[1].strip()
            for line in result.stderr.splitlines()
            if line.startswith("import time:")
        }
        return result, names

    bare, before = imported("-c", "pass")
    assert bare.returncode == 0, bare.stderr
    result, after = imported("-c", code)
    loaded = ast.literal_eval(result.stderr.splitlines()[-1])
    return result, after - before, loaded


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConstruct:
    @pytest.mark.parametrize(
        "family,builder",
        [
            ("cyclic2", cyclic_triangle),
            ("claim1", ten_edge_3graph),
            ("h1", double_cycle_3graph),
            ("h2", merged_ten_edge_3graph),
        ],
    )
    def test_families(self, tmp_path, family, builder):
        out = str(tmp_path / f"{family}.hg")
        assert run_cli("construct", "--family", family, "--out", out) == 0
        assert read_hypergraph(out) == builder()

    def test_general_with_k(self, tmp_path):
        out = str(tmp_path / "g4.hg")
        assert run_cli("construct", "--family", "general", "--k", "4", "--out", out) == 0
        assert read_hypergraph(out) == general_construction(4)

    def test_general_over_edge_budget_exits_4(self, tmp_path, capsys):
        out = tmp_path / "g9.hg"
        argv = ("construct", "--family", "general", "--k", "9", "--out", str(out))
        assert run_cli(*argv) == 4
        assert "1653120 edges" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["1600", "1000000"])
    def test_general_far_over_edge_budget_exits_4_uncounted(self, tmp_path, capsys, k):
        # a count of thousands of digits is neither computed nor printed
        out = tmp_path / "g.hg"
        start = time.perf_counter()
        assert run_cli("construct", "--family", "general", "--k", k, "--out", str(out)) == 4
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "-digit number of edges, over the 1000000 budget" in captured.err
        assert not out.exists()

    def test_general_over_edge_budget_names_a_count_it_builds(self, tmp_path, capsys):
        # 9! is within the budget, so k = 10's count is computed and named;
        # 10! is not, so k = 11's count, 221356800, is never built
        argv = ("construct", "--family", "general", "--out", str(tmp_path / "g.hg"))
        assert run_cli(*argv, "--k", "10") == 4
        assert "would build 19958400 edges" in capsys.readouterr().err
        assert run_cli(*argv, "--k", "11") == 4
        err = capsys.readouterr().err
        assert "a more-than-6-digit number of edges" in err
        assert "221356800" not in err

    def test_general_k_below_three_exits_3(self, tmp_path, capsys):
        out = tmp_path / "g2.hg"
        argv = ("construct", "--family", "general", "--k", "2", "--out", str(out))
        assert run_cli(*argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "uniformity must be at least 3, got 2" in captured.err
        assert not out.exists()

    def test_general_requires_k(self, tmp_path, capsys):
        out = str(tmp_path / "g.hg")
        assert run_cli("construct", "--family", "general", "--out", out) == 2
        assert "requires --k" in capsys.readouterr().err

    def test_k_rejected_for_fixed_families(self, tmp_path):
        out = str(tmp_path / "c.hg")
        assert run_cli("construct", "--family", "h1", "--k", "3", "--out", out) == 2

    def test_output_is_canonical_bytes(self, tmp_path):
        out = tmp_path / "h2.hg"
        run_cli("construct", "--family", "h2", "--out", str(out))
        assert out.read_text() == serialize_hypergraph(merged_ten_edge_3graph())

    def test_unknown_family(self, tmp_path):
        assert (
            run_cli("construct", "--family", "nope", "--out", str(tmp_path / "x")) == 2
        )


class TestVerify:
    def test_property_o_exit_zero(self, tmp_path, capsys):
        path = write(tmp_path, "c1.hg", serialize_hypergraph(ten_edge_3graph()))
        assert run_cli("verify", path) == 0
        out = capsys.readouterr().out
        assert out == "PROPERTY_O method=exhaustive orders=40320\n"

    def test_violation_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "single.hg", "k 3\nn 3\ne 0 1 2\n")
        assert run_cli("verify", path) == 1
        out = capsys.readouterr().out
        assert out.startswith("VIOLATION order=")
        order = [int(v) for v in out.split("order=")[1].split()]
        assert sorted(order) == [0, 1, 2]

    def test_method_dfs(self, tmp_path, capsys):
        path = write(tmp_path, "h1.hg", serialize_hypergraph(double_cycle_3graph()))
        assert run_cli("verify", path, "--method", "dfs") == 0
        assert "method=backtracking" in capsys.readouterr().out

    def test_method_dfs_reports_placements(self, tmp_path, capsys):
        path = write(tmp_path, "g4.hg", serialize_hypergraph(general_construction(4)))
        assert run_cli("verify", path, "--method", "dfs") == 0
        assert capsys.readouterr().out == (
            "PROPERTY_O method=backtracking orders=0 nodes=389\n"
        )
        path = write(tmp_path, "single.hg", "k 3\nn 3\ne 0 1 2\n")
        assert run_cli("verify", path, "--method", "dfs") == 1
        assert capsys.readouterr().out == "VIOLATION order=1 2 0\nnodes=1\n"

    def test_isolated_vertices_are_not_searched(self, tmp_path, capsys):
        # the 2-edge's pair is forced at the root, so no node branches
        path = write(tmp_path, "sparse.hg", "k 2\nn 1200\ne 1199 1198\n")
        assert run_cli("verify", path) == 1
        order = " ".join(map(str, [1198, 1199, *range(1198)]))
        assert capsys.readouterr().out == f"VIOLATION order={order}\nnodes=0\n"

    def test_method_brute_budget_refusal(self, tmp_path, capsys):
        lines = ["k 2", "n 13", "e 0 1"]
        path = write(tmp_path, "big.hg", "\n".join(lines) + "\n")
        assert run_cli("verify", path, "--method", "brute") == 4

    @pytest.mark.parametrize("command", ["verify", "minimality"])
    def test_search_budget_exits_4(self, tmp_path, capsys, monkeypatch, command):
        # general(4) is decided within the real budget, 10**8
        monkeypatch.setattr(pairsearch, "_MAX_SEARCH_WORK", 10_000)
        path = write(tmp_path, "g4.hg", serialize_hypergraph(general_construction(4)))
        assert run_cli(command, path) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{command}: search over 27 support vertices refused after "
            "10000 units of work\n"
        )

    def test_search_over_the_work_budget_exits_4(self, tmp_path, capsys):
        # a directed 2-path's closure grows as its length squared: 1,500
        # vertices are decided, 3,000 and 20,000 refused within a second
        graphs = {"5046": serialize_hypergraph(general_construction(7))}
        for n in (1500, 3000, 20000):
            graphs[str(n)] = f"k 2\nn {n}\n" + "".join(
                f"e {i} {i + 1}\n" for i in range(n - 1)
            )
        for support, text in graphs.items():
            path = write(tmp_path, f"{support}.hg", text)
            start = time.perf_counter()
            assert run_cli("verify", path) == (1 if support == "1500" else 4)
            assert time.perf_counter() - start < (5 if support == "5046" else 1)
            out, err = capsys.readouterr()
            if support != "1500":
                assert out == "" and f"over {support} support vertices refused" in err

    def test_search_over_the_set_up_budget_exits_4(self, tmp_path, capsys):
        # one closure step over a 100,000-vertex directed 2-path would pass
        # the work budget, so the search builds none of its per-vertex words
        text = "k 2\nn 100000\n" + "".join(f"e {i} {i + 1}\n" for i in range(99999))
        path = write(tmp_path, "long.hg", text)
        assert run_cli("verify", path) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "verify: search over 100000 support vertices refused: one closure "
            "step over all of them costs 312700000, over the 100000000-unit "
            "budget\n"
        )

    @pytest.mark.parametrize("command", ["verify", "minimality"])
    def test_search_over_the_vertex_budget_exits_4(self, tmp_path, capsys, command):
        # refused before any per-vertex word is built, so at once
        path = write(tmp_path, "wide.hg", "k 2\nn 1000001\ne 0 1\n")
        start = time.perf_counter()
        assert run_cli(command, path) == 4
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{command}: search over 1000001 vertices refused (limit n <= 1000000)\n"
        )

    def test_edgeless_graph_with_a_huge_k_is_decided_at_once(self, tmp_path, capsys):
        # no edge, so the search builds no level of its state for the k
        path = write(tmp_path, "edgeless.hg", "k 100000000\nn 10\n")
        start = time.perf_counter()
        assert run_cli("verify", path) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == (
            "VIOLATION order=0 1 2 3 4 5 6 7 8 9\nnodes=0\n"
        )

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli("verify", str(tmp_path / "absent.hg")) == 5

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.hg", "k 3\nn 3\ne 0 0 1\n")
        assert run_cli("verify", path) == 3
        assert "line 3" in capsys.readouterr().err

    def test_file_with_several_violations_names_them_all(self, tmp_path, capsys):
        path = write(tmp_path, "bad.hg", MULTI_VIOLATION_TEXT)
        assert run_cli("verify", path) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"verify: {MULTI_VIOLATION_MESSAGE}\n"

    def test_internal_error_exit_six(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InternalError("internal error: injected")

        monkeypatch.setattr(cli, "check_property_o", broken)
        path = write(tmp_path, "c1.hg", serialize_hypergraph(ten_edge_3graph()))
        assert run_cli("verify", path) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error: injected" in captured.err

    def test_unexpected_exception_exit_six(self, tmp_path, capsys, monkeypatch):
        # exit 1 would read as "violating order found"; a bug must not
        def broken(*args, **kwargs):
            raise KeyError("injected")

        monkeypatch.setattr(cli, "check_property_o", broken)
        path = write(tmp_path, "c1.hg", serialize_hypergraph(ten_edge_3graph()))
        assert run_cli("verify", path) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "verify: internal error: KeyError('injected')" in captured.err


class TestHistogram:
    def test_merged_ten_edge(self, tmp_path, capsys):
        path = write(tmp_path, "h2.hg", serialize_hypergraph(merged_ten_edge_3graph()))
        assert run_cli("histogram", path) == 0
        out = capsys.readouterr().out.splitlines()
        assert "count=1 orders=346" in out
        assert "total_orders=720" in out
        assert "orders_identity=ok" in out
        assert "weighted_total=1200" in out
        assert "weighted_identity=ok" in out

    def test_counts_ascending(self, tmp_path, capsys):
        path = write(tmp_path, "ct.hg", serialize_hypergraph(cyclic_triangle()))
        run_cli("histogram", path)
        lines = [
            l for l in capsys.readouterr().out.splitlines() if l.startswith("count=")
        ]
        values = [int(l.split()[0].split("=")[1]) for l in lines]
        assert values == sorted(values) == [1, 2]


class TestAudit:
    def test_ten_edge_base_zero(self, tmp_path, capsys):
        path = write(tmp_path, "c1.hg", serialize_hypergraph(ten_edge_3graph()))
        assert run_cli("audit", path, "--base-edge", "0") == 0
        out = capsys.readouterr().out.splitlines()
        assert "class_sizes=1,3,0,3,0,3,0,0,6,0" in out
        assert "total=16" in out
        assert "residue=1" in out
        assert "min_coverage=2" in out

    def test_bad_index(self, tmp_path, capsys):
        path = write(tmp_path, "ct.hg", serialize_hypergraph(cyclic_triangle()))
        assert run_cli("audit", path, "--base-edge", "9") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("audit: ")
        assert "out of range" in captured.err

    def test_unexpected_index_error_exits_6(self, tmp_path, capsys, monkeypatch):
        # only ValueError is bad input; an IndexError from a handler's callee
        # is a bug, reported with its traceback
        def broken(*args):
            raise IndexError("injected")

        path = write(tmp_path, "ct.hg", serialize_hypergraph(cyclic_triangle()))
        monkeypatch.setattr(cli, "lower_bound_audit", broken)
        assert run_cli("audit", path, "--base-edge", "0") == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err
        assert "audit: internal error: IndexError('injected')" in captured.err

    def test_budget_refusal_general_7(self, tmp_path, capsys):
        graph = general_construction(7)
        path = write(tmp_path, "g7.hg", serialize_hypergraph(graph))
        start = time.perf_counter()
        assert run_cli("audit", path, "--base-edge", "0") == 4
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("audit: refusing to check 5040 sigma-orders")

    def test_budget_refusal_with_an_unprintable_k_factorial(self, tmp_path, capsys):
        # 1600! has 4,434 digits, more than Python prints by default
        vertices = " ".join(map(str, range(1600)))
        path = write(tmp_path, "k1600.hg", f"k 1600\nn 1600\ne {vertices}\n")
        start = time.perf_counter()
        assert run_cli("audit", path, "--base-edge", "0") == 4
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("audit: refusing to check 1600! sigma-orders")


class TestMinimality:
    def test_calls_the_swapped_edge_minimality(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = cli.edge_minimality

        def fake(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(cli, "edge_minimality", fake)
        path = write(tmp_path, "ct.hg", serialize_hypergraph(cyclic_triangle()))
        assert run_cli("minimality", path) == 0
        assert calls == [cyclic_triangle()]
        assert capsys.readouterr().out.count("essential") == 3

    def test_merged_ten_edge_all_essential(self, tmp_path, capsys):
        path = write(tmp_path, "h2.hg", serialize_hypergraph(merged_ten_edge_3graph()))
        assert run_cli("minimality", path) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 10
        for i, line in enumerate(lines):
            assert line.startswith(f"edge={i} essential witness=")

    def test_redundant_edge(self, tmp_path, capsys):
        # claim1 uses no edge on the vertex set {5, 6, 7}, so an edge there
        # adds nothing to its Property O
        graph = ten_edge_3graph()
        text = serialize_hypergraph(graph) + "e 5 6 7\n"
        path = write(tmp_path, "c1x.hg", text)
        assert run_cli("minimality", path) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11
        assert lines[10] == "edge=10 redundant"

    def test_input_without_property_o(self, tmp_path):
        path = write(tmp_path, "single.hg", "k 2\nn 2\ne 0 1\n")
        assert run_cli("minimality", path) == 3

    def test_general_4_all_essential(self, tmp_path, capsys):
        # each witness, re-checked here, leaves only its own edge consistent
        graph = general_construction(4)
        path = write(tmp_path, "g4.hg", serialize_hypergraph(graph))
        assert run_cli("minimality", path) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 60
        for i, line in enumerate(lines):
            head, witness = line.split(" witness=")
            order = [int(v) for v in witness.split()]
            assert head == f"edge={i} essential" and sorted(order) == [*range(27)]
            consistent = [e for e in graph.edges if is_consistent(e, order)]
            assert consistent == [graph.edges[i]]


class TestCensus:
    def test_no_witness_exit_zero(self, capsys):
        assert run_cli("census", "--n", "4", "--k", "3") == 0
        out = capsys.readouterr().out.splitlines()
        assert "property_o_found=0" in out
        assert "first_witness=none" in out

    def test_witness_exit_one(self, capsys):
        assert run_cli("census", "--n", "3", "--k", "2") == 1
        out = capsys.readouterr().out
        assert "property_o_found=1" in out
        assert "first_witness=0 1,2 0,1 2" in out
        assert "symmetry_pruning=true" in out

    def test_budget_refusal(self):
        assert run_cli("census", "--n", "7", "--k", "3") == 4

    def test_mask_budget_refusal(self):
        assert run_cli("census", "--n", "11", "--k", "2") == 4

    @pytest.mark.parametrize(
        "n,k",
        [
            (8, 8),  # its 193 MiB of masks are over the census budget
            (1_000_000, 1_000_000),
            (1_000_000, 999_999),
            (3_000_000, 3_000_000),
            (2_000_000, 1_000_000),
        ],
    )
    def test_huge_space_below_the_edge_bound_is_answered_at_once(self, n, k):
        # C(n,k) <= k!, decided without building k! or C(n,k)
        result = run_python(
            "-m", "propertyo", "census", "--n", str(n), "--k", str(k), timeout=5
        )
        assert result.returncode == 0, result.stderr
        out = result.stdout.splitlines()
        assert out[:5] == [
            f"n={n}", f"k={k}", "total_enumerated=0", "property_o_found=0",
            "first_witness=none",
        ]
        assert out[6:] == ["parallel_partitions=0", "symmetry_pruning=true"]

    def test_huge_space_over_the_edge_bound_exits_4(self, capsys):
        # n > k*k, so C(n,k) > k! with no count; the space is over budget
        start = time.perf_counter()
        assert run_cli("census", "--n", "100000", "--k", "100") == 4
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == ""

    def test_internal_error_exit_six(self, capsys, monkeypatch):
        # exit 1 would read as "witness found"; a crash must not
        def broken(*args, **kwargs):
            raise InternalError("internal error: injected")

        monkeypatch.setattr(cli, "prove_vertex_lower_bound", broken)
        assert run_cli("census", "--n", "5", "--k", "3") == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error: injected" in captured.err

    def test_parallel_partitions_counts_the_runs_dealt(self, capsys, monkeypatch):
        # at most one run per CPU, whatever --jobs asks for; the k!+1 edge
        # bound settles (4, 3) without a sweep, so no run is dealt there
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for n, jobs, runs in [("5", "8", 2), ("5", "0", 1), ("4", "8", 0)]:
            assert run_cli("census", "--n", n, "--k", "3", "--jobs", jobs) == 0
            out = capsys.readouterr().out.splitlines()
            assert f"parallel_partitions={runs}" in out, (n, jobs)

    def test_progress_lines(self, capfd):
        # two workers share stderr; every line must arrive whole.  Each
        # walks 18 leader prefixes of 6**6 tournaments, so each reports
        assert run_cli(
            "census", "--n", "5", "--k", "3", "--jobs", "2", "--progress", "500000"
        ) == 0
        lines = capfd.readouterr().err.splitlines()
        assert len(lines) >= 2
        for line in lines:
            assert re.fullmatch(r"examined=\d+ found=\d+ elapsed=\d+\.\d", line), line

    def test_progress_found_is_0_or_1(self, capfd):
        # a sweep stops at its first witness, so a worker has found 0 or 1
        assert run_cli(
            "census", "--n", "10", "--k", "2", "--jobs", "2", "--progress", "1000000"
        ) == 1
        found = re.findall(r"found=(\d+)", capfd.readouterr().err)
        assert all(int(f) <= 1 for f in found), found


class TestSample:
    def test_key_value_output(self, capsys):
        assert run_cli(
            "sample", "--n", "3", "--k", "2", "--trials", "1000", "--seed", "2026"
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert "successes=263" in out
        assert "rate=0.263" in out
        assert "seed=2026" in out

    @pytest.mark.parametrize("n,k", [(200_000, 100_000), (10, 9)])
    def test_table_over_the_edge_budget_exits_4(self, n, k):
        # C(200000, 100000) has 60,204 digits; (10, 9) has 10 * 9! tuples
        result = run_python(
            "-m", "propertyo", "sample", "--n", str(n), "--k", str(k),
            "--trials", "1", "--seed", "1", timeout=5,
        )
        assert (result.returncode, result.stdout) == (4, ""), result.stderr

    def test_over_the_draw_budget_exits_4_at_once(self, capsys):
        # 3 trials of C(1000, 2) = 499,500 draws; one such trial takes
        # seconds, so the budget admits 2
        start = time.perf_counter()
        assert run_cli(
            "sample", "--n", "1000", "--k", "2", "--trials", "3", "--seed", "1"
        ) == 4
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "over the 1000000-draw budget" in captured.err

    def test_jobs_identical_output(self, capsys):
        run_cli("sample", "--n", "3", "--k", "2", "--trials", "500", "--seed", "9")
        serial = capsys.readouterr().out
        run_cli(
            "sample",
            "--n", "3", "--k", "2", "--trials", "500", "--seed", "9",
            "--jobs", "8",
        )
        assert capsys.readouterr().out == serial


class TestStats:
    def test_k4(self, capsys):
        assert run_cli("stats", "--k", "4") == 0
        out = capsys.readouterr().out.splitlines()
        assert "upper_bound_edges=60" in out
        assert "construction_vertices=27" in out
        assert "lower_bound_edges=25" in out
        assert any(l.startswith("asymptotic_reference_vertices=") for l in out)

    @pytest.fixture
    def default_print_limit(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(saved)

    def test_k_at_the_print_limit(self, capsys, default_print_limit):
        # 1557 is the largest k whose upper bound, 4300 digits, Python prints
        # under its default limit
        for k in (1500, 1557):
            assert run_cli("stats", "--k", str(k)) == 0
            out = capsys.readouterr().out.splitlines()
            assert out[0] == f"upper_bound_edges={constructions.min_edges_upper_bound(k)}"
        assert len(out[0]) == len("upper_bound_edges=") + 4300

    @pytest.mark.parametrize("k", ["1558", "1600", "1000000"])
    def test_k_over_the_print_limit_exits_4(self, capsys, default_print_limit, k):
        start = time.perf_counter()
        assert run_cli("stats", "--k", k) == 4
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "-digit edge bound, over the 4300-digit limit" in captured.err

    def test_no_print_limit_keeps_the_4300_digit_budget(self, monkeypatch):
        # with Python's limit off, the bound is still refused past 4300
        # digits, before (k-1)! is built
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "0")
        start = time.perf_counter()
        result = run_python("-m", "propertyo", "stats", "--k", "100000", timeout=5)
        assert time.perf_counter() - start < 1
        assert (result.returncode, result.stdout) == (4, ""), result.stderr
        assert "-digit edge bound, over the 4300-digit limit" in result.stderr

    def test_k_too_small(self, capsys):
        assert run_cli("stats", "--k", "2") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "uniformity must be at least 3, got 2" in captured.err


BIG = str(10**309)  # too large for a float


class TestSizeFlags:
    """Every size flag of the commands that take one at 10**309, and census
    pairs with both flags large: a refusal (or an answer) within 1 s, never
    an internal error."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            pytest.param(
                ["construct", "--family", "general", "--k", BIG], 4, id="construct-k"
            ),
            pytest.param(["stats", "--k", BIG], 4, id="stats-k"),
            pytest.param(["census", "--n", BIG, "--k", "5"], 4, id="census-n"),
            pytest.param(["census", "--n", "5", "--k", BIG], 3, id="census-k"),
            *(
                pytest.param(
                    ["census", "--n", str(n), "--k", str(k)], code, id=f"census-{name}"
                )
                for n, k, code, name in [
                    # n > k*k: over the space budget
                    (10**20, 10**6, 4, "10**20-10**6"),
                    (10**100, 10**12, 4, "10**100-10**12"),
                    (10**300, 10**100, 4, "10**300-10**100"),
                    # k past the exact cap, and logs too close to call
                    (10**40, 10**20, 4, "10**40-10**20"),
                    # C(n,k) <= k!, read off the logs
                    (2 * 10**6, 10**6, 0, "2*10**6-10**6"),
                ]
            ),
            pytest.param(
                ["sample", "--n", BIG, "--k", "3", "--trials", "1", "--seed", "1"],
                4,
                id="sample-n",
            ),
            pytest.param(
                ["sample", "--n", "7", "--k", BIG, "--trials", "1", "--seed", "1"],
                3,
                id="sample-k",
            ),
            pytest.param(
                ["sample", "--n", "7", "--k", "3", "--trials", BIG, "--seed", "1"],
                4,
                id="sample-trials",
            ),
            pytest.param(
                ["sample", "--n", "7", "--k", "3", "--trials", str(10**18),
                 "--seed", "1"],
                4,
                id="sample-trials-10**18",
            ),
        ],
    )
    def test_flag_at_10_to_the_309(self, tmp_path, argv, code):
        if argv[0] == "construct":
            argv = [*argv, "--out", str(tmp_path / "g.hg")]
        result = run_python("-m", "propertyo", *argv, timeout=1)
        assert result.returncode == code, result.stderr
        if code:  # a refusal prints nothing
            assert result.stdout == ""
        else:
            assert "property_o_found=0" in result.stdout


def double_walk(monkeypatch):
    walk = cover._lex_blocks
    monkeypatch.setattr(
        cover, "_lex_blocks", lambda n, edges: [*walk(n, edges), *walk(n, edges)]
    )


def no_consistent_orders(monkeypatch):
    monkeypatch.setattr(cover, "count_consistent_orders", lambda k, n: 0)


def every_edge_consistent(monkeypatch):
    monkeypatch.setattr(
        core, "_consistent_edges", lambda order, edges, n: list(range(len(edges)))
    )


def base_edge_never_consistent(monkeypatch):
    consistent = core._consistent_edges
    monkeypatch.setattr(
        core,
        "_consistent_edges",
        lambda order, edges, n: [i for i in consistent(order, edges, n) if i != 0],
    )


def extra_mask_bit(monkeypatch):
    mask = cover._edge_mask
    monkeypatch.setattr(cover, "_edge_mask", lambda j, ranks: mask(j, ranks) | 1)


def ascending_masks_only(monkeypatch):
    # each orientation gets the ascending one's mask: right popcount, no cover
    mask = cover._edge_mask
    monkeypatch.setattr(
        cover, "_edge_mask", lambda j, ranks: mask(j, tuple(sorted(ranks)))
    )


def one_tournament_too_many(monkeypatch):
    unit = search._census_unit
    monkeypatch.setattr(
        search, "_census_unit", lambda *args: (lambda r: (r[0] + 1, *r[1:]))(unit(*args))
    )


def factorial_off_at_4(monkeypatch):
    off = dict(vars(math), factorial=lambda x: math.factorial(x) + (x == 4))
    monkeypatch.setattr(constructions, "math", types.SimpleNamespace(**off))


SELF_CHECK_MUTANTS = [
    (double_walk, ["histogram", "c1"], "histogram covers 80640 orders"),
    (no_consistent_orders, ["histogram", "c1"], "weighted histogram total"),
    (
        every_edge_consistent,
        ["audit", "c1", "--base-edge", "0"],
        "class size 6 for edge 0 is neither 0 nor 1",
    ),
    (
        base_edge_never_consistent,
        ["audit", "c1", "--base-edge", "0"],
        "base edge class size must be 1",
    ),
    (extra_mask_bit, ["census", "--n", "5", "--k", "3"], "bad coverage mask popcount"),
    (
        ascending_masks_only,
        ["census", "--n", "5", "--k", "3"],
        "subset orientations do not cover",
    ),
    (
        one_tournament_too_many,
        ["census", "--n", "5", "--k", "3"],
        "census decided 60466177 tournaments, expected 60466176",
    ),
    (factorial_off_at_4, ["stats", "--k", "4"], "closed forms disagree at k=4"),
]


class TestSelfChecks:
    """Each self-check, tripped by a mutant, exits 6 with nothing on stdout."""

    @pytest.mark.parametrize(
        "mutant,argv,message",
        SELF_CHECK_MUTANTS,
        ids=[mutant.__name__ for mutant, _, _ in SELF_CHECK_MUTANTS],
    )
    def test_mutant_exits_6(self, tmp_path, capsys, monkeypatch, mutant, argv, message):
        path = write(tmp_path, "c1.hg", serialize_hypergraph(ten_edge_3graph()))
        mutant(monkeypatch)
        assert run_cli(*[path if a == "c1" else a for a in argv]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{argv[0]}: internal error: {message}" in captured.err


class TestUsage:
    def test_unknown_flag_rejected(self):
        assert run_cli("verify", "--frobnicate", "x") == 2

    def test_unknown_subcommand_rejected(self):
        assert run_cli("explode") == 2

    def test_removed_flags_rejected(self, tmp_path):
        # verify --jobs and census --symmetry had no effect and are gone
        path = write(tmp_path, "c1.hg", serialize_hypergraph(ten_edge_3graph()))
        assert run_cli("verify", path, "--jobs", "4") == 2
        assert run_cli("census", "--n", "3", "--k", "2", "--symmetry") == 2

    def test_console_entry_point(self, tmp_path):
        # the module entry point works as a real process
        out = tmp_path / "ct.hg"
        result = run_python(
            "-m", "propertyo", "construct", "--family", "cyclic2", "--out", str(out)
        )
        assert result.returncode == 0
        assert out.read_text() == "k 2\nn 3\ne 0 1\ne 1 2\ne 2 0\n"

    def test_cli_import_leaves_out_multiprocessing(self):
        # nothing the CLI starts with imports it
        result = run_python(
            "-c", "import sys, propertyo.cli; print('multiprocessing' in sys.modules)"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_parallel_census_leaves_out_multiprocessing(self):
        # the worker pool forks its children itself; two CPUs so that the
        # census really forks a worker on any machine
        script = (
            "import os, sys\n"
            "os.cpu_count = lambda: 2\n"
            "from propertyo.cli import main\n"
            "code = main(['census', '--n', '5', '--k', '3', '--jobs', '2'])\n"
            "print('multiprocessing' in sys.modules, code)\n"
        )
        result = run_python("-c", script)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert "parallel_partitions=2" in lines
        assert lines[-1] == "False 0"

    def test_verify_process_loads_only_the_decider_it_runs(self, tmp_path):
        path = write(tmp_path, "c1.hg", serialize_hypergraph(ten_edge_3graph()))
        verify, added, loaded = run_listing_imports("verify", path)
        assert verify.returncode == 0, verify.stderr
        assert verify.stdout == "PROPERTY_O method=exhaustive orders=40320\n"
        assert {"propertyo.core", "propertyo.fileformat", "propertyo.cli"} <= added
        assert "dataclasses" not in added
        assert loaded == [
            "propertyo.cli",
            "propertyo.core",
            "propertyo.cover",
            "propertyo.fileformat",
        ]
        dfs, _, loaded = run_listing_imports("verify", path, "--method", "dfs")
        assert dfs.returncode == 0, dfs.stderr
        assert dfs.stdout == "PROPERTY_O method=backtracking orders=0 nodes=1\n"
        assert loaded == [
            "propertyo.cli",
            "propertyo.core",
            "propertyo.fileformat",
            "propertyo.pairsearch",
        ]

    def test_census_process_leaves_out_constructions_and_montecarlo(self):
        census, added, loaded = run_listing_imports("census", "--n", "4", "--k", "3")
        assert census.returncode == 0, census.stderr
        assert "total_enumerated=0\n" in census.stdout
        assert {"propertyo.core", "propertyo.cli"} <= added
        assert loaded == [
            "propertyo.cli",
            "propertyo.core",
            "propertyo.cover",
            "propertyo.fileformat",
            "propertyo.search",
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ("census", "--n", "5", "--k", "2", "--jobs", "1"),
            ("sample", "--n", "5", "--k", "2", "--trials", "50", "--seed", "1"),
        ],
        ids=["census", "sample"],
    )
    def test_single_run_loads_no_pickle_or_signal(self, argv):
        # one run is walked in this process, so nothing is forked
        result, added, _ = run_listing_imports(*argv)
        assert result.returncode in (0, 1), result.stderr
        assert "pickle" not in added
        assert "signal" not in added

    def test_package_import_loads_no_submodule(self):
        result = run_python(
            "-c",
            "import sys, propertyo; "
            "print(sorted(m for m in sys.modules if m.startswith('propertyo.')))",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_swappable_names_resolve_before_any_handler(self, tmp_path):
        # as bench/layers.py does: read each name it wraps in a fresh
        # interpreter, then swap one and run the handler that calls it
        path = write(tmp_path, "ct.hg", serialize_hypergraph(cyclic_triangle()))
        script = f"""
import propertyo
from propertyo import cli
names = [
    "read_hypergraph", "write_hypergraph", "cyclic_triangle",
    "ten_edge_3graph", "double_cycle_3graph", "merged_ten_edge_3graph",
    "general_construction", "check_property_o", "coverage_histogram",
    "edge_minimality", "prove_vertex_lower_bound", "estimate_property_o_rate",
]
assert all(getattr(cli, n) is getattr(propertyo, n) for n in names)
cli.edge_minimality = lambda graph: print("swapped") or propertyo.edge_minimality(graph)
assert cli.main(["minimality", {path!r}]) == 0
"""
        result = run_python("-c", script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == "swapped"

    def test_lazy_names_are_the_exports_of_unloaded_modules(self):
        import propertyo

        for name in ("census_property_o", "random_tournament", "general_construction"):
            assert getattr(cli, name) is getattr(propertyo, name)
        # core and fileformat exports the module does not import, and
        # names the package defines but does not export
        for name in ("relabel", "parse_hypergraph", "__all__", "_MODULE_OF", "nope"):
            with pytest.raises(AttributeError):
                getattr(cli, name)

    def test_help_documents_exit_codes(self, capsys):
        assert run_cli("--help") == 0
        out = capsys.readouterr().out
        assert "Exit codes" in out
        assert "6 internal error" in " ".join(out.split())
