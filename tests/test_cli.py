import re
import subprocess
import sys

import pytest

from propertyo import (
    InternalError,
    cyclic_triangle,
    double_cycle_3graph,
    general_construction,
    merged_ten_edge_3graph,
    read_hypergraph,
    serialize_hypergraph,
    ten_edge_3graph,
)
from propertyo import cli
from propertyo.cli import main


def run_cli(*argv):
    return main(list(argv))


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
        path = write(tmp_path, "c1.hg", serialize_hypergraph(ten_edge_3graph()))
        assert run_cli("verify", path, "--method", "dfs") == 0
        assert capsys.readouterr().out == (
            "PROPERTY_O method=backtracking orders=0 nodes=8010\n"
        )
        path = write(tmp_path, "single.hg", "k 3\nn 3\ne 0 1 2\n")
        assert run_cli("verify", path, "--method", "dfs") == 1
        assert capsys.readouterr().out == "VIOLATION order=0 2 1\nnodes=3\n"

    def test_isolated_vertices_are_not_searched(self, tmp_path, capsys):
        # one placement, not one recursion level per isolated vertex
        path = write(tmp_path, "sparse.hg", "k 2\nn 1200\ne 1199 1198\n")
        assert run_cli("verify", path) == 1
        order = " ".join(map(str, [1198, 1199, *range(1198)]))
        assert capsys.readouterr().out == f"VIOLATION order={order}\nnodes=1\n"

    def test_method_brute_budget_refusal(self, tmp_path, capsys):
        lines = ["k 2", "n 13", "e 0 1"]
        path = write(tmp_path, "big.hg", "\n".join(lines) + "\n")
        assert run_cli("verify", path, "--method", "brute") == 4

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli("verify", str(tmp_path / "absent.hg")) == 5

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        path = write(tmp_path, "bad.hg", "k 3\nn 3\ne 0 0 1\n")
        assert run_cli("verify", path) == 3
        assert "line 3" in capsys.readouterr().err

    def test_jobs_match_serial(self, tmp_path, capsys):
        path = write(tmp_path, "c1.hg", serialize_hypergraph(ten_edge_3graph()))
        assert run_cli("verify", path, "--jobs", "4") == 0
        parallel = capsys.readouterr().out
        run_cli("verify", path)
        assert parallel == capsys.readouterr().out

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

    def test_bad_index(self, tmp_path):
        path = write(tmp_path, "ct.hg", serialize_hypergraph(cyclic_triangle()))
        assert run_cli("audit", path, "--base-edge", "9") == 3


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

    def test_input_without_property_o(self, tmp_path):
        path = write(tmp_path, "single.hg", "k 2\nn 2\ne 0 1\n")
        assert run_cli("minimality", path) == 3


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

    def test_symmetry_flag(self, capsys):
        assert run_cli("census", "--n", "3", "--k", "2", "--symmetry") == 1
        out = capsys.readouterr().out
        assert "symmetry_pruning=true" in out

    def test_budget_refusal(self):
        assert run_cli("census", "--n", "7", "--k", "3") == 4

    def test_mask_budget_refusal(self):
        assert run_cli("census", "--n", "11", "--k", "2") == 4

    def test_internal_error_exit_six(self, capsys, monkeypatch):
        # exit 1 would read as "witness found"; a crash must not
        def broken(*args, **kwargs):
            raise InternalError("internal error: injected")

        monkeypatch.setattr(cli, "prove_vertex_lower_bound", broken)
        assert run_cli("census", "--n", "5", "--k", "3") == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error: injected" in captured.err

    def test_progress_lines(self, capfd):
        # two workers share stderr; every line must arrive whole
        assert run_cli(
            "census", "--n", "5", "--k", "3", "--jobs", "2", "--progress", "1000000"
        ) == 0
        lines = capfd.readouterr().err.splitlines()
        assert lines
        for line in lines:
            assert re.fullmatch(r"examined=\d+ found=\d+ elapsed=\d+\.\d", line), line


class TestSample:
    def test_key_value_output(self, capsys):
        assert run_cli(
            "sample", "--n", "3", "--k", "2", "--trials", "1000", "--seed", "2026"
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert "successes=263" in out
        assert "rate=0.263" in out
        assert "seed=2026" in out

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

    def test_k_too_small(self):
        assert run_cli("stats", "--k", "2") == 3


class TestUsage:
    def test_unknown_flag_rejected(self):
        assert run_cli("verify", "--frobnicate", "x") == 2

    def test_unknown_subcommand_rejected(self):
        assert run_cli("explode") == 2

    def test_console_entry_point(self, tmp_path):
        # the module entry point works as a real process
        out = tmp_path / "ct.hg"
        result = subprocess.run(
            [sys.executable, "-m", "propertyo", "construct",
             "--family", "cyclic2", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert out.read_text() == "k 2\nn 3\ne 0 1\ne 1 2\ne 2 0\n"

    def test_cli_import_leaves_out_multiprocessing(self):
        # the worker pool imports it on first use, not every CLI start
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, propertyo.cli; print('multiprocessing' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "False\n"

    def test_verify_process_loads_only_core_and_fileformat(self, tmp_path):
        # against a bare interpreter, so that what site imports does not count
        path = write(tmp_path, "c1.hg", serialize_hypergraph(ten_edge_3graph()))

        def imported(*args):
            result = subprocess.run(
                [sys.executable, "-X", "importtime", *args],
                capture_output=True,
                text=True,
            )
            names = {
                line.rsplit("|", 1)[1].strip()
                for line in result.stderr.splitlines()
                if line.startswith("import time:")
            }
            return result, names

        bare, before = imported("-c", "pass")
        assert bare.returncode == 0, bare.stderr
        verify, after = imported("-m", "propertyo", "verify", path)
        assert verify.returncode == 0, verify.stderr
        assert verify.stdout == "PROPERTY_O method=exhaustive orders=40320\n"
        added = after - before
        assert {"propertyo.core", "propertyo.fileformat", "propertyo.cli"} <= added
        for name in (
            "dataclasses",
            "propertyo.search",
            "propertyo.constructions",
            "propertyo.montecarlo",
        ):
            assert name not in added, name

    def test_package_import_loads_no_submodule(self):
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, propertyo; "
             "print(sorted(m for m in sys.modules if m.startswith('propertyo.')))"],
            capture_output=True,
            text=True,
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
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[0] == "swapped"

    def test_help_documents_exit_codes(self, capsys):
        assert run_cli("--help") == 0
        out = capsys.readouterr().out
        assert "Exit codes" in out
        assert "6 internal error" in " ".join(out.split())
