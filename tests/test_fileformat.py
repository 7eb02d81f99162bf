import hashlib

import pytest
from hypothesis import given, settings

from propertyo import (
    HypergraphFormatError,
    cyclic_triangle,
    general_construction,
    parse_hypergraph,
    read_hypergraph,
    serialize_hypergraph,
    write_hypergraph,
)

from conftest import fixture_graphs
from test_core import small_hypergraphs

# four kinds of violation on five lines, one of them after a comment
MULTI_VIOLATION_TEXT = (
    "k 3\nn 4\ne 0 1\ne 1 2 3 3\n# gap\ne 0 0 9\ne 3 2 1\ne 2 1 3\n"
)
MULTI_VIOLATION_MESSAGE = (
    "edge 0: has 2 vertices, expected 3, line 3; "
    "edge 1: has 4 vertices, expected 3, line 4; "
    "edge 1: repeated vertex in edge, line 4; "
    "edge 2: repeated vertex in edge, line 6; "
    "edge 2: vertex 9 out of range for n=4, line 6; "
    "edges 3 and 4: duplicate underlying set [1, 2, 3], line 8"
)


class TestSerialize:
    def test_cyclic_triangle_exact_bytes(self):
        expected = "k 2\nn 3\ne 0 1\ne 1 2\ne 2 0\n"
        assert serialize_hypergraph(cyclic_triangle()) == expected

    def test_no_trailing_whitespace(self):
        for name, graph in fixture_graphs():
            text = serialize_hypergraph(graph)
            assert text.endswith("\n")
            for line in text.splitlines():
                assert line == line.rstrip(), name

    def test_golden_digests(self):
        # byte-stable outputs, frozen from the canonical emission order
        expected = {
            "cyclic_triangle": "80b22a9a3aad7dae",
            "ten_edge": "8c5f75579171dd2f",
            "double_cycle": "5b322cab76ca5429",
            "merged_ten_edge": "7d815f71fe5d262a",
        }
        for name, graph in fixture_graphs():
            if name in expected:
                digest = hashlib.sha256(
                    serialize_hypergraph(graph).encode()
                ).hexdigest()[:16]
                assert digest == expected[name], name

    def test_general_k4_golden_digest(self):
        text = serialize_hypergraph(general_construction(4))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "a38f890320393221"


class TestParse:
    def test_cyclic_triangle_text(self):
        graph = parse_hypergraph("k 2\nn 3\ne 0 1\ne 1 2\ne 2 0\n")
        assert graph == cyclic_triangle()

    def test_comments_and_blank_lines(self):
        text = "# a fixture\n\nk 2\n# vertices\nn 2\ne 0 1\n"
        graph = parse_hypergraph(text)
        assert graph.edges == ((0, 1),)

    def test_repeated_vertex_reports_line(self):
        with pytest.raises(HypergraphFormatError, match="repeated vertex.*line 3"):
            parse_hypergraph("k 3\nn 3\ne 0 0 1\n")

    def test_out_of_range_reports_line(self):
        with pytest.raises(HypergraphFormatError, match="out of range.*line 3"):
            parse_hypergraph("k 2\nn 2\ne 0 7\n")

    def test_duplicate_set_reports_line(self):
        # charged to the later edge's line
        with pytest.raises(
            HypergraphFormatError, match=r"duplicate underlying set \[0, 1\], line 5"
        ):
            parse_hypergraph("k 2\nn 2\ne 0 1\n# gap\ne 1 0\n")

    def test_every_violation_reports_its_line(self):
        # the constructor refuses the graph, then the parser names every
        # violation, in edge order, with the line it came from
        with pytest.raises(HypergraphFormatError) as raised:
            parse_hypergraph(MULTI_VIOLATION_TEXT)
        assert str(raised.value) == MULTI_VIOLATION_MESSAGE

    def test_wrong_arity(self):
        with pytest.raises(HypergraphFormatError, match="expected 3, line 3"):
            parse_hypergraph("k 3\nn 4\ne 0 1\n")

    def test_missing_headers(self):
        with pytest.raises(HypergraphFormatError, match="missing k or n"):
            parse_hypergraph("# nothing\n")

    def test_headers_out_of_order(self):
        with pytest.raises(HypergraphFormatError, match="out of order"):
            parse_hypergraph("n 3\nk 2\n")

    def test_duplicate_header(self):
        with pytest.raises(HypergraphFormatError, match="duplicate k"):
            parse_hypergraph("k 2\nk 2\nn 3\n")

    def test_unknown_tag(self):
        with pytest.raises(HypergraphFormatError, match="unknown line tag"):
            parse_hypergraph("k 2\nn 3\nv 0\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("# c\nk 1\nn 3\n", "k must be at least 2, line 2"),
            ("k 2\nn 3\n\nn 3\n", "duplicate n header, line 4"),
            ("k 2\nn -1\n", "n must be non-negative, line 2"),
            ("k 2\n# c\ne 0 1\n", "edge before k and n headers, line 3"),
            ("k 2\nn 3 4\n", "header needs exactly one value, line 2"),
            ("k 2\nn\n", "header needs exactly one value, line 2"),
            ("k 2\nn three\n", "non-integer header value, line 2"),
        ],
        ids=[
            "k_below_two", "duplicate_n", "negative_n", "edge_before_n",
            "two_values", "no_value", "non_integer_value",
        ],
    )
    def test_header_error_reports_line(self, text, message):
        with pytest.raises(HypergraphFormatError, match=f"^{message}$"):
            parse_hypergraph(text)

    def test_non_integer_vertex(self):
        with pytest.raises(HypergraphFormatError, match="non-integer"):
            parse_hypergraph("k 2\nn 3\ne 0 x\n")


class TestRoundTrip:
    def test_fixtures(self):
        for name, graph in fixture_graphs():
            assert parse_hypergraph(serialize_hypergraph(graph)) == graph, name

    @settings(max_examples=50, deadline=None)
    @given(small_hypergraphs())
    def test_random_graphs(self, graph):
        assert parse_hypergraph(serialize_hypergraph(graph)) == graph

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "graph.hg"
        graph = general_construction(3)
        write_hypergraph(graph, str(path))
        assert read_hypergraph(str(path)) == graph
        # serialisation of a parsed file re-parses identically
        assert serialize_hypergraph(read_hypergraph(str(path))) == path.read_text()
