import functools
import itertools
import math
import random
import time

import pytest

from propertyo import (
    EXHAUSTIVE,
    CaseCoverageReport,
    GeneralLayout,
    OrientedHypergraph,
    check_property_o,
    cyclic_triangle,
    double_cycle_3graph,
    general_construction,
    insert_at,
    merged_ten_edge_3graph,
    min_edges_lower_bound,
    min_edges_upper_bound,
    structured_coverage_check,
    ten_edge_3graph,
    validate,
)


class TestInsertAt:
    def test_before_first(self):
        assert insert_at((10, 11), 99, 1) == (99, 10, 11)

    def test_between(self):
        assert insert_at((10, 11), 99, 2) == (10, 99, 11)

    def test_before_last_element(self):
        assert insert_at((10, 11, 12), 99, 3) == (10, 11, 99, 12)

    def test_never_lands_last(self):
        for size in range(1, 6):
            base = tuple(range(size))
            for position in range(1, size + 1):
                assert insert_at(base, 99, position)[-1] != 99

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            insert_at((1, 2), 9, 0)
        with pytest.raises(ValueError):
            insert_at((1, 2), 9, 3)


class TestCyclicTriangle:
    def test_shape(self):
        graph = cyclic_triangle()
        assert (graph.k, graph.n) == (2, 3)
        assert graph.edges == ((0, 1), (1, 2), (2, 0))
        assert len(graph.edges) == 3

    def test_has_property_o(self):
        assert check_property_o(cyclic_triangle()).holds

    def test_every_deletion_breaks_it(self):
        graph = cyclic_triangle()
        for i in range(3):
            reduced = OrientedHypergraph(2, 3, graph.edges[:i] + graph.edges[i + 1 :])
            assert check_property_o(reduced, EXHAUSTIVE).violating_order is not None


class TestTenEdge3Graph:
    def test_shape(self):
        graph = ten_edge_3graph()
        assert (graph.k, graph.n) == (3, 8)
        assert len(graph.edges) == 10
        assert validate(graph).ok

    def test_matches_general_construction_at_k3(self):
        # documented relabelling: the layouts coincide index for index, so
        # the edge sets agree as sets of tuples
        assert set(ten_edge_3graph().edges) == set(general_construction(3).edges)

    def test_has_property_o(self):
        cert = check_property_o(ten_edge_3graph(), method="exhaustive")
        assert cert.holds
        assert cert.orders_examined == math.factorial(8)


class TestDoubleCycle3Graph:
    def test_shape(self):
        graph = double_cycle_3graph()
        assert (graph.k, graph.n) == (3, 6)
        assert len(graph.edges) == 18
        assert validate(graph).ok

    def test_contains_documented_edge(self):
        assert (0, 1, 4) in double_cycle_3graph().edges

    def test_has_property_o(self):
        cert = check_property_o(double_cycle_3graph(), method="exhaustive")
        assert cert.holds
        assert cert.orders_examined == 720

    def test_two_triangle_families(self):
        graph = double_cycle_3graph()
        first = {e for e in graph.edges if e[2] >= 3}
        second = {e for e in graph.edges if e[2] < 3}
        assert len(first) == len(second) == 9


class TestMergedTenEdge3Graph:
    def test_shape(self):
        graph = merged_ten_edge_3graph()
        assert (graph.k, graph.n) == (3, 6)
        assert len(graph.edges) == 10
        assert validate(graph).ok

    def test_is_vertex_merge_of_ten_edge_graph(self):
        merge = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 5, 7: 4}
        merged = OrientedHypergraph(
            3, 6, tuple(tuple(merge[v] for v in e) for e in ten_edge_3graph().edges)
        )
        assert merged.edges == merged_ten_edge_3graph().edges

    def test_has_property_o(self):
        cert = check_property_o(merged_ten_edge_3graph(), method="exhaustive")
        assert cert.holds
        assert cert.orders_examined == 720


@functools.lru_cache(maxsize=None)
def _general(k):
    # the two count tests share one build per k; general(8) has 181,440 edges
    return general_construction(k)


class TestGeneralConstruction:
    def test_edge_count_matches_closed_form(self):
        for k in range(3, 9):
            assert len(_general(k).edges) == min_edges_upper_bound(k)

    def test_vertex_count(self):
        for k in range(3, 9):
            graph = _general(k)
            assert graph.n == (k - 1) + k * math.factorial(k - 1)
        assert _general(3).n == 8
        assert _general(4).n == 27

    def test_all_valid(self):
        for k in range(3, 8):
            assert validate(general_construction(k)).ok, k

    def test_k4_worked_example_rows(self):
        graph = general_construction(4)
        layout = GeneralLayout(4)
        x = [0, 1, 2]  # the core vertices come first
        a1 = layout.a_index(1)
        fresh = [layout.fresh_index(1, i) for i in (1, 2, 3)]
        # patched edges for the identity anchor at insertion positions 1..3
        assert graph.edges[6:9] == (
            (fresh[0], x[0], x[1], x[2]),
            (a1, x[0], fresh[0], x[2]),
            (a1, x[0], x[1], fresh[0]),
        )
        assert graph.edges[9:12] == (
            (fresh[1], a1, x[1], x[2]),
            (x[0], a1, fresh[1], x[2]),
            (x[0], a1, x[1], fresh[1]),
        )
        assert graph.edges[12:15] == (
            (fresh[2], x[1], a1, x[2]),
            (x[0], x[1], fresh[2], x[2]),
            (x[0], x[1], a1, fresh[2]),
        )

    def test_anchor_edges_first(self):
        for k in (3, 4, 5):
            graph = general_construction(k)
            layout = GeneralLayout(k)
            anchors = graph.edges[: layout.permutation_count]
            for j, edge in enumerate(anchors, start=1):
                assert edge[-1] == layout.a_index(j)
                assert set(edge[:-1]) == set(range(k - 1))

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError):
            general_construction(2)

    def test_k3_has_property_o(self):
        assert check_property_o(general_construction(3)).holds


class TestEdgeCountBounds:
    def test_known_small_values(self):
        assert min_edges_upper_bound(3) == 10
        assert min_edges_upper_bound(4) == 60
        assert min_edges_upper_bound(5) == 312
        assert min_edges_upper_bound(6) == 2520
        assert min_edges_upper_bound(7) == 18000

    def test_closed_forms_agree(self):
        for k in range(3, 20):
            half = k // 2
            direct = (half + 1) * math.factorial(k) - half * math.factorial(k - 1)
            product_form = ((k - 1) * (half + 1) + 1) * math.factorial(k - 1)
            assert direct == product_form == min_edges_upper_bound(k)

    def test_lower_bound(self):
        assert min_edges_lower_bound(2) == 3
        assert min_edges_lower_bound(3) == 7
        assert min_edges_lower_bound(4) == 25

    def test_bounds_ordered(self):
        for k in range(3, 12):
            assert min_edges_lower_bound(k) <= min_edges_upper_bound(k)


class TestReplacementPlan:
    """The replacement slots, ``GeneralLayout(k).positions``."""

    def test_size(self):
        for k in range(3, 65):
            assert len(GeneralLayout(k).positions) == k // 2 + 1, k

    def test_rank_coverage_up_to_64(self):
        for k in range(3, 65):
            # the slot-l patched edge covers the fresh-vertex ranks l-1 and l
            covered = {r for l in GeneralLayout(k).positions for r in (l - 1, l)}
            assert covered == set(range(k + 1)), k

    def test_positions_are_odd_plus_final(self):
        assert GeneralLayout(6).positions == (1, 3, 5, 6)


def _without(graph, edge):
    edges = tuple(e for e in graph.edges if e != edge)
    return OrientedHypergraph(graph.k, graph.n, edges)


def _patch_mutants(k):
    """general(k) with the patched edge (j=2, i=1, slot 1) dropped, and with
    its first two vertices swapped."""
    graph = general_construction(k)
    core = list(itertools.permutations(range(k - 1)))[1]
    edge = (GeneralLayout(k).fresh_index(2, 1),) + core
    assert edge in graph.edges
    swapped = tuple((e[1], e[0]) + e[2:] if e == edge else e for e in graph.edges)
    return _without(graph, edge), OrientedHypergraph(k, graph.n, swapped)


class TestStructuredCoverageCheck:
    def test_holds_for_k3_to_k6(self):
        for k in range(3, 7):
            report = structured_coverage_check(general_construction(k))
            assert report.ok, (k, report.problems)
            assert report.k == k
        assert structured_coverage_check(ten_edge_3graph()).ok

    def test_total_cases(self):
        expected = {3: 18, 4: 96, 5: 600, 6: 4320}
        for k, cases in expected.items():
            report = structured_coverage_check(general_construction(k))
            assert cases == math.factorial(k - 1) * (1 + (k - 1) * (k + 1))
            assert report.cases == cases

    def test_patch_mutants_name_the_missing_case(self):
        for k in (3, 4):
            for mutant in _patch_mutants(k):
                report = structured_coverage_check(mutant)
                assert not report.ok
                assert len(report.problems) == 2
                assert report.problems[0].startswith("case (j=2, i=1, rank=0): ")

    def test_every_single_edge_deletion_rejected(self):
        for k in (3, 4):
            graph = general_construction(k)
            for edge in graph.edges:
                assert not structured_coverage_check(_without(graph, edge)).ok, edge

    def test_k3_case_witnesses_match_known_edges(self):
        # for anchor j=1 and position i=1, fresh-vertex ranks 0 and 1 are
        # covered only by the slot-1 patch, ranks 2 and 3 only by the final
        # slot's; deleting either patch leaves exactly its two cases open
        graph = general_construction(3)
        assert structured_coverage_check(_without(graph, (4, 0, 1))).problems == (
            "case (j=1, i=1, rank=0): no edge is a subsequence of (4, 2, 0, 1)",
            "case (j=1, i=1, rank=1): no edge is a subsequence of (2, 4, 0, 1)",
        )
        assert structured_coverage_check(_without(graph, (2, 0, 4))).problems == (
            "case (j=1, i=1, rank=2): no edge is a subsequence of (2, 0, 4, 1)",
            "case (j=1, i=1, rank=3): no edge is a subsequence of (2, 0, 1, 4)",
        )

    def test_anchor_edge_deletion_named(self):
        report = structured_coverage_check(_without(general_construction(3), (0, 1, 2)))
        assert report.problems == ("case (j=1, anchor last): (0, 1, 2) is not an edge",)

    def test_passing_implies_property_o_on_a_k3_corpus(self):
        # general(3) with each edge kept with probability 0.85, plus up to 5
        # extra oriented triples on new underlying sets
        rng = random.Random(1)
        base = general_construction(3)
        passed = 0
        for _ in range(400):
            edges = [e for e in base.edges if rng.random() < 0.85]
            seen = {frozenset(e) for e in edges}
            for _ in range(rng.randrange(6)):
                edge = tuple(rng.sample(range(base.n), 3))
                if frozenset(edge) not in seen:
                    seen.add(frozenset(edge))
                    edges.append(edge)
            graph = OrientedHypergraph(3, base.n, tuple(edges))
            if structured_coverage_check(graph).ok:
                passed += 1
                assert check_property_o(graph, EXHAUSTIVE).violating_order is None, graph
        assert 0 < passed < 400

    def test_agrees_with_order_verifier_at_k3(self):
        graph = general_construction(3)
        assert structured_coverage_check(graph).ok
        assert check_property_o(graph).holds

    def test_certificate_form(self):
        # the coverage check returns a report; a certificate for the same
        # graph comes only from check_property_o
        report = structured_coverage_check(general_construction(5))
        assert report == CaseCoverageReport(k=5, problems=())
        assert (report.ok, report.cases) == (True, 600)
        assert not hasattr(report, "to_certificate")
        cert = check_property_o(general_construction(3), method="backtracking")
        assert cert.holds
        assert cert.method == "backtracking"
        assert cert.violating_order is None

    def test_failing_report_has_no_certificate(self):
        # a failing report names the uncovered cases but no violating order;
        # the order verifier supplies one
        dropped, _ = _patch_mutants(3)
        failing = structured_coverage_check(dropped)
        assert (failing.ok, failing.cases) == (False, 18)
        assert failing.problems[0].startswith("case (j=2, i=1, rank=0): ")
        assert not hasattr(failing, "to_certificate")
        cert = check_property_o(dropped, method="exhaustive")
        assert not cert.holds
        assert cert.violating_order is not None

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            structured_coverage_check(cyclic_triangle())

    def test_wrong_vertex_count_rejected(self):
        with pytest.raises(ValueError, match="8 vertices, the graph has 6"):
            structured_coverage_check(merged_ten_edge_3graph())

    @pytest.mark.parametrize("k", [3000, 10**6])
    def test_too_few_vertices_rejected_uncounted(self, k):
        # (k-1)! is built only up to n, so the refusal is at once
        graph = OrientedHypergraph(k, k, (tuple(range(k)),))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"has more than {k} vertices, the graph"):
            structured_coverage_check(graph)
        assert time.perf_counter() - start < 1


class TestGeneralLayout:
    def test_index_formulas(self):
        layout = GeneralLayout(4)
        assert layout.a_index(1) == 3
        assert layout.a_index(6) == 8
        assert layout.fresh_index(1, 1) == 9
        assert layout.fresh_index(2, 1) == 12
        assert layout.fresh_index(6, 3) == 26

    def test_vertex_count_formula(self):
        for k in range(3, 9):
            layout = GeneralLayout(k)
            assert layout.vertex_count == (k - 1) + k * math.factorial(k - 1)

    def test_indices_partition_vertex_range(self):
        layout = GeneralLayout(4)
        indices = [0, 1, 2]  # the core vertices
        indices += [layout.a_index(j) for j in range(1, 7)]
        indices += [
            layout.fresh_index(j, i) for j in range(1, 7) for i in (1, 2, 3)
        ]
        assert sorted(indices) == list(range(layout.vertex_count))

    @pytest.mark.parametrize("k", [2, 0])
    def test_k_below_three_rejected(self, k):
        # the layout owns the rule; below 3 there is no family to lay out
        with pytest.raises(ValueError, match=f"at least 3, got {k}$"):
            GeneralLayout(k)

    def test_range_checks(self):
        layout = GeneralLayout(3)
        with pytest.raises(ValueError):
            layout.a_index(0)
        with pytest.raises(ValueError):
            layout.fresh_index(1, 3)
