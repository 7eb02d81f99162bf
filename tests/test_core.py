import ast
import graphlib
import hashlib
import itertools
import math
import os
import pathlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from propertyo import (
    BudgetExceededError,
    OrientedHypergraph,
    check_property_o,
    count_consistent_orders,
    coverage_histogram,
    cyclic_triangle,
    double_cycle_3graph,
    find_violating_order_backtracking,
    find_violating_order_exhaustive,
    general_construction,
    is_consistent,
    lower_bound_audit,
    merged_ten_edge_3graph,
    relabel,
    reverse,
    support_restriction,
    ten_edge_3graph,
    validate,
)
from propertyo import core
from propertyo.core import unrank_permutation, rank_permutation
from propertyo.search import _coverage_masks, oriented_subset_tables

from conftest import fixture_graphs


def brute_force_violating_orders(graph):
    """Independent oracle: all violating orders by definition-level scan."""
    out = []
    for perm in itertools.permutations(range(graph.n)):
        if not any(is_consistent(e, perm) for e in graph.edges):
            out.append(perm)
    return out


def random_graph(rng, k, n):
    """A random oriented k-graph on n vertices: empty, partial or complete."""
    subsets = list(itertools.combinations(range(n), k))
    rng.shuffle(subsets)
    size = rng.choice([0, len(subsets), rng.randint(0, len(subsets))])
    edges = tuple(
        unrank_permutation(rng.randrange(math.factorial(k)), s)
        for s in subsets[:size]
    )
    return OrientedHypergraph(k, n, edges)


@st.composite
def small_hypergraphs(draw):
    k = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=k, max_value=6))
    subsets = list(itertools.combinations(range(n), k))
    chosen = draw(
        st.lists(st.sampled_from(subsets), unique=True, min_size=0, max_size=len(subsets))
    )
    edges = []
    for s in chosen:
        rank = draw(st.integers(min_value=0, max_value=math.factorial(k) - 1))
        edges.append(unrank_permutation(rank, s))
    return OrientedHypergraph(k, n, tuple(edges))


class TestValidate:
    def test_fixtures_are_valid(self):
        for name, graph in fixture_graphs():
            assert validate(graph).ok, name

    def test_duplicate_underlying_set(self):
        graph = OrientedHypergraph(3, 3, ((0, 1, 2), (2, 1, 0)))
        result = validate(graph)
        assert not result.ok
        assert any("duplicate underlying set" in v for v in result.violations)

    def test_repeated_vertex(self):
        graph = OrientedHypergraph(3, 3, ((0, 0, 1),))
        result = validate(graph)
        assert not result.ok
        assert any("repeated vertex" in v for v in result.violations)

    def test_out_of_range_vertex(self):
        graph = OrientedHypergraph(2, 2, ((0, 5),))
        result = validate(graph)
        assert not result.ok
        assert any("out of range" in v for v in result.violations)

    def test_uniformity_below_two_rejected(self):
        with pytest.raises(ValueError):
            OrientedHypergraph(1, 3, ())


def _mutants(graph, rng):
    """Seeded broken copies of ``graph``, one per kind of violation, each
    with its edge list otherwise intact."""
    edges = list(graph.edges)
    i = rng.randrange(len(edges))
    e = edges[i]

    def with_edge(new):
        return OrientedHypergraph(graph.k, graph.n, edges[:i] + [new] + edges[i + 1 :])

    return [
        with_edge((e[1],) + e[1:]),  # repeated vertex
        with_edge(e[:-1] + (-1,)),  # vertex -1
        with_edge(e[:-1] + (graph.n,)),  # vertex n
        OrientedHypergraph(graph.k, graph.n, edges + [e[::-1]]),  # duplicate set
        with_edge(e[:-1]),  # one vertex short
        with_edge(e + (graph.n,)),  # one vertex long, out of range too
        with_edge(e + (e[0],)),  # one vertex long, repeated
    ]


class TestRequireValid:
    def test_raises_exactly_when_validate_fails(self):
        rng = random.Random(13)
        graphs = [OrientedHypergraph(3, 0, ()), OrientedHypergraph(2, 4, ())]
        for _, graph in fixture_graphs():
            graphs += [graph, *_mutants(graph, rng)]
        for _ in range(40):
            graph = random_graph(rng, rng.randint(2, 4), rng.randint(4, 7))
            graphs.append(graph)
            if graph.edges:
                graphs += _mutants(graph, rng)
        oks = set()
        for graph in graphs:
            result = validate(graph)
            oks.add(result.ok)
            if result.ok:
                core.require_valid(graph)
            else:
                message = "invalid hypergraph: " + "; ".join(result.violations)
                with pytest.raises(ValueError) as raised:
                    core.require_valid(graph)
                assert str(raised.value) == message
        assert oks == {True, False}


class TestIsConsistent:
    def test_identity_order(self):
        assert is_consistent((0, 1, 2), (0, 1, 2, 3))

    def test_two_precedes_zero(self):
        assert is_consistent((2, 0), (2, 0, 1))

    def test_swapped_pair(self):
        assert not is_consistent((0, 1, 2), (1, 0, 2))

    def test_out_of_range_vertex_raises(self):
        with pytest.raises(ValueError):
            is_consistent((0, 7), (0, 1, 2))

    def test_matches_position_definition_exhaustively(self):
        # oracle: direct position comparison over every (edge, order) pair
        for order in itertools.permutations(range(4)):
            position = {v: i for i, v in enumerate(order)}
            for edge in itertools.permutations(range(4), 3):
                expected = (
                    position[edge[0]] < position[edge[1]] < position[edge[2]]
                )
                assert is_consistent(edge, order) == expected


class TestSupportRestriction:
    def test_compacts_unused_vertices(self):
        graph = OrientedHypergraph(3, 10, ((0, 1, 2), (3, 1, 0)))
        restricted = support_restriction(graph)
        assert restricted.n == 4
        assert restricted.edges == ((0, 1, 2), (3, 1, 0))

    def test_empty_graph(self):
        restricted = support_restriction(OrientedHypergraph(2, 5, ()))
        assert restricted.n == 0
        assert restricted.edges == ()

    def test_full_support_is_identity(self):
        graph = merged_ten_edge_3graph()
        assert support_restriction(graph) == graph

    def test_preserves_verdict(self):
        graph = OrientedHypergraph(2, 6, ((0, 2), (2, 4), (4, 0)))
        assert check_property_o(graph).holds
        assert check_property_o(support_restriction(graph)).holds


class TestReverse:
    def test_edge_reversal(self):
        graph = OrientedHypergraph(3, 3, ((0, 1, 2),))
        assert reverse(graph).edges == ((2, 1, 0),)

    def test_involution(self):
        for name, graph in fixture_graphs():
            assert reverse(reverse(graph)) == graph, name

    def test_reverse_preserves_property_o(self):
        for name, graph in fixture_graphs():
            assert check_property_o(reverse(graph)).holds, name


class TestCountConsistentOrders:
    def test_eight_vertex_value(self):
        assert count_consistent_orders(3, 8) == 6720

    def test_k_equals_n(self):
        for k in range(2, 7):
            assert count_consistent_orders(k, k) == 1

    def test_small_value_against_enumeration(self):
        # oracle: count orders of 4 elements keeping a fixed pair ascending
        edge = (1, 3)
        by_enumeration = sum(
            1
            for perm in itertools.permutations(range(4))
            if is_consistent(edge, perm)
        )
        assert by_enumeration == 12
        assert count_consistent_orders(2, 4) == 12

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            count_consistent_orders(4, 3)


class TestExhaustiveFinder:
    def test_single_pair_edge(self):
        graph = OrientedHypergraph(2, 2, ((0, 1),))
        assert find_violating_order_exhaustive(graph) == (1, 0)

    def test_cyclic_triangle_has_no_violating_order(self):
        assert find_violating_order_exhaustive(cyclic_triangle()) is None

    def test_merged_ten_edge_minus_first_edge_has_violation(self):
        graph = merged_ten_edge_3graph()
        reduced = OrientedHypergraph(graph.k, graph.n, graph.edges[1:])
        order = find_violating_order_exhaustive(reduced)
        assert order is not None
        assert order in brute_force_violating_orders(reduced)

    def test_returns_lexicographically_first(self):
        graph = OrientedHypergraph(3, 4, ((0, 1, 2), (1, 2, 3)))
        expected = brute_force_violating_orders(graph)[0]
        assert find_violating_order_exhaustive(graph) == expected

    def test_budget_refusal(self):
        graph = OrientedHypergraph(2, 13, ((0, 1),))
        with pytest.raises(BudgetExceededError):
            find_violating_order_exhaustive(graph)


class TestBacktrackingFinder:
    def test_ten_edge_graph_has_property_o(self):
        assert find_violating_order_backtracking(ten_edge_3graph()) is None

    def test_single_triple_edge(self):
        graph = OrientedHypergraph(3, 3, ((0, 1, 2),))
        order = find_violating_order_backtracking(graph)
        assert order is not None
        assert not is_consistent((0, 1, 2), order)

    def test_agrees_with_exhaustive_on_fixture_deletions(self):
        for name, graph in fixture_graphs():
            for i in range(len(graph.edges)):
                reduced = OrientedHypergraph(
                    graph.k, graph.n, graph.edges[:i] + graph.edges[i + 1 :]
                )
                exhaustive = find_violating_order_exhaustive(reduced)
                backtracked = find_violating_order_backtracking(reduced)
                assert (exhaustive is None) == (backtracked is None), (name, i)
                if backtracked is not None:
                    assert all(
                        not is_consistent(e, backtracked) for e in reduced.edges
                    )

    def test_k2_oracle_is_topological_sort(self):
        # a 2-graph has a violating order iff reversing every edge leaves an
        # acyclic digraph; the violating orders are its topological orders
        rng = random.Random(2)
        for _ in range(300):
            graph = random_graph(rng, 2, rng.randint(0, 8))
            sorter = graphlib.TopologicalSorter({v: () for v in range(graph.n)})
            for a, b in graph.edges:
                sorter.add(a, b)  # b must come before a
            try:
                tuple(sorter.static_order())
                acyclic = True
            except graphlib.CycleError:
                acyclic = False
            order = find_violating_order_backtracking(graph)
            assert (order is None) == (not acyclic), graph
            if order is not None:
                position = {v: i for i, v in enumerate(order)}
                assert sorted(order) == list(range(graph.n))
                assert all(position[b] < position[a] for a, b in graph.edges)

    def test_agrees_with_exhaustive_on_random_graphs(self):
        rng = random.Random(5)
        verdicts = set()
        for _ in range(1000):
            k = rng.randint(2, 4)
            graph = random_graph(rng, k, rng.randint(0, 7))
            exhaustive = find_violating_order_exhaustive(graph)
            backtracked = find_violating_order_backtracking(graph)
            assert (exhaustive is None) == (backtracked is None), graph
            if backtracked is not None:
                assert sorted(backtracked) == list(range(graph.n))
                assert not any(is_consistent(e, backtracked) for e in graph.edges)
            verdicts.add((k, backtracked is None))
        # both verdicts occur at k = 2 and 3 (no random 4-graph on at most
        # 7 vertices drawn here has Property O)
        assert verdicts == {(2, True), (2, False), (3, True), (3, False), (4, False)}

    def test_nodes_expanded_regression(self):
        expected = {
            "ten_edge": 8010,
            "double_cycle": 402,
            "merged_ten_edge": 284,
            "general_k3": 8010,
        }
        for name, graph in fixture_graphs():
            if name in expected:
                cert = check_property_o(graph, method="backtracking")
                assert cert.holds
                assert cert.nodes_expanded == expected[name], name

    def test_deletion_placements_and_orders_regression(self):
        # every single-edge deletion of a fixture is violated; pinned are the
        # placements of each deletion and a sha256 of the repr of the list of
        # their violating orders, in edge order
        expected = {
            "cyclic_triangle": (
                [3, 3, 5],
                "5b2bcc206cd1da550fc51b4936c4fb6333a333210fe8fe6a7175d0921adb0e58",
            ),
            "ten_edge": (
                [13, 1967, 2162, 12, 14, 991, 2158, 2165, 985, 995],
                "2cd92e4a5b297d84b6d1508d47550cafeda63b3d46716cf3bb13f41ca798c7aa",
            ),
            "double_cycle": (
                [21, 9, 14, 87, 75, 80, 155, 143, 148,
                 146, 12, 78, 149, 15, 81, 158, 24, 90],
                "75ae0e05ff766e5853c3c50308602bfb7b3922560aefc3a49e55f2b6571332a3",
            ),
            "merged_ten_edge": (
                [9, 101, 120, 6, 12, 57, 118, 122, 55, 56],
                "824c1c360846c9059a1b486595fb3258a340297e2bd3756239f2a32d61e7aa88",
            ),
            "general_k3": (
                [13, 991, 2162, 1967, 14, 12, 2165, 2158, 995, 985],
                "cc120e136d327e9ddc52a7558400fff28e7864dfac37603f77d3c0cc45744a3f",
            ),
        }
        for name, graph in fixture_graphs():
            placements, orders = [], []
            for i in range(len(graph.edges)):
                reduced = OrientedHypergraph(
                    graph.k, graph.n, graph.edges[:i] + graph.edges[i + 1 :]
                )
                cert = check_property_o(reduced, method="backtracking")
                placements.append(cert.nodes_expanded)
                orders.append(cert.violating_order)
            digest = hashlib.sha256(repr(orders).encode()).hexdigest()
            assert (placements, digest) == expected[name], name

    def test_isolated_vertices_add_no_placements(self):
        # only vertices that lie in some edge are placed
        graph = ten_edge_3graph()
        for n in (10, 12):
            padded = OrientedHypergraph(graph.k, n, graph.edges)
            cert = check_property_o(padded, method="backtracking")
            assert cert.holds
            assert cert.nodes_expanded == 8010, n


class TestCheckPropertyO:
    def test_double_cycle_auto_examines_all_orders(self):
        cert = check_property_o(double_cycle_3graph(), method="auto")
        assert cert.holds
        assert cert.method == "exhaustive"
        assert cert.orders_examined == 720

    def test_empty_hypergraph_violated_with_first_order(self):
        cert = check_property_o(OrientedHypergraph(2, 3, ()))
        assert not cert.holds
        assert cert.violating_order == (0, 1, 2)

    def test_merged_ten_edge_exhaustive(self):
        cert = check_property_o(merged_ten_edge_3graph(), method="exhaustive")
        assert cert.holds
        assert cert.orders_examined == 720

    def test_auto_switches_to_backtracking_above_nine_vertices(self):
        graph = OrientedHypergraph(2, 10, ((0, 1),))
        cert = check_property_o(graph, method="auto")
        assert cert.method == "backtracking"
        assert not cert.holds

    def test_invalid_input_rejected(self):
        graph = OrientedHypergraph(3, 3, ((0, 0, 1),))
        with pytest.raises(ValueError):
            check_property_o(graph)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            check_property_o(cyclic_triangle(), method="guess")

    @pytest.mark.parametrize(
        "kernel,finder",
        [
            ("_exhaustive_search", find_violating_order_exhaustive),
            ("_backtracking_search", find_violating_order_backtracking),
        ],
    )
    def test_finders_recheck_the_kernel_order(self, monkeypatch, kernel, finder):
        # the identity order is consistent with claim1's edge (0, 1, 2)
        monkeypatch.setattr(core, kernel, lambda graph: (tuple(range(graph.n)), 1))
        with pytest.raises(core.InternalError, match=r"edge \(0, 1, 2\)"):
            finder(ten_edge_3graph())

    @pytest.mark.parametrize(
        "method,kernel",
        [
            ("exhaustive", "_exhaustive_search"),
            ("backtracking", "_backtracking_search"),
        ],
        ids=["exhaustive", "backtracking"],
    )
    @pytest.mark.parametrize(
        "order",
        [(2, 1, 0), (2, 1, 0, 0, 4), (2, 1, 0, 3, 5), (2, 1, 0, 3, 4, 5)],
        ids=["missing", "repeated", "out_of_range", "extra"],
    )
    def test_recheck_rejects_an_order_that_is_not_a_permutation(
        self, monkeypatch, method, kernel, order
    ):
        # each order leaves the one edge (0, 1, 2) inconsistent, so only the
        # permutation check can refuse it
        monkeypatch.setattr(core, kernel, lambda graph: (order, 1))
        graph = OrientedHypergraph(3, 5, ((0, 1, 2),))
        with pytest.raises(core.InternalError, match="not an order of the 5 vertices"):
            check_property_o(graph, method)

    def test_kernels_are_called_only_from_check_property_o(self):
        kernels = {"_exhaustive_search", "_backtracking_search"}
        calls = []
        for path in sorted(pathlib.Path(core.__file__).parent.glob("*.py")):
            for func in ast.walk(ast.parse(path.read_text())):
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    if not isinstance(node, ast.Call):
                        continue
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in kernels:
                        calls.append((path.name, func.name, name))
        assert sorted(calls) == [
            ("core.py", "check_property_o", "_backtracking_search"),
            ("core.py", "check_property_o", "_exhaustive_search"),
        ]


class TestCoverageHistogram:
    def test_cyclic_triangle_values(self):
        histogram = coverage_histogram(cyclic_triangle())
        assert dict(histogram.counts) == {1: 3, 2: 3}

    def test_single_pair_edge(self):
        histogram = coverage_histogram(OrientedHypergraph(2, 2, ((0, 1),)))
        assert dict(histogram.counts) == {0: 1, 1: 1}

    def test_merged_ten_edge_values(self):
        histogram = coverage_histogram(merged_ten_edge_3graph())
        assert histogram.counts.get(0, 0) == 0
        assert histogram.weighted_total() == 10 * 720 // 6
        assert dict(histogram.counts) == {1: 346, 2: 280, 3: 84, 4: 8, 5: 2}

    def test_conservation_on_fixtures(self):
        for name, graph in fixture_graphs():
            histogram = coverage_histogram(graph)
            assert histogram.total_orders() == math.factorial(graph.n), name
            assert (
                histogram.weighted_total()
                == len(graph.edges) * count_consistent_orders(graph.k, graph.n)
            ), name
            # Property O exactly when no order has zero consistent edges
            assert (histogram.counts.get(0, 0) == 0) == check_property_o(
                graph
            ).holds, name

    def test_zero_count_iff_violated(self):
        held = merged_ten_edge_3graph()
        assert coverage_histogram(held).counts.get(0, 0) == 0
        broken = OrientedHypergraph(held.k, held.n, held.edges[:4])
        assert coverage_histogram(broken).counts.get(0, 0) > 0
        assert not check_property_o(broken).holds


class TestLowerBoundAudit:
    def test_ten_edge_base_first_edge(self):
        report = lower_bound_audit(ten_edge_3graph(), 0)
        assert report.class_sizes == (1, 3, 0, 3, 0, 3, 0, 0, 6, 0)
        assert report.total == 16
        assert report.residue == 1
        assert report.min_coverage == 2

    def test_matches_independent_enumeration(self):
        # oracle: rebuild each sigma-order and count consistencies directly
        graph = merged_ten_edge_3graph()
        base_index = 3
        base = graph.edges[base_index]
        mapping = {v: i for i, v in enumerate(base)}
        for offset, v in enumerate(sorted(set(range(graph.n)) - set(base))):
            mapping[v] = graph.k + offset
        relabeled = [tuple(mapping[v] for v in e) for e in graph.edges]
        expected = [0] * len(relabeled)
        for sigma in itertools.permutations(range(graph.k)):
            order = sigma + tuple(range(graph.k, graph.n))
            for i, e in enumerate(relabeled):
                if is_consistent(e, order):
                    expected[i] += 1
        report = lower_bound_audit(graph, base_index)
        assert report.class_sizes == tuple(expected)

    @pytest.mark.parametrize("k,base_indices", [(4, (0, 7, 59)), (5, (155,))])
    def test_general_class_sizes_match_is_consistent_reference(self, k, base_indices):
        # reference: is_consistent on each (sigma-order, edge) pair
        graph = general_construction(k)
        for base_index in base_indices:
            base = graph.edges[base_index]
            tail = tuple(v for v in range(graph.n) if v not in base)
            expected = [0] * len(graph.edges)
            coverage = []
            for sigma in itertools.permutations(base):
                consistent = [is_consistent(e, sigma + tail) for e in graph.edges]
                expected = [c + hit for c, hit in zip(expected, consistent)]
                coverage.append(sum(consistent))
            report = lower_bound_audit(graph, base_index)
            assert report.class_sizes == tuple(expected), (k, base_index)
            assert report.min_coverage == min(coverage), (k, base_index)

    def test_base_edge_class_size_is_one(self):
        for name, graph in fixture_graphs():
            for base_index in range(0, len(graph.edges), 4):
                report = lower_bound_audit(graph, base_index)
                assert report.class_sizes[base_index] == 1, (name, base_index)

    def test_class_sizes_divide_k_factorial(self):
        for name, graph in fixture_graphs():
            report = lower_bound_audit(graph, 0)
            fact_k = math.factorial(graph.k)
            for size, m in zip(report.class_sizes, report.intersection_sizes):
                assert size in (0, fact_k // math.factorial(m)), name

    def test_disjoint_ascending_tail_edge_has_full_class(self):
        # an edge disjoint from the base whose vertices keep ascending labels
        # is consistent with every sigma-order
        graph = OrientedHypergraph(3, 6, ((0, 1, 2), (3, 4, 5)))
        report = lower_bound_audit(graph, 0)
        assert report.class_sizes == (1, 6)

    def test_property_o_fixtures_have_positive_min_coverage(self):
        for name, graph in fixture_graphs():
            report = lower_bound_audit(graph, 0)
            assert report.min_coverage >= 1, name
            assert report.total >= math.factorial(graph.k), name

    def test_bad_index(self):
        with pytest.raises(IndexError):
            lower_bound_audit(cyclic_triangle(), 3)

    def test_invariant_under_tail_monotone_relabelling(self):
        # renaming the base-edge vertices arbitrarily and the remaining
        # vertices monotonically leaves every audit field unchanged: the
        # sigma-orders only see the tail's relative order
        graph = ten_edge_3graph()
        for rho in ([5, 6, 7, 0, 1, 2, 3, 4], [2, 0, 1, 3, 4, 5, 6, 7]):
            relabeled = relabel(graph, rho)
            assert lower_bound_audit(relabeled, 0) == lower_bound_audit(graph, 0)


class TestInvariantProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_hypergraphs())
    def test_oracle_equivalence(self, graph):
        exhaustive = find_violating_order_exhaustive(graph)
        backtracked = find_violating_order_backtracking(graph)
        assert (exhaustive is None) == (backtracked is None)

    @settings(max_examples=60, deadline=None)
    @given(small_hypergraphs())
    def test_violation_soundness(self, graph):
        order = find_violating_order_backtracking(graph)
        if order is not None:
            assert all(not is_consistent(e, order) for e in graph.edges)

    @settings(max_examples=40, deadline=None)
    @given(small_hypergraphs(), st.randoms(use_true_random=False))
    def test_relabel_invariance(self, graph, rng):
        mapping = list(range(graph.n))
        rng.shuffle(mapping)
        relabeled = relabel(graph, mapping)
        original = check_property_o(graph)
        image = check_property_o(relabeled)
        assert original.verdict == image.verdict
        if original.violating_order is not None:
            mapped = tuple(mapping[v] for v in original.violating_order)
            assert all(not is_consistent(e, mapped) for e in relabeled.edges)

    @settings(max_examples=40, deadline=None)
    @given(small_hypergraphs())
    def test_reversal_invariance(self, graph):
        assert (
            check_property_o(reverse(graph)).verdict
            == check_property_o(graph).verdict
        )

    @settings(max_examples=40, deadline=None)
    @given(small_hypergraphs())
    def test_support_restriction_invariance(self, graph):
        assert (
            check_property_o(support_restriction(graph)).verdict
            == check_property_o(graph).verdict
        )

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_edge_monotonicity(self, rng):
        base = rng.choice([cyclic_triangle(), merged_ten_edge_3graph()])
        n = base.n + rng.randrange(0, 3)
        existing = {frozenset(e) for e in base.edges}
        candidates = [
            s
            for s in itertools.combinations(range(n), base.k)
            if frozenset(s) not in existing
        ]
        rng.shuffle(candidates)
        extra = []
        for s in candidates[: rng.randrange(0, 4)]:
            extra.append(
                unrank_permutation(
                    rng.randrange(math.factorial(base.k)), s
                )
            )
        extended = OrientedHypergraph(base.k, n, base.edges + tuple(extra))
        assert check_property_o(extended).holds


class TestPermutationUtilities:
    def test_unrank_rank_roundtrip(self):
        items = (0, 1, 2, 3)
        seen = []
        for rank in range(24):
            perm = unrank_permutation(rank, items)
            assert rank_permutation(perm) == rank
            seen.append(perm)
        assert seen == sorted(seen)
        assert len(set(seen)) == 24


def reference_mask(n, edge):
    """Bit p set iff the order of lex rank p is consistent with the edge."""
    return sum(
        1 << p
        for p, order in enumerate(itertools.permutations(range(n)))
        if is_consistent(edge, order)
    )


def reference_cover(graph):
    """(lex-first violating order, orders examined, histogram) by brute force."""
    first, examined, counts = None, math.factorial(graph.n), {}
    for p, order in enumerate(itertools.permutations(range(graph.n))):
        c = sum(is_consistent(e, order) for e in graph.edges)
        counts[c] = counts.get(c, 0) + 1
        if c == 0 and first is None:
            first, examined = order, p + 1
    return first, examined, dict(sorted(counts.items()))


class TestCoverageKernel:
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 3), (6, 4)])
    def test_masks_match_reference(self, n, k):
        masks, full = _coverage_masks(n, k)
        _, oriented = oriented_subset_tables(n, k)
        assert full == (1 << math.factorial(n)) - 1
        for row, edges in zip(masks, oriented):
            assert row == [reference_mask(n, e) for e in edges]

    def test_block_walk_matches_reference(self, monkeypatch):
        # with 4-vertex blocks the walk runs on every graph with n > 4
        monkeypatch.setattr(core, "_BLOCK_VERTICES", 4)
        rng = random.Random(1703)
        graphs = [OrientedHypergraph(2, 6, ())]
        for _ in range(40):
            k = rng.randint(2, 4)
            n = rng.randint(k, 7)
            subsets = list(itertools.combinations(range(n), k))
            rng.shuffle(subsets)
            edges = tuple(
                unrank_permutation(rng.randrange(math.factorial(k)), s)
                for s in subsets[: rng.randint(0, len(subsets))]
            )
            graphs.append(OrientedHypergraph(k, n, edges))
        for graph in graphs:
            first, examined, counts = reference_cover(graph)
            cert = check_property_o(graph, method="exhaustive")
            assert cert.violating_order == first, graph
            assert cert.orders_examined == examined, graph
            assert coverage_histogram(graph).counts == counts, graph

    def test_padded_claim1_block_walk(self, monkeypatch):
        kernel = core._edge_mask

        def bounded_kernel(j, ranks):
            assert j <= 9, "mask wider than 9! bits"
            return kernel(j, ranks)

        monkeypatch.setattr(core, "_edge_mask", bounded_kernel)
        graph = ten_edge_3graph()
        padded = OrientedHypergraph(graph.k, 11, graph.edges)
        cert = check_property_o(padded, method="exhaustive")
        assert cert.holds and cert.orders_examined == math.factorial(11)
        assert coverage_histogram(padded).total_orders() == math.factorial(11)
        for i in range(len(graph.edges)):
            edges = graph.edges[:i] + graph.edges[i + 1 :]
            witness = find_violating_order_exhaustive(
                OrientedHypergraph(graph.k, graph.n, edges)
            )
            assert witness is not None
            assert find_violating_order_exhaustive(
                OrientedHypergraph(graph.k, 11, edges)
            ) == witness + (8, 9, 10)


class TestOrderedMap:
    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        # the run count must not depend on the machine the tests run on
        monkeypatch.setattr(os, "cpu_count", lambda: 4)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_task_order_up_to_first_accepted(self, jobs):
        items = list(range(6))
        runs = [items] if jobs == 1 else [items[:3], items[3:]]
        assert core.ordered_map(list, items, jobs) == runs
        assert core.ordered_map(list, items, jobs, until=lambda r: 0 in r) == runs[:1]

    @pytest.fixture
    def forked(self, monkeypatch):
        """The pids of the children forked while the test runs."""
        pids = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return pids

    @staticmethod
    def assert_reaped(pids):
        assert pids
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize(
        "jobs, items, children",
        [(1, 5, 0), (3, 5, 3), (8, 5, 4), (8, 3, 3), (8, 1, 0)],
    )
    def test_one_child_per_run(self, forked, jobs, items, children):
        # min(jobs, CPUs, items) runs; a single run needs no child
        runs = core.ordered_map(list, list(range(items)), jobs)
        assert len(forked) == children
        assert len(runs) == max(children, 1)
        assert [x for run in runs for x in run] == list(range(items))

    def test_worker_exception_is_raised(self):
        def check(run):
            if 3 in run:
                raise ValueError("run with 3")
            return run

        with pytest.raises(ValueError, match="run with 3"):
            core.ordered_map(check, list(range(6)), 2)

    def test_worker_without_result_is_internal_error(self, forked):
        def die(run):
            os._exit(1)

        with pytest.raises(core.InternalError, match="run 0 sent no result"):
            core.ordered_map(die, [0, 1], 2)
        self.assert_reaped(forked)

    def test_unpicklable_result_is_internal_error(self, forked):
        # a lambda does not pickle, so the child sends nothing
        with pytest.raises(core.InternalError, match="run 0 sent no result"):
            core.ordered_map(lambda run: lambda: run, [0, 1], 2)
        self.assert_reaped(forked)

    def test_stop_kills_running_workers(self, forked):
        def slow_after_first(run):
            if run[0] > 0:
                time.sleep(30)
            return run

        start = time.perf_counter()
        assert core.ordered_map(
            slow_after_first, [0, 1, 2], 2, until=lambda r: True
        ) == [[0]]
        assert time.perf_counter() - start < 10
        self.assert_reaped(forked)

    def test_zero_items_make_no_call(self):
        def called(run):
            raise AssertionError("called with no items")

        for jobs in (1, 2):
            assert core.ordered_map(called, [], jobs) == []
