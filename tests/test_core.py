import ast
import graphlib
import hashlib
import itertools
import math
import os
import pathlib
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from propertyo import (
    BACKTRACKING,
    EXHAUSTIVE,
    BudgetExceededError,
    OrientedHypergraph,
    check_property_o,
    count_consistent_orders,
    coverage_histogram,
    cyclic_triangle,
    double_cycle_3graph,
    general_construction,
    is_consistent,
    lower_bound_audit,
    merged_ten_edge_3graph,
    random_tournament,
    relabel,
    reverse,
    support_restriction,
    ten_edge_3graph,
)
from propertyo import core, cover, pairsearch
from propertyo.core import oriented_subsets, unrank_permutation
from propertyo.cover import _coverage_masks
from propertyo.montecarlo import value_at

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
    """The constructor is the one check that a graph is valid."""

    def test_fixtures_are_valid(self):
        for name, graph in fixture_graphs():
            assert not list(core._violations(graph.k, graph.n, graph.edges)), name

    def test_duplicate_underlying_set(self):
        with pytest.raises(ValueError, match="duplicate underlying set"):
            OrientedHypergraph(3, 3, ((0, 1, 2), (2, 1, 0)))

    def test_repeated_vertex(self):
        with pytest.raises(ValueError) as raised:
            OrientedHypergraph(3, 3, ((0, 0, 1),))
        assert str(raised.value) == (
            "invalid hypergraph: edge 0: repeated vertex in edge"
        )

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError, match="out of range"):
            OrientedHypergraph(2, 2, ((0, 5),))

    def test_uniformity_below_two_rejected(self):
        with pytest.raises(ValueError):
            OrientedHypergraph(1, 3, ())

    def test_non_integers_rejected(self):
        # a float or a string is refused, never truncated or parsed
        with pytest.raises(TypeError):
            OrientedHypergraph(2, 3, [(0.7, 1.2), ("2", 0)])
        with pytest.raises(TypeError):
            OrientedHypergraph(2, 3, [("2", 0)])
        with pytest.raises(TypeError):
            OrientedHypergraph(2, 2.5, [(0, 1)])
        with pytest.raises(TypeError):
            OrientedHypergraph(2.0, 3, ())
        with pytest.raises(TypeError):
            relabel(cyclic_triangle(), (1.0, 0.0, 2.0))
        # an exact integer of another type is stored as an int
        graph = OrientedHypergraph(2, 2, [(True, False)])
        assert graph.edges == ((1, 0),)
        assert type(graph.edges[0][0]) is int

    def test_raises_exactly_when_violations_found(self):
        # the constructor's one-pass set check against the message walk
        rng = random.Random(13)
        fields = [(3, 0, ()), (2, 4, ())]
        for _, graph in fixture_graphs():
            fields.append((graph.k, graph.n, graph.edges))
            fields += [(graph.k, graph.n, e) for e in _mutants(graph, rng)]
        for _ in range(40):
            graph = random_graph(rng, rng.randint(2, 4), rng.randint(4, 7))
            fields.append((graph.k, graph.n, graph.edges))
            if graph.edges:
                fields += [(graph.k, graph.n, e) for e in _mutants(graph, rng)]
        oks = set()
        for k, n, edges in fields:
            violations = [message for _, message in core._violations(k, n, edges)]
            oks.add(not violations)
            if not violations:
                assert OrientedHypergraph(k, n, edges).edges == tuple(edges)
            else:
                message = "invalid hypergraph: " + "; ".join(violations)
                with pytest.raises(ValueError) as raised:
                    OrientedHypergraph(k, n, edges)
                assert str(raised.value) == message
        assert oks == {True, False}


def _mutants(graph, rng):
    """Seeded broken copies of ``graph``'s edge list, one per kind of
    violation, each with its other edges intact."""
    edges = list(graph.edges)
    i = rng.randrange(len(edges))
    e = edges[i]

    def with_edge(new):
        return edges[:i] + [new] + edges[i + 1 :]

    return [
        with_edge((e[1],) + e[1:]),  # repeated vertex
        with_edge(e[:-1] + (-1,)),  # vertex -1
        with_edge(e[:-1] + (graph.n,)),  # vertex n
        edges + [e[::-1]],  # duplicate set
        with_edge(e[:-1]),  # one vertex short
        with_edge(e + (graph.n,)),  # one vertex long, out of range too
        with_edge(e + (e[0],)),  # one vertex long, repeated
    ]


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

    def test_order_listing_a_vertex_twice_raises(self):
        # a position table keeping either occurrence would answer silently
        for edge in ((0, 1), (1, 0), (2, 3)):
            with pytest.raises(ValueError, match="lists a vertex twice"):
                is_consistent(edge, (1, 0, 1))

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
        assert check_property_o(graph, EXHAUSTIVE).violating_order == (1, 0)

    def test_cyclic_triangle_has_no_violating_order(self):
        assert check_property_o(cyclic_triangle(), EXHAUSTIVE).violating_order is None

    def test_merged_ten_edge_minus_first_edge_has_violation(self):
        graph = merged_ten_edge_3graph()
        reduced = OrientedHypergraph(graph.k, graph.n, graph.edges[1:])
        order = check_property_o(reduced, EXHAUSTIVE).violating_order
        assert order is not None
        assert order in brute_force_violating_orders(reduced)

    def test_returns_lexicographically_first(self):
        graph = OrientedHypergraph(3, 4, ((0, 1, 2), (1, 2, 3)))
        expected = brute_force_violating_orders(graph)[0]
        assert check_property_o(graph, EXHAUSTIVE).violating_order == expected

    def test_budget_refusal(self):
        graph = OrientedHypergraph(2, 13, ((0, 1),))
        with pytest.raises(BudgetExceededError):
            check_property_o(graph, EXHAUSTIVE)

    def test_order_walk_refuses_before_any_mask(self, monkeypatch):
        # the decider and the histogram share the walk's one n! refusal
        def no_masks(j, ranks):
            raise AssertionError("mask built")

        monkeypatch.setattr(cover, "_edge_mask", no_masks)
        graph = OrientedHypergraph(2, 13, ((0, 1),))
        message = r"^refusing to enumerate 13! orders \(limit n <= 12\)$"
        with pytest.raises(BudgetExceededError, match=message):
            check_property_o(graph, method="exhaustive")
        with pytest.raises(BudgetExceededError, match=message):
            coverage_histogram(graph)


class TestBacktrackingFinder:
    def test_ten_edge_graph_has_property_o(self):
        assert check_property_o(ten_edge_3graph(), BACKTRACKING).violating_order is None

    def test_single_triple_edge(self):
        graph = OrientedHypergraph(3, 3, ((0, 1, 2),))
        order = check_property_o(graph, BACKTRACKING).violating_order
        assert order is not None
        assert not is_consistent((0, 1, 2), order)

    def test_agrees_with_exhaustive_on_fixture_deletions(self):
        for name, graph in fixture_graphs():
            for i in range(len(graph.edges)):
                reduced = OrientedHypergraph(
                    graph.k, graph.n, graph.edges[:i] + graph.edges[i + 1 :]
                )
                exhaustive = check_property_o(reduced, EXHAUSTIVE).violating_order
                backtracked = check_property_o(reduced, BACKTRACKING).violating_order
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
            order = check_property_o(graph, BACKTRACKING).violating_order
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
            exhaustive = check_property_o(graph, EXHAUSTIVE).violating_order
            backtracked = check_property_o(graph, BACKTRACKING).violating_order
            assert (exhaustive is None) == (backtracked is None), graph
            if backtracked is not None:
                assert sorted(backtracked) == list(range(graph.n))
                assert not any(is_consistent(e, backtracked) for e in graph.edges)
            verdicts.add((k, backtracked is None))
        # both verdicts occur at k = 2 and 3 (no random 4-graph on at most
        # 7 vertices drawn here has Property O)
        assert verdicts == {(2, True), (2, False), (3, True), (3, False), (4, False)}

    def test_nodes_expanded_regression(self):
        # nodes branched at, on the rule (pairs left, -degree sum of the
        # pair, edge index), the descending child first
        expected = {
            "ten_edge": 1,
            "double_cycle": 2,
            "merged_ten_edge": 1,
            "general_k3": 1,
        }
        for name, graph in fixture_graphs():
            if name in expected:
                cert = check_property_o(graph, method="backtracking")
                assert cert.holds
                assert cert.nodes_expanded == expected[name], name

    def test_deletion_placements_and_orders_regression(self):
        # every single-edge deletion of a fixture is violated; pinned are the
        # nodes of each deletion (the rule of test_nodes_expanded_regression)
        # and a sha256 of the repr of the list of their orders, in edge order
        expected = {
            "cyclic_triangle": (
                [0, 0, 0],
                "5b2bcc206cd1da550fc51b4936c4fb6333a333210fe8fe6a7175d0921adb0e58",
            ),
            "ten_edge": (
                [2, 2, 2, 2, 3, 2, 2, 2, 2, 3],
                "c5f312a4104313b432056afe9df37c737f01ddd992656a36206bcb5b92f01a4f",
            ),
            "double_cycle": (
                [2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3],
                "e912b721c4925f47e42986826a00453216350460df6180ce7aefe8e185593dc2",
            ),
            "merged_ten_edge": (
                [2, 2, 2, 2, 3, 2, 2, 2, 2, 3],
                "45e861230c434c9da79f0fec11f363b5c3d3c74ed4375b655144085e3e67ed0f",
            ),
            "general_k3": (
                [2, 2, 2, 2, 3, 2, 2, 2, 3, 2],
                "2dfd8143343da5af2a8c62a57cfe40fe85e98e9df6a17303f6863a4c82a4eb37",
            ),
        }
        for name, graph in fixture_graphs():
            nodes, orders = [], []
            for i in range(len(graph.edges)):
                reduced = OrientedHypergraph(
                    graph.k, graph.n, graph.edges[:i] + graph.edges[i + 1 :]
                )
                cert = check_property_o(reduced, method="backtracking")
                nodes.append(cert.nodes_expanded)
                orders.append(cert.violating_order)
            digest = hashlib.sha256(repr(orders).encode()).hexdigest()
            assert (nodes, digest) == expected[name], name

    def test_isolated_vertices_add_no_placements(self):
        # only vertices that lie in some edge are searched: claim1 takes the
        # one node it takes on 8 vertices
        graph = ten_edge_3graph()
        for n in (10, 12):
            padded = OrientedHypergraph(graph.k, n, graph.edges)
            cert = check_property_o(padded, method="backtracking")
            assert cert.holds
            assert cert.nodes_expanded == 1, n

    def test_verdict_does_not_depend_on_the_callers_depth(self):
        # the search keeps its own stack, so 150 frames down a directed
        # 2-path is decided as at the top
        def at_depth(frames, n):
            if frames:
                return at_depth(frames - 1, n)
            graph = OrientedHypergraph(2, n, tuple((i, i + 1) for i in range(n - 1)))
            cert = check_property_o(graph, BACKTRACKING)
            return cert.violating_order, cert.nodes_expanded

        order = tuple(range(999, -1, -1))
        assert at_depth(0, 1000) == at_depth(150, 1000) == (order, 0)

    def test_support_too_wide_for_one_closure_step_is_refused_before_set_up(self):
        # one closure step over a directed 2-path on 100,000 vertices would
        # cost 100,000 * (2 + 3,125) units, over the 10**8 budget, so none
        # of the search's 100,000-bit words, over 600 MiB of them, is built
        n = 100_000
        graph = OrientedHypergraph(2, n, tuple((i, i + 1) for i in range(n - 1)))
        message = (
            r"^search over 100000 support vertices refused: one closure step "
            r"over all of them costs 312700000, over the 100000000-unit budget$"
        )
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match=message):
                check_property_o(graph, BACKTRACKING)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20, peak


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
        with pytest.raises(ValueError, match="invalid hypergraph"):
            check_property_o(OrientedHypergraph(3, 3, ((0, 0, 1),)))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            check_property_o(cyclic_triangle(), method="guess")

    @pytest.mark.parametrize(
        "method,module,kernel",
        [
            ("exhaustive", cover, "_exhaustive_search"),
            ("backtracking", pairsearch, "_backtracking_search"),
        ],
        ids=["exhaustive", "backtracking"],
    )
    @pytest.mark.parametrize(
        "order,message",
        [
            ((2, 1, 0), "not an order of the 5 vertices"),
            ((2, 1, 0, 0, 4), "not an order of the 5 vertices"),
            ((2, 1, 0, 3, 5), "not an order of the 5 vertices"),
            ((2, 1, 0, 3, 4, 5), "not an order of the 5 vertices"),
            ((0, 1, 2, 3, 4), r"edge \(0, 1, 2\)"),
        ],
        ids=["missing", "repeated", "out_of_range", "extra", "ident"],
    )
    def test_recheck_rejects_an_order_that_is_not_a_permutation(
        self, monkeypatch, method, module, kernel, order, message
    ):
        # each order but the identity leaves the one edge (0, 1, 2)
        # inconsistent, so only the permutation check can refuse it; the
        # identity is a permutation that the edge check refuses
        monkeypatch.setattr(module, kernel, lambda graph: (order, 1))
        graph = OrientedHypergraph(3, 5, ((0, 1, 2),))
        with pytest.raises(core.InternalError, match=message):
            check_property_o(graph, method)

    def test_kernels_are_called_only_from_check_property_o(self):
        # the two deciding kernels, and the certificate they end in
        kernels = {
            "_exhaustive_search", "_backtracking_search", "VerificationCertificate"
        }
        calls = []
        for file, owner, node in source_nodes():
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in kernels:
                calls.append((file, owner, name))
        assert sorted(calls) == [
            ("core.py", "check_property_o", "VerificationCertificate"),
            ("core.py", "check_property_o", "_backtracking_search"),
            ("core.py", "check_property_o", "_exhaustive_search"),
        ]

    def test_the_two_kernel_modules_import_only_core(self):
        # the deciders stay independent: neither kernel module imports the
        # other, nor search, montecarlo or cli, and core imports each only
        # in the branch of check_property_o that runs it
        imports = {}
        for file, owner, node in source_nodes():
            if isinstance(node, ast.ImportFrom) and node.level:
                imports.setdefault(file, set()).add((owner, node.module))
            elif isinstance(node, ast.ImportFrom):  # absolute: not the package
                assert not node.module.startswith("propertyo"), file
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("propertyo") for a in node.names), file
        assert imports["cover.py"] == {("<module>", "core")}
        assert imports["pairsearch.py"] == {("<module>", "core")}
        assert imports["core.py"] == {
            ("check_property_o", "cover"),
            ("check_property_o", "pairsearch"),
        }


    def test_each_work_limit_is_read_by_its_owner_alone(self):
        # the code that does the bounded work is the one reader of its limit
        owners = {
            "EXHAUSTIVE_MAX_VERTICES": {("cover.py", "_lex_blocks")},
            "_MAX_SEARCH_WORK": {("pairsearch.py", "_backtracking_search")},
            "_MAX_VERTICES": {("pairsearch.py", "_backtracking_search")},
            "_MAX_AUDIT_COST": {("core.py", "lower_bound_audit")},
            "_MAX_DRAWS": {("montecarlo.py", "estimate_property_o_rate")},
            "_MAX_SPACE_BITS": {("search.py", "_check_space")},
            "_MAX_MASK_BYTES": {
                ("cover.py", "_coverage_masks"),
                # the mask memo's size
                ("cover.py", "<module>"),
            },
            "_MAX_EDGES": {
                ("constructions.py", "general_construction"),
                ("core.py", "oriented_subsets"),
            },
        }
        readers = {name: set() for name in owners}
        for file, owner, node in source_nodes():
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name in readers:
                readers[name].add((file, owner))
        assert readers == owners

    def test_lgamma_is_read_by_the_edge_bound_alone(self):
        # every other size refusal is an exact count capped at its budget
        readers = {
            (file, owner)
            for file, owner, node in source_nodes()
            if isinstance(node, ast.Attribute) and node.attr == "lgamma"
        }
        assert readers == {("search.py", "_below_edge_bound")}

    def test_no_source_line_is_longer_than_88_columns(self):
        for path in sorted(pathlib.Path(core.__file__).parent.glob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                assert len(line) <= 88, f"{path.name}:{number}"

    def test_the_general_family_rule_has_one_owner(self):
        # k >= 3 for the general family is checked in GeneralLayout alone
        rule = {
            (file, owner)
            for file, owner, node in source_nodes()
            if isinstance(node, ast.Constant)
            and "uniformity must be at least 3" in str(node.value)
        }
        assert rule == {("constructions.py", "__post_init__")}

    def test_the_subset_rule_and_count_have_one_owner(self):
        # n >= k >= 2 is checked, and C(n,k) counted, in _subset_count alone
        rule, comb = set(), set()
        for file, owner, node in source_nodes():
            if isinstance(node, ast.Constant) and "need n >= k >= 2" in str(node.value):
                rule.add((file, owner))
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "comb"
                and getattr(node.value, "id", None) == "math"
            ):
                comb.add((file, owner))
        assert rule == {("core.py", "_subset_count")}
        assert comb <= {("core.py", "_subset_count")}


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
        with pytest.raises(ValueError, match="out of range"):
            lower_bound_audit(cyclic_triangle(), 3)

    def test_budget_refuses_general_7_before_any_order(self, monkeypatch):
        # k!*(n + |E|*k) is 6.6e8 for general(7), over the 1e8 budget
        def no_orders(*args):
            raise AssertionError("a sigma-order was checked")

        graph = general_construction(7)
        monkeypatch.setattr(core, "_consistent_edges", no_orders)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="5040 sigma-orders"):
            lower_bound_audit(graph, 0)
        assert time.perf_counter() - start < 1

    def test_general_6_within_budget(self):
        # k!*(n + |E|*k) is 1.1e7 for general(6)
        report = lower_bound_audit(general_construction(6), 0)
        assert report.class_sizes[0] == 1
        assert len(report.class_sizes) == 2520
        assert report.total == 4315

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
        exhaustive = check_property_o(graph, EXHAUSTIVE).violating_order
        backtracked = check_property_o(graph, BACKTRACKING).violating_order
        assert (exhaustive is None) == (backtracked is None)

    @settings(max_examples=60, deadline=None)
    @given(small_hypergraphs())
    def test_violation_soundness(self, graph):
        order = check_property_o(graph, BACKTRACKING).violating_order
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
        # rank r is the r-th of itertools.permutations, the row order of
        # oriented_subsets, whose row index is an edge's census digit
        items = (0, 1, 2, 3)
        seen = [unrank_permutation(rank, items) for rank in range(24)]
        assert seen == list(itertools.permutations(items))
        assert [seen.index(perm) for perm in seen] == list(range(24))

    @pytest.mark.parametrize("limit", [1, 64, 10**6])
    def test_counts_stop_past_their_limit(self, limit):
        for n in range(2, 40):
            for k in range(2, n + 1):
                count = math.comb(n, k)
                expected = count if count <= limit else None
                assert core._subset_count(n, k, limit) == expected, (n, k)
        for k in range(12):
            fact = math.factorial(k)
            assert core._factorial_upto(k, limit) == (fact if fact <= limit else None)

    @pytest.mark.parametrize("n,k", [(2, 3), (5, 1), (0, 0), (-1, 2)])
    def test_subset_count_needs_n_at_least_k_at_least_2(self, n, k):
        with pytest.raises(ValueError, match="need n >= k >= 2"):
            core._subset_count(n, k, 10**6)

    def test_table_over_the_edge_budget_is_refused_before_it_is_built(self):
        # (102, 3) has 1,030,200 oriented subsets, (101, 3) 999,900
        for n, k in [(102, 3), (34, 4), (1001, 2), (10, 9), (10**6, 10**6 - 1)]:
            with pytest.raises(core.BudgetExceededError, match="tuple budget"):
                oriented_subsets(n, k)

    def test_table_at_the_edge_budget_is_built(self, monkeypatch):
        # C(6,3)*3! = 120 oriented subsets, and (7, 3) has 210
        oriented_subsets.cache_clear()
        monkeypatch.setattr(core, "_MAX_EDGES", 120)
        try:
            assert sum(map(len, oriented_subsets(6, 3))) == 120
            with pytest.raises(core.BudgetExceededError):
                oriented_subsets(7, 3)
        finally:
            oriented_subsets.cache_clear()

    def test_subset_memo_holds_one_table(self):
        # (12,6) alone is 665,280 tuples: the memo keeps the last table only,
        # and a table built again after eviction is the same
        sizes = [(5, 3), (6, 4), (8, 2), (9, 3), (7, 5)]
        first = oriented_subsets(*sizes[0])
        for n, k in sizes:
            rows = oriented_subsets(n, k)
            assert [row[0] for row in rows] == core.colex_subsets(n, k)
            assert all(row == tuple(itertools.permutations(row[0])) for row in rows)
            info = oriented_subsets.cache_info()
            assert (info.maxsize, info.currsize) == (1, 1)
        assert oriented_subsets(*sizes[0]) == first

    def test_subset_memo_drops_its_table_before_the_next(self):
        # traced bytes: building (9,4) with (10,4) memoised peaks at the
        # larger table alone, where holding both would add the smaller
        oriented_subsets(9, 4)  # the first build also allocates once-only state
        tracemalloc.start()
        try:
            alone = {}
            for size in [(9, 4), (10, 4)]:
                oriented_subsets.cache_clear()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                oriented_subsets(*size)
                alone[size] = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            oriented_subsets(9, 4)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < alone[10, 4] + alone[9, 4] // 2, (peak, alone)


def reference_masks(n, edges):
    """{edge: mask} with bit p set iff the order of lex rank p is consistent
    with the edge: its vertices take increasing positions in the order."""
    bits = {e: [] for e in edges}
    for p, order in enumerate(itertools.permutations(range(n))):
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = i
        for e, on in bits.items():
            if all(position[a] < position[b] for a, b in zip(e, e[1:])):
                on.append(p)
    return {e: sum(1 << p for p in on) for e, on in bits.items()}


def source_nodes():
    """(file name, innermost enclosing function or "<module>", node) for
    every AST node of the package's modules."""
    for path in sorted(pathlib.Path(core.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        # ast.walk is breadth first, so a nested function's name wins
        owner = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func.name))
        for node in ast.walk(tree):
            yield path.name, owner.get(node, "<module>"), node


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
    @pytest.mark.parametrize("n,k", [(4, 2), (5, 3), (6, 3), (6, 4), (8, 2)])
    def test_masks_match_reference(self, n, k):
        # one mask meaning: the census table holds the kernel's masks as
        # the deciders read them, the orders that leave each edge uncovered
        masks, full = _coverage_masks(n, k)
        oriented = oriented_subsets(n, k)
        assert full == (1 << math.factorial(n)) - 1
        assert len(masks) == len(oriented) == math.comb(n, k)
        consistent = reference_masks(n, [e for row in oriented for e in row])
        for row, edges in zip(masks, oriented):
            assert row == [cover._memo_edge_mask(n, e) for e in edges]
            assert row == [full ^ consistent[e] for e in edges]

    def test_block_walk_matches_reference(self, monkeypatch):
        # with 4-vertex blocks the walk runs on every graph with n > 4
        monkeypatch.setattr(cover, "_BLOCK_VERTICES", 4)
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

    def test_mask_memo_is_capped_at_the_mask_budget(self):
        # 300 random (8,6) tournaments touch over 16,000 distinct masks on at
        # most 8 vertices; the memo keeps at most _MAX_MASK_BYTES of them,
        # and a verdict decided again after eviction is the same
        memo = cover._memo_edge_mask
        cap = memo.cache_info().maxsize
        assert cap * (math.factorial(8) // 8) <= cover._MAX_MASK_BYTES
        memo.cache_clear()
        graphs = [random_tournament(8, 6, value_at(3, t)) for t in range(300)]
        first = check_property_o(graphs[0], EXHAUSTIVE)
        for graph in graphs:
            cert = check_property_o(graph, EXHAUSTIVE)
            assert cert.holds == check_property_o(graph, BACKTRACKING).holds
        assert memo.cache_info().currsize == cap
        assert check_property_o(graphs[0], EXHAUSTIVE) == first

    def test_padded_claim1_block_walk(self, monkeypatch):
        kernel = cover._edge_mask

        def bounded_kernel(j, ranks):
            assert j <= 9, "mask wider than 9! bits"
            return kernel(j, ranks)

        monkeypatch.setattr(cover, "_edge_mask", bounded_kernel)
        graph = ten_edge_3graph()
        padded = OrientedHypergraph(graph.k, 11, graph.edges)
        cert = check_property_o(padded, method="exhaustive")
        assert cert.holds and cert.orders_examined == math.factorial(11)
        assert coverage_histogram(padded).total_orders() == math.factorial(11)
        for i in range(len(graph.edges)):
            edges = graph.edges[:i] + graph.edges[i + 1 :]
            witness = check_property_o(
                OrientedHypergraph(graph.k, graph.n, edges), EXHAUSTIVE
            ).violating_order
            assert witness is not None
            assert check_property_o(
                OrientedHypergraph(graph.k, 11, edges), EXHAUSTIVE
            ).violating_order == witness + (8, 9, 10)

    def test_no_cached_mask_is_wider_than_8_factorial_bits(self):
        # the (10,2) census masks recurse on 9 vertices without caching them
        _coverage_masks(10, 2)
        memo = cover._memo_edge_mask
        keys = [(r,) for r in range(9)] + list(itertools.permutations(range(9), 2))
        try:
            for ranks in keys:
                misses = memo.cache_info().misses
                memo(9, ranks)
                assert memo.cache_info().misses > misses, ranks
        finally:
            memo.cache_clear()


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
        [(1, 5, 0), (3, 5, 2), (8, 5, 3), (8, 3, 2), (8, 1, 0)],
    )
    def test_one_child_per_run(self, forked, jobs, items, children):
        # min(jobs, CPUs, items) runs; this process walks the first, so a
        # single run needs no child
        runs = core.ordered_map(list, list(range(items)), jobs)
        assert len(forked) == children
        assert len(runs) == children + 1
        assert [x for run in runs for x in run] == list(range(items))

    def test_worker_exception_is_raised(self):
        def check(run):
            if 3 in run:
                raise ValueError("run with 3")
            return run

        with pytest.raises(ValueError, match="run with 3"):
            core.ordered_map(check, list(range(6)), 2)

    def test_worker_without_result_is_internal_error(self, forked):
        # run 0 is walked in this process, so only run 1 may crash
        def die(run):
            if run[0] > 0:
                os._exit(1)
            return run

        with pytest.raises(core.InternalError, match="run 1 sent no result"):
            core.ordered_map(die, [0, 1], 2)
        self.assert_reaped(forked)

    def test_unpicklable_result_is_internal_error(self, forked):
        # a lambda does not pickle, so the child of run 1 sends nothing
        def unpicklable(run):
            return run if run[0] == 0 else lambda: run

        with pytest.raises(core.InternalError, match="run 1 sent no result"):
            core.ordered_map(unpicklable, [0, 1], 2)
        self.assert_reaped(forked)

    def test_exception_in_own_run_kills_every_child(self, forked):
        def fail_first(run):
            if run[0] == 0:
                raise ValueError("first run")
            time.sleep(30)
            return run

        start = time.perf_counter()
        with pytest.raises(ValueError, match="first run"):
            core.ordered_map(fail_first, list(range(4)), 4)
        assert time.perf_counter() - start < 10
        assert len(forked) == 3
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
