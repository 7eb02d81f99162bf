"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and runtime
budget and prints one `criterion NN PASS/FAIL` line (visible with -s, or in
captured output otherwise).
"""

import itertools
import math
import time
from contextlib import contextmanager

from propertyo import (
    BACKTRACKING,
    EXHAUSTIVE,
    OrientedHypergraph,
    census_property_o,
    check_property_o,
    cyclic_triangle,
    double_cycle_3graph,
    edge_minimality,
    estimate_property_o_rate,
    general_construction,
    is_consistent,
    lower_bound_audit,
    merged_ten_edge_3graph,
    min_edges_lower_bound,
    min_edges_upper_bound,
    prove_vertex_lower_bound,
    random_tournament,
    reverse,
    structured_coverage_check,
    support_restriction,
    ten_edge_3graph,
)
from propertyo import cover, search
from propertyo.montecarlo import value_at


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {label}")
        raise
    print(f"criterion {number:02d} PASS: {label}")


def test_criterion_01_ten_edge_graph_verifies_exhaustively():
    with criterion(1, "10-edge 3-graph on 8 vertices verifies over all 8! orders"):
        graph = ten_edge_3graph()
        assert len(graph.edges) == 10
        assert graph.n == 8
        start = time.perf_counter()
        cert = check_property_o(graph, method="exhaustive")
        elapsed = time.perf_counter() - start
        assert cert.holds
        assert cert.orders_examined == 40320
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_six_vertex_graphs_verify():
    with criterion(2, "both 6-vertex graphs verify over all 720 orders"):
        for graph, edge_count in [
            (double_cycle_3graph(), 18),
            (merged_ten_edge_3graph(), 10),
        ]:
            assert graph.n == 6
            assert len(graph.edges) == edge_count
            start = time.perf_counter()
            cert = check_property_o(graph, method="exhaustive")
            elapsed = time.perf_counter() - start
            assert cert.holds
            assert cert.orders_examined == 720
            assert elapsed < 0.1, f"took {elapsed:.2f}s"


def test_criterion_03_five_vertex_census():
    with criterion(3, "no 3-tournament on 5 vertices has Property O (6^10 census)"):
        start = time.perf_counter()
        report = prove_vertex_lower_bound(5, 3, jobs=8)
        elapsed = time.perf_counter() - start
        assert report.total_enumerated == 6**10 == 60466176
        assert report.property_o_found == 0
        assert report.first_witness is None
        assert elapsed < 1800.0, f"took {elapsed:.0f}s"

        # the verdict above skips non-leader prefixes; the walk under every
        # prefix of the first four digits decides every tournament and must
        # agree
        every_prefix = list(itertools.product(range(6), repeat=4))
        table = cover._coverage_masks(5, 3)
        assert search._census_unit(table, 0, every_prefix) == (6**10, None)

        # determinism: identical reports with 1 and 8 workers on the n=4
        # census, both at the lower-bound wrapper and at the engine level
        wrapped_1 = prove_vertex_lower_bound(4, 3, jobs=1)
        wrapped_8 = prove_vertex_lower_bound(4, 3, jobs=8)
        assert wrapped_1.matches(wrapped_8)
        engine_1 = census_property_o(4, 3, jobs=1)
        engine_8 = census_property_o(4, 3, jobs=8)
        assert engine_1.matches(engine_8)
        assert engine_1.total_enumerated == 6**4


def test_criterion_04_edge_count_formula_matches_construction():
    with criterion(4, "closed-form edge count equals the construction for k=3..7"):
        start = time.perf_counter()
        expected = {3: 10, 4: 60, 5: 312, 6: 2520, 7: 18000}
        for k in range(3, 8):
            half = k // 2
            difference_form = (half + 1) * math.factorial(k) - half * math.factorial(
                k - 1
            )
            product_form = ((k - 1) * (half + 1) + 1) * math.factorial(k - 1)
            value = min_edges_upper_bound(k)
            assert value == difference_form == product_form == expected[k]
            assert len(general_construction(k).edges) == value
        assert time.perf_counter() - start < 1.0


def test_criterion_05_structured_case_coverage():
    with criterion(5, "structured case coverage certifies the construction, k=3..7"):
        start = time.perf_counter()
        for k in range(3, 8):
            report = structured_coverage_check(general_construction(k))
            assert report.ok, (k, report.problems)
            assert report.cases == math.factorial(k - 1) * (1 + (k - 1) * (k + 1))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_05_stretch_backtracking_agrees_at_k4():
    with criterion(5, "stretch: order search agrees with the case analysis at k=4"):
        start = time.perf_counter()
        order = check_property_o(general_construction(4), BACKTRACKING).violating_order
        elapsed = time.perf_counter() - start
        assert order is None
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_06_minimum_edges_for_pairs():
    with criterion(6, "3 edges are necessary and sufficient at k=2"):
        start = time.perf_counter()
        assert check_property_o(cyclic_triangle()).holds
        assert len(cyclic_triangle().edges) == 3

        # no oriented 2-graph with fewer edges has Property O; two edges
        # span at most 4 support vertices, so labelled graphs on 4 vertices
        # cover every case after support restriction
        assert not check_property_o(OrientedHypergraph(2, 2, ())).holds
        subsets = list(itertools.combinations(range(4), 2))
        for s in subsets:
            for edge in itertools.permutations(s):
                single = support_restriction(OrientedHypergraph(2, 4, (edge,)))
                assert not check_property_o(single).holds
        for s1, s2 in itertools.combinations(subsets, 2):
            for e1 in itertools.permutations(s1):
                for e2 in itertools.permutations(s2):
                    pair = support_restriction(
                        OrientedHypergraph(2, 4, (e1, e2))
                    )
                    assert not check_property_o(pair).holds
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_07_lower_bound_audit_values():
    with criterion(7, "base-edge audit reproduces the frozen class sizes"):
        graph = ten_edge_3graph()
        report = lower_bound_audit(graph, 0)
        assert report.class_sizes == (1, 3, 0, 3, 0, 3, 0, 0, 6, 0)
        assert report.total == 16
        assert report.class_sizes[0] == 1
        assert report.min_coverage >= 1
        fact_k = math.factorial(graph.k)
        for size, m in zip(report.class_sizes, report.intersection_sizes):
            assert size in (0, fact_k // math.factorial(m))

        # independent oracle: rebuild every sigma-order by hand and count
        base = graph.edges[0]
        mapping = {v: i for i, v in enumerate(base)}
        for offset, v in enumerate(sorted(set(range(graph.n)) - set(base))):
            mapping[v] = graph.k + offset
        relabeled = [tuple(mapping[v] for v in e) for e in graph.edges]
        recount = [0] * len(relabeled)
        for sigma in itertools.permutations(range(graph.k)):
            order = sigma + tuple(range(graph.k, graph.n))
            for i, e in enumerate(relabeled):
                if is_consistent(e, order):
                    recount[i] += 1
        assert tuple(recount) == report.class_sizes


def test_criterion_08_edge_lower_bound_witnesses():
    with criterion(8, "no Property O instance at or below k! edges"):
        start = time.perf_counter()
        for graph in [
            cyclic_triangle(),
            ten_edge_3graph(),
            double_cycle_3graph(),
            merged_ten_edge_3graph(),
            general_construction(3),
        ]:
            assert check_property_o(graph).holds
            assert len(graph.edges) >= min_edges_lower_bound(graph.k)

        # every 6-edge subgraph of the merged 10-edge graph (210 subsets)
        # admits a violating order: 3! edges are never enough
        base = merged_ten_edge_3graph()
        for chosen in itertools.combinations(base.edges, 6):
            subgraph = OrientedHypergraph(3, 6, chosen)
            assert check_property_o(subgraph, EXHAUSTIVE).violating_order is not None
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_09_decider_agreement_corpus():
    with criterion(9, "exhaustive and backtracking deciders agree on 200+ instances"):
        start = time.perf_counter()
        corpus = []
        primaries = [
            cyclic_triangle(),
            ten_edge_3graph(),
            double_cycle_3graph(),
            merged_ten_edge_3graph(),
            general_construction(3),
        ]
        for graph in primaries:
            corpus.append(graph)
            corpus.append(reverse(graph))
        for graph in primaries + [reverse(g) for g in primaries]:
            for i in range(len(graph.edges)):
                corpus.append(
                    OrientedHypergraph(
                        graph.k, graph.n, graph.edges[:i] + graph.edges[i + 1 :]
                    )
                )
        shapes = [(4, 2), (5, 2), (6, 2), (4, 3), (5, 3), (6, 3), (7, 3)]
        for t in range(100):
            n, k = shapes[t % len(shapes)]
            corpus.append(random_tournament(n, k, value_at(20260808, t)))
        assert len(corpus) >= 200

        for graph in corpus:
            exhaustive = check_property_o(graph, EXHAUSTIVE).violating_order
            backtracked = check_property_o(graph, BACKTRACKING).violating_order
            assert (exhaustive is None) == (backtracked is None)
            for order in (exhaustive, backtracked):
                if order is not None:
                    assert all(not is_consistent(e, order) for e in graph.edges)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_10_merged_graph_is_edge_minimal():
    with criterion(10, "all 10 edges of the merged 6-vertex graph are essential"):
        start = time.perf_counter()
        graph = merged_ten_edge_3graph()
        report = edge_minimality(graph)
        assert report.all_essential
        assert report.essential_count == 10
        for verdict in report.verdicts:
            reduced = graph.edges[: verdict.index] + graph.edges[verdict.index + 1 :]
            assert all(not is_consistent(e, verdict.witness) for e in reduced)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_11_monte_carlo_calibration():
    with criterion(11, "Monte Carlo rate at (3,2) matches the enumerated 2/8"):
        summary = estimate_property_o_rate(3, 2, 1000, 2026)
        assert abs(summary.rate - 0.25) <= 0.05

        # the true rate, by full enumeration of the 8 tournaments
        holds = 0
        for counter in range(8):
            digits = [(counter >> (2 - t)) & 1 for t in range(3)]
            subsets = list(itertools.combinations(range(3), 2))
            edges = tuple(
                s if d == 0 else (s[1], s[0]) for s, d in zip(subsets, digits)
            )
            if check_property_o(OrientedHypergraph(2, 3, edges)).holds:
                holds += 1
        assert holds / 8 == 0.25

        parallel = estimate_property_o_rate(3, 2, 1000, 2026, jobs=8)
        assert parallel == summary
