import itertools
import math

import pytest

from propertyo import (
    BudgetExceededError,
    OrientedHypergraph,
    census_property_o,
    check_property_o,
    cyclic_triangle,
    double_cycle_3graph,
    edge_minimality,
    is_consistent,
    merged_ten_edge_3graph,
    prove_vertex_lower_bound,
    validate,
)
from propertyo import search
from propertyo.search import (
    _census_unit,
    _coverage_masks,
    _is_leader,
    _leader_tables,
    _tournament_from_counter,
    oriented_subset_tables,
    violating_order_for_counter,
)


def _visitor_census(n, k):
    """Tests-only census: decide every counter with the backtracking
    decider.  Returns (space size, witness count, first witness counter)."""
    space = math.factorial(k) ** math.comb(n, k)
    witnesses = [
        c for c in range(space) if violating_order_for_counter(n, k, c) is None
    ]
    return space, len(witnesses), min(witnesses, default=None)


class TestCensusEngine:
    def test_matches_visitor_census_on_small_spaces(self):
        for n, k in [(3, 2), (4, 2), (4, 3)]:
            fast = census_property_o(n, k, stop_at_first=False)
            space, found, first = _visitor_census(n, k)
            assert fast.total_enumerated == space
            assert fast.property_o_found == found
            assert fast.first_witness == (
                None if first is None else _tournament_from_counter(n, k, first)
            )

    def test_exact_counts(self):
        # 2-tournaments on n vertices violate Property O exactly when they
        # are transitive; there are n! transitive ones
        for n in (3, 4, 5):
            report = census_property_o(n, 2, stop_at_first=False)
            total = 2 ** math.comb(n, 2)
            assert report.total_enumerated == total
            assert report.property_o_found == total - math.factorial(n)

    def test_first_witness_agrees_between_modes(self):
        # the first-witness sweep skips non-leader prefixes; the full count
        # skips nothing
        for n, k in [(3, 2), (4, 2), (5, 2), (6, 2), (4, 3)]:
            full = census_property_o(n, k, stop_at_first=False)
            assert (full.property_o_found == 0) == (full.first_witness is None)
            for jobs in (1, 2, 3, 7, 40):
                stop = census_property_o(n, k, jobs=jobs, stop_at_first=True)
                assert stop.first_witness == full.first_witness, (n, k, jobs)

    def test_leaders_are_orbit_minima(self):
        # brute force: relabel the first k+1 subsets' edges by every
        # permutation of 0..k and keep the smallest digit tuple
        for n, k, leaders in [(5, 2, 2), (5, 3, 60)]:
            _, oriented = oriented_subset_tables(n, k)
            head = oriented[: k + 1]
            index = {tuple(sorted(row[0])): t for t, row in enumerate(head)}
            tables = _leader_tables(n, k)
            count = 0
            for digits in itertools.product(range(math.factorial(k)), repeat=k + 1):
                orbit = []
                for rho in itertools.permutations(range(k + 1)):
                    image = [0] * (k + 1)
                    for t, o in enumerate(digits):
                        edge = tuple(rho[v] for v in head[t][o])
                        s = index[tuple(sorted(edge))]
                        image[s] = head[s].index(edge)
                    orbit.append(tuple(image))
                minimal = digits == min(orbit)
                assert _is_leader(digits, tables) == minimal, (n, k, digits)
                count += minimal
            assert count == leaders

    def test_workers_share_the_leader_prefixes(self, monkeypatch):
        # all 60 leader prefixes of (5, 3) have first digit 0: two workers
        # get 30 each, in counter order, not one counter range each
        tasks = []
        real_map = search.ordered_map

        def recording_map(func, work, jobs, until=None):
            tasks.extend(work)
            return real_map(func, work, 1, until)

        monkeypatch.setattr(search, "ordered_map", recording_map)
        report = census_property_o(5, 3, jobs=2)
        assert report.total_enumerated == 6**10
        tables = _leader_tables(5, 3)
        leaders = [
            p
            for p in itertools.product(range(6), repeat=4)
            if _is_leader(p, tables)
        ]
        assert len(leaders) == 60
        assert [task[2] for task in tasks] == [leaders[:30], leaders[30:]]

    def test_no_witness_on_4_3(self):
        report = census_property_o(4, 3, stop_at_first=True)
        assert report.property_o_found == 0
        assert report.first_witness is None
        assert report.total_enumerated == 6**4

    def test_partition_determinism(self):
        for jobs in (1, 4, 16):
            report = census_property_o(4, 3, jobs=jobs, stop_at_first=True)
            baseline = census_property_o(4, 3, stop_at_first=True)
            assert report.matches(baseline), jobs

    def test_partition_determinism_with_witness(self):
        baseline = census_property_o(3, 2, stop_at_first=True)
        assert baseline.property_o_found == 1
        for jobs in (2, 4, 16):
            report = census_property_o(3, 2, jobs=jobs, stop_at_first=True)
            assert report.matches(baseline), jobs

    def test_partition_determinism_full_count(self):
        for n, k in [(3, 2), (4, 2), (4, 3)]:
            base = census_property_o(n, k, stop_at_first=False)
            for jobs in (2, 3, 7, 16, 40):
                report = census_property_o(n, k, jobs=jobs, stop_at_first=False)
                assert report.matches(base), (n, k, jobs)

    def test_partition_counts_and_witness_counters(self):
        # every worker reports its own prefixes' counts and smallest
        # witness counter, not only the globally first witness
        n, k, depth = 4, 2, 3
        suffix = 2 ** (math.comb(n, k) - depth)
        for rank, prefix in enumerate(itertools.product(range(2), repeat=depth)):
            counters = range(rank * suffix, (rank + 1) * suffix)
            witnesses = [
                c for c in counters if violating_order_for_counter(n, k, c) is None
            ]
            result = _census_unit((n, k, [prefix], False, 0))
            assert result == (suffix, len(witnesses), min(witnesses, default=None))

    def test_first_witness_is_smallest_counter(self):
        report = census_property_o(3, 2, stop_at_first=True)
        counter = report.total_enumerated - 1
        # every smaller counter is a tournament without Property O
        for c in range(counter):
            assert violating_order_for_counter(3, 2, c) is not None
        assert violating_order_for_counter(3, 2, counter) is None
        assert _tournament_from_counter(3, 2, counter) == report.first_witness

    def test_witness_verifies_independently(self):
        report = census_property_o(3, 2, stop_at_first=True)
        assert check_property_o(report.first_witness).holds

    def test_coverage_masks_popcounts(self):
        masks, full = _coverage_masks(4, 3)
        per_edge = math.factorial(4) // math.factorial(3)
        for row in masks:
            union = 0
            for mask in row:
                assert mask.bit_count() == per_edge
                union |= mask
            assert union == full


class TestVertexLowerBound:
    def test_early_reject_below_edge_bound(self):
        # C(n,3) <= 3! for n in {3, 4}: too few edges for Property O
        for n in (3, 4):
            report = prove_vertex_lower_bound(n, 3)
            assert report.property_o_found == 0
            assert report.total_enumerated == 0

    def test_lower_bound_consistency_k3(self):
        results = [prove_vertex_lower_bound(n, 3).property_o_found for n in (3, 4)]
        assert results == [0, 0]

    def test_witness_found_on_3_2(self):
        report = prove_vertex_lower_bound(3, 2)
        assert report.property_o_found == 1
        assert check_property_o(report.first_witness).holds

    def test_witness_found_on_6_3(self):
        report = prove_vertex_lower_bound(6, 3)
        assert report.property_o_found == 1
        witness = report.first_witness
        assert len(witness.edges) == math.comb(6, 3)
        assert check_property_o(witness, method="backtracking").holds

    def test_space_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            prove_vertex_lower_bound(7, 3)

    def test_mask_budget_refusal(self):
        # 2^55 tournaments fit the space budget, but the 220 masks of
        # 11! bits (1 GiB) do not; refused before any mask is built
        with pytest.raises(BudgetExceededError, match="MiB"):
            prove_vertex_lower_bound(11, 2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            prove_vertex_lower_bound(2, 3)


class TestEdgeMinimality:
    def test_merged_ten_edge_all_essential(self):
        report = edge_minimality(merged_ten_edge_3graph())
        assert report.all_essential
        assert report.essential_count == 10
        for verdict in report.verdicts:
            assert verdict.witness is not None

    def test_cyclic_triangle_all_essential(self):
        report = edge_minimality(cyclic_triangle())
        assert report.all_essential

    def test_double_cycle_verdicts_regression(self):
        report = edge_minimality(double_cycle_3graph())
        assert [v.essential for v in report.verdicts] == [True] * 18

    def test_witnesses_are_violating(self):
        graph = merged_ten_edge_3graph()
        report = edge_minimality(graph)
        for verdict in report.verdicts:
            reduced_edges = (
                graph.edges[: verdict.index] + graph.edges[verdict.index + 1 :]
            )
            assert all(
                not is_consistent(e, verdict.witness) for e in reduced_edges
            )

    def test_redundant_edges_detected(self):
        base = merged_ten_edge_3graph()
        # {0, 2, 3} is an unused underlying set: adding it keeps Property O
        # and the addition is redundant
        extended = OrientedHypergraph(3, 6, base.edges + ((0, 2, 3),))
        report = edge_minimality(extended)
        assert not report.verdicts[-1].essential

    def test_rejects_inputs_without_property_o(self):
        with pytest.raises(ValueError):
            edge_minimality(OrientedHypergraph(2, 3, ((0, 1),)))


class TestFiveVertexSpotChecks:
    def test_random_counters_all_violated(self):
        # independent re-verification of census verdicts: any sample of the
        # (5, 3) space must consist of tournaments with violating orders
        from propertyo.montecarlo import value_at

        space = 6 ** math.comb(5, 3)
        for t in range(500):
            counter = value_at(31337, t) % space
            tournament = _tournament_from_counter(5, 3, counter)
            assert validate(tournament).ok
            order = violating_order_for_counter(5, 3, counter)
            assert order is not None
            assert all(not is_consistent(e, order) for e in tournament.edges)


class TestProgressReporting:
    def test_progress_lines_on_stderr(self, capfd):
        census_property_o(4, 3, progress_interval=500)
        err = capfd.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("examined=")]
        assert lines, err
        for line in lines:
            assert "found=" in line and "elapsed=" in line
