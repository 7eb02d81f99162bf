import itertools
import math

import pytest

from propertyo import (
    BudgetExceededError,
    CensusOptions,
    OrientedHypergraph,
    census_property_o,
    check_property_o,
    cyclic_triangle,
    double_cycle_3graph,
    edge_minimality,
    enumerate_tournaments,
    is_consistent,
    merged_ten_edge_3graph,
    prove_vertex_lower_bound,
    tournament_census,
    validate,
)
from propertyo.search import (
    _census_unit,
    _coverage_masks,
    _tournament_from_counter,
    oriented_subset_tables,
    violating_order_for_counter,
)


class TestEnumerateTournaments:
    def test_counts_every_assignment(self):
        for n, k, expected in [(3, 2, 8), (4, 3, 1296)]:
            report = enumerate_tournaments(n, k, lambda t: True)
            assert report.total_enumerated == expected
            assert report.total_enumerated == math.factorial(k) ** math.comb(n, k)

    def test_tournaments_are_valid_and_complete(self):
        seen = []

        def visit(tournament):
            assert validate(tournament).ok
            assert len(tournament.edges) == math.comb(4, 3)
            seen.append(tournament.edges)
            return True

        enumerate_tournaments(4, 3, visit)
        assert len(set(seen)) == 1296

    def test_counter_order_first_tournament(self):
        first = []

        def visit(tournament):
            first.append(tournament)
            return False

        report = enumerate_tournaments(4, 2, visit)
        assert report.total_enumerated == 1
        # all-zero digits: every edge is the ascending tuple of its subset
        assert first[0].edges == tuple(
            tuple(s) for s in oriented_subset_tables(4, 2)[0]
        )

    def test_visitor_stop(self):
        count = [0]

        def visit(tournament):
            count[0] += 1
            return count[0] < 5

        report = enumerate_tournaments(3, 2, visit)
        assert report.total_enumerated == 5

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            enumerate_tournaments(9, 3, lambda t: True)

    def test_symmetry_pruning_visits_canonical_forms_only(self):
        plain = []
        pruned = []
        enumerate_tournaments(3, 2, lambda t: plain.append(t.edges) or True)
        enumerate_tournaments(
            3,
            2,
            lambda t: pruned.append(t.edges) or True,
            symmetry=True,
        )
        assert len(pruned) < len(plain)
        assert set(pruned) <= set(plain)


class TestCensusEngine:
    def test_matches_visitor_census_on_small_spaces(self):
        for n, k in [(3, 2), (4, 2), (4, 3)]:
            fast = census_property_o(n, k, stop_at_first=False)
            slow = tournament_census(n, k)
            assert fast.total_enumerated == slow.total_enumerated
            assert fast.property_o_found == slow.property_o_found
            assert fast.first_witness == slow.first_witness

    def test_exact_counts(self):
        # 2-tournaments on n vertices violate Property O exactly when they
        # are transitive; there are n! transitive ones
        for n in (3, 4, 5):
            report = census_property_o(n, 2, stop_at_first=False)
            total = 2 ** math.comb(n, 2)
            assert report.total_enumerated == total
            assert report.property_o_found == total - math.factorial(n)

    def test_first_witness_agrees_between_modes(self):
        for n, k in [(3, 2), (4, 2), (5, 2), (4, 3)]:
            stop = census_property_o(n, k, stop_at_first=True)
            full = census_property_o(n, k, stop_at_first=False)
            assert stop.first_witness == full.first_witness
            assert (full.property_o_found == 0) == (full.first_witness is None)

    def test_no_witness_on_4_3(self):
        report = census_property_o(4, 3, stop_at_first=True)
        assert report.property_o_found == 0
        assert report.first_witness is None
        assert report.total_enumerated == 6**4

    def test_partition_determinism(self):
        for partitions in (1, 4, 16):
            options = CensusOptions(parallel_partitions=partitions)
            report = census_property_o(4, 3, options, stop_at_first=True)
            baseline = census_property_o(4, 3, stop_at_first=True)
            assert report.matches(baseline), partitions

    def test_partition_determinism_with_witness(self):
        baseline = census_property_o(3, 2, stop_at_first=True)
        assert baseline.property_o_found == 1
        for partitions in (2, 4, 16):
            options = CensusOptions(parallel_partitions=partitions)
            report = census_property_o(3, 2, options, stop_at_first=True)
            assert report.matches(baseline), partitions

    def test_partition_determinism_full_count(self):
        for n, k in [(3, 2), (4, 2), (4, 3)]:
            base = census_property_o(n, k, stop_at_first=False)
            for partitions in (2, 3, 7, 16, 40):
                options = CensusOptions(parallel_partitions=partitions)
                report = census_property_o(n, k, options, stop_at_first=False)
                assert report.matches(base), (n, k, partitions)

    def test_partition_counts_and_witness_counters(self):
        # every partition reports its own range's counts and smallest
        # witness counter, not only the globally first witness
        n, k, depth = 4, 2, 3
        suffix = 2 ** (math.comb(n, k) - depth)
        for prefix in range(2**depth):
            counters = range(prefix * suffix, (prefix + 1) * suffix)
            witnesses = [
                c for c in counters if violating_order_for_counter(n, k, c) is None
            ]
            result = _census_unit((n, k, depth, prefix, prefix + 1, False, 0))
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

    def test_input_validation(self):
        with pytest.raises(ValueError):
            prove_vertex_lower_bound(2, 3)


class TestSymmetrySoundness:
    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3)])
    def test_pruned_census_agrees_on_existence(self, n, k):
        plain = tournament_census(n, k)
        pruned = tournament_census(n, k, symmetry=True)
        assert (plain.property_o_found > 0) == (pruned.property_o_found > 0)
        assert pruned.total_enumerated <= plain.total_enumerated

    def test_canonical_forms_expand_to_full_space(self):
        # every tournament must be a relabelling of some canonical form
        canonical = []
        tournament_ids = set()
        enumerate_tournaments(
            3,
            2,
            lambda t: canonical.append(t) or True,
            symmetry=True,
        )
        for tournament in canonical:
            for rho in itertools.permutations(range(3)):
                image = OrientedHypergraph(
                    2,
                    3,
                    tuple(tuple(rho[v] for v in e) for e in tournament.edges),
                )
                tournament_ids.add(frozenset(image.edges))
        assert len(tournament_ids) == 8


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
        census_property_o(4, 3, CensusOptions(progress_interval=500))
        err = capfd.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("examined=")]
        assert lines, err
        for line in lines:
            assert "found=" in line and "elapsed=" in line
