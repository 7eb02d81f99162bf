import ast
import collections
import functools
import inspect
import itertools
import math
import operator
import os
import pathlib
import random
import re
import time

import pytest

from propertyo import (
    BudgetExceededError,
    InternalError,
    OrientedHypergraph,
    census_property_o,
    check_property_o,
    cyclic_triangle,
    double_cycle_3graph,
    edge_minimality,
    is_consistent,
    merged_ten_edge_3graph,
    prove_vertex_lower_bound,
)
from propertyo import cover, search
from propertyo.search import (
    _census_unit,
    _cover_reach,
    _leader_prefixes,
    _tournament_from_counter,
)
from propertyo.core import oriented_subsets
from propertyo.cover import _coverage_masks


def violating_order_for_counter(n, k, counter):
    """A violating order of the counter's tournament, or None if it has
    Property O; used to spot-check census verdicts."""
    tournament = _tournament_from_counter(n, k, counter)
    return check_property_o(tournament, method="backtracking").violating_order


def _visitor_census(n, k):
    """Tests-only census: decide the counters in order with the
    backtracking decider, up to the first witness.  Returns (space size,
    first witness counter or None)."""
    space = math.factorial(k) ** math.comb(n, k)
    witnesses = (
        c for c in range(space) if violating_order_for_counter(n, k, c) is None
    )
    return space, next(witnesses, None)


def _every_prefix_walk(n, k):
    """The census walk without leader skipping: every first digit is a
    prefix.  Returns (decided, first witness counter or None)."""
    prefixes = [(o,) for o in range(math.factorial(k))]
    return _census_unit(_coverage_masks(n, k), 0, prefixes)


class TestCensusEngine:
    def test_matches_visitor_census_on_small_spaces(self):
        for n, k in [(3, 2), (4, 2), (4, 3)]:
            fast = census_property_o(n, k)
            space, first = _visitor_census(n, k)
            assert fast.total_enumerated == (space if first is None else first + 1)
            assert fast.property_o_found == (first is not None)
            assert fast.first_witness == (
                None if first is None else _tournament_from_counter(n, k, first)
            )

    def test_first_witness_agrees_between_modes(self):
        # the sweep skips non-leader prefixes; the every-prefix walk skips
        # nothing
        for n, k in [(3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (5, 3)]:
            decided, first = _every_prefix_walk(n, k)
            space = math.factorial(k) ** math.comb(n, k)
            assert (decided == space) == (first is None), (n, k)
            witness = None if first is None else _tournament_from_counter(n, k, first)
            for jobs in (1, 2, 3, 7, 40):
                sweep = census_property_o(n, k, jobs=jobs)
                assert sweep.first_witness == witness, (n, k, jobs)
                assert sweep.total_enumerated == (
                    space if first is None else first + 1
                ), (n, k, jobs)

    def test_few_subsets_walk_one_digit(self):
        # with C(n,k) <= k+1 the prefixes are the k! first digits: at (6,5)
        # all but one digit would be 120**5 prefixes
        for jobs in (1, 2):
            report = census_property_o(6, 5, jobs=jobs)
            assert report.total_enumerated == 120**6
            assert report.property_o_found == 0

    def test_every_admitted_space_ends(self):
        # a sweep ends at its first witness or after its last tournament;
        # every size the budgets admit ends within seconds, and every other
        # size is refused up front by the space or the mask-table budget
        admitted = []
        for k in range(2, 10):
            for n in range(k, 14):
                try:
                    search._check_space(n, k)
                    table_bytes = math.perm(n, k) * math.factorial(n) // 8
                    fits = table_bytes <= cover._MAX_MASK_BYTES
                except BudgetExceededError:
                    fits = False
                if not fits:
                    refusal = "^census (space|masks) "
                    with pytest.raises(BudgetExceededError, match=refusal):
                        census_property_o(n, k, jobs=1)
                    continue
                admitted.append((n, k))
                start = time.perf_counter()
                census_property_o(n, k, jobs=1)
                assert time.perf_counter() - start < 5, (n, k)
        assert (5, 3) in admitted and (10, 2) in admitted

    def test_property_o_found_is_read_off_the_witness(self):
        # not a field: 1 exactly when a witness is set
        assert "property_o_found" not in search.SearchReport.__slots__
        witness = census_property_o(3, 2)
        assert (witness.property_o_found, witness.first_witness is None) == (1, False)
        none = census_property_o(4, 3)
        assert (none.property_o_found, none.first_witness) == (0, None)

    def test_leaders_are_orbit_minima(self):
        # brute force: map the first k+1 subsets' edges by every
        # permutation of 0..k, with and without reversing each edge, and
        # keep the digit tuples that are the smallest of their orbit
        for n, k, count in [(5, 2, 2), (5, 3, 36)]:
            head = oriented_subsets(n, k)[: k + 1]
            index = {tuple(sorted(row[0])): t for t, row in enumerate(head)}
            minima = []
            for digits in itertools.product(range(math.factorial(k)), repeat=k + 1):
                orbit = []
                for rho in itertools.permutations(range(k + 1)):
                    for reverse in (False, True):
                        image = [0] * (k + 1)
                        for t, o in enumerate(digits):
                            edge = tuple(rho[v] for v in head[t][o])
                            if reverse:
                                edge = edge[::-1]
                            s = index[tuple(sorted(edge))]
                            image[s] = head[s].index(edge)
                        orbit.append(tuple(image))
                if digits == min(orbit):
                    minima.append(digits)
            assert _leader_prefixes(n, k) == minima, (n, k)
            assert len(minima) == count

    def test_workers_share_the_leader_prefixes(self, monkeypatch, tmp_path):
        # all 36 leader prefixes of (5, 3) have first digit 0: two workers
        # get 18 each, in counter order, not one counter range each
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        log = tmp_path / "runs"
        real_unit = search._census_unit

        def recording_unit(table, progress_interval, prefixes):
            # the second run is walked in a forked child, so every run is
            # logged to a file
            with open(log, "a") as f:
                f.write(repr(prefixes) + "\n")
            return real_unit(table, progress_interval, prefixes)

        monkeypatch.setattr(search, "_census_unit", recording_unit)
        report = census_property_o(5, 3, jobs=2)
        assert report.total_enumerated == 6**10
        leaders = _leader_prefixes(5, 3)
        assert len(leaders) == 36
        assert all(p[0] == 0 for p in leaders)
        runs = sorted(ast.literal_eval(line) for line in log.read_text().splitlines())
        assert runs == [leaders[:18], leaders[18:]]
        assert report.runs == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_caller_builds_the_one_table(self, monkeypatch, tmp_path, jobs):
        # forked workers inherit the calling process's table: one build per
        # census, whatever the run count
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        log = tmp_path / "builds"
        real_build = search._coverage_masks

        def logging_build(n, k):
            # a build in a forked child would log another pid
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            return real_build(n, k)

        monkeypatch.setattr(search, "_coverage_masks", logging_build)
        for n, k in [(5, 3), (8, 2)]:
            log.write_text("")
            report = census_property_o(n, k, jobs=jobs)
            assert report.runs == jobs
            assert log.read_text().split() == [str(os.getpid())], (n, k)

    @pytest.mark.parametrize("n, k, calls", [(5, 3, 10392), (6, 3, 11321)])
    def test_cover_reach_calls_regression(self, monkeypatch, n, k, calls):
        # deterministic work counters of the jobs=1 first-witness sweeps;
        # the (6, 3) witness lies under prefix 0000, so the leaders do not
        # change its walk
        count = 0
        real_reach = search._cover_reach

        def counting_reach(uncovered, rows):
            nonlocal count
            count += 1
            return real_reach(uncovered, rows)

        monkeypatch.setattr(search, "_cover_reach", counting_reach)
        census_property_o(n, k, jobs=1)
        assert count == calls

    def test_no_witness_on_4_3(self):
        report = census_property_o(4, 3)
        assert report.property_o_found == 0
        assert report.first_witness is None
        assert report.total_enumerated == 6**4

    def test_partition_determinism(self):
        for jobs in (1, 4, 16):
            report = census_property_o(4, 3, jobs=jobs)
            baseline = census_property_o(4, 3)
            assert report.matches(baseline), jobs

    def test_partition_determinism_with_witness(self):
        baseline = census_property_o(3, 2)
        assert baseline.property_o_found == 1
        for jobs in (2, 4, 16):
            report = census_property_o(3, 2, jobs=jobs)
            assert report.matches(baseline), jobs

    def test_partition_counts_and_witness_counters(self, monkeypatch):
        # every worker reports its own prefixes' first witness, with the
        # tournaments before it as decided, not only the globally first
        # witness; at (5, 2) the cover bound discards subtrees in bulk, and
        # each of their counters is checked on its own
        fired = []
        real_reach = search._cover_reach

        def recording_reach(uncovered, rows):
            reach = real_reach(uncovered, rows)
            fired.append(reach < uncovered.bit_count())
            return reach

        monkeypatch.setattr(search, "_cover_reach", recording_reach)
        for n, k, depth in [(4, 2, 3), (5, 2, 3)]:
            table = _coverage_masks(n, k)
            suffix = 2 ** (math.comb(n, k) - depth)
            for rank, prefix in enumerate(itertools.product(range(2), repeat=depth)):
                base = rank * suffix
                counters = range(base, base + suffix)
                first = next(
                    (c for c in counters if violating_order_for_counter(n, k, c) is None),
                    None,
                )
                result = _census_unit(table, 0, [prefix])
                expected = (suffix, None) if first is None else (first - base, first)
                assert result == expected, (n, k, prefix)
        assert any(fired)

    @pytest.mark.parametrize(
        "n, k, depths, samples",
        [(5, 3, (6, 7, 8), 40), (5, 2, (7, 8, 9), None)],
        ids=["5-3", "5-2"],
    )
    def test_cover_bound_against_every_completion(self, n, k, depths, samples):
        # the bound may fail to prune, but when it prunes no completion of
        # the remaining digits covers the prefix's uncovered orders
        masks, full = _coverage_masks(n, k)
        fact_k = math.factorial(k)
        rng = random.Random(8)
        outcomes = collections.Counter()
        for depth in depths:
            if samples is None:
                prefixes = itertools.product(range(fact_k), repeat=depth)
            else:
                prefixes = [
                    tuple(rng.randrange(fact_k) for _ in range(depth))
                    for _ in range(samples)
                ]
            rows = masks[depth:]
            for prefix in prefixes:
                uncovered = full
                for t, o in enumerate(prefix):
                    uncovered &= masks[t][o]
                size = uncovered.bit_count()
                covered = any(
                    uncovered & functools.reduce(operator.and_, choice) == 0
                    for choice in itertools.product(*rows)
                )
                # each orientation covers what its mask leaves out
                total = sum(
                    max((uncovered & ~mask).bit_count() for mask in row)
                    for row in rows
                )
                reach = _cover_reach(uncovered, rows)
                assert (reach >= size) == (total >= size), prefix
                cannot = reach < size
                assert not (cannot and covered), prefix
                outcomes[cannot, covered] += 1
        # the bound fires in both spaces; at (5, 3), where no tournament
        # has Property O, it also keeps prefixes that have no cover, and at
        # (5, 2) it keeps prefixes that have one
        assert outcomes[True, False] > 0
        assert outcomes[False, k == 2] > 0

    def test_census_recursion_does_no_io(self):
        # progress is written between prefixes, never from the walk itself
        unit = ast.parse(inspect.getsource(search._census_unit))
        rec = next(
            f for f in ast.walk(unit) if isinstance(f, ast.FunctionDef) and f.name == "rec"
        )
        offenders = []
        for node in ast.walk(rec):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            if (
                name == "print"
                or "progress" in name
                or ast.unparse(node.func).startswith(("sys.stderr", "sys.stdout"))
            ):
                offenders.append(ast.unparse(node))
        assert offenders == []

    def test_first_witness_is_smallest_counter(self):
        report = census_property_o(3, 2)
        counter = report.total_enumerated - 1
        # every smaller counter is a tournament without Property O
        for c in range(counter):
            assert violating_order_for_counter(3, 2, c) is not None
        assert violating_order_for_counter(3, 2, counter) is None
        assert _tournament_from_counter(3, 2, counter) == report.first_witness

    def test_witness_verifies_independently(self):
        report = census_property_o(3, 2)
        assert check_property_o(report.first_witness).holds

    def test_coverage_masks_popcounts(self):
        masks, full = _coverage_masks(4, 3)
        per_edge = math.factorial(4) - math.factorial(4) // math.factorial(3)
        for row in masks:
            common = full
            for mask in row:
                assert mask.bit_count() == per_edge
                assert mask & ~full == 0
                common &= mask
            assert common == 0


class TestVertexLowerBound:
    def test_early_reject_below_edge_bound(self):
        # C(n,3) <= 3! for n in {3, 4}: too few edges for Property O
        for n in (3, 4):
            report = prove_vertex_lower_bound(n, 3)
            assert report.property_o_found == 0
            assert report.total_enumerated == 0

    def test_edge_bound_shortcut_agrees_with_exact_counts(self, monkeypatch):
        pairs = [(n, k) for n in range(2, 200) for k in range(2, n + 1)]
        # near-ties, logs within 1e-12 of each other: below, and not below
        pairs += [(132967, 985), (491414, 1899)]
        exact = {(n, k): math.comb(n, k) <= math.factorial(k) for n, k in pairs}
        assert {p: search._below_edge_bound(*p) for p in pairs} == exact
        # every k up to the cap is counted exactly, so no float is read
        monkeypatch.setattr(search.math, "lgamma", lambda x: 0.0)
        assert {p: search._below_edge_bound(*p) for p in pairs} == exact

    def test_edge_bound_past_the_float_range(self):
        # n > k*k is answered without a count or a float however large n
        # is; a k past the cap with an n past lgamma's range is refused
        n = 10**309
        assert search._below_edge_bound(n, 5) is False
        assert search._below_edge_bound(n, 200) is False
        assert search._below_edge_bound(n, n) is True
        with pytest.raises(BudgetExceededError, match="too large to compare"):
            search._below_edge_bound(n, 10**200)

    def test_edge_bound_near_tie_past_the_cap_is_refused(self, monkeypatch):
        # k past the cap and n <= k*k: only the logs are left to compare
        monkeypatch.setattr(search.math, "lgamma", lambda x: 0.0)
        with pytest.raises(BudgetExceededError, match="too close to compare"):
            search._below_edge_bound(10**8, 20_000)

    @pytest.mark.parametrize(
        "n,k,below",
        [
            pytest.param(10**20, 10**6, False, id="10**20-10**6"),
            pytest.param(10**40, 10**20, None, id="10**40-10**20"),
            pytest.param(10**100, 10**12, False, id="10**100-10**12"),
            pytest.param(10**300, 10**100, False, id="10**300-10**100"),
            pytest.param(2 * 10**6, 10**6, True, id="2*10**6-10**6"),
        ],
    )
    def test_edge_bound_builds_no_factorial_past_the_cap(
        self, monkeypatch, n, k, below
    ):
        # None: refused; the logs of (10**40, 10**20) are too close to call
        factorial = math.factorial

        def capped(m):
            assert m <= search._EXACT_GATE_K, f"factorial({m})"
            return factorial(m)

        monkeypatch.setattr(search.math, "factorial", capped)
        if below is None:
            with pytest.raises(BudgetExceededError, match="too close"):
                search._below_edge_bound(n, k)
        else:
            assert search._below_edge_bound(n, k) is below

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

    def test_space_budget_is_the_exact_space(self):
        # refused exactly when (k!)^C(n,k) > 2^64; as k! >= 2, C(n,k) > 64
        # is over it without the power being built
        for n in range(2, 40):
            for k in range(2, n + 1):
                c = math.comb(n, k)
                over = c > 64 or math.factorial(k) ** c > 2**64
                try:
                    search._check_space(n, k)
                    refused = False
                except BudgetExceededError as exc:
                    refused = "census space" in str(exc)
                assert refused == over, (n, k)
        with pytest.raises(BudgetExceededError, match=r"\(k!\)\^C\(n,k\) ~ 2\^90\.5,"):
            search._check_space(7, 3)  # 6^35

    @pytest.fixture
    def no_masks(self, monkeypatch):
        def no_mask(j, ranks):
            raise AssertionError("mask built")

        monkeypatch.setattr(cover, "_edge_mask", no_mask)

    def test_mask_budget_refusal(self, no_masks):
        # 2^55 tournaments fit the space budget, but the 110 uncovered-order
        # masks of 11! bits (523 MiB) do not; refused before any is built
        with pytest.raises(BudgetExceededError, match="^census masks take 523 MiB, over the 64 MiB budget$"):
            prove_vertex_lower_bound(11, 2)

    def test_mask_budget_refuses_8_8_which_the_edge_bound_answers(self, no_masks):
        # one 8-subset: its 8! orientation masks of 8! bits take 193 MiB
        with pytest.raises(BudgetExceededError, match="^census masks take 193 MiB, over the 64 MiB budget$"):
            census_property_o(8, 8)
        report = prove_vertex_lower_bound(8, 8)
        assert (report.total_enumerated, report.property_o_found) == (0, 0)
        assert report.runs == 0

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

    def test_consistent_witness_raises_internal_error(self, monkeypatch):
        # the full graph keeps its real verdict; each reduced graph gets the
        # identity order, which edge (0, 2, 5) or (0, 1, 2) is consistent with
        graph = merged_ten_edge_3graph()
        real = cover._exhaustive_search

        def kernel(g):
            return real(g) if g == graph else (tuple(range(g.n)), 1)

        monkeypatch.setattr(cover, "_exhaustive_search", kernel)
        with pytest.raises(InternalError, match="consistent with reported"):
            edge_minimality(graph)


class TestFiveVertexSpotChecks:
    def test_random_counters_all_violated(self):
        # independent re-verification of census verdicts: any sample of the
        # (5, 3) space must consist of tournaments with violating orders
        from propertyo.montecarlo import value_at

        space = 6 ** math.comb(5, 3)
        for t in range(500):
            counter = value_at(31337, t) % space
            tournament = _tournament_from_counter(5, 3, counter)
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


def _plain_signature(func):
    """The signature as the README writes it: no annotations."""
    sig = inspect.signature(func)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return sig.replace(parameters=params, return_annotation=sig.empty)


@pytest.mark.parametrize("func", [census_property_o, prove_vertex_lower_bound])
def test_readme_signature_is_the_real_one(func):
    # the README spells out these signatures in full; a changed parameter
    # must change it too
    readme = (
        pathlib.Path(__file__).resolve().parent.parent / "README.md"
    ).read_text()
    spelled = re.findall(rf"`{func.__name__}(\([^`]*\))`", readme)
    assert spelled, func.__name__
    assert set(spelled) == {str(_plain_signature(func))}
