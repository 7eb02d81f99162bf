import hashlib
import itertools
import math
import warnings

import pytest

from propertyo import (
    BudgetExceededError,
    OrientedHypergraph,
    check_property_o,
    estimate_property_o_rate,
    prove_vertex_lower_bound,
    random_tournament,
)
from propertyo.core import _memo_edge_mask, colex_subsets, unrank_permutation
from propertyo import montecarlo
from propertyo.montecarlo import mix64, value_at


class TestGenerator:
    def test_mix64_is_stable(self):
        # pinned outputs keep the stream portable across platforms
        assert mix64(0) == 0
        assert mix64(1) == 6238072747940578789
        assert mix64(0x9E3779B97F4A7C15) == 16294208416658607535
        assert value_at(0, 0) == 16294208416658607535

    def test_matches_published_splitmix64_vectors(self):
        # the first outputs of the splitmix64 stream seeded with 1234567
        assert [value_at(1234567, i) for i in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_values_are_64_bit(self):
        for i in range(100):
            v = value_at(123456789, i)
            assert 0 <= v < 2**64

    def test_stream_decorrelates_indices(self):
        values = {value_at(42, i) for i in range(1000)}
        assert len(values) == 1000


class TestRandomTournament:
    def test_is_a_tournament(self):
        t = random_tournament(6, 3, 987)
        assert len(t.edges) == math.comb(6, 3)
        assert len({frozenset(e) for e in t.edges}) == math.comb(6, 3)

    def test_deterministic(self):
        assert random_tournament(6, 3, 987) == random_tournament(6, 3, 987)
        assert random_tournament(6, 3, 987) != random_tournament(6, 3, 988)

    def test_orientation_frequencies(self):
        # fixed pair {0,1} at n=4, k=2 over 6000 seeded samples
        base = 1000
        ascending = 0
        for s in range(6000):
            t = random_tournament(4, 2, value_at(base, s))
            if t.edges[0] == (0, 1):
                ascending += 1
        assert abs(ascending / 6000 - 0.5) <= 0.02

    def test_matches_unranked_orientations(self):
        # the documented draw: subset i (colex) gets the permutation of the
        # sorted subset whose lexicographic rank is value_at(seed, i) mod k!
        # (a seed outside 0..2**64-1 is taken mod 2**64)
        for n, k, seed in [
            (5, 2, 3), (6, 3, 987), (7, 4, 11), (6, 3, 2**64 - 1), (6, 3, -5)
        ]:
            expected = tuple(
                unrank_permutation(value_at(seed, i) % math.factorial(k), s)
                for i, s in enumerate(colex_subsets(n, k))
            )
            assert random_tournament(n, k, seed).edges == expected

    def test_input_validation(self):
        with pytest.raises(ValueError):
            random_tournament(2, 3, 1)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            # C(200, 3) = 1,313,400 subsets, over the 1,000,000 budget
            random_tournament(200, 3, 1)


class TestRateEstimation:
    def test_calibration_on_3_2(self):
        # true rate is 2/8: among the eight 2-tournaments on 3 vertices only
        # the two cyclic triangles have Property O
        summary = estimate_property_o_rate(3, 2, 1000, 2026)
        assert summary.successes == 263
        assert abs(summary.rate - 0.25) <= 0.05

    def test_true_rate_by_full_enumeration(self):
        # the 8 2-tournaments on 3 vertices, one orientation per pair
        pairs = [((a, b), (b, a)) for a, b in itertools.combinations(range(3), 2)]
        tournaments = [
            OrientedHypergraph(2, 3, edges) for edges in itertools.product(*pairs)
        ]
        assert len(tournaments) == 8
        holds = sum(check_property_o(t).holds for t in tournaments)
        assert holds / len(tournaments) == 0.25

    def test_zero_rate_matches_census(self):
        # spaces where the census reports zero must estimate exactly zero
        assert prove_vertex_lower_bound(4, 3).property_o_found == 0
        assert estimate_property_o_rate(4, 3, 300, 99).successes == 0
        summary = estimate_property_o_rate(5, 3, 500, 99)
        assert summary.successes == 0
        assert summary.rate == 0.0

    def test_worker_count_invariance(self):
        # jobs=3 splits the trials unevenly; 8 jobs over 5 trials leaves
        # more workers than trials.  (9,3) trials are decided by the search,
        # the others on memoised masks
        for n, k, trials, seed, jobs in [
            (3, 2, 1000, 2026, 8), (3, 2, 1000, 2026, 3), (3, 2, 5, 2026, 8),
            (7, 3, 500, 1, 2), (7, 3, 500, 1, 3), (8, 3, 200, 1, 2),
            (8, 3, 200, 1, 3), (9, 3, 30, 1, 2), (9, 3, 30, 1, 3),
        ]:
            serial = estimate_property_o_rate(n, k, trials, seed, jobs=1)
            parallel = estimate_property_o_rate(n, k, trials, seed, jobs=jobs)
            assert serial == parallel, (n, k, trials, jobs)

    def test_summary_fields(self):
        summary = estimate_property_o_rate(4, 2, 200, 7)
        assert summary.trials == 200
        assert 0 <= summary.successes <= 200
        assert summary.rate == summary.successes / 200
        expected_se = math.sqrt(summary.rate * (1 - summary.rate) / 200)
        assert summary.standard_error == pytest.approx(expected_se)
        assert summary.seed == 7

    def test_rate_regression_6_3(self):
        # seeded regression values, measured once and frozen; nothing at
        # n >= 6 has an a-priori expected rate
        summary = estimate_property_o_rate(6, 3, 2000, 555, jobs=2)
        assert summary.successes == 11
        large = estimate_property_o_rate(6, 3, 10000, 555, jobs=2)
        assert large.successes == 48
        assert large.rate == 0.0048

    def test_seed_1_sample_work_regression(self, monkeypatch):
        # the trials of `sample --n 7 --k 3 --trials 500 --seed 1` and
        # `--n 8 ... --trials 200`: their successes, the search's placements
        # over them and a sha256 of the repr of the list of their edge
        # tuples, trial by trial.  Each trial is exactly one
        # montecarlo.check_property_o call on its own tournament, the rule a
        # wrapper of that name relies on to record the trials.  Sampling
        # decides these sizes on the exhaustive cover, so every recorded
        # tournament is decided again by the search, the independent path
        calls = []

        def recording(graph, method):
            cert = check_property_o(graph, method)
            calls.append((graph, method, cert))
            return cert

        monkeypatch.setattr(montecarlo, "check_property_o", recording)
        successes, placements, edges = [], 0, []
        for n, trials in [(7, 500), (8, 200)]:
            calls.clear()
            summary = estimate_property_o_rate(n, 3, trials, 1)
            tournaments = [
                random_tournament(n, 3, value_at(1, t)) for t in range(trials)
            ]
            assert [graph for graph, _, _ in calls] == tournaments
            assert {method for _, method, _ in calls} == {"exhaustive"}
            assert summary.successes == sum(cert.holds for _, _, cert in calls)
            for graph, _, cert in calls:
                search = check_property_o(graph, method="backtracking")
                assert search.holds == cert.holds
                placements += search.nodes_expanded
            successes.append(summary.successes)
            edges += [graph.edges for graph in tournaments]
        assert successes == [95, 144]
        assert placements == 104_322
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == (
            "3a589567d2ed8c64e08fc7e58bfed2627a8ed37607bd8b520be5442dba6a22b7"
        )

    @pytest.mark.parametrize(
        "n, k, method",
        [
            (6, 3, "exhaustive"),
            (7, 3, "exhaustive"),
            (8, 3, "exhaustive"),
            # 9 vertices: the whole-graph masks are not memoised
            (9, 3, "backtracking"),
            # sizes where the masks were measured slower than the search
            (8, 2, "backtracking"),
            (7, 4, "backtracking"),
            (8, 5, "backtracking"),
            (8, 6, "backtracking"),
        ],
    )
    def test_trial_decider_and_mask_memo(self, monkeypatch, n, k, method):
        # from an empty mask memo, search trials add nothing to it, and
        # exhaustive trials leave their whole-graph masks in it
        methods = []

        def recording(graph, method):
            methods.append(method)
            return check_property_o(graph, method)

        monkeypatch.setattr(montecarlo, "check_property_o", recording)
        _memo_edge_mask.cache_clear()
        estimate_property_o_rate(n, k, 5, 1)
        assert methods == [method] * 5
        if method == "backtracking":
            assert _memo_edge_mask.cache_info().currsize == 0
        else:
            edge = random_tournament(n, k, value_at(1, 4)).edges[0]
            misses = _memo_edge_mask.cache_info().misses
            _memo_edge_mask(n, edge)
            assert _memo_edge_mask.cache_info().misses == misses

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            estimate_property_o_rate(3, 2, 0, 1)

    def test_draw_budget(self, monkeypatch):
        # trials * C(n,k) over 10**6 is refused before any trial is dealt;
        # an invalid (n, k) is still invalid input, whatever the trials
        monkeypatch.setattr(montecarlo, "ordered_map", lambda func, items, jobs: [0])
        assert estimate_property_o_rate(7, 3, 10**6 // 35, 1).successes == 0
        for n, trials in [(7, 10**6 // 35 + 1), (7, 10**18), (5000, 1)]:
            with pytest.raises(BudgetExceededError, match="1000000-draw budget"):
                estimate_property_o_rate(n, 3, trials, 1)
        with pytest.raises(ValueError):
            estimate_property_o_rate(2, 3, 10**18, 1)

    def test_successes_verify_individually(self):
        summary = estimate_property_o_rate(6, 3, 300, 321)
        recount = 0
        for t in range(300):
            tournament = random_tournament(6, 3, value_at(321, t))
            if check_property_o(tournament, method="backtracking").holds:
                recount += 1
        assert recount == summary.successes


class TestMonotonicityProbe:
    def test_rate_grows_with_vertices_k3(self):
        # statistical probe: flag (warn), never fail, on a breach
        trials = {5: 300, 6: 300, 7: 200, 8: 150}
        rates = {}
        errors = {}
        for n, t in trials.items():
            summary = estimate_property_o_rate(n, 3, t, 4242)
            rates[n] = summary.rate
            errors[n] = summary.standard_error
        for n in (5, 6, 7):
            combined = 3.0 * math.hypot(errors[n], errors[n + 1])
            if rates[n + 1] < rates[n] - combined:
                warnings.warn(
                    f"Property O rate dropped from n={n} ({rates[n]:.4f}) to "
                    f"n={n + 1} ({rates[n + 1]:.4f}) beyond {combined:.4f}"
                )
