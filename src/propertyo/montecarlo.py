"""Seeded random k-tournaments and Property O rate estimation.

All randomness comes from one documented 64-bit construction so that every
result is bit-identical across platforms and worker counts:

    mix64(x): the splitmix64 finaliser
        x ^= x >> 30;  x *= 0xBF58476D1CE4E5B9   (mod 2^64)
        x ^= x >> 27;  x *= 0x94D049BB133111EB   (mod 2^64)
        x ^= x >> 31
    value_at(seed, i) = mix64((seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64)

A random tournament draws, for the subset with colex index i, the
orientation ``value_at(seed, i) mod k!`` and unranks it to the permutation
of the sorted subset with that lexicographic rank (no rejection loop: each
probability is within 2**-64 of 1/k!, and the table budget keeps k <= 9, so
the relative bias is below 9!/2**64, about 2**-45.5).  Trial t of a rate
estimate uses the derived seed ``value_at(seed, t)``, which makes trials
independent of execution order and of how they are assigned to workers.

Each trial is one :func:`propertyo.core.check_property_o` call, on the
decider :func:`_trial_method` picks for (n, k): the exhaustive cover on
memoised order-coverage masks below 9 vertices, the backtracking search
from 9 vertices on.
"""

from __future__ import annotations

import functools
import math

from .core import (
    BACKTRACKING,
    EXHAUSTIVE,
    BudgetExceededError,
    OrientedHypergraph,
    Record,
    _subset_count,
    check_property_o,
    ordered_map,
    oriented_subsets,
)
from .cover import _BLOCK_VERTICES

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the two multipliers of the splitmix64 finaliser
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# estimate_property_o_rate refuses more orientation draws, trials * C(n,k),
# than this.  On 2 vCPUs one (1000,2) trial, 499,500 draws, takes 17-22 s
# and one (101,3) trial, 166,650 draws, 3-5 s: 2 and 6 of them are
# admitted.
_MAX_DRAWS = 10**6


def mix64(x: int) -> int:
    """The splitmix64 finaliser on 64-bit integers."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


def value_at(seed: int, index: int) -> int:
    """The index-th value of the splitmix64 stream started at ``seed``."""
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


class TrialSummary(Record):
    """Aggregate of a Monte Carlo run over random tournaments."""

    n: int
    k: int
    trials: int
    successes: int
    seed: int

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    @property
    def standard_error(self) -> float:
        rate = self.rate
        return math.sqrt(rate * (1.0 - rate) / self.trials)


def random_tournament(n: int, k: int, seed: int) -> OrientedHypergraph:
    """Uniformly oriented k-tournament on n vertices, determined by the seed.

    Every k-subset (colex order) gets an independent orientation drawn from
    the documented generator; the same (n, k, seed) always produces the
    identical edge list.  The checks and the edge budget are those of
    :func:`propertyo.core.oriented_subsets`.
    """
    oriented = oriented_subsets(n, k)
    fact_k = math.factorial(k)
    # value_at(seed, i) for i = 0, 1, ..., with mix64 written out inline
    x = seed & _MASK64
    edges = []
    for row in oriented:
        x = (x + _GOLDEN) & _MASK64
        z = x ^ x >> 30
        z = z * _MIX1 & _MASK64
        z ^= z >> 27
        z = z * _MIX2 & _MASK64
        edges.append(row[(z ^ z >> 31) % fact_k])
    return OrientedHypergraph(k, n, tuple(edges))


def _trial_method(n: int, k: int) -> str:
    """The decider for the sampler's random k-tournaments on n vertices.

    Below ``_BLOCK_VERTICES`` vertices, the exhaustive cover, whose memoised
    masks the trials share: over 200 and 2,000 cold trials it took 0.12-0.74
    of the search's time at k = 4, 5 and at (8,2), but 1.9-3.3 times as long
    at (8,5) x 200 and (8,6).  From there on the search: at (9,3), where no
    whole-graph mask is memoised, the cover took 10 times as long.
    """
    return EXHAUSTIVE if n < _BLOCK_VERTICES else BACKTRACKING


def _trial_holds(n: int, k: int, trial_seed: int) -> bool:
    """Whether ``random_tournament(n, k, trial_seed)`` has Property O, from
    one :func:`check_property_o` call on the decider
    :func:`_trial_method` picks.
    """
    tournament = random_tournament(n, k, trial_seed)
    return check_property_o(tournament, _trial_method(n, k)).holds


def _count_successes(n: int, k: int, seed: int, trials: range) -> int:
    return sum(_trial_holds(n, k, value_at(seed, t)) for t in trials)


def estimate_property_o_rate(
    n: int, k: int, trials: int, seed: int, *, jobs: int = 1
) -> TrialSummary:
    """Fraction of seeded random k-tournaments on n vertices with Property O.

    Trial t checks ``random_tournament(n, k, value_at(seed, t))`` on the
    decider :func:`_trial_method` picks from (n, k): the exhaustive cover
    on memoised masks below 9 vertices, the backtracking search from 9
    vertices on.  The summary is identical for any
    ``jobs``: trial outcomes depend only on (seed, t), and the aggregation
    is a plain sum.
    More than ``_MAX_DRAWS`` orientation draws, ``trials`` * C(n,k), raise
    :class:`BudgetExceededError` before any trial or table is built.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    draws = _subset_count(n, k, _MAX_DRAWS)  # ValueError unless n >= k >= 2
    if draws is None or trials > _MAX_DRAWS // draws:
        raise BudgetExceededError(
            f"{trials} trials of C({n},{k}) draws are over the {_MAX_DRAWS}-draw budget"
        )
    count = functools.partial(_count_successes, n, k, seed)
    successes = sum(ordered_map(count, range(trials), jobs))
    return TrialSummary(n=n, k=k, trials=trials, successes=successes, seed=seed)
