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
of the sorted subset with that lexicographic rank (k! is at most a few
hundred here, so the modulo bias of below 2**-54 is irrelevant; there is no
rejection loop).  Trial t of a rate estimate uses the derived seed
``value_at(seed, t)``, which makes trials independent of execution order
and of how they are assigned to workers.
"""

from __future__ import annotations

import functools
import math

from .core import (
    BudgetExceededError,
    OrientedHypergraph,
    Record,
    check_property_o,
    ordered_map,
    oriented_subset_tables,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the two multipliers of the splitmix64 finaliser
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# random_tournament refuses more k-subsets than this
_MAX_SUBSETS = 1_000_000


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

    __slots__ = ("n", "k", "trials", "successes", "rate", "standard_error", "seed")
    n: int
    k: int
    trials: int
    successes: int
    rate: float
    standard_error: float
    seed: int


def random_tournament(n: int, k: int, seed: int) -> OrientedHypergraph:
    """Uniformly oriented k-tournament on n vertices, determined by the seed.

    Every k-subset (colex order) gets an independent orientation drawn from
    the documented generator; the same (n, k, seed) always produces the
    identical edge list.
    """
    if k < 2 or n < k:
        raise ValueError(f"need n >= k >= 2, got n={n}, k={k}")
    subset_count = math.comb(n, k)
    if subset_count > _MAX_SUBSETS:
        raise BudgetExceededError(
            f"{subset_count} subsets exceed the {_MAX_SUBSETS} budget"
        )
    fact_k = math.factorial(k)
    _, oriented = oriented_subset_tables(n, k)
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


def _count_successes(n: int, k: int, seed: int, trials: range) -> int:
    successes = 0
    for t in trials:
        tournament = random_tournament(n, k, value_at(seed, t))
        if check_property_o(tournament, method="backtracking").holds:
            successes += 1
    return successes


def estimate_property_o_rate(
    n: int, k: int, trials: int, seed: int, *, jobs: int = 1
) -> TrialSummary:
    """Fraction of seeded random k-tournaments on n vertices with Property O.

    Trial t checks ``random_tournament(n, k, value_at(seed, t))`` with the
    backtracking decider.  The summary is identical for any ``jobs``: trial
    outcomes depend only on (seed, t), and the aggregation is a plain sum.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    count = functools.partial(_count_successes, n, k, seed)
    successes = sum(ordered_map(count, range(trials), jobs))
    rate = successes / trials
    return TrialSummary(
        n=n,
        k=k,
        trials=trials,
        successes=successes,
        rate=rate,
        standard_error=math.sqrt(rate * (1.0 - rate) / trials),
        seed=seed,
    )
