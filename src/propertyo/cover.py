"""The order-coverage kernel, one of the two deciding paths: it imports
only :mod:`propertyo.core`, never the search in :mod:`propertyo.pairsearch`.

The exhaustive decider, the histogram and the census rest on one kernel
(:func:`_edge_mask`): bit p of an edge's mask is set when the order of lex
rank p leaves the edge uncovered.  Above 9 vertices the decider and the
histogram walk the top lex blocks in rank order, so neither builds a mask
wider than 9! bits.  Masks on fewer than 9 vertices are memoised, at most
``_MAX_MASK_BYTES`` of them, whole-graph masks included, so a graph on
n <= 8 vertices is decided by ANDing cached masks, one per edge.  The
census's table (:func:`_coverage_masks`, within the same budget), built
once per census by the calling process, holds one n!-bit mask per oriented
k-subset.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterator, Sequence

from .core import (
    BudgetExceededError,
    CoverageHistogram,
    InternalError,
    LinearOrder,
    OrientedEdge,
    OrientedHypergraph,
    count_consistent_orders,
    oriented_subsets,
    unrank_permutation,
)

# The lex-block walk behind exhaustive verify and the histogram refuses
# graphs above this vertex count.
# Memory does not set it, since no mask is wider than 9! bits; time does,
# since a graph with Property O on n > 9 vertices takes n!/9! lex blocks
# (1320 at n = 12, 17160 at n = 13).
EXHAUSTIVE_MAX_VERTICES = 12

# The exhaustive decider and the histogram build order-coverage masks on at
# most this many vertices (9! bits, 45 KB) and walk larger vertex sets one
# lex block at a time.  The census masks are bounded by _MAX_MASK_BYTES.
_BLOCK_VERTICES = 9

# The bytes of order-coverage masks held at once: by the mask memo below, and
# by the census's table (_coverage_masks), built once per census by the calling
# process: (10,2) takes 38 MiB, (8,8) would take 193 MiB and (11,2) 523 MiB.
_MAX_MASK_BYTES = 64 << 20


def _descend(ranks: tuple[int, ...], i: int) -> tuple[int, ...] | None:
    """An edge's ranks inside lex block i, or None if the block kills it.

    Block i holds the orders whose smallest element has rank i: that vertex
    advances the edge if it is the head, kills it if it is a later vertex,
    and leaves it whole otherwise.  The ranks returned are among the rest.
    """
    if ranks and ranks[0] == i:
        ranks = ranks[1:]
    elif i in ranks:
        return None
    return tuple(r - (r > i) for r in ranks)


def _edge_mask(j: int, ranks: tuple[int, ...]) -> int:
    """Bitmask of the orders of j vertices that leave an edge uncovered.

    Bit p stands for the order of lex rank p; ``ranks`` are the ranks of the
    edge's remaining vertices among the j, and none left means 0.  Block i
    of the mask, (j-1)! bits wide, is all ones if lex block i kills the
    edge, else the edge's memoised mask inside the block on one vertex fewer.
    """
    if not ranks:
        return 0
    width = math.factorial(j - 1)
    inner_mask = _memo_edge_mask if j - 1 < _BLOCK_VERTICES else _edge_mask
    dead = (1 << width) - 1
    mask = 0
    for i in range(j):
        inner = _descend(ranks, i)
        mask |= (dead if inner is None else inner_mask(j - 1, inner)) << (i * width)
    return mask


# Only masks on fewer than _BLOCK_VERTICES vertices are cached, whoever asks,
# whole-graph masks included, so no cached mask is wider than 8! bits (5 KB).
# There are j!/(j-r)! keys of r ranks on j vertices, and all 40,320 of r = 8
# ranks on 8 vertices would take 200 MB, so the memo keeps the 13,315 most
# recently used masks, at most _MAX_MASK_BYTES.  A sampled (8,3) run uses 895.
_memo_edge_mask = functools.lru_cache(
    maxsize=_MAX_MASK_BYTES // (math.factorial(_BLOCK_VERTICES - 1) // 8)
)(_edge_mask)


def _coverage_masks(n: int, k: int) -> tuple[list[list[int]], int]:
    """(masks, full_mask): the census's :func:`_edge_mask` on n vertices of
    each edge in :func:`oriented_subsets`, row by row.  A table over
    ``_MAX_MASK_BYTES`` is refused before any mask is built.  Each order is
    consistent with one orientation of each subset, so each mask must have
    n! - n!/k! bits and the masks of one row must AND to 0."""
    fact_n = math.factorial(n)
    mask_bytes = math.perm(n, k) * fact_n // 8  # C(n,k)*k! masks of n! bits
    if mask_bytes > _MAX_MASK_BYTES:
        raise BudgetExceededError(
            f"census masks take {mask_bytes >> 20} MiB, over the "
            f"{_MAX_MASK_BYTES >> 20} MiB budget"
        )
    full = (1 << fact_n) - 1
    masks = [[_edge_mask(n, edge) for edge in row] for row in oriented_subsets(n, k)]
    per_edge = fact_n - fact_n // math.factorial(k)
    for row in masks:
        common = full
        for mask in row:
            if mask.bit_count() != per_edge:
                raise InternalError("internal error: bad coverage mask popcount")
            common &= mask
        if common:
            raise InternalError("internal error: subset orientations do not cover")
    return masks, full


def _lex_blocks(
    n: int, edges: Sequence[OrientedEdge]
) -> Iterator[tuple[int, int, list[int]]]:
    """The lex blocks of at most ``_BLOCK_VERTICES`` vertices that together
    cover all n! orders, in rank order: each block's first rank, its full
    mask, and the masks of the edges alive in it (a killed edge's is full).

    Raises :class:`BudgetExceededError` for n > ``EXHAUSTIVE_MAX_VERTICES``
    before any mask is built.
    """
    if n > EXHAUSTIVE_MAX_VERTICES:
        raise BudgetExceededError(
            f"refusing to enumerate {n}! orders (limit n <= {EXHAUSTIVE_MAX_VERTICES})"
        )
    width = math.factorial(min(n, _BLOCK_VERTICES))
    full = (1 << width) - 1

    def walk(j: int, alive: Sequence[tuple[int, ...]]) -> Iterator[list[int]]:
        if j <= _BLOCK_VERTICES:
            mask = _memo_edge_mask if j < _BLOCK_VERTICES else _edge_mask
            yield [mask(j, ranks) for ranks in alive]
            return
        for i in range(j):
            inner = (_descend(ranks, i) for ranks in alive)
            yield from walk(j - 1, [r for r in inner if r is not None])

    for block, masks in enumerate(walk(n, edges)):
        yield block * width, full, masks


def _exhaustive_search(graph: OrientedHypergraph) -> tuple[LinearOrder | None, int]:
    """Return (lex-first violating order or None, its rank + 1 or n!)."""
    for first, full, masks in _lex_blocks(graph.n, graph.edges):
        uncovered = functools.reduce(operator.and_, masks, full)
        if uncovered:
            rank = first + (uncovered & -uncovered).bit_length() - 1
            return unrank_permutation(rank, range(graph.n)), rank + 1
    return None, math.factorial(graph.n)


def coverage_histogram(graph: OrientedHypergraph) -> CoverageHistogram:
    """Histogram of consistent-edge counts over all n! linear orders.

    Per lex block, a bit-sliced counter adds up the alive edges' masks:
    the alive edges an order leaves uncovered.  Like the exhaustive
    decider, it refuses more than ``EXHAUSTIVE_MAX_VERTICES`` vertices.
    """
    n = graph.n
    counts: dict[int, int] = {}
    edges = graph.edges
    for _, full, masks in _lex_blocks(n, edges):
        # bit p of planes[b] is bit b of order p's count of uncovered edges
        planes: list[int] = []
        for carry in masks:
            for b, plane in enumerate(planes):
                planes[b], carry = plane ^ carry, plane & carry
                if not carry:
                    break
            else:
                planes.append(carry)
        groups = {0: full}
        for plane in reversed(planes):
            split: dict[int, int] = {}
            for c, orders in groups.items():
                for bit, part in ((1, orders & plane), (0, orders & ~plane)):
                    if part:
                        split[2 * c + bit] = part
            groups = split
        for c, orders in groups.items():
            consistent = len(masks) - c
            counts[consistent] = counts.get(consistent, 0) + orders.bit_count()

    total = sum(counts.values())
    expected_total = math.factorial(n)
    if total != expected_total:
        raise InternalError(
            f"internal error: histogram covers {total} orders, "
            f"expected {expected_total}"
        )
    weighted = sum(c * m for c, m in counts.items())
    expected_weighted = len(edges) * (
        count_consistent_orders(graph.k, n) if n >= graph.k else 0
    )
    if weighted != expected_weighted:
        raise InternalError(
            f"internal error: weighted histogram total {weighted}, "
            f"expected {expected_weighted}"
        )
    return CoverageHistogram(counts=dict(sorted(counts.items())))
