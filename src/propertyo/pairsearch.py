"""The search decider, one of the two deciding paths: it imports only
:mod:`propertyo.core`, never the order-coverage kernel in
:mod:`propertyo.cover`.

The search decider (:func:`_backtracking_search`) is DPLL over the edges'
adjacent pairs, since an order violates exactly when each edge has a pair
that descends.
"""

from __future__ import annotations

import itertools
import operator
from typing import Any

from .core import (
    BudgetExceededError,
    LinearOrder,
    OrientedHypergraph,
    support_restriction,
)

# The search refuses to do more work than this, counted as the pair search
# charges it (see _backtracking_search): general(5) holds after 6.7e7, while
# general(6) and a directed 2-path on 3,000 vertices are refused.
_MAX_SEARCH_WORK = 10**8

# The search refuses graphs on more vertices than this before it builds
# anything: the violating order it prints lists every vertex.
_MAX_VERTICES = 1_000_000


def _backtracking_search(
    graph: OrientedHypergraph,
) -> tuple[LinearOrder | None, int]:
    """Return (some violating order or None, the nodes it branched at).

    DPLL (Davis, Logemann & Loveland, 1962) over the adjacent pairs of the
    edges, on the support relabelled 0..N-1: an order violates exactly when
    each edge has a pair that descends, ``e[i+1]`` placed before ``e[i]``.
    The state is a strict partial order, closed as the bitsets ``before[v]``
    and ``after[v]``; ``left[e]`` counts the pairs of edge e not known to
    ascend, and ``done[e]`` is set once one is known to descend.  Adding "a
    before b" adds ``after[b] | {b}`` to ``after[x]`` for each x in
    ``before[a] | {a}``; each y new to ``after[x]`` makes the pairs (x, y)
    ascend and the pairs (y, x) descend.  An open edge left with no pair that
    may descend is a conflict, and one left with one has it forced to descend.
    A node branches on the undecided pair of an open edge least in (pairs
    left, -degree sum, edge index), the descending child first; a failed
    child is undone from a trail.  Once no edge is open, the support sorted
    by ``|before[v]|`` violates; the other vertices follow, ascending.

    Raises :class:`BudgetExceededError` for more than ``_MAX_VERTICES``
    vertices before anything is built, and once the work passes
    ``_MAX_SEARCH_WORK``: a node costs a scan of every edge, and each
    vertex of a closure step two bitset operations, 2 + N//32 words.  The
    per-vertex words are N bits wide, so a support on which one closure
    step over every vertex, N * (2 + N//32), would pass the budget is
    refused before any of them is built.
    """
    if graph.n > _MAX_VERTICES:
        raise BudgetExceededError(
            f"search over {graph.n} vertices refused (limit n <= {_MAX_VERTICES})"
        )
    support = sorted({v for e in graph.edges for v in e})
    size, budget = len(support), _MAX_SEARCH_WORK
    step = 2 + size // 32
    if size * step > budget:
        raise BudgetExceededError(
            f"search over {size} support vertices refused: one closure step "
            f"over all of them costs {size * step}, over the {budget}-unit budget"
        )
    edges = support_restriction(graph).edges
    deg, links = [0] * size, [0] * size  # links[u]: the v of pairs (u, v), (v, u)
    edges_of: dict[tuple[int, int], list[int]] = {}  # the edges of each pair
    for i, e in enumerate(edges):
        for v in e:
            deg[v] += 1
        for u, v in zip(e, e[1:]):
            links[u] |= 1 << v
            links[v] |= 1 << u
            edges_of.setdefault((u, v), []).append(i)
    # each edge's pairs, the one to branch on first
    pairs = [sorted(zip(e, e[1:]), key=lambda p: -deg[p[0]] - deg[p[1]]) for e in edges]
    before, after = [0] * size, [0] * size
    left, done = [len(e) - 1 for e in edges], [False] * len(edges)
    indices = range(len(edges))
    trail: list[tuple[list, int, Any]] = []  # (list, index, old value)
    stack: list[tuple[int, list]] = []  # (trail length, queue) of pending children
    scan, work, nodes = sum(map(len, edges)), 0, 0

    def propagate(queue: list[tuple[int, int]]) -> bool:
        """Add each relation (a, b), a before b, of ``queue`` and all it
        forces, trailed while a sibling is pending; False on a conflict."""
        nonlocal work
        record = trail.append if stack else None
        while queue:
            a, b = queue.pop()
            if after[a] >> b & 1:
                continue
            if after[b] >> a & 1:
                return False
            low, high = before[a] | 1 << a, after[b] | 1 << b
            work += (low.bit_count() + high.bit_count()) * step
            if work > budget:
                raise BudgetExceededError(
                    f"search over {size} support vertices refused after "
                    f"{budget} units of work"
                )
            rest = high
            while rest:
                y = rest.bit_length() - 1
                rest ^= 1 << y
                if record:
                    record((before, y, before[y]))
                before[y] |= low
            rest = low
            while rest:
                x = rest.bit_length() - 1
                rest ^= 1 << x
                new = high ^ high & after[x]
                if not new:
                    continue
                if record:
                    record((after, x, after[x]))
                after[x] |= new
                paired = new & links[x]
                while paired:
                    y = paired.bit_length() - 1
                    paired ^= 1 << y
                    for e in edges_of.get((y, x), ()):  # (y, x) descends
                        if record and not done[e]:
                            record((done, e, False))
                        done[e] = True
                    for e in edges_of.get((x, y), ()):  # (x, y) ascends
                        if done[e]:
                            continue
                        if record:
                            record((left, e, left[e]))
                        left[e] -= 1
                        if not left[e]:
                            return False
                        if left[e] == 1:  # its one pair not ascending descends
                            u, v = next(
                                p for p in pairs[e] if not after[p[0]] >> p[1] & 1
                            )
                            queue.append((v, u))
        return True

    queue = [(e[1], e[0]) for e in edges if len(e) == 2]
    while True:
        if propagate(queue):
            open_edges = list(itertools.compress(indices, map(operator.not_, done)))
            if not open_edges:
                break
            fewest, best = min(map(left.__getitem__, open_edges)), (0, 0, 0)
            for e in open_edges:
                if left[e] == fewest:
                    for u, v in pairs[e]:  # the first pair not ascending
                        if not after[u] >> v & 1:
                            break
                    if deg[u] + deg[v] > best[0]:
                        best = (deg[u] + deg[v], u, v)
            nodes += 1
            work += scan  # checked when the descending child propagates
            _, u, v = best
            stack.append((len(trail), [(u, v)]))
            queue = [(v, u)]
        elif stack:
            mark, queue = stack.pop()
            for items, i, old in reversed(trail[mark:]):
                items[i] = old
            del trail[mark:]
        else:
            return None, nodes
    inside = set(support)
    ranks = sorted(range(size), key=lambda v: before[v].bit_count())
    order = tuple(support[v] for v in ranks)
    return order + tuple(v for v in range(graph.n) if v not in inside), nodes
