"""Generators for the known Property O example families.

Every generator documents its vertex layout as a contract: vertices are
0-based contiguous integers, and the serialized edge order is canonical so
that golden files are byte-stable.

The centrepiece is :func:`general_construction`, a k-uniform family built
from two ingredients.  Anchor edges list each relative order of a core
(k-1)-set followed by a dedicated trailing vertex, so exactly one anchor
matches the core's relative order under any given linear order.  When the
matching anchor fails only because its trailing vertex is not last, that
vertex sits at one of k-1 interior positions; for each such position the
construction adds one fresh vertex and a small set of patched edges placing
the fresh vertex at a covering pattern of slots, so that whatever rank the
fresh vertex takes, one patched edge is consistent.
:func:`structured_coverage_check` reads a given graph's edges and checks
that one of them covers every case of that analysis, with no enumeration of
linear orders.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .core import (
    _MAX_EDGES,
    BudgetExceededError,
    InternalError,
    OrientedHypergraph,
    Record,
    _factorial_upto,
)


class GeneralLayout(Record):
    """Vertex layout and replacement slots of :func:`general_construction`
    for uniformity k, the one owner of the family's rule that k >= 3.

    Core vertices x_1..x_{k-1} come first, as 0..k-2, then the anchor
    trailing vertices a_1..a_{(k-1)!}, then one fresh vertex per (anchor,
    insertion position) pair.  All arguments are 1-based, matching the
    construction's own counting.
    """

    k: int

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError(f"uniformity must be at least 3, got {self.k}")

    def counts(self, limit: float = math.inf) -> tuple[int, int, int] | None:
        """(core orders, vertices, edges): (k-1)!, (k-1) + k*(k-1)!, and
        (k-1)!*(1 + (k-1)*|positions|), an anchor edge per core order plus a
        patched edge per slot and (anchor, insertion position).  None, with
        nothing larger built, once (k-1)!, at most each count, passes ``limit``."""
        orders = _factorial_upto(self.k - 1, limit)
        if orders is None:
            return None
        k = self.k
        edges = orders * (1 + (k - 1) * len(self.positions))
        return orders, (k - 1) + k * orders, edges

    @property
    def permutation_count(self) -> int:
        return self.counts()[0]

    @property
    def vertex_count(self) -> int:
        return self.counts()[1]

    @property
    def positions(self) -> tuple[int, ...]:
        """The 1-based slots of a k-tuple where the fresh vertex is
        substituted, {odd l in 1..k-1} plus {k}.  A fresh vertex of rank r
        among the k tuple elements (r in 0..k) makes the slot-l patched edge
        consistent exactly when r is l-1 or l, and {l-1, l} over the slots
        covers every rank: the heart of the construction."""
        return tuple(range(1, self.k, 2)) + (self.k,)

    def a_index(self, j: int) -> int:
        if not 1 <= j <= self.permutation_count:
            raise ValueError(f"anchor index {j} out of range")
        return (self.k - 1) + (j - 1)

    def fresh_index(self, j: int, i: int) -> int:
        orders = self.permutation_count
        if not 1 <= j <= orders:
            raise ValueError(f"anchor index {j} out of range")
        if not 1 <= i <= self.k - 1:
            raise ValueError(f"insertion position {i} out of range")
        return (self.k - 1) + orders + (j - 1) * (self.k - 1) + (i - 1)


def insert_at(values: Sequence[int], item: int, position: int) -> tuple[int, ...]:
    """Insert ``item`` immediately before the 1-based ``position`` of ``values``.

    position=1 puts the item first; position may be at most ``len(values)``,
    so the item never lands last.
    """
    if not 1 <= position <= len(values):
        raise ValueError(f"insertion position {position} out of range")
    values = tuple(values)
    return values[: position - 1] + (item,) + values[position - 1 :]


def cyclic_triangle() -> OrientedHypergraph:
    """The 3-edge oriented 2-graph on 3 vertices: a cyclically ordered triangle.

    This is the smallest oriented 2-graph with Property O.
    """
    return OrientedHypergraph(2, 3, ((0, 1), (1, 2), (2, 0)))


def ten_edge_3graph() -> OrientedHypergraph:
    """The classic 10-edge oriented 3-graph with Property O on 8 vertices.

    Layout: the two core vertices are 0 and 1, the anchor vertices for the
    orders (0,1) and (1,0) are 2 and 3, and 4..7 are the fresh patch
    vertices, one per (anchor, insertion position) pair.  This layout is
    :func:`general_construction`'s at k=3 index for index, so the edges are
    those of ``general_construction(3)``, listed in another order.
    """
    return OrientedHypergraph(
        3,
        8,
        (
            (0, 1, 2),
            (2, 0, 4),
            (4, 0, 1),
            (0, 2, 5),
            (5, 2, 1),
            (1, 0, 3),
            (3, 1, 6),
            (6, 1, 0),
            (1, 3, 7),
            (7, 3, 0),
        ),
    )


def double_cycle_3graph() -> OrientedHypergraph:
    """18-edge oriented 3-graph with Property O on the minimum of 6 vertices.

    Vertices 0,1,2 and 3,4,5 form two cyclically ordered triangles; every
    cycle edge is completed by each vertex of the opposite triangle.  Edges
    are (i, i+1 mod 3, 3+j) and (3+i, 3+(i+1 mod 3), j) for i, j in 0..2,
    emitted with i outer and j inner, first family first.
    """
    edges = []
    for i in range(3):
        for j in range(3):
            edges.append((i, (i + 1) % 3, 3 + j))
    for i in range(3):
        for j in range(3):
            edges.append((3 + i, 3 + (i + 1) % 3, j))
    return OrientedHypergraph(3, 6, tuple(edges))


def merged_ten_edge_3graph() -> OrientedHypergraph:
    """10-edge oriented 3-graph with Property O on 6 vertices.

    Obtained from :func:`ten_edge_3graph` by reusing two of its patch
    vertices: vertex 6 is identified with 5 and vertex 7 with 4, which
    leaves the covering case analysis intact.  Witnesses that both the
    minimum vertex count (6) and a small edge count (10) are achievable at
    the same time for k=3.
    """
    merge = {6: 5, 7: 4}
    edges = ten_edge_3graph().edges
    return OrientedHypergraph(3, 6, [[merge.get(v, v) for v in e] for e in edges])


def general_construction(k: int) -> OrientedHypergraph:
    """The k-uniform Property O family with min_edges_upper_bound(k) edges.

    Vertex layout per :class:`GeneralLayout`; the j-th core order is the
    j-th of ``itertools.permutations(range(k-1))``.  Canonical edge order:
    the (k-1)! anchor edges ``core + (a_j,)`` for j ascending, then for each
    j ascending and each insertion position i ascending, the patched edges
    of ``base = insert_at(core, a_j, i)`` with the fresh vertex of (j, i)
    substituted at each slot of :attr:`GeneralLayout.positions`, ascending.
    Raises :class:`BudgetExceededError`, before building anything, when the
    family has more than 1,000,000 edges (k >= 9); the count is not computed
    when (k-1)! alone is over that budget (k >= 11).
    """
    layout = GeneralLayout(k)
    counts = layout.counts(_MAX_EDGES)
    if counts is None or counts[2] > _MAX_EDGES:
        digits = len(str(_MAX_EDGES)) - 1
        size = counts[2] if counts else f"a more-than-{digits}-digit number of"
        raise BudgetExceededError(
            f"general_construction({k}) would build {size} edges, "
            f"over the {_MAX_EDGES} budget"
        )
    cores = list(itertools.permutations(range(k - 1)))

    edges = [core + (layout.a_index(j),) for j, core in enumerate(cores, start=1)]
    for j, core in enumerate(cores, start=1):
        a = layout.a_index(j)
        for i in range(1, k):
            base = insert_at(core, a, i)
            f = layout.fresh_index(j, i)
            edges.extend(base[: p - 1] + (f,) + base[p:] for p in layout.positions)
    return OrientedHypergraph(k, counts[1], tuple(edges))


def min_edges_upper_bound(k: int) -> int:
    """Edge count of :func:`general_construction`, in exact arithmetic.

    Evaluates (floor(k/2)+1)*k! - floor(k/2)*(k-1)! and cross-checks it
    against the layout's own count, :meth:`GeneralLayout.counts`.
    """
    half = k // 2
    value = (half + 1) * math.factorial(k) - half * math.factorial(k - 1)
    alternative = GeneralLayout(k).counts()[2]
    if value != alternative:
        raise InternalError(
            f"internal error: closed forms disagree at k={k}: {value} != {alternative}"
        )
    return value


def min_edges_lower_bound(k: int) -> int:
    """k! + 1, the counting lower bound on edges of any Property O k-graph."""
    if k < 2:
        raise ValueError(f"uniformity must be at least 2, got {k}")
    return math.factorial(k) + 1


class CaseCoverageReport(Record):
    """Outcome of :func:`structured_coverage_check`: a report, not a
    certificate, since only :func:`propertyo.core.check_property_o` makes
    verdicts.

    ``problems`` names each case that no edge of the graph covers.  ``ok``
    (no problems) shows that the graph has Property O by the case analysis;
    a failing report names the uncovered cases but no violating order.
    ``cases`` is the number of cases checked, (k-1)!*(1 + (k-1)*(k+1)).
    """

    k: int
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def cases(self) -> int:
        k = self.k
        return math.factorial(k - 1) * (1 + (k - 1) * (k + 1))


def structured_coverage_check(graph: OrientedHypergraph) -> CaseCoverageReport:
    """Check the general construction's case analysis against ``graph``'s edges.

    The graph must have the vertex count of :class:`GeneralLayout` for its
    uniformity k.  Under any linear order, the core vertices take the
    relative order of exactly one core order, the j-th permutation of
    0..k-2; its anchor vertex a_j is either last, or sits just before the
    i-th core vertex for one i in 1..k-1; and in the second case the fresh
    vertex of (j, i) takes one of k+1 ranks among those k vertices.  Each
    case fixes the relative order of the vertices it names, so an edge that
    is a subsequence of that order is consistent with every linear order in
    the case.  The graph has Property O when every case has such an edge;
    no linear order is enumerated.
    """
    k = graph.k
    layout = GeneralLayout(k)
    counts = layout.counts(graph.n)  # (k-1)! is built only up to n
    if counts is None or counts[1] != graph.n:
        vertices = counts[1] if counts else f"more than {graph.n}"
        raise ValueError(
            f"the general layout for k={k} has {vertices} vertices, "
            f"the graph has {graph.n}"
        )
    edges = set(graph.edges)
    problems: list[str] = []
    for j, core in enumerate(itertools.permutations(range(k - 1)), start=1):
        a = layout.a_index(j)
        if core + (a,) not in edges:
            problems.append(f"case (j={j}, anchor last): {core + (a,)} is not an edge")
        for i in range(1, k):
            base = insert_at(core, a, i)
            f = layout.fresh_index(j, i)
            for rank in range(k + 1):
                order = base[:rank] + (f,) + base[rank:]
                if not any(order[:d] + order[d + 1 :] in edges for d in range(k + 1)):
                    problems.append(
                        f"case (j={j}, i={i}, rank={rank}): "
                        f"no edge is a subsequence of {order}"
                    )
    return CaseCoverageReport(k=k, problems=tuple(problems))
