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
:func:`structured_coverage_check` verifies that covering pattern directly,
with no enumeration of linear orders.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .core import (
    PROPERTY_O,
    STRUCTURED,
    InternalError,
    OrientedHypergraph,
    Record,
    VerificationCertificate,
    is_consistent,
    unrank_permutation,
)


class GeneralLayout(Record):
    """Vertex index layout of :func:`general_construction` for uniformity k.

    Core vertices x_1..x_{k-1} come first, then the anchor trailing
    vertices a_1..a_{(k-1)!}, then one fresh vertex per (anchor, insertion
    position) pair.  All arguments are 1-based, matching the construction's
    own counting.
    """

    __slots__ = ("k",)
    k: int

    @property
    def permutation_count(self) -> int:
        return math.factorial(self.k - 1)

    @property
    def vertex_count(self) -> int:
        # (k-1) core + (k-1)! anchors + (k-1)!*(k-1) fresh = (k-1) + k*(k-1)!
        return (self.k - 1) + self.k * self.permutation_count

    def x_index(self, i: int) -> int:
        if not 1 <= i <= self.k - 1:
            raise ValueError(f"core position {i} out of range")
        return i - 1

    def a_index(self, j: int) -> int:
        if not 1 <= j <= self.permutation_count:
            raise ValueError(f"anchor index {j} out of range")
        return (self.k - 1) + (j - 1)

    def fresh_index(self, j: int, i: int) -> int:
        if not 1 <= j <= self.permutation_count:
            raise ValueError(f"anchor index {j} out of range")
        if not 1 <= i <= self.k - 1:
            raise ValueError(f"insertion position {i} out of range")
        return (self.k - 1) + self.permutation_count + (j - 1) * (self.k - 1) + (i - 1)


class ReplacementPlan(Record):
    """The slots of a k-tuple where the fresh vertex is substituted.

    ``positions`` is the 1-based set {odd l in 1..k-1} plus {k}.  Its rank
    coverage is the heart of the construction: a fresh vertex of rank r
    among the k tuple elements (r in 0..k) makes the slot-l patched edge
    consistent exactly when r is l-1 or l, and the union of {l-1, l} over
    the plan covers every rank.
    """

    __slots__ = ("k", "positions")
    k: int
    positions: tuple[int, ...]

    @classmethod
    def for_uniformity(cls, k: int) -> "ReplacementPlan":
        if k < 3:
            raise ValueError(f"uniformity must be at least 3, got {k}")
        positions = tuple(l for l in range(1, k) if l % 2 == 1) + (k,)
        return cls(k=k, positions=positions)

    def covered_ranks(self) -> set[int]:
        ranks: set[int] = set()
        for l in self.positions:
            ranks.add(l - 1)
            ranks.add(l)
        return ranks

    def covers_all_ranks(self) -> bool:
        return self.covered_ranks() >= set(range(self.k + 1))

    def witness_position(self, rank: int) -> int:
        """Smallest plan position whose patched edge covers the given rank."""
        for l in self.positions:
            if rank in (l - 1, l):
                return l
        raise ValueError(f"rank {rank} not covered by plan for k={self.k}")


def permutation_at(k: int, j: int) -> tuple[int, ...]:
    """The j-th permutation of {1..k-1} in lexicographic order (1-based j).

    j=1 is the identity.
    """
    total = math.factorial(k - 1)
    if not 1 <= j <= total:
        raise ValueError(f"permutation index {j} out of range 1..{total}")
    return unrank_permutation(j - 1, range(1, k))


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
    vertices, one per (anchor, insertion position) pair.  This is
    :func:`general_construction` at k=3 up to the relabelling documented in
    the tests.
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
    return OrientedHypergraph(
        3,
        6,
        (
            (0, 1, 2),
            (2, 0, 4),
            (4, 0, 1),
            (0, 2, 5),
            (5, 2, 1),
            (1, 0, 3),
            (3, 1, 5),
            (5, 1, 0),
            (1, 3, 4),
            (4, 3, 0),
        ),
    )


def _anchor_tuple(layout: GeneralLayout, pi: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Step-one edge: the permuted core followed by the j-th anchor vertex."""
    return tuple(layout.x_index(p) for p in pi) + (layout.a_index(j),)


def _patched_edge(
    layout: GeneralLayout, pi: tuple[int, ...], j: int, i: int, position: int
) -> tuple[int, ...]:
    """Patched edge for anchor j, insertion position i and plan slot ``position``."""
    core = tuple(layout.x_index(p) for p in pi)
    base = insert_at(core, layout.a_index(j), i)
    patched = list(base)
    patched[position - 1] = layout.fresh_index(j, i)
    return tuple(patched)


def general_construction(k: int) -> OrientedHypergraph:
    """The k-uniform Property O family with min_edges_upper_bound(k) edges.

    Vertex layout per :class:`GeneralLayout`.  Canonical edge order: the
    (k-1)! anchor edges for j ascending, then for each j ascending, each
    insertion position i ascending, each replacement slot in plan order,
    the patched edge with the fresh vertex substituted at that slot.
    """
    if k < 3:
        raise ValueError(f"uniformity must be at least 3, got {k}")
    layout = GeneralLayout(k)
    plan = ReplacementPlan.for_uniformity(k)
    perms = list(itertools.permutations(range(1, k)))

    edges: list[tuple[int, ...]] = []
    for j, pi in enumerate(perms, start=1):
        edges.append(_anchor_tuple(layout, pi, j))
    for j, pi in enumerate(perms, start=1):
        for i in range(1, k):
            for position in plan.positions:
                edges.append(_patched_edge(layout, pi, j, i, position))
    return OrientedHypergraph(k, layout.vertex_count, tuple(edges))


def min_edges_upper_bound(k: int) -> int:
    """Edge count of :func:`general_construction`, in exact arithmetic.

    Evaluates (floor(k/2)+1)*k! - floor(k/2)*(k-1)! and cross-checks the
    equivalent product form ((k-1)*(floor(k/2)+1)+1)*(k-1)!.
    """
    if k < 3:
        raise ValueError(f"uniformity must be at least 3, got {k}")
    half = k // 2
    value = (half + 1) * math.factorial(k) - half * math.factorial(k - 1)
    alternative = ((k - 1) * (half + 1) + 1) * math.factorial(k - 1)
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


class CaseWitness(Record):
    """One covered case of the general construction's analysis.

    For anchor j and insertion position i, ``rank`` is the position of the
    fresh vertex among the k elements of the base tuple (0..k), ``position``
    the replacement slot whose patched edge covers it, and ``edge`` that
    concrete edge.
    """

    __slots__ = ("j", "i", "rank", "position", "edge")
    j: int
    i: int
    rank: int
    position: int
    edge: tuple[int, ...]


class CaseCoverageReport(Record):
    """Outcome of :func:`structured_coverage_check`.

    ``rank_witnesses`` maps each fresh-vertex rank to the replacement slot
    covering it; the pattern is the same for every anchor and insertion
    position, so together with the verified anchor bijection it certifies
    every (j, i, rank) case.  ``iter_witnesses`` materialises those concrete
    cases on demand.
    """

    __slots__ = (
        "k",
        "ok",
        "problems",
        "replacement_positions",
        "permutation_count",
        "rank_witnesses",
    )
    k: int
    ok: bool
    problems: tuple[str, ...]
    replacement_positions: tuple[int, ...]
    permutation_count: int
    rank_witnesses: tuple[tuple[int, int], ...]

    @property
    def total_cases(self) -> int:
        return self.permutation_count * (self.k - 1) * (self.k + 1)

    def to_certificate(self) -> VerificationCertificate:
        """Certificate that the construction has Property O, no orders examined.

        Only a passing report certifies anything; a failing one pinpoints
        problems but produces no violating order, so it has no certificate
        form.
        """
        if not self.ok:
            raise ValueError(
                "case coverage did not hold: " + "; ".join(self.problems)
            )
        return VerificationCertificate(
            verdict=PROPERTY_O,
            method=STRUCTURED,
            violating_order=None,
            orders_examined=0,
            nodes_expanded=None,
        )

    def iter_witnesses(self) -> Iterator[CaseWitness]:
        layout = GeneralLayout(self.k)
        plan = ReplacementPlan.for_uniformity(self.k)
        witness_of = dict(self.rank_witnesses)
        for j, pi in enumerate(itertools.permutations(range(1, self.k)), start=1):
            for i in range(1, self.k):
                for rank in range(self.k + 1):
                    position = witness_of[rank]
                    yield CaseWitness(
                        j=j,
                        i=i,
                        rank=rank,
                        position=position,
                        edge=_patched_edge(layout, pi, j, i, position),
                    )


def structured_coverage_check(k: int) -> CaseCoverageReport:
    """Certify the general construction's case analysis without order enumeration.

    Three covering facts are verified directly: (a) the anchor edges run
    over every relative order of the core vertices exactly once, starting
    from the identity; (b) the insertion positions 1..k-1 place the anchor
    vertex at every non-final slot of the base tuple; (c) for every rank the
    fresh vertex can take, some replacement slot's patched edge is
    consistent.  Together these exhaust all cases, so the construction has
    Property O.
    """
    if k < 3:
        raise ValueError(f"uniformity must be at least 3, got {k}")
    problems: list[str] = []

    # (a) anchors: lexicographic stream over all permutations of {1..k-1},
    # first the identity, strictly increasing (hence pairwise distinct).
    count = 0
    previous: tuple[int, ...] | None = None
    first: tuple[int, ...] | None = None
    for p in itertools.permutations(range(1, k)):
        count += 1
        if first is None:
            first = p
        if previous is not None and not previous < p:
            problems.append(f"anchor permutations not strictly increasing at #{count}")
        previous = p
    expected = math.factorial(k - 1)
    if count != expected:
        problems.append(f"anchor permutation count {count}, expected {expected}")
    if first != tuple(range(1, k)):
        problems.append("first anchor permutation is not the identity")
    for j in {1, 2, expected} | {max(1, expected // 2)}:
        if j <= expected:
            direct = permutation_at(k, j)
            streamed = next(
                itertools.islice(itertools.permutations(range(1, k)), j - 1, j)
            )
            if direct != streamed:
                problems.append(f"permutation_at({k}, {j}) disagrees with the stream")

    # (b) insertion positions: position i puts the inserted item at slot i.
    probe = tuple(range(1, k))
    marker = k + 1
    for i in range(1, k):
        placed = insert_at(probe, marker, i)
        if placed[i - 1] != marker:
            problems.append(f"insertion at position {i} lands at the wrong slot")
        if tuple(v for v in placed if v != marker) != probe:
            problems.append(f"insertion at position {i} disturbs the base tuple")

    # (c) rank coverage of the replacement plan, with a consistency witness
    # for every rank; the pattern is label-free, so it holds for every
    # anchor and insertion position.
    plan = ReplacementPlan.for_uniformity(k)
    if len(plan.positions) != k // 2 + 1:
        problems.append(
            f"replacement plan has {len(plan.positions)} slots, expected {k // 2 + 1}"
        )
    if not plan.covers_all_ranks():
        problems.append("replacement plan misses a fresh-vertex rank")
    # The base tuple lists its k vertices in their true relative order, so
    # 0..k-1 stand for them and k for the fresh vertex; the patched edge
    # puts k in the slot it replaces.
    labels = tuple(range(k))
    rank_witnesses: list[tuple[int, int]] = []
    for rank in range(k + 1):
        position = plan.witness_position(rank)
        edge = labels[: position - 1] + (k,) + labels[position:]
        if not is_consistent(edge, labels[:rank] + (k,) + labels[rank:]):
            problems.append(
                f"patched edge at slot {position} is not consistent for rank {rank}"
            )
        rank_witnesses.append((rank, position))

    # Tie the pattern to concrete edges for a couple of anchors: build the
    # case order on the k+1 involved vertices and check the witness edge.
    layout = GeneralLayout(k)
    perms = [permutation_at(k, 1)]
    if expected >= 2:
        perms.append(permutation_at(k, 2))
    for j, pi in enumerate(perms, start=1):
        core = tuple(layout.x_index(p) for p in pi)
        for i in range(1, k):
            base = insert_at(core, layout.a_index(j), i)
            fresh = layout.fresh_index(j, i)
            for rank, position in rank_witnesses:
                case_order = base[:rank] + (fresh,) + base[rank:]
                edge = _patched_edge(layout, pi, j, i, position)
                if not is_consistent(edge, case_order):
                    problems.append(
                        f"witness edge for (j={j}, i={i}, rank={rank}) is not "
                        "consistent with its case order"
                    )

    return CaseCoverageReport(
        k=k,
        ok=not problems,
        problems=tuple(problems),
        replacement_positions=plan.positions,
        permutation_count=expected,
        rank_witnesses=tuple(rank_witnesses),
    )
