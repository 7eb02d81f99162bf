"""Oriented uniform hypergraphs and the Property O decision machinery.

An oriented k-graph consists of edges that are ordered k-tuples of distinct
vertices, with at most one orientation per underlying k-element set.  A
linear order of the vertex set is written as its ascending sequence: the
tuple listing every vertex from smallest to largest.  An edge
``(x1, ..., xk)`` is consistent with an order when its vertices occupy
strictly increasing positions in that sequence, and the hypergraph has
Property O when every linear order of the vertices is consistent with at
least one edge.  An order consistent with no edge is a violating order;
exhibiting one refutes Property O.

The data model, :class:`OrientedHypergraph`, is the one owner of that
validity rule: its constructor refuses a graph that breaks it, so the
deciders, the histogram and the audit take any graph as valid.

The module provides the data model, the consistency predicate, two
independent deciders (an exhaustive order cover and a backtracking search
over adjacent pairs), the order-coverage histogram, and a counting audit
that classifies each edge by how many permutations of a chosen base edge
leave it consistent.  The two deciders are deliberately separate code paths
so that the test suite can cross-check them against each other.

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

The search decider (:func:`_backtracking_search`) is DPLL over the edges'
adjacent pairs, since an order violates exactly when each edge has a pair
that descends.

:func:`check_property_o` re-checks every violating order a decider
returns: it must list each vertex once and leave every edge inconsistent.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from typing import Any, Callable, Iterator, Mapping, Sequence

OrientedEdge = tuple[int, ...]
LinearOrder = tuple[int, ...]

PROPERTY_O = "property_o"
VIOLATED = "violated"

EXHAUSTIVE = "exhaustive"
BACKTRACKING = "backtracking"
AUTO = "auto"

# The lex-block walk behind exhaustive verify and the histogram refuses
# graphs above this vertex count.
# Memory does not set it, since no mask is wider than 9! bits; time does,
# since a graph with Property O on n > 9 vertices takes n!/9! lex blocks
# (1320 at n = 12, 17160 at n = 13).
EXHAUSTIVE_MAX_VERTICES = 12

# check_property_o(method="auto") covers all n! orders up to this size and
# switches to the backtracking search beyond it.
AUTO_EXHAUSTIVE_MAX_VERTICES = 9

# lower_bound_audit refuses a graph whose cost k!*(n + |E|*k) exceeds this:
# general(6) costs 1.1e7 and takes 0.5 s, general(7) 6.6e8 and 17.8 s (2 vCPUs).
_MAX_AUDIT_COST = 10**8

# general_construction refuses to build more edges, and oriented_subsets to
# list more oriented k-subsets, than this (general(9) would have 1,653,120).
_MAX_EDGES = 1_000_000

# The search refuses to do more work than this, counted as the pair search
# charges it (see _backtracking_search): general(5) holds after 6.7e7, while
# general(6) and a directed 2-path on 3,000 vertices are refused.
_MAX_SEARCH_WORK = 10**8

# The search refuses graphs on more vertices than this before it builds
# anything: the violating order it prints lists every vertex.
_MAX_VERTICES = 1_000_000

# The exhaustive decider and the histogram build order-coverage masks on at
# most this many vertices (9! bits, 45 KB) and walk larger vertex sets one
# lex block at a time.  The census masks are bounded by _MAX_MASK_BYTES.
_BLOCK_VERTICES = 9

# The bytes of order-coverage masks held at once: by the mask memo below, and
# by the census's table (_coverage_masks), built once per census by the calling
# process: (10,2) takes 38 MiB, (8,8) would take 193 MiB and (11,2) 523 MiB.
_MAX_MASK_BYTES = 64 << 20


class BudgetExceededError(RuntimeError):
    """Raised when an operation would enumerate more than its configured budget."""


class InternalError(RuntimeError):
    """Raised when a self-check fails: a bug, never a verdict about the input."""


class _RecordMeta(type):
    def __new__(mcls, name: str, bases: tuple, namespace: dict) -> type:
        namespace["__slots__"] = tuple(namespace.get("__annotations__", ()))
        return super().__new__(mcls, name, bases, namespace)


class Record(metaclass=_RecordMeta):
    """Immutable record: fields are the class's annotated names (a class
    constant stays unannotated), each given to the constructor, by position
    or keyword.  A value that other fields determine is a read-only
    property, never a field, so no record can contradict itself.

    Instances compare, hash and print by their fields, pickle and copy by
    rebuilding through ``__init__``, and refuse assignment.  A subclass may
    define ``__post_init__`` to normalise its fields with
    ``object.__setattr__``.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            rest = names[len(args) :]
            if len(args) > len(names) or kwargs.keys() != set(rest):
                raise TypeError(f"{type(self).__name__}() takes the fields {names}")
            args += tuple(map(kwargs.__getitem__, rest))
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class OrientedHypergraph(Record):
    """An oriented k-uniform hypergraph on vertices 0..n-1.

    ``edges`` is a sequence of ordered k-tuples; the tuple order is the
    orientation.  The constructor stores k, n and every vertex as an exact
    integer (``operator.index``, so a float or a string raises
    ``TypeError``) and the edges as tuples, and refuses an invalid graph:
    unless every edge has k distinct vertices inside 0..n-1 and no two
    edges share a vertex set, it raises ``ValueError`` listing every
    violation that :func:`_violations` finds.  Every graph that exists is
    therefore valid, and nothing downstream checks again.
    """

    k: int
    n: int
    edges: tuple[OrientedEdge, ...]

    def __post_init__(self) -> None:
        k, n = operator.index(self.k), operator.index(self.n)
        if k < 2:
            raise ValueError(f"uniformity must be at least 2, got {k}")
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        edges = tuple(tuple(map(operator.index, e)) for e in self.edges)
        # one pass over sets; the message-building walk runs only on failure
        keys = set(map(frozenset, edges))
        vertices = set().union(*keys)
        if not (
            len(keys) == len(edges)
            and all(len(key) == k for key in keys)
            and all(len(e) == k for e in edges)
            and (not vertices or 0 <= min(vertices) and max(vertices) < n)
        ):
            messages = (message for _, message in _violations(k, n, edges))
            raise ValueError("invalid hypergraph: " + "; ".join(messages))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)


class VerificationCertificate(Record):
    """Outcome of a Property O check.

    ``work`` is the deciding kernel's own count: for the exhaustive method
    the orders it examined, the first violating order's rank + 1 (n! when
    Property O holds); for the backtracking method the nodes at which it
    branched.  The verdict is read off the violating order: Property O holds
    exactly when there is none.
    """

    method: str
    violating_order: LinearOrder | None
    work: int

    @property
    def holds(self) -> bool:
        return self.violating_order is None

    @property
    def verdict(self) -> str:
        return PROPERTY_O if self.holds else VIOLATED

    @property
    def orders_examined(self) -> int:
        """Complete orders looked at: ``work`` for the exhaustive method,
        and for the search the one violating order it produced, if any."""
        if self.method == EXHAUSTIVE:
            return self.work
        return int(self.violating_order is not None)

    @property
    def nodes_expanded(self) -> int | None:
        """Nodes the search branched at; None for the exhaustive method."""
        return self.work if self.method == BACKTRACKING else None


class CoverageHistogram(Record):
    """How many linear orders are consistent with exactly c edges.

    ``counts[c]`` is the number of orders with exactly ``c`` consistent
    edges.  Conservation: the counts sum to n!, and the weighted sum
    ``sum(c * counts[c])`` equals ``len(edges) * n!/k!`` because every
    oriented edge is consistent with exactly n!/k! orders.
    """

    counts: Mapping[int, int]

    def total_orders(self) -> int:
        return sum(self.counts.values())

    def weighted_total(self) -> int:
        return sum(c * m for c, m in self.counts.items())


class AuditReport(Record):
    """Result of :func:`lower_bound_audit`.

    ``class_sizes[i]`` counts the base-edge permutations sigma whose
    sigma-order (the k permuted base vertices first, every other vertex
    after them in ascending label order) leaves edge i consistent.  A
    nonzero class size is always k!/m! where m is the edge's intersection
    size with the base edge, which is what makes the divisibility audit of
    the k!-edge counting argument checkable.  ``total`` sums the class
    sizes, and ``residue`` is that sum mod k.  The base edge meets itself in
    all k vertices and no other edge has its vertex set, so k is the largest
    intersection size.
    """

    class_sizes: tuple[int, ...]
    intersection_sizes: tuple[int, ...]
    min_coverage: int

    @property
    def total(self) -> int:
        return sum(self.class_sizes)

    @property
    def residue(self) -> int:
        return self.total % max(self.intersection_sizes)


# ---------------------------------------------------------------------------
# permutation and worker-pool utilities shared by the deciders, the census
# and the sampler
# ---------------------------------------------------------------------------


def unrank_permutation(rank: int, items: Sequence[int]) -> tuple[int, ...]:
    """Return the permutation of ``items`` with the given lexicographic rank.

    ``items`` is taken in the given order as the reference ordering; rank 0
    is ``tuple(items)`` itself.
    """
    pool = list(items)
    size = len(pool)
    total = math.factorial(size)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range for {size} items")
    out = []
    f = total
    for remaining in range(size, 0, -1):
        f //= remaining
        index, rank = divmod(rank, f)
        out.append(pool.pop(index))
    return tuple(out)


def colex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {0..n-1} in colexicographic order."""
    return sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])


def _subset_count(n: int, k: int, limit: int) -> int | None:
    """C(n,k), or None once a partial count C(n,i), i <= min(k, n-k),
    passes ``limit`` >= 1: it grows with i up to n/2.  The one check that
    n >= k >= 2, raising ``ValueError``."""
    if k < 2 or n < k:
        raise ValueError(f"need n >= k >= 2, got n={n}, k={k}")
    count = 1
    for i in range(min(k, n - k)):
        count = count * (n - i) // (i + 1)
        if count > limit:
            return None
    return count


def _factorial_upto(k: int, limit: int) -> int | None:
    """k!, or None once the product passes ``limit``."""
    product = 1
    for j in range(2, k + 1):
        product *= j
        if product > limit:
            return None
    return product


@functools.lru_cache(maxsize=1)
def oriented_subsets(n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per colex k-subset of {0..n-1}, its k! oriented tuples in
    lexicographic order, so ``row[r]`` is ``unrank_permutation(r, row[0])``
    and ``row[0]`` is the sorted subset.  One table is memoised, the last,
    and dropped before the next is built.  Tables over ``_MAX_EDGES``
    tuples, C(n,k)*k!, are refused before any is built.
    """
    count = _subset_count(n, k, _MAX_EDGES)
    if count is None or _factorial_upto(k, _MAX_EDGES // count) is None:
        raise BudgetExceededError(
            f"the oriented {k}-subsets of {n} vertices are over the "
            f"{_MAX_EDGES}-tuple budget"
        )
    oriented_subsets.cache_clear()  # drop the last table before building this one
    return tuple(tuple(itertools.permutations(s)) for s in colex_subsets(n, k))


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


def run_count(jobs: int, size: int) -> int:
    """How many runs :func:`ordered_map` deals ``size`` items into:
    min(``jobs``, CPUs, ``size``), with ``jobs`` raised to at least 1."""
    return min(max(jobs, 1), os.cpu_count() or 1, size)


def ordered_map(
    func: Callable[[Sequence[Any]], Any],
    items: Sequence[Any],
    jobs: int,
    until: Callable[[Any], bool] | None = None,
) -> list:
    """``func`` over contiguous runs of ``items``, results in run order.

    ``items`` are dealt into :func:`run_count` runs of near-equal length,
    and ``func`` is called once with each run; no items means no call.
    Every run but the first starts at once in a child of its own
    (``os.fork``), which pickles its outcome into a pipe of its own and
    leaves through ``os._exit``; this process walks the first run, then
    reads the pipes to EOF in run order.  The map ends after the first
    result that ``until`` accepts; that result is the last in the list, and
    the children not yet read are killed, as they are when any run raises
    (a child's exception is raised again here).  No queue or lock is shared
    between children, so a killed child cannot leave one held.  A child
    that exits without a result, or whose outcome does not pickle, raises
    :class:`InternalError`.  Results are pickled, so keep them small.
    """
    size = len(items)
    count = run_count(jobs, size)
    runs = [items[size * i // count : size * (i + 1) // count] for i in range(count)]
    if count > 1:
        import pickle
        import signal

    pids: list[int] = []
    readers: list[int] = []
    results: list = []
    try:
        for run in runs[1:]:
            reader, writer = os.pipe()
            readers.append(reader)
            try:
                pid = os.fork()
                if pid == 0:  # the child leaves only through os._exit
                    try:
                        try:
                            outcome = (True, func(run))
                        except Exception as exc:  # raised again in the parent
                            outcome = (False, exc)
                        data = pickle.dumps(outcome)
                        with open(writer, "wb") as pipe:
                            pipe.write(data)
                    finally:
                        os._exit(0)
            finally:
                # later children must not inherit it, or no pipe reaches EOF
                os.close(writer)
            pids.append(pid)
        results += map(func, runs[:1])  # this process walks the first run
        for i, reader in enumerate(readers, 1):
            if until is not None and until(results[-1]):
                break
            with open(reader, "rb", closefd=False) as pipe:
                data = pipe.read()
            try:
                ok, value = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):
                raise InternalError(
                    f"internal error: worker of run {i} sent no result"
                ) from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for i, pid in enumerate(pids, 1):
            if i >= len(results):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            os.close(reader)


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def _violations(
    k: int, n: int, edges: Sequence[Sequence[int]]
) -> Iterator[tuple[int, str]]:
    """Every way the edges break :class:`OrientedHypergraph`'s validity
    rule, as (edge index, message): a wrong edge length, a repeated vertex,
    a vertex outside 0..n-1, and two edges on one vertex set, a duplicate
    charged to the later of its two edges."""
    seen: dict[frozenset[int], int] = {}
    for i, edge in enumerate(edges):
        if len(edge) != k:
            yield i, f"edge {i}: has {len(edge)} vertices, expected {k}"
        if len(set(edge)) != len(edge):
            yield i, f"edge {i}: repeated vertex in edge"
        for v in edge:
            if not 0 <= v < n:
                yield i, f"edge {i}: vertex {v} out of range for n={n}"
        key = frozenset(edge)
        if len(set(edge)) == len(edge):
            if key in seen:
                yield i, (
                    f"edges {seen[key]} and {i}: "
                    f"duplicate underlying set {sorted(key)}"
                )
            else:
                seen[key] = i


def is_consistent(edge: Sequence[int], order: Sequence[int]) -> bool:
    """True iff the edge's vertices appear in increasing positions of ``order``.

    ``order`` is the ascending sequence of a linear order; ``order[0]`` is
    the smallest element.  An order that lists a vertex twice, or misses a
    vertex of the edge, raises ``ValueError``.
    """
    position = {v: i for i, v in enumerate(order)}
    if len(position) != len(order):
        raise ValueError(f"order {tuple(order)} lists a vertex twice")
    previous = -1
    for v in edge:
        try:
            p = position[v]
        except KeyError:
            raise ValueError(f"vertex {v} not covered by the order") from None
        if p < previous:
            return False
        previous = p
    return True


def _consistent_edges(
    order: Sequence[int], edges: Sequence[OrientedEdge], n: int
) -> list[int]:
    """Indices of the ``edges`` consistent with ``order``, read off one
    position table.  ``order`` must list each of the n vertices once;
    anything else is a bug of the caller and raises :class:`InternalError`."""
    if sorted(order) != list(range(n)):
        raise InternalError(
            f"internal error: {order} is not an order of the {n} vertices"
        )
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    consistent = []
    for index, e in enumerate(edges):
        previous = -1
        for v in e:
            if position[v] < previous:
                break
            previous = position[v]
        else:
            consistent.append(index)
    return consistent


def support_restriction(graph: OrientedHypergraph) -> OrientedHypergraph:
    """Restrict to the vertices that occur in some edge, compacting indices.

    The relabelling preserves the relative order of the surviving vertices.
    Property O is unchanged: consistency depends only on the relative order
    of each edge's own vertices, and every order of the support extends to
    an order of the full vertex set.
    """
    support = sorted({v for e in graph.edges for v in e})
    mapping = {v: i for i, v in enumerate(support)}
    edges = tuple(tuple(mapping[v] for v in e) for e in graph.edges)
    return OrientedHypergraph(graph.k, len(support), edges)


def reverse(graph: OrientedHypergraph) -> OrientedHypergraph:
    """Reverse every edge tuple, keeping the vertex set.

    An edge is consistent with an order iff its reversal is consistent with
    the reversed order, and order reversal is a bijection on linear orders,
    so the reversal has Property O iff the input does.
    """
    return OrientedHypergraph(graph.k, graph.n, tuple(e[::-1] for e in graph.edges))


def relabel(graph: OrientedHypergraph, mapping: Sequence[int]) -> OrientedHypergraph:
    """Apply a vertex permutation: vertex v becomes ``mapping[v]``."""
    if sorted(mapping) != list(range(graph.n)):
        raise ValueError("mapping must be a permutation of the vertex indices")
    return OrientedHypergraph(
        graph.k, graph.n, tuple(tuple(mapping[v] for v in e) for e in graph.edges)
    )


def count_consistent_orders(k: int, n: int) -> int:
    """Number of linear orders of n vertices consistent with one fixed edge.

    A fixed oriented k-edge is consistent with exactly C(n,k)*(n-k)! = n!/k!
    of the n! orders.  Computed in exact integer arithmetic.
    """
    _subset_count(n, k, 1)  # ValueError unless n >= k >= 2
    return math.factorial(n) // math.factorial(k)


# ---------------------------------------------------------------------------
# deciders
# ---------------------------------------------------------------------------


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
    vertex of a closure step two bitset operations, 2 + N//32 words.
    """
    if graph.n > _MAX_VERTICES:
        raise BudgetExceededError(
            f"search over {graph.n} vertices refused (limit n <= {_MAX_VERTICES})"
        )
    support = sorted({v for e in graph.edges for v in e})
    edges = support_restriction(graph).edges
    size = len(support)
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
    step, scan = 2 + size // 32, sum(map(len, edges))
    work, budget, nodes = 0, _MAX_SEARCH_WORK, 0

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


def check_property_o(
    graph: OrientedHypergraph, method: str = AUTO
) -> VerificationCertificate:
    """Decide Property O and return a certificate.

    ``method`` is one of "exhaustive", "backtracking" or "auto"; auto covers
    all orders up to n = 9 and backtracks beyond that.  This is the one
    caller of both deciding kernels: before any certificate is built, a
    violating order is re-checked to list each vertex once and to leave
    every edge inconsistent, from one position table, and a failed
    re-check raises :class:`InternalError`.

    Each kernel refuses work over its budget with
    :class:`BudgetExceededError`: the exhaustive cover a graph of more than
    ``EXHAUSTIVE_MAX_VERTICES`` vertices, the search a graph of more than
    ``_MAX_VERTICES`` vertices or more than ``_MAX_SEARCH_WORK`` units of
    work.  The search keeps its pending branches on a stack of its own, so
    its verdict does not depend on the caller's stack depth.
    """
    if method == AUTO:
        method = EXHAUSTIVE if graph.n <= AUTO_EXHAUSTIVE_MAX_VERTICES else BACKTRACKING
    if method == EXHAUSTIVE:
        order, work = _exhaustive_search(graph)
    elif method == BACKTRACKING:
        order, work = _backtracking_search(graph)
    else:
        raise ValueError(f"unknown method {method!r}")

    if order is not None:
        consistent = _consistent_edges(order, graph.edges, graph.n)
        if consistent:
            raise InternalError(
                f"internal error: edge {graph.edges[consistent[0]]} is consistent "
                f"with reported violating order {order}"
            )
    return VerificationCertificate(method, order, work)


def _trial_method(n: int, k: int) -> str:
    """The decider for the sampler's random k-tournaments on n vertices.

    Below ``_BLOCK_VERTICES`` vertices, the exhaustive cover, whose memoised
    masks the trials share: over 200 and 2,000 cold trials it took 0.12-0.74
    of the search's time at k = 4, 5 and at (8,2), but 1.9-3.3 times as long
    at (8,5) x 200 and (8,6).  From there on the search: at (9,3), where no
    whole-graph mask is memoised, the cover took 10 times as long.
    """
    return EXHAUSTIVE if n < _BLOCK_VERTICES else BACKTRACKING


# ---------------------------------------------------------------------------
# coverage statistics
# ---------------------------------------------------------------------------


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


def lower_bound_audit(graph: OrientedHypergraph, base_edge_index: int) -> AuditReport:
    """Classify edges by consistency with the base-edge permutation orders.

    For each permutation sigma of the base edge's vertices, the sigma-order
    places sigma first and every other vertex after it in ascending label
    order.  ``class_sizes[i]`` counts the sigma whose sigma-order leaves
    edge i consistent; each nonzero class size must equal k!/m! for the
    edge's base-intersection size m, and the base edge's own class size is
    exactly 1.  ``min_coverage`` is the fewest edges any sigma-order leaves
    consistent.  Each sigma-order is checked against every edge from one
    position table, so the audit costs k!*(n + |E|*k); above
    ``_MAX_AUDIT_COST`` it raises :class:`BudgetExceededError` before
    checking any sigma-order.
    """
    if not 0 <= base_edge_index < len(graph.edges):
        raise ValueError(
            f"base edge index {base_edge_index} out of range for "
            f"{len(graph.edges)} edges"
        )
    k = graph.k
    # a k! over the budget is neither built nor printed
    fact_k = _factorial_upto(k, _MAX_AUDIT_COST)
    if fact_k is None or fact_k * (graph.n + len(graph.edges) * k) > _MAX_AUDIT_COST:
        raise BudgetExceededError(
            f"refusing to check {fact_k or f'{k}!'} sigma-orders: "
            f"k!*(n + |E|*k) is over the budget of {_MAX_AUDIT_COST}"
        )
    base = graph.edges[base_edge_index]
    base_set = set(base)
    tail = tuple(v for v in range(graph.n) if v not in base_set)

    class_sizes = [0] * len(graph.edges)
    coverage = []
    for sigma in itertools.permutations(base):
        consistent = _consistent_edges(sigma + tail, graph.edges, graph.n)
        for i in consistent:
            class_sizes[i] += 1
        coverage.append(len(consistent))

    intersection_sizes = [len(set(e) & base_set) for e in graph.edges]
    for i, size in enumerate(class_sizes):
        allowed = fact_k // math.factorial(intersection_sizes[i])
        if size not in (0, allowed):
            raise InternalError(
                f"internal error: class size {size} for edge {i} is neither 0 "
                f"nor {allowed}"
            )
    if class_sizes[base_edge_index] != 1:
        raise InternalError("internal error: base edge class size must be 1")

    return AuditReport(
        class_sizes=tuple(class_sizes),
        intersection_sizes=tuple(intersection_sizes),
        min_coverage=min(coverage),
    )
