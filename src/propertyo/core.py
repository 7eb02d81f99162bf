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

The module provides the data model, the consistency predicate, two
independent deciders (an exhaustive order cover and a backtracking search
over order prefixes), the order-coverage histogram, and a counting audit
that classifies each edge by how many permutations of a chosen base edge
leave it consistent.  The two deciders are deliberately separate code paths
so that the test suite can cross-check them against each other.

The exhaustive decider and the histogram rest on one order-coverage kernel
(:func:`_edge_mask`): bit p of an edge's mask is the order of lex rank p.
Above 9 vertices the top lex blocks are walked in rank order, so no mask is
wider than 9! bits and the decider stops at the first uncovered block.

The search decider (:func:`_backtracking_search`) builds an order of the
vertices that lie in some edge, smallest element first.  Its state is one
integer packing k-1 levels of |E| bits, level i at bit offset i*|E|: level
i holds the alive edges whose first i vertices are already placed in
order.  A placement is two ANDs, an OR and a shift with words precomputed
per vertex.  A prefix is rejected as soon as an edge would be left with
only its last vertex to place, since every completion then leaves that
edge consistent.

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
STRUCTURED = "structured"
AUTO = "auto"

# Exhaustive verify and the histogram refuse graphs above this vertex count.
# Memory does not set it, since no mask is wider than 9! bits; time does,
# since a graph with Property O on n > 9 vertices takes n!/9! lex blocks
# (1320 at n = 12, 17160 at n = 13).
EXHAUSTIVE_MAX_VERTICES = 12

# check_property_o(method="auto") covers all n! orders up to this size and
# switches to the backtracking search beyond it.
AUTO_EXHAUSTIVE_MAX_VERTICES = 9

# Order-coverage masks are built on at most this many vertices (9! bits,
# 45 KB); larger vertex sets are walked one lex block at a time.
_BLOCK_VERTICES = 9


class BudgetExceededError(RuntimeError):
    """Raised when an operation would enumerate more than its configured budget."""


class InternalError(RuntimeError):
    """Raised when a self-check fails: a bug, never a verdict about the input."""


class Record:
    """Immutable record: fields are the class's ``__slots__``, defaults come
    from ``_defaults``.

    Instances compare, hash and print by their fields, pickle and copy by
    rebuilding through ``__init__``, and refuse assignment.  A subclass may
    define ``__post_init__`` to normalise its fields with
    ``object.__setattr__``.
    """

    __slots__ = ()
    _defaults: Mapping[str, Any] = {}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            values = {**self._defaults, **dict(zip(names, args)), **kwargs}
            if (
                len(args) > len(names)
                or values.keys() != set(names)
                or not kwargs.keys().isdisjoint(names[: len(args)])
            ):
                raise TypeError(f"{type(self).__name__}() takes the fields {names}")
            args = tuple(values[name] for name in names)
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
    orientation.  The constructor only normalises the data to immutable
    tuples; use :func:`validate` to check the structural invariants, which
    deliberately reports problems as data instead of raising, so that broken
    inputs (e.g. from a file) can be diagnosed.
    """

    __slots__ = ("k", "n", "edges")
    k: int
    n: int
    edges: tuple[OrientedEdge, ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"uniformity must be at least 2, got {self.k}")
        if self.n < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.n}")
        object.__setattr__(self, "edges", tuple(tuple(map(int, e)) for e in self.edges))


class ValidationResult(Record):
    __slots__ = ("ok", "violations")
    _defaults = {"violations": ()}
    ok: bool
    violations: tuple[str, ...]


class VerificationCertificate(Record):
    """Outcome of a Property O check.

    ``orders_examined`` counts complete linear orders the decider looked at:
    for the exhaustive method it is the first violating order's rank + 1
    (n! when Property O holds); for the backtracking method it is the number
    of complete violating-order candidates produced (0 or 1), with the real
    work metric recorded in ``nodes_expanded`` (vertex placements tried).
    """

    __slots__ = (
        "verdict", "method", "violating_order", "orders_examined", "nodes_expanded"
    )
    _defaults = {"nodes_expanded": None}
    verdict: str
    method: str
    violating_order: LinearOrder | None
    orders_examined: int
    nodes_expanded: int | None

    @property
    def holds(self) -> bool:
        return self.verdict == PROPERTY_O


class CoverageHistogram(Record):
    """How many linear orders are consistent with exactly c edges.

    ``counts[c]`` is the number of orders with exactly ``c`` consistent
    edges.  Conservation: the counts sum to n!, and the weighted sum
    ``sum(c * counts[c])`` equals ``len(edges) * n!/k!`` because every
    oriented edge is consistent with exactly n!/k! orders.
    """

    __slots__ = ("counts",)
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
    the k!-edge counting argument checkable.
    """

    __slots__ = (
        "class_sizes", "intersection_sizes", "total", "residue", "min_coverage"
    )
    class_sizes: tuple[int, ...]
    intersection_sizes: tuple[int, ...]
    total: int
    residue: int
    min_coverage: int


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


def rank_permutation(sequence: Sequence[int]) -> int:
    """Lexicographic rank of ``sequence`` among permutations of its sorted values."""
    pool = sorted(sequence)
    if len(set(pool)) != len(pool):
        raise ValueError("sequence has repeated values")
    rank = 0
    f = math.factorial(len(pool))
    for v in sequence:
        f //= len(pool)
        rank += pool.index(v) * f
        pool.remove(v)
    return rank


def colex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {0..n-1} in colexicographic order."""
    return sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])


@functools.lru_cache(maxsize=16)
def oriented_subset_tables(
    n: int, k: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[tuple[int, ...], ...], ...]]:
    """Colex subsets of {0..n-1} and, per subset, its k! oriented tuples in
    lexicographic order, so ``oriented[t][r]`` is
    ``unrank_permutation(r, subsets[t])``.  Memoised per (n, k)."""
    subsets = tuple(colex_subsets(n, k))
    return subsets, tuple(tuple(itertools.permutations(s)) for s in subsets)


def ordered_map(
    func: Callable[[Sequence[Any]], Any],
    items: Sequence[Any],
    jobs: int,
    until: Callable[[Any], bool] | None = None,
) -> list:
    """``func`` over contiguous runs of ``items``, results in run order.

    ``items`` are dealt into min(``jobs``, CPUs, len(``items``)) runs of
    near-equal length, and ``func`` is called once with each run; no items
    means no call.  A single run is called in this process.  With several,
    every run starts at once in a child of its own (``os.fork``), which
    pickles its outcome into a pipe of its own and leaves through
    ``os._exit``; the parent reads the pipes to EOF in run order.  The map
    ends after the first result that ``until`` accepts; that result is the
    last in the list, and the children not yet read are killed.  No queue
    or lock is shared between children, so a killed child cannot leave one
    held.  A child's exception is raised again here, and a child that
    exits without a result, or whose outcome does not pickle, raises
    :class:`InternalError`.  Results are pickled, so keep them small.
    """
    size = len(items)
    count = min(max(jobs, 1), os.cpu_count() or 1, size)
    runs = [items[size * i // count : size * (i + 1) // count] for i in range(count)]
    if count <= 1:
        return [func(run) for run in runs]
    import pickle
    import signal

    pids: list[int] = []
    readers: list[int] = []
    results: list = []
    try:
        for run in runs:
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
        for i, reader in enumerate(readers):
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
            if until is not None and until(value):
                break
        return results
    finally:
        for i, pid in enumerate(pids):
            if i >= len(results):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            os.close(reader)


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def validate(graph: OrientedHypergraph) -> ValidationResult:
    """Check the structural invariants, reporting every violation found.

    Violations are data, not failures: repeated vertices inside an edge,
    out-of-range vertex indices, and two edges sharing the same underlying
    k-element set are each reported with the offending edge indices.
    """
    violations = tuple(message for _, message in _violations(graph))
    return ValidationResult(ok=not violations, violations=violations)


def _violations(graph: OrientedHypergraph) -> Iterator[tuple[int, str]]:
    """Each of :func:`validate`'s violations as (edge index, message); a
    duplicate underlying set is charged to the later of its two edges."""
    seen: dict[frozenset[int], int] = {}
    for i, edge in enumerate(graph.edges):
        if len(edge) != graph.k:
            yield i, f"edge {i}: has {len(edge)} vertices, expected {graph.k}"
        if len(set(edge)) != len(edge):
            yield i, f"edge {i}: repeated vertex in edge"
        for v in edge:
            if not 0 <= v < graph.n:
                yield i, f"edge {i}: vertex {v} out of range for n={graph.n}"
        key = frozenset(edge)
        if len(set(edge)) == len(edge):
            if key in seen:
                yield i, (
                    f"edges {seen[key]} and {i}: "
                    f"duplicate underlying set {sorted(key)}"
                )
            else:
                seen[key] = i


def require_valid(graph: OrientedHypergraph) -> None:
    """Raise ``ValueError`` listing :func:`validate`'s violations, if any.

    A graph is valid iff every edge has k entries, its vertex set has k
    elements inside 0..n-1, and no two edges share a vertex set.  That is
    checked in one pass over sets; the message-building walk of
    :func:`validate` runs only when the pass fails.
    """
    edges, k = graph.edges, graph.k
    keys = set(map(frozenset, edges))
    vertices = set().union(*keys)
    if (
        len(keys) == len(edges)
        and all(len(key) == k for key in keys)
        and all(len(e) == k for e in edges)
        and (not vertices or 0 <= min(vertices) and max(vertices) < graph.n)
    ):
        return
    result = validate(graph)
    if not result.ok:
        raise ValueError("invalid hypergraph: " + "; ".join(result.violations))


def is_consistent(edge: Sequence[int], order: Sequence[int]) -> bool:
    """True iff the edge's vertices appear in increasing positions of ``order``.

    ``order`` is the ascending sequence of a linear order; ``order[0]`` is
    the smallest element.
    """
    position = {v: i for i, v in enumerate(order)}
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
    return OrientedHypergraph(
        graph.k, graph.n, tuple(tuple(elem for elem in e[::-1]) for e in graph.edges)
    )


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
    if k < 2:
        raise ValueError(f"uniformity must be at least 2, got {k}")
    if k > n:
        raise ValueError(f"need n >= k, got k={k}, n={n}")
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
    """Bitmask of the orders of j vertices consistent with an edge.

    Bit p stands for the order of lex rank p; ``ranks`` are the ranks of the
    edge's remaining vertices among the j.  Block i of the mask, (j-1)! bits
    wide, is the edge's memoised mask inside lex block i on one vertex fewer.
    """
    if not ranks:
        return (1 << math.factorial(j)) - 1
    width = math.factorial(j - 1)
    mask = 0
    for i in range(j):
        inner = _descend(ranks, i)
        if inner is not None:
            mask |= _memo_edge_mask(j - 1, inner) << (i * width)
    return mask


# Top-level masks are not cached, so under the block walk no cached mask is
# wider than 8! bits; there are at most j!/(j-r)! keys of r ranks on j vertices.
_memo_edge_mask = functools.lru_cache(maxsize=None)(_edge_mask)


def _lex_blocks(n: int, edges: Sequence[OrientedEdge]) -> Iterator[list[int]]:
    """Masks of the edges alive in each lex block of ``_BLOCK_VERTICES``
    vertices, block by block in rank order; together they cover all n! orders."""

    def walk(j: int, alive: list[tuple[int, ...]]) -> Iterator[list[int]]:
        if j <= _BLOCK_VERTICES:
            yield [_edge_mask(j, ranks) for ranks in alive]
            return
        for i in range(j):
            inner = (_descend(ranks, i) for ranks in alive)
            yield from walk(j - 1, [r for r in inner if r is not None])

    return walk(n, [tuple(e) for e in edges])


def _exhaustive_search(graph: OrientedHypergraph) -> tuple[LinearOrder | None, int]:
    """Return (lex-first violating order or None, its rank + 1 or n!)."""
    n = graph.n
    if n > EXHAUSTIVE_MAX_VERTICES:
        raise BudgetExceededError(
            f"refusing to enumerate {n}! orders (limit n <= "
            f"{EXHAUSTIVE_MAX_VERTICES}); use the backtracking method"
        )
    width = math.factorial(min(n, _BLOCK_VERTICES))
    full = (1 << width) - 1
    for block, masks in enumerate(_lex_blocks(n, graph.edges)):
        covered = functools.reduce(operator.or_, masks, 0)
        if covered != full:
            rank = block * width + (~covered & (covered + 1)).bit_length() - 1
            return unrank_permutation(rank, range(n)), rank + 1
    return None, math.factorial(n)


def _backtracking_search(
    graph: OrientedHypergraph,
) -> tuple[LinearOrder | None, int]:
    """Return (some violating order or None, placements tried).

    The order is built smallest element first.  The search state is one
    integer of k-1 levels, |E| bits each: bit i*|E| + e is set when edge e
    is alive and its first i vertices are placed in order, so that it
    expects its i-th vertex next.  Placing v moves the edges that expect v
    up one level and drops every other alive edge containing v, which can
    no longer be consistent.  With three words per vertex, ``keep[v]`` (on
    every level, the edges without v), ``at[v]`` (on level i < k-2, the
    edges whose i-th vertex is v) and ``reject[v]`` (on level k-2, the edges
    whose (k-2)-th vertex is v), the new state is
    ``state & keep[v] | (state & at[v]) << |E|``.  An edge that would be
    left expecting only its last vertex is consistent with every completion
    of the prefix, so a placement with ``state & reject[v]`` is rejected at
    once.  Once no edge is alive, any completion violates, and the remaining
    vertices are appended in ascending order.  Only vertices that lie in
    some edge are placed, tried in ascending order; the others are appended
    to the violating order found, also ascending.  Every placement tried
    counts, rejected ones included.
    """
    n, k, m = graph.n, graph.k, len(graph.edges)
    has = [0] * n  # has[v]: edges containing v
    at = [0] * n
    reject = [0] * n
    for ei, e in enumerate(graph.edges):
        bit = 1 << ei
        for v in e:
            has[v] |= bit
        for i in range(k - 2):
            at[e[i]] |= bit << i * m
        reject[e[k - 2]] |= bit << (k - 2) * m
    every_level = sum(1 << (i * m) for i in range(k - 1))
    full = (1 << ((k - 1) * m)) - 1
    keep = [full ^ has_v * every_level for has_v in has]
    nodes = 0

    def search(state: int, rest: tuple[int, ...]) -> LinearOrder | None:
        """A violating order of the ``rest`` vertices, or None."""
        nonlocal nodes
        if not state:
            return rest
        for j, v in enumerate(rest):
            if not state & reject[v]:
                order = search(
                    state & keep[v] | (state & at[v]) << m, rest[:j] + rest[j + 1 :]
                )
                if order is not None:
                    nodes += j + 1
                    return (v,) + order
        nodes += len(rest)
        return None

    support = tuple(v for v in range(n) if has[v])
    order = search((1 << m) - 1, support)
    # search refers to itself through its cell: emptying the cell frees the
    # closure and its words now, not at the next cyclic garbage collection
    del search
    if order is not None:
        order += tuple(v for v in range(n) if not has[v])
    return order, nodes


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
    """
    require_valid(graph)
    if method == AUTO:
        method = EXHAUSTIVE if graph.n <= AUTO_EXHAUSTIVE_MAX_VERTICES else BACKTRACKING
    if method == EXHAUSTIVE:
        order, examined = _exhaustive_search(graph)
        nodes = None
    elif method == BACKTRACKING:
        order, nodes = _backtracking_search(graph)
        examined = 0 if order is None else 1
    else:
        raise ValueError(f"unknown method {method!r}")

    if order is not None:
        consistent = _consistent_edges(order, graph.edges, graph.n)
        if consistent:
            raise InternalError(
                f"internal error: edge {graph.edges[consistent[0]]} is consistent "
                f"with reported violating order {order}"
            )
    return VerificationCertificate(
        verdict=PROPERTY_O if order is None else VIOLATED,
        method=method,
        violating_order=order,
        orders_examined=examined,
        nodes_expanded=nodes,
    )


def find_violating_order_exhaustive(graph: OrientedHypergraph) -> LinearOrder | None:
    """Lexicographically first order consistent with no edge, or None.

    The order of ``check_property_o(graph, EXHAUSTIVE)``, so it is re-checked
    against every edge.  Refuses with :class:`BudgetExceededError` when n
    exceeds ``EXHAUSTIVE_MAX_VERTICES``.
    """
    return check_property_o(graph, EXHAUSTIVE).violating_order


def find_violating_order_backtracking(
    graph: OrientedHypergraph,
) -> LinearOrder | None:
    """Some order consistent with no edge, or None if every order has one.

    The order of ``check_property_o(graph, BACKTRACKING)``, so it is
    re-checked against every edge.  Same decision as
    :func:`find_violating_order_exhaustive` but without the n! budget; the
    order need not be the lexicographically first.  Vertices are tried in
    ascending index order, so the result is deterministic.
    """
    return check_property_o(graph, BACKTRACKING).violating_order


# ---------------------------------------------------------------------------
# coverage statistics
# ---------------------------------------------------------------------------


def coverage_histogram(graph: OrientedHypergraph) -> CoverageHistogram:
    """Histogram of consistent-edge counts over all n! linear orders.

    The counts are read off a bit-sliced counter that adds up the edges'
    order-coverage masks, one lex block at a time.
    """
    require_valid(graph)
    n = graph.n
    if n > EXHAUSTIVE_MAX_VERTICES:
        raise BudgetExceededError(
            f"refusing to enumerate {n}! orders (limit n <= {EXHAUSTIVE_MAX_VERTICES})"
        )
    full = (1 << math.factorial(min(n, _BLOCK_VERTICES))) - 1
    counts: dict[int, int] = {}
    edges = graph.edges
    for masks in _lex_blocks(n, edges):
        # bit-sliced counter: bit p of planes[b] is bit b of order p's count
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
            counts[c] = counts.get(c, 0) + orders.bit_count()

    total = sum(counts.values())
    expected_total = math.factorial(n)
    if total != expected_total:
        raise InternalError(
            f"internal error: histogram covers {total} orders, expected {expected_total}"
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
    position table, so the audit costs k!*(n + |E|*k).
    """
    require_valid(graph)
    if not 0 <= base_edge_index < len(graph.edges):
        raise IndexError(
            f"base edge index {base_edge_index} out of range for "
            f"{len(graph.edges)} edges"
        )
    k = graph.k
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
    fact_k = math.factorial(k)
    for i, size in enumerate(class_sizes):
        allowed = fact_k // math.factorial(intersection_sizes[i])
        if size not in (0, allowed):
            raise InternalError(
                f"internal error: class size {size} for edge {i} is neither 0 "
                f"nor {allowed}"
            )
    if class_sizes[base_edge_index] != 1:
        raise InternalError("internal error: base edge class size must be 1")

    total = sum(class_sizes)
    return AuditReport(
        class_sizes=tuple(class_sizes),
        intersection_sizes=tuple(intersection_sizes),
        total=total,
        residue=total % k,
        min_coverage=min(coverage),
    )
