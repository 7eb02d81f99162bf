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

The module provides the data model, the consistency predicate, the entry
point to both deciders, :func:`check_property_o`, and a counting audit that
classifies each edge by how many permutations of a chosen base edge leave
it consistent.  The two deciders, an exhaustive order cover
(:mod:`propertyo.cover`) and a backtracking search over adjacent pairs
(:mod:`propertyo.pairsearch`), each import only this module: they are
deliberately separate code paths, so that the tests can cross-check them.

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

# check_property_o(method="auto") covers all n! orders up to this size and
# switches to the backtracking search beyond it.
AUTO_EXHAUSTIVE_MAX_VERTICES = 9

# lower_bound_audit refuses a graph whose cost k!*(n + |E|*k) exceeds this:
# general(6) costs 1.1e7 and takes 0.5 s, general(7) 6.6e8 and 17.8 s (2 vCPUs).
_MAX_AUDIT_COST = 10**8

# general_construction refuses to build more edges, and oriented_subsets to
# list more oriented k-subsets, than this (general(9) would have 1,653,120).
_MAX_EDGES = 1_000_000


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

    Each kernel, imported in its branch since its module imports this one,
    refuses work over its budget with :class:`BudgetExceededError`: the
    exhaustive cover a graph of more than ``cover.EXHAUSTIVE_MAX_VERTICES``
    vertices, the search one of more than ``pairsearch._MAX_VERTICES``
    vertices or ``pairsearch._MAX_SEARCH_WORK`` units of work.  The search
    keeps its pending branches on a stack of its own, so its verdict does
    not depend on the caller's stack depth.
    """
    if method == AUTO:
        method = EXHAUSTIVE if graph.n <= AUTO_EXHAUSTIVE_MAX_VERTICES else BACKTRACKING
    if method == EXHAUSTIVE:
        from .cover import _exhaustive_search
        order, work = _exhaustive_search(graph)
    elif method == BACKTRACKING:
        from .pairsearch import _backtracking_search
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


# ---------------------------------------------------------------------------
# the counting audit
# ---------------------------------------------------------------------------


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
