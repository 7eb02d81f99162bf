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
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import multiprocessing
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

OrientedEdge = tuple[int, ...]
LinearOrder = tuple[int, ...]

PROPERTY_O = "property_o"
VIOLATED = "violated"

EXHAUSTIVE = "exhaustive"
BACKTRACKING = "backtracking"
STRUCTURED = "structured"
AUTO = "auto"

# Exhaustive verify and the histogram refuse graphs above this vertex count
# unless the caller raises the limit.  Memory does not set it, since no mask
# is wider than 9! bits; time does, since a graph with Property O on n > 9
# vertices takes n!/9! lex blocks (1320 at n = 12, 17160 at n = 13).
DEFAULT_MAX_VERTICES = 12

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


@dataclass(frozen=True)
class OrientedHypergraph:
    """An oriented k-uniform hypergraph on vertices 0..n-1.

    ``edges`` is a sequence of ordered k-tuples; the tuple order is the
    orientation.  The constructor only normalises the data to immutable
    tuples; use :func:`validate` to check the structural invariants, which
    deliberately reports problems as data instead of raising, so that broken
    inputs (e.g. from a file) can be diagnosed.
    """

    k: int
    n: int
    edges: tuple[OrientedEdge, ...]

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"uniformity must be at least 2, got {self.k}")
        if self.n < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.n}")
        object.__setattr__(
            self, "edges", tuple(tuple(int(v) for v in e) for e in self.edges)
        )

    def underlying_sets(self) -> list[frozenset[int]]:
        return [frozenset(e) for e in self.edges]


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class VerificationCertificate:
    """Outcome of a Property O check.

    ``orders_examined`` counts complete linear orders the decider looked at:
    for the exhaustive method it is the first violating order's rank + 1
    (n! when Property O holds); for the backtracking method it is the number
    of complete violating-order candidates produced (0 or 1), with the real
    work metric recorded in ``nodes_expanded`` (vertex placements tried).
    """

    verdict: str
    method: str
    violating_order: LinearOrder | None
    orders_examined: int
    nodes_expanded: int | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == PROPERTY_O


@dataclass(frozen=True)
class CoverageHistogram:
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


@dataclass(frozen=True)
class AuditReport:
    """Result of :func:`lower_bound_audit`.

    ``class_sizes[i]`` counts the base-edge permutations sigma whose
    sigma-order (the k permuted base vertices first, every other vertex
    after them in ascending label order) leaves edge i consistent.  A
    nonzero class size is always k!/m! where m is the edge's intersection
    size with the base edge, which is what makes the divisibility audit of
    the k!-edge counting argument checkable.
    """

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


def ordered_map(
    func: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: int,
    until: Callable[[Any], bool] | None = None,
) -> list:
    """``func`` over ``tasks``, results in task order.

    With ``jobs`` > 1 and several tasks each call runs in a forked process
    of its own, at most ``jobs`` (and no more than CPUs) at a time.  The map
    ends after the first result that ``until`` accepts; that result is the
    last in the list, and the processes still running are killed.  A
    worker's exception is raised again here.  Results are pickled, so keep
    them small.
    """

    def take(results: Iterable[Any]) -> list:
        taken = []
        for result in results:
            taken.append(result)
            if until is not None and until(result):
                break
        return taken

    if jobs <= 1 or len(tasks) <= 1:
        return take(map(func, tasks))
    processes = min(jobs, multiprocessing.cpu_count())
    with contextlib.closing(_forked_map(func, tasks, processes)) as results:
        return take(results)


def _send_outcome(func: Callable[[Any], Any], task: Any, conn) -> None:
    try:
        outcome = (True, func(task))
    except Exception as exc:  # raised again in the parent
        outcome = (False, exc)
    conn.send(outcome)


def _forked_map(
    func: Callable[[Any], Any], tasks: Sequence[Any], processes: int
) -> Iterator[Any]:
    """Yield ``func(task)`` in task order, each computed in a forked child
    that sends its outcome down a pipe of its own.

    Closing the generator kills the children still running.  With no queue
    or lock shared between children, a killed child cannot leave one held:
    a ``multiprocessing.Pool`` can hang in ``terminate`` when a worker dies
    while writing its result.
    """
    import multiprocessing.connection  # here: it pulls in subprocess and locale

    context = multiprocessing.get_context("fork")
    waiting = iter(enumerate(tasks))
    running: dict[Any, tuple[int, Any]] = {}  # pipe end -> (index, child)
    outcomes: dict[int, tuple[bool, Any]] = {}
    try:
        for index in range(len(tasks)):
            while index not in outcomes:
                for i, task in itertools.islice(waiting, processes - len(running)):
                    reader, writer = context.Pipe(duplex=False)
                    child = context.Process(
                        target=_send_outcome, args=(func, task, writer), daemon=True
                    )
                    child.start()
                    writer.close()
                    running[reader] = (i, child)
                for reader in multiprocessing.connection.wait(list(running)):
                    i, child = running.pop(reader)
                    try:
                        outcomes[i] = reader.recv()
                    except EOFError:
                        raise InternalError(
                            f"internal error: worker of task {i} sent no result"
                        ) from None
                    finally:
                        reader.close()
                        child.join()
            ok, value = outcomes.pop(index)
            if not ok:
                raise value
            yield value
    finally:
        for reader, (_, child) in running.items():
            child.kill()
            child.join()
            reader.close()


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------


def validate(graph: OrientedHypergraph) -> ValidationResult:
    """Check the structural invariants, reporting every violation found.

    Violations are data, not failures: repeated vertices inside an edge,
    out-of-range vertex indices, and two edges sharing the same underlying
    k-element set are each reported with the offending edge indices.
    """
    violations: list[str] = []
    seen: dict[frozenset[int], int] = {}
    for i, edge in enumerate(graph.edges):
        if len(edge) != graph.k:
            violations.append(f"edge {i}: has {len(edge)} vertices, expected {graph.k}")
        if len(set(edge)) != len(edge):
            violations.append(f"edge {i}: repeated vertex in edge")
        for v in edge:
            if not 0 <= v < graph.n:
                violations.append(f"edge {i}: vertex {v} out of range for n={graph.n}")
        key = frozenset(edge)
        if len(set(edge)) == len(edge):
            if key in seen:
                violations.append(
                    f"edges {seen[key]} and {i}: duplicate underlying set {sorted(key)}"
                )
            else:
                seen[key] = i
    return ValidationResult(ok=not violations, violations=tuple(violations))


def require_valid(graph: OrientedHypergraph) -> None:
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


def _exhaustive_search(
    graph: OrientedHypergraph, max_vertices: int
) -> tuple[LinearOrder | None, int]:
    """Return (lex-first violating order or None, its rank + 1 or n!)."""
    n = graph.n
    if n > max_vertices:
        raise BudgetExceededError(
            f"refusing to enumerate {n}! orders (limit n <= {max_vertices}); "
            "use the backtracking method or raise max_vertices"
        )
    width = math.factorial(min(n, _BLOCK_VERTICES))
    full = (1 << width) - 1
    for block, masks in enumerate(_lex_blocks(n, graph.edges)):
        covered = functools.reduce(operator.or_, masks, 0)
        if covered != full:
            rank = block * width + (~covered & (covered + 1)).bit_length() - 1
            return unrank_permutation(rank, range(n)), rank + 1
    return None, math.factorial(n)


def find_violating_order_exhaustive(
    graph: OrientedHypergraph,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> LinearOrder | None:
    """Lexicographically first order consistent with no edge, or None.

    ORs the edges' order-coverage masks block by block and unranks the
    lowest uncovered bit.  Refuses with :class:`BudgetExceededError` when n
    exceeds ``max_vertices``.
    """
    require_valid(graph)
    order, _ = _exhaustive_search(graph, max_vertices)
    return order


def _backtracking_search(
    graph: OrientedHypergraph,
) -> tuple[LinearOrder | None, int]:
    """Return (some violating order or None, placements tried).

    The order is built smallest element first.  Every edge tracks the index
    of the vertex it expects next; placing that vertex advances the edge,
    while placing any other of its vertices kills it for the current branch
    (the edge can no longer be consistent).  A fully advanced edge is
    consistent with every completion of the prefix, so the prefix is
    abandoned.  Once every edge is dead, any completion violates, and the
    remaining vertices are appended in ascending order.
    """
    n = graph.n
    edges = graph.edges
    m = len(edges)
    k = graph.k

    if m == 0:
        return tuple(range(n)), 0

    edges_of: list[list[int]] = [[] for _ in range(n)]
    for ei, e in enumerate(edges):
        for v in e:
            edges_of[v].append(ei)

    next_index = [0] * m
    alive = [True] * m
    dead_count = 0
    used = [False] * n
    prefix: list[int] = []
    nodes = 0

    def place(v: int) -> list[tuple[str, int]] | None:
        nonlocal dead_count
        changes: list[tuple[str, int]] = []
        for ei in edges_of[v]:
            if not alive[ei]:
                continue
            if edges[ei][next_index[ei]] == v:
                next_index[ei] += 1
                changes.append(("advance", ei))
                if next_index[ei] == k:
                    # edge consistent with any completion: reject this prefix
                    undo(changes)
                    return None
            else:
                alive[ei] = False
                dead_count += 1
                changes.append(("kill", ei))
        return changes

    def undo(changes: list[tuple[str, int]]) -> None:
        nonlocal dead_count
        for kind, ei in reversed(changes):
            if kind == "advance":
                next_index[ei] -= 1
            else:
                alive[ei] = True
                dead_count -= 1

    def search() -> LinearOrder | None:
        nonlocal nodes
        if dead_count == m:
            tail = [v for v in range(n) if not used[v]]
            return tuple(prefix) + tuple(tail)
        for v in range(n):
            if used[v]:
                continue
            nodes += 1
            changes = place(v)
            if changes is None:
                continue
            used[v] = True
            prefix.append(v)
            result = search()
            if result is not None:
                return result
            prefix.pop()
            used[v] = False
            undo(changes)
        return None

    return search(), nodes


def find_violating_order_backtracking(
    graph: OrientedHypergraph,
) -> LinearOrder | None:
    """Some order consistent with no edge, or None if every order has one.

    Same decision as :func:`find_violating_order_exhaustive` but without the
    n! budget; the returned order need not be the lexicographically first.
    Vertices are tried in ascending index order, so the result and the node
    count are deterministic.
    """
    require_valid(graph)
    order, _ = _backtracking_search(graph)
    return order


def check_property_o(
    graph: OrientedHypergraph,
    method: str = AUTO,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> VerificationCertificate:
    """Decide Property O and return a certificate.

    ``method`` is one of "exhaustive", "backtracking" or "auto"; auto covers
    all orders up to n = 9 and backtracks beyond that.  A "violated"
    certificate is re-checked against :func:`is_consistent` for every edge
    before being returned.
    """
    require_valid(graph)
    if method == AUTO:
        method = EXHAUSTIVE if graph.n <= AUTO_EXHAUSTIVE_MAX_VERTICES else BACKTRACKING
    if method == EXHAUSTIVE:
        order, examined = _exhaustive_search(graph, max_vertices)
        nodes = None
    elif method == BACKTRACKING:
        order, nodes = _backtracking_search(graph)
        examined = 0 if order is None else 1
    else:
        raise ValueError(f"unknown method {method!r}")

    if order is None:
        return VerificationCertificate(
            verdict=PROPERTY_O,
            method=method,
            violating_order=None,
            orders_examined=examined,
            nodes_expanded=nodes,
        )
    for e in graph.edges:
        if is_consistent(e, order):
            raise InternalError(
                f"internal error: edge {e} is consistent with reported "
                f"violating order {order}"
            )
    return VerificationCertificate(
        verdict=VIOLATED,
        method=method,
        violating_order=order,
        orders_examined=examined,
        nodes_expanded=nodes,
    )


# ---------------------------------------------------------------------------
# coverage statistics
# ---------------------------------------------------------------------------


def coverage_histogram(
    graph: OrientedHypergraph, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> CoverageHistogram:
    """Histogram of consistent-edge counts over all n! linear orders.

    The counts are read off a bit-sliced counter that adds up the edges'
    order-coverage masks, one lex block at a time.
    """
    require_valid(graph)
    n = graph.n
    if n > max_vertices:
        raise BudgetExceededError(
            f"refusing to enumerate {n}! orders (limit n <= {max_vertices})"
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

    Vertices are relabelled so the base edge becomes (0, ..., k-1) and the
    remaining vertices follow in ascending original order.  For each
    permutation sigma of the base vertices, the sigma-order places the
    permuted base block first and every other vertex after it in ascending
    label order.  ``class_sizes[i]`` counts the sigma whose sigma-order
    leaves edge i consistent; each nonzero class size must equal k!/m! for
    the edge's base-intersection size m, and the base edge's own class size
    is exactly 1.
    """
    require_valid(graph)
    if not 0 <= base_edge_index < len(graph.edges):
        raise IndexError(
            f"base edge index {base_edge_index} out of range for "
            f"{len(graph.edges)} edges"
        )
    k, n = graph.k, graph.n
    base = graph.edges[base_edge_index]
    base_set = set(base)
    mapping = {v: i for i, v in enumerate(base)}
    for offset, v in enumerate(sorted(set(range(n)) - base_set)):
        mapping[v] = k + offset
    edges = [tuple(mapping[v] for v in e) for e in graph.edges]

    class_sizes = [0] * len(edges)
    min_coverage = None
    tail = tuple(range(k, n))
    for sigma in itertools.permutations(range(k)):
        order = sigma + tail
        per_order = 0
        for i, e in enumerate(edges):
            if is_consistent(e, order):
                class_sizes[i] += 1
                per_order += 1
        if min_coverage is None or per_order < min_coverage:
            min_coverage = per_order

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
        min_coverage=min_coverage if min_coverage is not None else 0,
    )
