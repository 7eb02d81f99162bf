"""Exhaustive k-tournament census and edge-minimality analysis.

A k-tournament assigns one of the k! orientations to each of the C(n,k)
k-subsets of the vertex set.  The census identifies a tournament with its
mixed-radix counter: subsets are taken in colexicographic order, the
digit of a subset is its edge's index in the subset's row of
:func:`propertyo.core.oriented_subset_tables` (the lexicographic rank among
the permutations of the sorted subset), and the first subset is the most
significant digit.  That makes the space trivially partitionable into
contiguous counter ranges for parallel workers, and makes "first witness"
well defined as the witness with the smallest counter.

Because adding edges never destroys Property O, an oriented k-graph on n
vertices with Property O extends to a k-tournament with Property O by
orienting the missing subsets arbitrarily; a census over tournaments
therefore settles whether *any* oriented k-graph on n vertices has the
property.

The census is a first-witness sweep: it decides the tournaments in counter
order and ends at the first one with Property O, or after the last.  It
works on order-coverage bitmasks: bit p of the mask of an oriented subset
marks the p-th linear order (lexicographic rank) as consistent with that
edge.  Walking the subsets most-significant-first while intersecting the
set of still-uncovered orders decides every tournament of a subtree in one
walk; a tournament has Property O exactly when no uncovered order remains,
and any remaining bit unranks to a verified violating order.  A subtree is
discarded in bulk when its uncovered orders outnumber what the remaining
subsets could cover of them: the sum, over the remaining subsets, of the
most uncovered orders one orientation of the subset covers.  The masks,
n! bits each, come from the order-coverage kernel in :mod:`propertyo.core`.

The sweep walks only the leader prefixes of the first k+1 digits: the
smallest of each orbit under the maps g that relabel vertices 0..k and may
reverse every edge (lex-leader pruning: Crawford, Ginsberg, Luks & Roy, KR
1996).  Such a g maps the first k+1 colex subsets (the k-subsets of
{0..k}) onto themselves and each later subset onto a later one, so the
image gP of a prefix P does not depend on the later digits.  If gP < P,
each tournament T under P has an image gT with a smaller counter, and gT
has Property O exactly when T does (for reversal, see
:func:`propertyo.core.reverse`).  So the smallest-counter witness has a
leader prefix.  The caller lists the leaders (36 of 1,296 at (5,3)) and
counts the tournaments under the other prefixes as decided, unwalked.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import time

from .core import (
    BudgetExceededError,
    InternalError,
    LinearOrder,
    OrientedHypergraph,
    Record,
    _MAX_MASK_BYTES,
    _edge_mask,
    _factorial_upto,
    _subset_count,
    check_property_o,
    ordered_map,
    oriented_subset_tables,
    run_count,
)

# Every census refuses a space (k!)^C(n,k) above 2**_MAX_SPACE_BITS, and
# masks that would take more than core._MAX_MASK_BYTES in each worker: each
# worker holds C(n,k)*k! masks of n! bits, one per orientation, of the
# orders it leaves uncovered.  (10,2) needs 38 MiB of them, the most of any
# admitted size; (8,8) would need 193 MiB (the k!+1 edge bound answers it
# at once) and (11,2) 523 MiB.
_MAX_SPACE_BITS = 64

# The edge-bound gate counts C(n,k) up to k! for k up to this: 0.2 s near
# the crossing n ~ k^2/e^2 at k = 10,000, 5.7 s at 50,000 (2 vCPUs).
_EXACT_GATE_K = 10_000


class SearchReport(Record):
    """Result of a census run.

    ``total_enumerated`` is the number of tournaments decided: the full
    space size (k!)**C(n,k) when the sweep found no witness, the witness
    counter plus one when it found one, and 0 when the edge-count rejection
    applies.  Tournaments under the prefixes the sweep skips count as
    decided.  None of it depends on the number of workers.
    ``first_witness`` is the smallest-counter witness.  ``runs`` is the
    number of runs the prefixes were dealt into
    (:func:`propertyo.core.run_count`), 0 when the edge-count rejection
    applies; like ``elapsed_seconds`` it depends on the worker count and the
    machine.
    """

    n: int
    k: int
    total_enumerated: int
    first_witness: OrientedHypergraph | None
    elapsed_seconds: float
    runs: int

    @property
    def property_o_found(self) -> int:
        """1 when the sweep found a witness, else 0: it stops at the first."""
        return int(self.first_witness is not None)

    def matches(self, other: "SearchReport") -> bool:
        """Equality of everything except the wall-clock time and the runs."""
        return (
            self.n == other.n
            and self.k == other.k
            and self.total_enumerated == other.total_enumerated
            and self.first_witness == other.first_witness
        )


class EdgeVerdict(Record):
    """Edge ``index`` is essential exactly when removing it leaves a
    violating order, the ``witness``; a redundant edge has none."""

    index: int
    witness: LinearOrder | None

    @property
    def essential(self) -> bool:
        return self.witness is not None


class MinimalityReport(Record):
    verdicts: tuple[EdgeVerdict, ...]

    @property
    def essential_count(self) -> int:
        return sum(1 for v in self.verdicts if v.essential)

    @property
    def all_essential(self) -> bool:
        return all(v.essential for v in self.verdicts)


def _check_space(n: int, k: int) -> tuple[int, int, int]:
    """(C(n,k), k!, the space (k!)^C(n,k)), once the space and masks fit their
    budgets.  As k! >= 2, C(n,k) is counted only up to _MAX_SPACE_BITS."""
    budget = 1 << _MAX_SPACE_BITS
    subset_count = _subset_count(n, k, _MAX_SPACE_BITS)
    fact_k = _factorial_upto(k, budget)
    space = fact_k**subset_count if subset_count and fact_k else None
    if space is None or space > budget:
        size = f" ~ 2^{math.log2(space):.1f}" if space else ""
        raise BudgetExceededError(
            f"census space is (k!)^C(n,k){size}, over the {_MAX_SPACE_BITS}-bit budget"
        )
    mask_bytes = subset_count * fact_k * math.factorial(n) // 8
    if mask_bytes > _MAX_MASK_BYTES:
        raise BudgetExceededError(
            f"census masks take {mask_bytes >> 20} MiB per worker, over the "
            f"{_MAX_MASK_BYTES >> 20} MiB budget"
        )
    return subset_count, fact_k, space


def _coverage_masks(n: int, k: int) -> tuple[list[list[int]], int]:
    """Per (subset, orientation) bitmask of the order ranks it leaves
    uncovered.

    Returns (masks, full_mask).  Order rank p is the lexicographic rank of
    the ascending sequence; each linear order is consistent with exactly one
    orientation of each subset, so each mask has n! - n!/k! bits and the k!
    masks of one subset AND to 0.
    """
    _, oriented = oriented_subset_tables(n, k)
    full = (1 << math.factorial(n)) - 1
    masks = [[full ^ _edge_mask(n, edge) for edge in row] for row in oriented]
    per_edge = math.factorial(n) - math.factorial(n) // math.factorial(k)
    for row in masks:
        common = full
        for mask in row:
            if mask.bit_count() != per_edge:
                raise InternalError("internal error: bad coverage mask popcount")
            common &= mask
        if common:
            raise InternalError("internal error: subset orientations do not cover")
    return masks, full


def _leader_prefixes(n: int, k: int) -> list[tuple[int, ...]]:
    """The leader prefixes of the first k+1 digits, in counter order: one
    pass over the k!**(k+1) prefixes keeps each that is not yet marked, the
    smallest of its orbit, and marks its image under every relabelling of
    vertices 0..k, with and without reversal."""
    head = oriented_subset_tables(n, k)[1][: k + 1]
    fact_k = math.factorial(k)
    # each edge on 0..k: its digit (index in its row) times its place value
    term = {
        edge: fact_k ** (k - t) * digit
        for t, row in enumerate(head)
        for digit, edge in enumerate(row)
    }
    images = [
        [[term[tuple(rho[v] for v in e)[::step]] for e in row] for row in head]
        for rho in itertools.permutations(range(k + 1))
        for step in (1, -1)
    ]
    marked = bytearray(fact_k ** (k + 1))
    leaders = []
    for code, digits in enumerate(itertools.product(range(fact_k), repeat=k + 1)):
        if not marked[code]:
            leaders.append(digits)
            for terms in images:
                marked[sum(map(list.__getitem__, terms, digits))] = 1
    return leaders


def _cover_reach(uncovered: int, rows: list[list[int]]) -> int:
    """How many orders of ``uncovered`` one orientation from each row can
    cover at most: the sum over rows of |uncovered| - min_o |uncovered &
    row[o]|, cut off once it reaches |uncovered|.

    Each row holds one remaining subset's k! uncovered-order masks.  The
    bound is admissible: when it falls short of |uncovered|, no choice of
    one orientation per remaining subset covers every uncovered order.
    Reaching |uncovered| does not promise such a choice.
    """
    need = uncovered.bit_count()
    reach = 0
    for row in rows:
        reach += need - min(map(int.bit_count, map(uncovered.__and__, row)))
        if reach >= need:
            break
    return reach


def _census_unit(
    n: int, k: int, progress_interval: int, prefixes: list[tuple[int, ...]]
) -> tuple[int, int | None]:
    """Walk the census tournaments under one worker's run of prefixes, up
    to the first witness.

    The prefixes are digit tuples of one length below C(n,k), in counter
    order.  Each prefix's uncovered-order masks are intersected up front
    and the recursion walks the rest, so a prefix that covers every order
    is reported by the recursion's next digit like any other witness.  A
    child subtree is counted as decided without a walk when its uncovered
    orders outnumber what the remaining subsets could cover of them: the
    sum over those subsets of the most uncovered orders one orientation
    covers (:func:`_cover_reach`).  No completion of such a child has
    Property O.  At the last digit no subset remains, so every child that
    is not a witness is discarded this way.  The walk ends at the first
    witness, the smallest counter under ``prefixes``.  Each worker, the
    caller too, builds its own masks from (n, k), and writes its progress
    lines between prefixes.  Returns (decided, first_witness_counter):
    ``decided`` counts the tournaments under ``prefixes`` decided before
    the witness, or all of them when there is none.
    """
    masks, full = _coverage_masks(n, k)
    m = len(masks)
    fact_k = math.factorial(k)
    pow_fk = [fact_k**i for i in range(m + 1)]
    # rests[d] holds the masks of subsets d..m-1.  One subset's k!
    # orientations partition the orders, so the best of them covers at least 1/k! of any
    # uncovered set, and the bound can only fire once fewer than k! subsets
    # remain.
    rests = [masks[d:] if m - d < fact_k else None for d in range(m + 1)]
    last = m - 1

    decided = 0
    first_counter: int | None = None

    def rec(d: int, uncovered: int, base_counter: int) -> bool:
        """Returns True at a witness, which ends the walk."""
        nonlocal decided, first_counter
        row = masks[d]
        step = pow_fk[last - d]
        rest = rests[d + 1]
        if rest is not None:
            # a child's uncovered orders are some of this node's, so what
            # the remaining subsets cover of this node's bounds every
            # child's: a cheap first filter before each child's own bound
            reach = _cover_reach(uncovered, rest)
        for o in range(fact_k):
            shrunk = uncovered & row[o]
            if shrunk == 0:
                first_counter = base_counter + o * step
                return True
            elif rest is not None and (
                reach < (left := shrunk.bit_count())
                or _cover_reach(shrunk, rest) < left
            ):
                decided += step
            elif rec(d + 1, shrunk, base_counter + o * step):
                return True
        return False

    start_time = time.perf_counter()
    next_report = progress_interval if progress_interval > 0 else math.inf
    for prefix in prefixes:
        uncovered = full
        base_counter = 0
        for d, o in enumerate(prefix):
            uncovered &= masks[d][o]
            base_counter += o * pow_fk[last - d]
        stop = rec(len(prefix), uncovered, base_counter)
        if decided >= next_report:
            elapsed = time.perf_counter() - start_time
            # one write per line, so lines from several workers stay whole
            sys.stderr.write(
                f"examined={decided} found={int(stop)} elapsed={elapsed:.1f}\n"
            )
            sys.stderr.flush()
            next_report += (
                (decided - next_report) // progress_interval + 1
            ) * progress_interval
        if stop:
            break

    return decided, first_counter


def _tournament_from_counter(n: int, k: int, counter: int) -> OrientedHypergraph:
    subsets, oriented = oriented_subset_tables(n, k)
    fact_k = math.factorial(k)
    digits = []
    for _ in range(len(subsets)):
        counter, digit = divmod(counter, fact_k)
        digits.append(digit)
    digits.reverse()
    edges = tuple(oriented[t][d] for t, d in enumerate(digits))
    return OrientedHypergraph(k, n, edges)


def census_property_o(
    n: int, k: int, *, jobs: int = 1, progress_interval: int = 0
) -> SearchReport:
    """Sweep the k-tournaments on n vertices for Property O, up to the
    smallest-counter witness.

    The sweep walks only the leader prefixes (see the module docstring),
    and ends at the first witness.  The prefixes are the same for any
    ``jobs``, and :func:`ordered_map` deals them in counter order into at
    most ``jobs`` runs (no more than CPUs): this process walks the first,
    and each other gets a forked child.  So the report is identical for any
    ``jobs``.  ``progress_interval`` > 0 makes each worker write an
    "examined=... found=... elapsed=..." line to stderr between prefixes,
    after each prefix whose walk takes the worker's decided count to the
    next multiple of that interval or past it; ``found`` is 1 after the
    worker's witness, else 0.
    """
    subset_count, fact_k, space = _check_space(n, k)
    start = time.perf_counter()

    # the same prefixes for every jobs value: the leaders on the first k+1
    # subsets.  Every prefix leaves the recursion a digit to walk, and with
    # k+1 subsets or fewer one digit is enough (k! prefixes, not
    # k!**(C(n,k)-1))
    depth = k + 1 if subset_count > k + 1 else min(1, subset_count - 1)
    if depth > k:
        prefixes = _leader_prefixes(n, k)
    else:
        prefixes = list(itertools.product(range(fact_k), repeat=depth))
    results = ordered_map(
        functools.partial(_census_unit, n, k, progress_interval),
        prefixes,
        jobs,
        until=lambda r: r[1] is not None,
    )

    # runs are in counter order and the map ends at the first witness
    first = results[-1][1]
    if first is not None:
        total = first + 1
    else:
        skipped = (fact_k**depth - len(prefixes)) * fact_k ** (subset_count - depth)
        total = skipped + sum(r[0] for r in results)
        if total != space:
            raise InternalError(
                f"internal error: census decided {total} tournaments, expected {space}"
            )
    elapsed = time.perf_counter() - start
    return SearchReport(
        n=n,
        k=k,
        total_enumerated=total,
        first_witness=(
            None if first is None else _tournament_from_counter(n, k, first)
        ),
        elapsed_seconds=elapsed,
        runs=run_count(jobs, len(prefixes)),
    )


def _below_edge_bound(n: int, k: int) -> bool:
    """Whether C(n,k) <= k!, too few subsets for the k!+1 edges of any
    Property O k-graph, by the rules in :func:`prove_vertex_lower_bound`."""
    # ValueError unless n >= k >= 2; C(n,k) = 1 exactly when n == k
    if _subset_count(n, k, 1) is not None:
        return True
    if n > k * k:  # C(n,k) >= (n/k)^k > k^k >= k!
        return False
    if k <= _EXACT_GATE_K:
        return _subset_count(n, k, math.factorial(k)) is not None
    try:
        log_n = math.lgamma(n + 1)
    except OverflowError:
        raise BudgetExceededError(
            f"C({n},{k}) and {k}! are too large to compare in floats"
        ) from None
    log_ratio = log_n - math.lgamma(n - k + 1) - 2 * math.lgamma(k + 1)
    if abs(log_ratio) <= 1e-12 * log_n:
        raise BudgetExceededError(
            f"C({n},{k}) and {k}! are too close to compare in floats"
        )
    return log_ratio < 0


def prove_vertex_lower_bound(
    n: int, k: int, *, jobs: int = 1, progress_interval: int = 0
) -> SearchReport:
    """Decide whether any oriented k-graph on n vertices has Property O.

    ``property_o_found`` is 0 exactly when no such graph exists, because a
    Property O graph would extend to a Property O tournament.  When
    C(n,k) <= k!, every n-vertex oriented k-graph falls below the k!+1 edge
    lower bound, so the census is skipped entirely and the report shows
    total_enumerated=0 and runs=0.  That test is exact when n == k, when
    n > k*k and for every k up to 10,000 (C(n,k) counted only up to k!).
    A larger k is compared on ``math.lgamma``, and a pair whose logs are
    too close to call, or whose n is past its range (about 2.5e305),
    raises :class:`BudgetExceededError`.  Otherwise this is
    :func:`census_property_o`: the counter-ordered sweep stops at the first
    witness and skips the prefixes that are not lex-leaders (see the
    module docstring).  ``jobs`` and
    ``progress_interval`` are passed on; a progress line is written between
    prefixes, never from inside one prefix's walk.
    """
    if _below_edge_bound(n, k):
        return SearchReport(
            n=n,
            k=k,
            total_enumerated=0,
            first_witness=None,
            elapsed_seconds=0.0,
            runs=0,
        )
    return census_property_o(n, k, jobs=jobs, progress_interval=progress_interval)


def edge_minimality(graph: OrientedHypergraph) -> MinimalityReport:
    """Classify each edge as essential or redundant for Property O.

    The input must have Property O.  An edge is redundant when the graph
    minus that edge still has Property O; an essential edge's verdict
    carries a violating order of the reduced graph as a witness, which
    :func:`check_property_o` has re-checked against every remaining edge.
    """
    if not check_property_o(graph).holds:
        raise ValueError("edge minimality is only defined for Property O inputs")
    verdicts = []
    for i in range(len(graph.edges)):
        reduced = OrientedHypergraph(
            graph.k, graph.n, graph.edges[:i] + graph.edges[i + 1 :]
        )
        verdicts.append(EdgeVerdict(i, check_property_o(reduced).violating_order))
    return MinimalityReport(verdicts=tuple(verdicts))
