"""Exhaustive k-tournament census and edge-minimality analysis.

A k-tournament assigns one of the k! orientations to each of the C(n,k)
k-subsets of the vertex set.  The census identifies a tournament with its
mixed-radix counter: subsets are taken in colexicographic order, the
orientation of a subset is the lexicographic rank of its edge tuple among
the permutations of the sorted subset, and the first subset is the most
significant digit.  That makes the space trivially partitionable into
contiguous counter ranges for parallel workers, and makes "first witness"
well defined as the witness with the smallest counter.

Because adding edges never destroys Property O, an oriented k-graph on n
vertices with Property O extends to a k-tournament with Property O by
orienting the missing subsets arbitrarily; a census over tournaments
therefore settles whether *any* oriented k-graph on n vertices has the
property.

The census engine works on order-coverage bitmasks: bit p of the mask of an
oriented subset marks the p-th linear order (lexicographic rank) as
consistent with that edge.  Walking the subsets most-significant-first
while intersecting the set of still-uncovered orders decides every
tournament of a subtree in one sweep; a tournament has Property O exactly
when no uncovered order remains, and any remaining bit unranks to a
verified violating order.  Subtrees whose uncovered orders outnumber what
the remaining subsets could possibly cover (each covers n!/k! orders) are
discarded in bulk.  The masks, n! bits each, come from the order-coverage
kernel in :mod:`propertyo.core`.

A first-witness sweep also skips every prefix of the first k+1 digits that
is not a lex-leader: a prefix P is skipped when some relabelling rho of
vertices 0..k maps it to a smaller prefix (Crawford, Ginsberg, Luks & Roy,
KR 1996).  This is sound because rho, fixing every other vertex, maps the
first k+1 colex subsets (the k-subsets of {0..k}) onto themselves, so the
image prefix rhoP does not depend on the remaining digits.  Every tournament
T under P then has the relabelling rhoT with a smaller counter, and rhoT has
Property O exactly when T does.  So the smallest-counter witness always has
a leader prefix and is never skipped.  The parent lists the leader prefixes
and hands them to the workers; it adds the skipped tournaments to the
decided total itself, without a walk.
"""

from __future__ import annotations

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
    _edge_mask,
    check_property_o,
    is_consistent,
    ordered_map,
    oriented_subset_tables,
    rank_permutation,
    require_valid,
)
from .constructions import min_edges_lower_bound

# Every census refuses a space (k!)^C(n,k) above 2**_MAX_SPACE_BITS, and
# masks that would take more than _MAX_MASK_BYTES in each worker: each
# worker holds 2*C(n,k)*k! masks (every orientation's and its complement)
# of n! bits.  (10,2) needs 78 MiB of them, (11,2) would need 1 GiB.
_MAX_SPACE_BITS = 64
_MAX_MASK_BYTES = 256 << 20


class SearchReport(Record):
    """Result of a census run.

    ``total_enumerated`` is the number of tournaments decided: the full
    space size (k!)**C(n,k) when every tournament was decided, the witness
    counter plus one when a first-witness search found one, and 0 when the
    edge-count rejection applies.  Tournaments under the prefixes a
    first-witness sweep skips count as decided.  None of it depends on the
    number of workers.  ``property_o_found`` is the exact count in a full
    census and 0 or 1 in a first-witness search, and ``first_witness`` is
    the smallest-counter witness.
    """

    __slots__ = (
        "n",
        "k",
        "total_enumerated",
        "property_o_found",
        "first_witness",
        "elapsed_seconds",
    )
    n: int
    k: int
    total_enumerated: int
    property_o_found: int
    first_witness: OrientedHypergraph | None
    elapsed_seconds: float

    def matches(self, other: "SearchReport") -> bool:
        """Equality of everything except the wall-clock time."""
        return (
            self.n == other.n
            and self.k == other.k
            and self.total_enumerated == other.total_enumerated
            and self.property_o_found == other.property_o_found
            and self.first_witness == other.first_witness
        )


class EdgeVerdict(Record):
    __slots__ = ("index", "essential", "witness")
    index: int
    essential: bool
    witness: LinearOrder | None


class MinimalityReport(Record):
    __slots__ = ("verdicts",)
    verdicts: tuple[EdgeVerdict, ...]

    @property
    def essential_count(self) -> int:
        return sum(1 for v in self.verdicts if v.essential)

    @property
    def all_essential(self) -> bool:
        return all(v.essential for v in self.verdicts)


def _check_space(n: int, k: int) -> int:
    if k < 2 or n < k:
        raise ValueError(f"need n >= k >= 2, got n={n}, k={k}")
    subset_count = math.comb(n, k)
    bits = subset_count * math.log2(math.factorial(k))
    if bits > _MAX_SPACE_BITS:
        raise BudgetExceededError(
            f"census space is (k!)^C(n,k) ~ 2^{bits:.1f}, over the "
            f"{_MAX_SPACE_BITS}-bit budget"
        )
    mask_bytes = subset_count * math.factorial(k) * math.factorial(n) // 4
    if mask_bytes > _MAX_MASK_BYTES:
        raise BudgetExceededError(
            f"census masks take {mask_bytes >> 20} MiB per worker, over the "
            f"{_MAX_MASK_BYTES >> 20} MiB budget"
        )
    return subset_count


def _coverage_masks(n: int, k: int) -> tuple[list[list[int]], int]:
    """Per (subset, orientation) bitmask of consistent order ranks.

    Returns (masks, full_mask).  Order rank p is the lexicographic
    rank of the ascending sequence; each linear order is consistent with
    exactly one orientation of each subset, so each mask has n!/k! bits and
    the k! masks of one subset partition the full mask.
    """
    _, oriented = oriented_subset_tables(n, k)
    masks = [[_edge_mask(n, edge) for edge in row] for row in oriented]
    full = (1 << math.factorial(n)) - 1
    per_edge = math.factorial(n) // math.factorial(k)
    for row in masks:
        combined = 0
        for mask in row:
            if mask.bit_count() != per_edge:
                raise InternalError("internal error: bad coverage mask popcount")
            combined |= mask
        if combined != full:
            raise InternalError("internal error: subset orientations do not cover")
    return masks, full


def _leader_tables(n: int, k: int) -> list[list[list[tuple[int, int]]]]:
    """For each non-identity permutation of vertices 0..k, the image
    (subset, orientation) of every (subset, orientation) among the first
    k+1 colex subsets, which are the k-subsets of {0..k}."""
    subsets, oriented = oriented_subset_tables(n, k)
    subset_index = {s: t for t, s in enumerate(subsets[: k + 1])}
    tables = []
    for rho in itertools.permutations(range(k + 1)):
        if rho == tuple(range(k + 1)):
            continue
        table = []
        for row in oriented[: k + 1]:
            images = [tuple(rho[v] for v in edge) for edge in row]
            table.append(
                [(subset_index[tuple(sorted(i))], rank_permutation(i)) for i in images]
            )
        tables.append(table)
    return tables


def _is_leader(digits: tuple[int, ...], tables) -> bool:
    """Whether no relabelling in ``tables`` maps the digits of the first
    k+1 subsets to a lexicographically smaller digit tuple."""
    for table in tables:
        image = [0] * len(digits)
        for t, o in enumerate(digits):
            t2, o2 = table[t][o]
            image[t2] = o2
        if tuple(image) < digits:
            return False
    return True


def _census_unit(args) -> tuple[int, int, int | None]:
    """Walk the census tournaments under one worker's run of prefixes.

    ``args`` is (n, k, prefixes, stop_first, progress_interval): the
    prefixes are digit tuples of one length below C(n,k), in counter order.
    Each prefix's masks are intersected up front and the recursion walks the
    remaining digits, so a prefix that already covers every order is
    reported by the recursion's next digit like any other witness.  The
    worker builds its own masks from (n, k).  Returns (enumerated, found,
    first_witness_counter), counting only the tournaments under
    ``prefixes``.  In stop_first mode the walk ends at the run's first
    witness and ``enumerated`` only covers what was decided before it.
    """
    n, k, prefixes, stop_first, progress_interval = args
    masks, full = _coverage_masks(n, k)
    m = len(masks)
    fact_k = math.factorial(k)
    not_masks = [[full ^ mask for mask in row] for row in masks]
    per_cover = math.factorial(n) // fact_k
    total_orders = math.factorial(n)
    pow_fk = [fact_k**i for i in range(m + 1)]
    budgets = [(m - d) * per_cover for d in range(m + 1)]
    last = m - 1

    enumerated = 0
    found = 0
    first_counter: int | None = None
    start_time = time.perf_counter()
    next_report = progress_interval if progress_interval > 0 else None

    def report_progress() -> None:
        nonlocal next_report
        if next_report is not None and enumerated >= next_report:
            elapsed = time.perf_counter() - start_time
            # one write per line, so lines from several workers stay whole
            sys.stderr.write(
                f"examined={enumerated} found={found} elapsed={elapsed:.1f}\n"
            )
            sys.stderr.flush()
            while next_report <= enumerated:
                next_report += progress_interval

    def rec(d: int, uncovered: int, base_counter: int) -> bool:
        """Returns True to stop the walk (witness found in stop_first mode)."""
        nonlocal enumerated, found, first_counter
        row = not_masks[d]
        if d == last:
            if uncovered.bit_count() > per_cover:
                enumerated += fact_k
                report_progress()
                return False
            for o in range(fact_k):
                if uncovered & row[o] == 0:
                    found += 1
                    if first_counter is None:
                        first_counter = base_counter + o
                    if stop_first:
                        return True
            enumerated += fact_k
            report_progress()
            return False
        step = pow_fk[m - 1 - d]
        budget = budgets[d + 1]
        prunable = budget < total_orders
        for o in range(fact_k):
            shrunk = uncovered & row[o]
            if shrunk == 0:
                if stop_first:
                    found += 1
                    first_counter = base_counter + o * step
                    return True
                found += step
                enumerated += step
                if first_counter is None:
                    first_counter = base_counter + o * step
                report_progress()
            elif prunable and shrunk.bit_count() > budget:
                enumerated += step
                report_progress()
            else:
                if rec(d + 1, shrunk, base_counter + o * step):
                    return True
        return False

    for prefix in prefixes:
        uncovered = full
        base_counter = 0
        for d, o in enumerate(prefix):
            uncovered &= not_masks[d][o]
            base_counter += o * pow_fk[last - d]
        if rec(len(prefix), uncovered, base_counter):
            break

    return enumerated, found, first_counter


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
    n: int,
    k: int,
    *,
    jobs: int = 1,
    progress_interval: int = 0,
    stop_at_first: bool = True,
) -> SearchReport:
    """Sweep every k-tournament on n vertices for Property O.

    With ``stop_at_first`` the sweep skips non-leader prefixes and ends at
    the smallest-counter witness; otherwise every tournament is walked and
    ``property_o_found`` is the exact count.  The parent lists the prefixes
    to walk and deals each of up to ``jobs`` workers one contiguous run of
    them in counter order, so the report is identical for any ``jobs``.
    ``progress_interval`` > 0 makes each worker write "examined=...
    found=... elapsed=..." lines to stderr roughly every that many walked
    tournaments.
    """
    subset_count = _check_space(n, k)
    fact_k = math.factorial(k)
    space = fact_k**subset_count
    start = time.perf_counter()

    # at least one prefix per worker before leaders are picked, and every
    # prefix leaves the recursion a digit to walk
    jobs = max(1, jobs)
    depth = 0
    while fact_k**depth < jobs and depth < subset_count - 1:
        depth += 1
    # a first-witness walk skips prefixes that are not lex-leaders on the
    # first k+1 subsets; with only k+1 subsets there is nothing to walk
    if stop_at_first and subset_count > k + 1:
        depth = max(depth, k + 1)
    prefixes = list(itertools.product(range(fact_k), repeat=depth))
    if stop_at_first and depth > k:
        tables = _leader_tables(n, k)
        prefixes = [p for p in prefixes if _is_leader(p[: k + 1], tables)]
    skipped = (fact_k**depth - len(prefixes)) * fact_k ** (subset_count - depth)
    bounds = [len(prefixes) * i // jobs for i in range(jobs + 1)]
    tasks = [
        (n, k, prefixes[lo:hi], stop_at_first, progress_interval)
        for lo, hi in zip(bounds, bounds[1:])
        if lo < hi
    ]
    results = ordered_map(
        _census_unit,
        tasks,
        jobs,
        until=(lambda r: r[2] is not None) if stop_at_first else None,
    )

    first = min((r[2] for r in results if r[2] is not None), default=None)
    if stop_at_first and first is not None:
        total, found = first + 1, 1
    else:
        total = skipped + sum(r[0] for r in results)
        found = sum(r[1] for r in results)
        if total != space:
            raise InternalError(
                f"internal error: census decided {total} tournaments, expected {space}"
            )
    elapsed = time.perf_counter() - start
    return SearchReport(
        n=n,
        k=k,
        total_enumerated=total,
        property_o_found=found,
        first_witness=(
            None if first is None else _tournament_from_counter(n, k, first)
        ),
        elapsed_seconds=elapsed,
    )


def prove_vertex_lower_bound(
    n: int, k: int, *, jobs: int = 1, progress_interval: int = 0
) -> SearchReport:
    """Decide whether any oriented k-graph on n vertices has Property O.

    ``property_o_found`` is 0 exactly when no such graph exists, because a
    Property O graph would extend to a Property O tournament.  When
    C(n,k) <= k!, every n-vertex oriented k-graph falls below the k!+1 edge
    lower bound, so the census is skipped entirely and the report shows
    total_enumerated=0.  Otherwise this is :func:`census_property_o` with
    ``stop_at_first``: the counter-ordered sweep stops at the first witness
    and skips the prefixes that are not lex-leaders (see the module
    docstring).  ``jobs`` and ``progress_interval`` are passed on.
    """
    if k < 2 or n < k:
        raise ValueError(f"need n >= k >= 2, got n={n}, k={k}")
    if math.comb(n, k) <= min_edges_lower_bound(k) - 1:
        return SearchReport(
            n=n,
            k=k,
            total_enumerated=0,
            property_o_found=0,
            first_witness=None,
            elapsed_seconds=0.0,
        )
    return census_property_o(
        n, k, jobs=jobs, progress_interval=progress_interval, stop_at_first=True
    )


def violating_order_for_counter(n: int, k: int, counter: int) -> LinearOrder | None:
    """A violating order of the counter's tournament, or None if it has
    Property O; used to spot-check census verdicts."""
    tournament = _tournament_from_counter(n, k, counter)
    cert = check_property_o(tournament, method="backtracking")
    return cert.violating_order


def edge_minimality(graph: OrientedHypergraph) -> MinimalityReport:
    """Classify each edge as essential or redundant for Property O.

    The input must have Property O.  An edge is redundant when the graph
    minus that edge still has Property O; an essential edge's verdict
    carries a violating order of the reduced graph as a witness.
    """
    require_valid(graph)
    if not check_property_o(graph).holds:
        raise ValueError("edge minimality is only defined for Property O inputs")
    verdicts = []
    for i in range(len(graph.edges)):
        reduced = OrientedHypergraph(
            graph.k, graph.n, graph.edges[:i] + graph.edges[i + 1 :]
        )
        cert = check_property_o(reduced)
        if cert.holds:
            verdicts.append(EdgeVerdict(index=i, essential=False, witness=None))
        else:
            order = cert.violating_order
            assert order is not None
            if any(is_consistent(e, order) for e in reduced.edges):
                raise InternalError("internal error: witness order is not violating")
            verdicts.append(EdgeVerdict(index=i, essential=True, witness=order))
    return MinimalityReport(verdicts=tuple(verdicts))
