"""Command-line interface.

All reports go to stdout as ``key=value`` lines (plus the documented
verify/minimality result lines); diagnostics go to stderr.  The search
decider (``verify --method dfs``, and ``auto`` above 9 vertices) also
reports the nodes it branched at as ``nodes=N``: at the end of the
``PROPERTY_O`` line, or on the line after ``VIOLATION``.  Exit codes:

    0  success; for verify this means Property O holds, for census that no
       Property O tournament exists (so shell scripts can assert bounds)
    1  semantic negative: verify found a violating order, census found a
       Property O tournament
    2  usage error (unknown subcommand or flag, missing argument)
    3  invalid input data (malformed hypergraph file, bad index, ...)
    4  work budget refused, before any output: n! orders over 12 vertices,
       a search on over 10**6 vertices or over 10**8 units of work, an
       audit, census or construction over its budget, a census edge-bound
       test C(n,k) <= k! with k over 10,000 whose logs are too close to call
       or whose n is past the float range, a sample of over 10**6
       orientation draws (trials * C(n,k)) or whose table holds over 10**6
       oriented k-subsets, or a stats edge bound of over 4300 digits, or
       over Python's int print limit when that is lower
    5  I/O failure
    6  internal error: a self-check failed or an unexpected exception was
       raised, so no result was reported

A process runs one subcommand, and Python start-up is most of a short
call's time.  So the module imports ``core`` and ``fileformat`` (which
``verify`` and ``audit`` need) and nothing else of the package:
``check_property_o`` loads the decider it runs, and the names taken from
``cover``, ``constructions``, ``search`` and ``montecarlo`` resolve on
first use.  Each handler binds the ones it calls with :func:`_load`,
which keeps a name that is already bound, so a name swapped on this module
(``setattr``) is the one the handler calls.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .core import (
    AUTO,
    BACKTRACKING,
    EXHAUSTIVE,
    BudgetExceededError,
    InternalError,
    check_property_o,
    lower_bound_audit,
)
from .fileformat import read_hypergraph, write_hypergraph


def __getattr__(name: str):
    """Resolve a name that the package exports from a module not imported
    above, through its lazy exports (PEP 562)."""
    package = sys.modules[__package__]
    lazy = ("cover", "constructions", "search", "montecarlo")
    if package._MODULE_OF.get(name) not in lazy:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


def _load(*names: str) -> None:
    """Bind each of ``names`` that is not yet a module global."""
    for name in names:
        if name not in globals():
            __getattr__(name)


EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_BUDGET = 4
EXIT_IO = 5
EXIT_INTERNAL = 6

# family: (builder in constructions, help blurb)
_FAMILIES = {
    "cyclic2": (
        "cyclic_triangle",
        "cyclically ordered triangle, the 3-edge 2-uniform example",
    ),
    "claim1": ("ten_edge_3graph", "10-edge 3-uniform example on 8 vertices"),
    "general": ("general_construction", "k-uniform family (requires --k)"),
    "h1": (
        "double_cycle_3graph",
        "18-edge 3-uniform example on the minimum of 6 vertices",
    ),
    "h2": ("merged_ten_edge_3graph", "10-edge 3-uniform example on 6 vertices"),
}

_METHODS = {"brute": EXHAUSTIVE, "dfs": BACKTRACKING, "auto": AUTO}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="propertyo",
        description="Construct, verify, audit and search oriented hypergraphs "
        "with Property O.",
        epilog="Exit codes: 0 ok / Property O / no tournament found; "
        "1 violating order or witness tournament found; 2 usage error; "
        "3 invalid input data; 4 enumeration budget refused; 5 I/O failure; "
        "6 internal error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write a generated hypergraph file")
    p.add_argument(
        "--family",
        required=True,
        choices=sorted(_FAMILIES),
        help="; ".join(
            f"{name}: {blurb}" for name, (_, blurb) in sorted(_FAMILIES.items())
        ),
    )
    p.add_argument("--k", type=int, help="uniformity, for --family general only")
    p.add_argument("--out", required=True, help="output file path")

    p = sub.add_parser("verify", help="decide Property O for a hypergraph file")
    p.add_argument("file")
    p.add_argument("--method", choices=sorted(_METHODS), default="auto")

    p = sub.add_parser("histogram", help="orders per consistent-edge count")
    p.add_argument("file")

    p = sub.add_parser("audit", help="base-edge permutation class sizes")
    p.add_argument("file")
    p.add_argument("--base-edge", type=int, required=True, dest="base_edge")

    p = sub.add_parser("minimality", help="essential/redundant verdict per edge")
    p.add_argument("file")

    p = sub.add_parser("census", help="sweep all k-tournaments on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--jobs", type=int, default=1, help="worker processes, at most one per CPU"
    )
    p.add_argument(
        "--progress", type=int, default=0, help="progress line interval (stderr)"
    )

    p = sub.add_parser("sample", help="Monte Carlo Property O rate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("stats", help="reference numbers for a uniformity k")
    p.add_argument("--k", type=int, required=True)

    return parser


def _cmd_construct(args) -> int:
    builder = _FAMILIES[args.family][0]
    if args.family == "general":
        if args.k is None:
            print("construct: --family general requires --k", file=sys.stderr)
            return EXIT_USAGE
        params = (args.k,)
    else:
        if args.k is not None:
            print(
                "construct: --k only applies to --family general", file=sys.stderr
            )
            return EXIT_USAGE
        params = ()
    _load(builder)
    write_hypergraph(globals()[builder](*params), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    graph = read_hypergraph(args.file)
    cert = check_property_o(graph, method=_METHODS[args.method])
    if cert.holds:
        line = f"PROPERTY_O method={cert.method} orders={cert.orders_examined}"
        if cert.nodes_expanded is not None:
            line += f" nodes={cert.nodes_expanded}"
        print(line)
        return EXIT_OK
    assert cert.violating_order is not None
    print("VIOLATION order=" + " ".join(str(v) for v in cert.violating_order))
    if cert.nodes_expanded is not None:
        # a line of its own: every field after "order=" is a vertex
        print(f"nodes={cert.nodes_expanded}")
    return EXIT_NEGATIVE


def _cmd_histogram(args) -> int:
    _load("coverage_histogram")
    graph = read_hypergraph(args.file)
    histogram = coverage_histogram(graph)
    for c in sorted(histogram.counts):
        print(f"count={c} orders={histogram.counts[c]}")
    # coverage_histogram raises InternalError unless the totals equal n!
    # and |E|*n!/k!, so each total is also its expected value
    total = histogram.total_orders()
    weighted = histogram.weighted_total()
    print(f"total_orders={total}")
    print(f"expected_total_orders={total}")
    print("orders_identity=ok")
    print(f"weighted_total={weighted}")
    print(f"expected_weighted_total={weighted}")
    print("weighted_identity=ok")
    return EXIT_OK


def _cmd_audit(args) -> int:
    graph = read_hypergraph(args.file)
    report = lower_bound_audit(graph, args.base_edge)
    print("class_sizes=" + ",".join(str(s) for s in report.class_sizes))
    print(
        "intersection_sizes=" + ",".join(str(s) for s in report.intersection_sizes)
    )
    print(f"total={report.total}")
    print(f"residue={report.residue}")
    print(f"min_coverage={report.min_coverage}")
    return EXIT_OK


def _cmd_minimality(args) -> int:
    _load("edge_minimality")
    graph = read_hypergraph(args.file)
    report = edge_minimality(graph)
    for verdict in report.verdicts:
        if verdict.essential:
            witness = " ".join(str(v) for v in verdict.witness)
            print(f"edge={verdict.index} essential witness={witness}")
        else:
            print(f"edge={verdict.index} redundant")
    return EXIT_OK


def _cmd_census(args) -> int:
    _load("prove_vertex_lower_bound")
    report = prove_vertex_lower_bound(
        args.n, args.k, jobs=args.jobs, progress_interval=args.progress
    )
    print(f"n={report.n}")
    print(f"k={report.k}")
    print(f"total_enumerated={report.total_enumerated}")
    print(f"property_o_found={report.property_o_found}")
    if report.first_witness is None:
        print("first_witness=none")
    else:
        edges = ",".join(
            " ".join(str(v) for v in e) for e in report.first_witness.edges
        )
        print(f"first_witness={edges}")
    print(f"elapsed_seconds={report.elapsed_seconds:.3f}")
    print(f"parallel_partitions={report.runs}")
    # every CLI census is a first-witness sweep, which skips non-leaders
    print("symmetry_pruning=true")
    return EXIT_OK if report.property_o_found == 0 else EXIT_NEGATIVE


def _cmd_sample(args) -> int:
    _load("estimate_property_o_rate")
    summary = estimate_property_o_rate(
        args.n, args.k, args.trials, args.seed, jobs=args.jobs
    )
    print(f"n={summary.n}")
    print(f"k={summary.k}")
    print(f"trials={summary.trials}")
    print(f"successes={summary.successes}")
    print(f"rate={summary.rate!r}")
    print(f"standard_error={summary.standard_error!r}")
    print(f"seed={summary.seed}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    _load("GeneralLayout", "min_edges_upper_bound", "min_edges_lower_bound")
    k = args.k
    # the upper bound is the longest number printed.  It may have 4300
    # digits, CPython's default limit on printing an int, or fewer when the
    # set limit is lower (0 means no limit, as in Pythons before 3.10.7)
    limit = min(getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300, 4300)
    cap = 10**limit
    counts = GeneralLayout(k).counts(cap)  # ValueError for k < 3, before any print
    if counts is None or counts[2] >= cap:
        raise BudgetExceededError(
            f"--k {k} gives a more-than-{limit}-digit edge bound, over the "
            f"{limit}-digit limit on printing an int"
        )
    print(f"upper_bound_edges={min_edges_upper_bound(k)}")
    print(f"construction_vertices={counts[1]}")
    print(f"lower_bound_edges={min_edges_lower_bound(k)}")
    leading = (k / math.e) ** 2
    refined = leading * (
        math.pi * math.exp(math.e**2 / 2) * k**3 * math.log(k)
    ) ** (1.0 / k)
    print(f"asymptotic_reference_vertices={leading!r}")
    print(f"asymptotic_reference_vertices_refined={refined!r}")
    return EXIT_OK


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "histogram": _cmd_histogram,
    "audit": _cmd_audit,
    "minimality": _cmd_minimality,
    "census": _cmd_census,
    "sample": _cmd_sample,
    "stats": _cmd_stats,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except BudgetExceededError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_IO
    except InternalError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a bug: exit 1 would read as a verdict
        import traceback

        traceback.print_exc()
        print(f"{args.command}: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
