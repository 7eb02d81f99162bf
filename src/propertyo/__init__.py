"""Oriented hypergraphs with Property O: constructions, verification, search.

A hypergraph here is an oriented k-graph: edges are ordered k-tuples of
distinct vertices, at most one orientation per underlying k-set.  It has
Property O when every linear order of the vertices is consistent with at
least one edge.  The package bundles the known small constructions with the
machinery to verify them, audit the counting bound on edge numbers, sweep
all k-tournaments on few vertices, and estimate Property O rates by seeded
Monte Carlo, all behind the ``propertyo`` command-line tool.
"""

import importlib

# Exports resolve on first access (PEP 562), so importing the package, or
# running one CLI subcommand, loads only the modules that are used.
_EXPORTS = {
    "core": (
        "AUTO", "BACKTRACKING", "EXHAUSTIVE", "PROPERTY_O", "VIOLATED",
        "AuditReport", "BudgetExceededError", "CoverageHistogram", "InternalError",
        "LinearOrder", "OrientedEdge", "OrientedHypergraph", "ValidationResult",
        "VerificationCertificate", "check_property_o", "count_consistent_orders",
        "coverage_histogram", "is_consistent", "lower_bound_audit",
        "relabel", "reverse", "support_restriction", "validate",
    ),
    "constructions": (
        "CaseCoverageReport", "GeneralLayout", "cyclic_triangle",
        "double_cycle_3graph", "general_construction", "insert_at",
        "merged_ten_edge_3graph", "min_edges_lower_bound", "min_edges_upper_bound",
        "structured_coverage_check", "ten_edge_3graph",
    ),
    "fileformat": (
        "HypergraphFormatError", "parse_hypergraph", "read_hypergraph",
        "serialize_hypergraph", "write_hypergraph",
    ),
    "montecarlo": (
        "TrialSummary", "estimate_property_o_rate", "random_tournament",
    ),
    "search": (
        "EdgeVerdict", "MinimalityReport", "SearchReport",
        "census_property_o", "edge_minimality", "prove_vertex_lower_bound",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

# constants, then classes, then functions
__all__ = sorted(
    _MODULE_OF, key=lambda name: (not name.isupper(), not name[0].isupper(), name)
)


def __getattr__(name: str):
    """Import the defining module of an export and cache the name here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
