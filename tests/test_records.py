"""The report and data types: immutable records that compare, hash, print,
pickle and copy by their fields; and the package's lazily resolved exports."""

import ast
import copy
import importlib
import pathlib
import pickle

import pytest

import propertyo
from propertyo import (
    GeneralLayout,
    MinimalityReport,
    OrientedHypergraph,
    SearchReport,
    ValidationResult,
    VerificationCertificate,
    check_property_o,
    coverage_histogram,
    cyclic_triangle,
    edge_minimality,
    estimate_property_o_rate,
    general_construction,
    lower_bound_audit,
    structured_coverage_check,
    validate,
)


def _records():
    """One instance of each of the 11 record types, with its repr."""
    g = cyclic_triangle()
    minimality = edge_minimality(g)
    g_repr = "OrientedHypergraph(k=2, n=3, edges=((0, 1), (1, 2), (2, 0)))"
    verdict_repr = "EdgeVerdict(index=0, witness=(0, 2, 1))"
    return [
        (g, g_repr),
        (
            validate(OrientedHypergraph(2, 2, ((0, 1), (1, 0)))),
            "ValidationResult(violations="
            "('edges 0 and 1: duplicate underlying set [0, 1]',))",
        ),
        (
            check_property_o(g),
            "VerificationCertificate(method='exhaustive', violating_order=None, "
            "work=6)",
        ),
        (coverage_histogram(g), "CoverageHistogram(counts={1: 3, 2: 3})"),
        (
            lower_bound_audit(g, 0),
            "AuditReport(class_sizes=(1, 2, 0), intersection_sizes=(2, 1, 1), "
            "min_coverage=1)",
        ),
        (GeneralLayout(3), "GeneralLayout(k=3)"),
        (
            structured_coverage_check(general_construction(3)),
            "CaseCoverageReport(k=3, problems=())",
        ),
        (
            SearchReport(3, 2, 8, g, 0.5, 2),
            f"SearchReport(n=3, k=2, total_enumerated=8, first_witness={g_repr}, "
            "elapsed_seconds=0.5, runs=2)",
        ),
        (minimality.verdicts[0], verdict_repr),
        (
            MinimalityReport(minimality.verdicts[:1]),
            f"MinimalityReport(verdicts=({verdict_repr},))",
        ),
        (
            estimate_property_o_rate(3, 2, 4, 1),
            "TrialSummary(n=3, k=2, trials=4, successes=1, seed=1)",
        ),
    ]


RECORDS = _records()
IDS = [type(record).__name__ for record, _ in RECORDS]


def test_one_instance_per_record_type():
    assert len(set(IDS)) == 11


@pytest.mark.parametrize("record,expected", RECORDS, ids=IDS)
def test_repr(record, expected):
    assert repr(record) == expected


@pytest.mark.parametrize("record,expected", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record, expected):
    for clone in (
        pickle.loads(pickle.dumps(record)),
        copy.deepcopy(record),
        copy.copy(record),
    ):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == expected


@pytest.mark.parametrize("record,expected", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record, expected):
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown_field = 1
    assert repr(record) == expected


@pytest.mark.parametrize("record,expected", RECORDS, ids=IDS)
def test_fields_are_the_annotated_names(record, expected):
    assert type(record).__slots__ == tuple(type(record).__annotations__)


def test_no_class_lists_its_slots():
    # a record's fields are declared once, as annotations
    package = pathlib.Path(propertyo.__file__).parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert node.id != "__slots__", path.name


# each record's stored fields; everything else it reports is read off them
STORED_FIELDS = {
    "OrientedHypergraph": ("k", "n", "edges"),
    "ValidationResult": ("violations",),
    "VerificationCertificate": ("method", "violating_order", "work"),
    "CoverageHistogram": ("counts",),
    "AuditReport": ("class_sizes", "intersection_sizes", "min_coverage"),
    "GeneralLayout": ("k",),
    "CaseCoverageReport": ("k", "problems"),
    "SearchReport": (
        "n", "k", "total_enumerated", "first_witness", "elapsed_seconds", "runs"
    ),
    "EdgeVerdict": ("index", "witness"),
    "MinimalityReport": ("verdicts",),
    "TrialSummary": ("n", "k", "trials", "successes", "seed"),
}

# (record type, derived value, its value on the instance in RECORDS)
DERIVED = [
    ("ValidationResult", "ok", False),
    ("VerificationCertificate", "verdict", "property_o"),
    ("VerificationCertificate", "orders_examined", 6),
    ("VerificationCertificate", "nodes_expanded", None),
    ("CaseCoverageReport", "ok", True),
    ("CaseCoverageReport", "cases", 18),
    ("TrialSummary", "rate", 0.25),
    ("TrialSummary", "standard_error", 0.21650635094610965),
    ("AuditReport", "total", 3),
    ("AuditReport", "residue", 1),
    ("EdgeVerdict", "essential", True),
]


def test_records_store_only_independent_facts():
    records = {type(record).__name__: record for record, _ in RECORDS}
    assert {name: type(r).__slots__ for name, r in records.items()} == STORED_FIELDS
    settable = sum(len(STORED_FIELDS[name]) for name in {t for t, _, _ in DERIVED})
    assert settable == 16
    for name, derived, expected in DERIVED:
        record = records[name]
        assert isinstance(getattr(type(record), derived), property)
        assert getattr(record, derived) == expected
        with pytest.raises(AttributeError):
            setattr(record, derived, expected)
        with pytest.raises(TypeError):
            type(record)(*record._values(), **{derived: expected})
    # a certificate with a violating order cannot say that Property O holds
    cert = VerificationCertificate("exhaustive", (0, 1), 1)
    assert (cert.holds, cert.verdict) == (False, "violated")
    with pytest.raises(TypeError):
        VerificationCertificate("property_o", "exhaustive", (0, 1), 1)
    with pytest.raises(TypeError):
        VerificationCertificate("exhaustive", (0, 1), 1, verdict="property_o")
    # the work count reads as orders under the cover and as placements
    # under the search
    cert = VerificationCertificate("backtracking", None, 7)
    assert (cert.orders_examined, cert.nodes_expanded) == (0, 7)
    cert = VerificationCertificate("exhaustive", (1, 0), 2)
    assert (cert.orders_examined, cert.nodes_expanded) == (2, None)


def test_equality_and_hash_follow_the_fields():
    assert GeneralLayout(4) == GeneralLayout(k=4)
    assert GeneralLayout(4) != GeneralLayout(5)
    assert hash(cyclic_triangle()) == hash(cyclic_triangle())
    assert len({cyclic_triangle(), cyclic_triangle(), GeneralLayout(3)}) == 2
    # records of different types never compare equal, even with equal fields
    assert MinimalityReport(3) != GeneralLayout(3)


def test_positional_and_keyword_construction_agree():
    edges = ((0, 1, 2), (3, 2, 1))
    graph = OrientedHypergraph(3, 4, edges)
    assert graph == OrientedHypergraph(k=3, n=4, edges=edges)
    assert graph == OrientedHypergraph(3, edges=edges, n=4)
    assert graph == OrientedHypergraph(3, 4, [[0, 1, 2], [3, 2, 1]])
    cert = VerificationCertificate("backtracking", (0, 1), 1)
    assert cert == VerificationCertificate(
        "backtracking", work=1, violating_order=(0, 1)
    )
    assert cert == VerificationCertificate(
        method="backtracking", violating_order=(0, 1), work=1
    )
    assert ValidationResult(()) == ValidationResult(violations=())
    # the positional path runs __post_init__ too
    with pytest.raises(ValueError):
        OrientedHypergraph(1, 4, ())
    with pytest.raises(ValueError):
        OrientedHypergraph(3, -1, ())


def test_constructor_rejects_missing_extra_and_repeated_fields():
    with pytest.raises(TypeError):
        OrientedHypergraph(3, 4)
    with pytest.raises(TypeError):
        OrientedHypergraph(3, 4, (), ())
    with pytest.raises(TypeError):
        SearchReport(3, 2, 8, None, 0.5, 1, options=None)
    with pytest.raises(TypeError):
        GeneralLayout(3, k=3)
    with pytest.raises(TypeError):
        GeneralLayout()
    # no field has a default
    with pytest.raises(TypeError):
        ValidationResult()
    with pytest.raises(TypeError):
        VerificationCertificate("exhaustive", (0, 1))
    with pytest.raises(TypeError):
        ValidationResult((), ())
    with pytest.raises(TypeError):
        ValidationResult(ok=True)


def test_hypergraph_normalises_edges_on_unpickling_too():
    g = OrientedHypergraph(3, 4, [[0, 1, 2], (3, 2, 1)])
    assert g.edges == ((0, 1, 2), (3, 2, 1))
    assert pickle.loads(pickle.dumps(g)).edges == g.edges


class TestLazyExports:
    def test_every_export_is_its_defining_modules_object(self):
        for name in propertyo.__all__:
            module = importlib.import_module(
                "propertyo." + propertyo._MODULE_OF[name]
            )
            assert getattr(propertyo, name) is getattr(module, name), name

    def test_star_import_binds_every_export(self):
        namespace: dict = {}
        exec("from propertyo import *", namespace)
        for name in propertyo.__all__:
            assert namespace[name] is getattr(propertyo, name), name

    def test_dir_lists_every_export(self):
        assert set(propertyo.__all__) <= set(dir(propertyo))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError):
            propertyo.no_such_export
