"""The report and data types: immutable records that compare, hash, print,
pickle and copy by their fields; and the package's lazily resolved exports."""

import copy
import importlib
import pickle

import pytest

import propertyo
from propertyo import (
    GeneralLayout,
    MinimalityReport,
    OrientedHypergraph,
    ReplacementPlan,
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
    """One instance of each of the 12 record types, with its repr."""
    g = cyclic_triangle()
    minimality = edge_minimality(g)
    g_repr = "OrientedHypergraph(k=2, n=3, edges=((0, 1), (1, 2), (2, 0)))"
    verdict_repr = "EdgeVerdict(index=0, essential=True, witness=(0, 2, 1))"
    return [
        (g, g_repr),
        (
            validate(OrientedHypergraph(2, 2, ((0, 1), (1, 0)))),
            "ValidationResult(ok=False, violations="
            "('edges 0 and 1: duplicate underlying set [0, 1]',))",
        ),
        (
            check_property_o(g),
            "VerificationCertificate(verdict='property_o', method='exhaustive', "
            "violating_order=None, orders_examined=6, nodes_expanded=None)",
        ),
        (coverage_histogram(g), "CoverageHistogram(counts={1: 3, 2: 3})"),
        (
            lower_bound_audit(g, 0),
            "AuditReport(class_sizes=(1, 2, 0), intersection_sizes=(2, 1, 1), "
            "total=3, residue=1, min_coverage=1)",
        ),
        (GeneralLayout(3), "GeneralLayout(k=3)"),
        (ReplacementPlan.for_uniformity(3), "ReplacementPlan(k=3, positions=(1, 3))"),
        (
            structured_coverage_check(general_construction(3)),
            "CaseCoverageReport(k=3, ok=True, problems=(), cases=18)",
        ),
        (
            SearchReport(3, 2, 8, 2, g, 0.5),
            f"SearchReport(n=3, k=2, total_enumerated=8, property_o_found=2, "
            f"first_witness={g_repr}, elapsed_seconds=0.5)",
        ),
        (minimality.verdicts[0], verdict_repr),
        (
            MinimalityReport(minimality.verdicts[:1]),
            f"MinimalityReport(verdicts=({verdict_repr},))",
        ),
        (
            estimate_property_o_rate(3, 2, 4, 1),
            "TrialSummary(n=3, k=2, trials=4, successes=1, rate=0.25, "
            "standard_error=0.21650635094610965, seed=1)",
        ),
    ]


RECORDS = _records()
IDS = [type(record).__name__ for record, _ in RECORDS]


def test_one_instance_per_record_type():
    assert len(set(IDS)) == 12


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


def test_defaults():
    assert ValidationResult(ok=True).violations == ()
    cert = VerificationCertificate("violated", "exhaustive", (0, 1), 1)
    assert cert.nodes_expanded is None


def test_equality_and_hash_follow_the_fields():
    assert GeneralLayout(4) == GeneralLayout(k=4)
    assert GeneralLayout(4) != GeneralLayout(5)
    assert hash(cyclic_triangle()) == hash(cyclic_triangle())
    assert len({cyclic_triangle(), cyclic_triangle(), GeneralLayout(3)}) == 2
    # records of different types never compare equal, even with equal fields
    assert MinimalityReport(3) != GeneralLayout(3)


def test_positional_keyword_and_defaulted_construction_agree():
    edges = ((0, 1, 2), (3, 2, 1))
    graph = OrientedHypergraph(3, 4, edges)
    assert graph == OrientedHypergraph(k=3, n=4, edges=edges)
    assert graph == OrientedHypergraph(3, edges=edges, n=4)
    assert graph == OrientedHypergraph(3, 4, [[0, 1, 2], [3, 2, 1]])
    cert = VerificationCertificate("violated", "backtracking", (0, 1), 1, None)
    assert cert == VerificationCertificate("violated", "backtracking", (0, 1), 1)
    assert cert == VerificationCertificate(
        verdict="violated",
        method="backtracking",
        violating_order=(0, 1),
        orders_examined=1,
    )
    assert ValidationResult(True, ()) == ValidationResult(ok=True)
    assert ValidationResult(True, ()) == ValidationResult(True)
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
        SearchReport(3, 2, 8, 2, None, 0.5, options=None)
    with pytest.raises(TypeError):
        GeneralLayout(3, k=3)
    with pytest.raises(TypeError):
        GeneralLayout()
    with pytest.raises(TypeError):
        ValidationResult(True, (), ())
    with pytest.raises(TypeError):
        ValidationResult(violations=())


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
