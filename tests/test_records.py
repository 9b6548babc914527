"""The package's record types: fields, repr, equality, immutability, checks.

Immutable records are named tuples and the others ``__slots__`` classes
(``xkg.records``), so importing the CLI loads neither ``dataclasses`` nor
``inspect``, which ``dataclasses`` imports.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import xkg
from xkg.agreement import (AgreementReport, AlphaResult, HeuristicStats, KappaPair, KappaResult,
                           RatingsMatrix)
from xkg.amr import AmrConstant, AmrEdge, AmrGraph, AmrNode
from xkg.backends import BackendConfig
from xkg.config import PipelineConfig, ResourcePaths
from xkg.enrichment import EnrichmentResult, HeuristicSpec, PromptRequest
from xkg.pipeline import PipelineResult, ValidationReport
from xkg.rdf import FRED_NS, Iri, PrefixTable, RdfGraph, Triple, standard_prefixes
from xkg.translate import AlignmentEntry, AlignmentMap, LinkTable, RolesetMap
from xkg.validation import INFO, MISSING_COMMENT, Diagnostic, GraphProfile, MiniOntology, \
    PrecedenceInference

A, B = Iri(FRED_NS + "a"), Iri(FRED_NS + "b")
GRAPH = RdfGraph(frozenset({Triple(A, B, A)}), PrefixTable({"fred": FRED_NS}))
PROFILE = GraphProfile(1, 2, 3, 4, 5, 6, 7, 8, 9)
PRECEDENCE = PrecedenceInference([(A, B)], [(A, B)], [], [])
REPORT = ValidationReport([Diagnostic(INFO, MISSING_COMMENT, "m", A)], PROFILE, PRECEDENCE)
STATS = HeuristicStats("H", 2, 3.5, 0.5, 1.0, None, 0.25, False, {"a1": 3.5})
PATHS = ResourcePaths(*(Path(name) for name in "abcdef"))

# class, every field's value in order, the defaults, whether it is immutable.
RECORDS = [
    (AmrConstant, ["1", True], {"quoted": False}, True),
    (AmrNode, ["a", "cat"], {}, True),
    (AmrEdge, ["a", ":ARG0", AmrConstant("1")], {}, True),
    (AmrGraph, ["a", (AmrNode("a", "cat"),), ()], {}, True),
    (RdfGraph, [GRAPH.triples, GRAPH.prefixes],
     {"triples": frozenset(), "prefixes": standard_prefixes()}, True),
    (HeuristicSpec, ["H", "h", FRED_NS, "h.txt"], {}, True),
    (PromptRequest, ["system", "user", "H"], {"tag": None}, True),
    (EnrichmentResult, ["H", RdfGraph(frozenset({Triple(B, A, B)}), GRAPH.prefixes), [],
                         "response", True],
     {"quarantined": False}, True),
    (BackendConfig, ["http://x.example/", "m", "KEY", 1.5, 2, 3, 0.5, 10],
     {"endpoint": "", "model": "", "credential_env": "XKG_API_KEY", "timeout": 60.0,
      "retries": 3, "max_concurrent": 4, "temperature": 0.0, "max_tokens": 2048}, True),
    (ResourcePaths, list(PATHS), {}, True),
    (PipelineConfig, [BackendConfig(model="m"), PATHS, True],
     {"backend": BackendConfig(), "resources": None, "force_merge": False}, True),
    (RolesetMap, [{"run-01": {0: "runner"}}], {"frames": {}}, False),
    (AlignmentEntry, [A, (B,), (A,)], {"synset": None, "supersenses": (), "dolce": ()}, True),
    (AlignmentMap, [{"gold_medal": AlignmentEntry(A)}], {"entries": {}}, False),
    (LinkTable, [{"saint lucia": A}], {"mentions": {}}, False),
    (ValidationReport, list(REPORT), {}, True),
    (PipelineResult, ["text", GRAPH, [], GRAPH, REPORT], {}, True),
    (RatingsMatrix, [{"i1": "H"}, ["a1"], {("i1", "a1"): 4}, {"H": ["i1"]}],
     {"item_heuristic": {}, "annotators": [], "scores": {}, "heuristic_items": {}}, False),
    (KappaPair, ["a1", "a2", None, 3], {}, True),
    (KappaResult, [[KappaPair("a1", "a2", 0.5, 3)], 0.5], {}, True),
    (AlphaResult, [1.0, True], {"degenerate": False}, True),
    (HeuristicStats, list(STATS), {}, True),
    (AgreementReport, [["a1"], [STATS]], {}, True),
    (MiniOntology, [{A: {B}}, {frozenset((A, B))}], {"subclass_of": {}, "disjoint": set()},
     False),
    (PrecedenceInference, list(PRECEDENCE), {}, True),
    (GraphProfile, list(PROFILE), {"new_op": None, "new_dp": None}, True),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls, values, defaults, immutable", RECORDS, ids=IDS)
class TestRecords:
    def test_fields_in_order_with_their_defaults(self, cls, values, defaults, immutable):
        fields = cls._fields
        assert len(fields) == len(values)
        record = cls(*values)
        assert [getattr(record, name) for name in fields] == values
        assert cls(**dict(zip(fields, values))) == record
        if immutable and cls is not RdfGraph:  # the named tuples
            assert cls._make(values) == record
            assert record._replace(**{fields[0]: values[0]}) == record
        required = {name: value for name, value in zip(fields, values) if name not in defaults}
        assert list(required) == list(fields[:len(required)])
        bare = cls(**required)
        assert {name: getattr(bare, name) for name in defaults} == defaults

    def test_repr_names_every_field(self, cls, values, defaults, immutable):
        if cls is AmrConstant:  # its own, shorter repr
            assert repr(cls(*values)) == "AmrConstant('1', quoted)"
            return
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
        assert repr(cls(*values)) == f"{cls.__name__}({fields})"

    def test_equal_fields_equal_records(self, cls, values, defaults, immutable):
        record, again = cls(*values), cls(*copy.deepcopy(values))
        assert record == again and not record != again
        assert record != cls(*values[:-1], defaults.get(cls._fields[-1], "other"))
        assert record != object()  # no record equals a value of another class
        assert copy.copy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
        if immutable and _hashable(values):
            assert hash(record) == hash(again)
        else:
            with pytest.raises(TypeError):
                hash(record)

    def test_assignment_and_deletion(self, cls, values, defaults, immutable):
        record = cls(*values)
        name = cls._fields[0]
        if immutable:
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
            with pytest.raises(AttributeError):
                delattr(record, name)
        else:
            setattr(record, name, values[0])
            assert getattr(record, name) is values[0]


@pytest.mark.parametrize("make, message", [
    (lambda: AmrEdge("a", "ARG0", "b"), "role must begin with ':': 'ARG0'"),
    # _replace builds through _make, which a checked tuple routes through __new__.
    (lambda: AmrEdge("a", ":r", "b")._replace(role="r"), "role must begin with ':': 'r'"),
    (lambda: Diagnostic._make(["BAD", "NOPE", "m", None]), "unknown diagnostic code 'NOPE'"),
    (lambda: Diagnostic(INFO, MISSING_COMMENT, "m")._replace(severity="BAD"),
     "unknown severity 'BAD'"),
])
def test_checked_records_reject_bad_fields(make, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == message


VIEWS = ("node_iris", "by_predicate", "rendering", "terms_by_text")


def test_rdf_graph_caches_are_not_fields():
    graph = RdfGraph(GRAPH.triples, GRAPH.prefixes)
    views = [getattr(graph, name) for name in VIEWS]
    for name, view in zip(VIEWS, views):
        assert getattr(graph, name) is view  # computed once, then kept
    assert sorted(vars(graph)) == sorted(VIEWS)
    assert graph == GRAPH and repr(graph) == repr(GRAPH)
    for again in (pickle.loads(pickle.dumps(graph)), copy.copy(graph), copy.deepcopy(graph)):
        assert again == GRAPH and vars(again) == {}
    for name in VIEWS:  # a kept view is not a field either
        with pytest.raises(AttributeError):
            setattr(graph, name, None)
        with pytest.raises(AttributeError):
            delattr(graph, name)


def test_enrichment_result_sorts_its_additions_and_keeps_no_base():
    added = [Triple(B, A, B), Triple(A, B, A), Triple(A, A, B)]
    result = EnrichmentResult("H", RdfGraph.from_list(list(added), PrefixTable(
        {"fred": FRED_NS, "x": "urn:x:"})), [], "response")
    assert list(result.additions) == sorted(added) and result.added == frozenset(added)
    assert "base" not in EnrichmentResult.__slots__ and not hasattr(result, "xkg")
    again = pickle.loads(pickle.dumps(result))  # the order hint is not pickled
    assert again == result and list(again.additions) == sorted(added)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter without ``site``, so only the package's imports count."""
    src = str(Path(xkg.__file__).resolve().parents[1])
    code = ("import sys; import xkg.cli; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert done.stdout.split() == ["[]"]
