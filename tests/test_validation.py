import copy
import json
import pickle
import random
from collections import defaultdict
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_validation
import xkg.validation
from generators import EX_NS, graph_of, random_dag
from oracles import connected_components, reachability_pairs
from xkg.cli import EXIT_OK, main
from xkg.rdf import (
    D0_NS,
    DUL_ASSOCIATED_WITH,
    DUL_HAS_QUALITY,
    DUL_NS,
    DUL_PRECEDES,
    FRED_NS,
    OWL_CLASS,
    OWL_DISJOINT_WITH,
    OWL_NAMED_INDIVIDUAL,
    PBLR_NS,
    PBRS_NS,
    RDFS_COMMENT,
    RDFS_LABEL,
    RDFS_SUBCLASSOF,
    RDF_TYPE,
    TRUE,
    UNDECLARED_NS_BASE,
    WN30_NS,
    XSD_INTEGER,
    BlankNode,
    Iri,
    Literal,
    Triple,
    parse_turtle,
    serialize_turtle,
    standard_prefixes,
)
from xkg.validation import (
    ANCHOR_FLOAT,
    DIAGNOSTIC_CODES,
    DISJOINT_CLASH,
    ERROR,
    FALLBACK_ROLE,
    INFO,
    MAX_PRECEDENCE_PAIRS,
    MISSING_COMMENT,
    PREFIX_MISUSE,
    PRECEDES_CYCLE,
    PRECEDES_TRUNCATED,
    UNDECLARED_PREFIX,
    WARN,
    Diagnostic,
    MiniOntology,
    check_anchoring,
    check_consistency,
    infer_precedence,
    lint,
    profile,
)
from xkg.validation import _find_cycle


def fred(local):
    return Iri(FRED_NS + local)


def ex(local):
    return Iri(EX_NS + local)


BASE = graph_of([
    Triple(fred("athlete_1"), RDF_TYPE, fred("Athlete")),
    Triple(fred("win_1"), RDF_TYPE, Iri(PBRS_NS + "win-01")),
    Triple(fred("celebrate_1"), Iri(PBLR_NS + "celebrate-01.honorer"), fred("athlete_1")),
])


class TestAnchoring:
    def test_anchored_addition_passes(self):
        added = {Triple(fred("athlete_1"), Iri("https://w3id.org/xkg/impact#hasExpectedEmotion"),
                        Iri("https://w3id.org/xkg/impact#Joy"))}
        assert check_anchoring(BASE, added) == []

    def test_floating_component_reported(self):
        added = {Triple(ex("a"), ex("p"), ex("b"))}
        diagnostics = check_anchoring(BASE, added)
        assert [d.code for d in diagnostics] == [ANCHOR_FLOAT]
        assert diagnostics[0].severity == ERROR

    def test_chain_through_fresh_nodes_is_anchored(self):
        added = {
            Triple(fred("win_1"), ex("p"), ex("n1")),
            Triple(ex("n1"), ex("q"), ex("n2")),
        }
        assert check_anchoring(BASE, added) == []

    def test_empty_additions(self):
        assert check_anchoring(BASE, set()) == []

    def test_insensitive_to_order(self):
        added = [
            Triple(ex("a"), ex("p"), ex("b")),
            Triple(fred("win_1"), ex("p"), ex("n1")),
            Triple(ex("b"), ex("q"), ex("c")),
        ]
        forward = check_anchoring(BASE, added)
        backward = check_anchoring(BASE, list(reversed(added)))
        assert [d.code for d in forward] == [d.code for d in backward] == [ANCHOR_FLOAT]

    def test_fifty_random_addition_sets_match_component_oracle(self):
        rng = random.Random(1234)
        base_nodes = [fred("athlete_1"), fred("win_1"), fred("celebrate_1"), fred("Athlete")]
        for _ in range(50):
            pool = [rng.choice(base_nodes) if rng.random() < 0.25 else ex(f"n{rng.randrange(12)}")
                    for _ in range(10)]
            added = set()
            for _ in range(rng.randrange(1, 10)):
                s, o = rng.choice(pool), rng.choice(pool)
                added.add(Triple(s, ex("p"), o))
            edges = [(t.subject, t.object) for t in added]
            components = connected_components(edges)
            base_set = set(base_nodes)
            expected_floats = sum(1 for comp in components if not comp & base_set)
            got = [d for d in check_anchoring(BASE, added) if d.code == ANCHOR_FLOAT]
            assert len(got) == expected_floats

    def test_base_node_as_object_anchors_its_component(self):
        # athlete_1 occurs in the base only as an object.
        added = {Triple(ex("n1"), ex("p"), fred("athlete_1")),
                 Triple(ex("n2"), ex("q"), ex("n1")),
                 Triple(ex("n2"), RDFS_LABEL, Literal("two"))}
        assert check_anchoring(BASE, added) == []

    def test_literal_objects_follow_their_subject(self):
        added = [Triple(fred("win_1"), ex("p"), ex("n1")),
                 Triple(ex("n1"), RDFS_LABEL, Literal("one")),
                 Triple(ex("m"), RDFS_LABEL, Literal("one"))]
        diagnostics = check_anchoring(BASE, added)
        assert [d.subject for d in diagnostics] == [ex("m")]


# Base nodes: subjects, a node that occurs only as an object, and a blank
# node, which anchors nothing; additions join them to a few fresh IRIs and
# blank nodes, so several floating components, some of more than five
# triples, are common.
_ANCHOR_BASE = graph_of([
    Triple(fred("s0"), ex("p"), fred("o0")),
    Triple(fred("s1"), ex("q"), BlankNode("b0")),
    Triple(fred("s1"), RDFS_LABEL, Literal("one")),
])
_anchor_nodes = st.sampled_from(
    [fred("s0"), fred("s1"), fred("o0")] + [ex(f"n{i}") for i in range(8)]
    + [BlankNode("b0"), BlankNode("b1"), BlankNode("b2")])
_anchor_objects = st.one_of(_anchor_nodes, st.sampled_from(
    [Literal("one"), Literal("7", XSD_INTEGER),
     Literal("hi", language="en")]))
_anchor_predicates = st.sampled_from([ex("p"), ex("q"), RDF_TYPE])


@st.composite
def _anchoring_additions(draw):
    added = draw(st.lists(st.builds(Triple, _anchor_nodes, _anchor_predicates, _anchor_objects),
                          max_size=24))
    # A chain or a star of fresh nodes: one component of many triples.
    fresh = draw(st.lists(st.sampled_from([ex(f"n{i}") for i in range(8)]
                                          + [BlankNode("b1"), BlankNode("b2")]),
                          max_size=9))
    star = draw(st.booleans())
    added += [Triple(fresh[0] if star else a, draw(_anchor_predicates), b)
              for a, b in zip(fresh, fresh[1:])]
    return added


class TestAnchoringReference:
    """The flood fill returns what the union-find over all of the additions
    returned: the same diagnostics, messages, subjects and order."""

    @settings(max_examples=400, deadline=None)
    @given(_anchoring_additions())
    def test_equals_reference(self, added):
        expected = reference_validation.check_anchoring(_ANCHOR_BASE, added)
        assert check_anchoring(_ANCHOR_BASE, added) == expected
        assert check_anchoring(_ANCHOR_BASE, frozenset(added)) == expected


class TestLint:
    def test_pbrs_predicate_flagged(self):
        graph = graph_of([
            Triple(fred("spectator_1"), Iri(PBRS_NS + "cheer-01.agent"), fred("athlete_1")),
        ])
        diagnostics = [d for d in lint(graph) if d.code == PREFIX_MISUSE]
        assert len(diagnostics) == 1
        assert diagnostics[0].severity == WARN

    def test_clean_celebration_fragment(self):
        graph = parse_turtle("""
        @prefix fred: <http://www.ontologydesignpatterns.org/ont/fred/domain.owl#> .
        @prefix pbrs: <https://w3id.org/framester/data/propbank-3.4.0/RoleSet/> .
        @prefix pblr: <https://w3id.org/framester/data/propbank-3.4.0/LocalRole/> .
        @prefix vn.role: <http://www.ontologydesignpatterns.org/ont/vn/abox/role/vnrole.owl#> .
        fred:celebrate_1 a pbrs:celebrate-01 ;
            vn.role:Location fred:track_1 ;
            pblr:celebrate-01.honored fred:win_1 ;
            pblr:celebrate-01.honorer fred:athlete_1 .
        """)
        assert [d for d in lint(graph) if d.severity in (ERROR, WARN)] == []

    def test_declared_class_without_comment(self):
        graph = graph_of([Triple(ex("Thing"), RDF_TYPE, OWL_CLASS)])
        diagnostics = [d for d in lint(graph) if d.code == MISSING_COMMENT]
        assert len(diagnostics) == 1
        assert diagnostics[0].severity == INFO

    def test_commented_class_not_flagged(self):
        graph = graph_of([
            Triple(ex("Thing"), RDF_TYPE, OWL_CLASS),
            Triple(ex("Thing"), RDFS_COMMENT, Literal("a thing")),
        ])
        assert [d for d in lint(graph) if d.code == MISSING_COMMENT] == []

    def test_undeclared_prefix_namespace_flagged(self):
        graph = parse_turtle("mystery:a mystery:p mystery:b .", bind_undeclared=True)
        diagnostics = [d for d in lint(graph) if d.code == UNDECLARED_PREFIX]
        assert len(diagnostics) == 1
        assert "mystery" in diagnostics[0].message

    def test_fallback_role_occurrences(self):
        graph = graph_of([
            Triple(fred("a_1"), DUL_ASSOCIATED_WITH, fred("b_1")),
            Triple(fred("b_1"), DUL_ASSOCIATED_WITH, fred("c_1")),
        ])
        assert len([d for d in lint(graph) if d.code == FALLBACK_ROLE]) == 2

    def test_undeclared_prefix_on_nodes_alone(self):
        graph = parse_turtle("@prefix ex: <http://example.org/> .\nmystery:a ex:p mystery:b .",
                             bind_undeclared=True)
        assert [(d.code, d.message, d.subject) for d in lint(graph)
                if d.code == UNDECLARED_PREFIX] == [
            (UNDECLARED_PREFIX, "prefix 'mystery:' was used without a declaration",
             Iri(UNDECLARED_NS_BASE + "mystery#a"))]

    def test_fallback_role_names_each_term_by_its_own_repr(self):
        # Objects that share a text with a subject or with each other: an IRI
        # and a literal, a blank node and a literal, two literals.
        subjects = [ex("a"), BlankNode("b0")]
        objects = [*subjects, Literal(EX_NS + "a"), Literal("b0"), Literal("x"),
                   Literal("x", language="en")]
        graph = graph_of([Triple(s, DUL_ASSOCIATED_WITH, o) for s in subjects for o in objects])
        assert [(d.message, d.subject) for d in lint(graph) if d.code == FALLBACK_ROLE] == [
            (f"fallback association between {t.subject!r} and {t.object!r}", t.subject)
            for t in sorted(graph.triples)]

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(ERROR, "NOT_A_CODE", "nope")


class TestDiagnostic:
    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="unknown severity 'FATAL'"):
            Diagnostic("FATAL", ANCHOR_FLOAT, "nope")

    def test_fields_and_defaults(self):
        d = Diagnostic(WARN, PREFIX_MISUSE, "m", subject=fred("a"))
        assert (d.severity, d.code, d.message, d.subject) == (WARN, PREFIX_MISUSE, "m", fred("a"))
        assert Diagnostic(INFO, FALLBACK_ROLE, "m").subject is None
        assert repr(Diagnostic(INFO, FALLBACK_ROLE, "m")) == (
            "Diagnostic(severity='INFO', code='FALLBACK_ROLE', message='m', subject=None)")

    @pytest.mark.parametrize("subject, shown", [
        (None, None),
        (Iri(EX_NS + "a"), EX_NS + "a"),
        (BlankNode("b1"), "_:b1"),
        (Literal("x", language="en"), "x"),
    ])
    def test_to_dict(self, subject, shown):
        assert Diagnostic(ERROR, DISJOINT_CLASH, "m", subject).to_dict() == {
            "severity": ERROR, "code": DISJOINT_CLASH, "subject": shown, "message": "m"}

    def test_copy_and_pickle_keep_the_class(self):
        d = Diagnostic(ERROR, ANCHOR_FLOAT, "m", subject=Literal("true", TRUE.datatype))
        for again in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert again == d and type(again) is Diagnostic
            assert again.to_dict() == d.to_dict()

    def test_lint_builds_only_registered_codes(self):
        graph = parse_turtle("mystery:a mystery:p pbrs:x . fred:a_1 dul:associatedWith fred:b_1 .\n"
                             "fred:b_1 pbrs:run-01.agent [ a owl:Class ] .", standard_prefixes(),
                             bind_undeclared=True)
        diagnostics = lint(graph)
        assert {d.code for d in diagnostics} == {PREFIX_MISUSE, UNDECLARED_PREFIX,
                                                 MISSING_COMMENT, FALLBACK_ROLE}
        for d in diagnostics:
            assert type(d) is Diagnostic and d.code in DIAGNOSTIC_CODES
            assert d.severity in (ERROR, WARN, INFO)


MINI_ONTO = MiniOntology.from_graph(parse_turtle("""
@prefix dul: <http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#> .
@prefix d0: <http://www.ontologydesignpatterns.org/ont/d0.owl#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
dul:Person rdfs:subClassOf dul:Agent .
dul:Agent rdfs:subClassOf dul:Object .
d0:Activity rdfs:subClassOf d0:Event .
d0:Event rdfs:subClassOf dul:Event .
dul:Event owl:disjointWith dul:Object .
"""))


class TestConsistency:
    def metonymic_graph(self):
        return graph_of([
            Triple(fred("athlete_1"), RDF_TYPE, fred("Athlete")),
            Triple(fred("Athlete"), RDFS_SUBCLASSOF, Iri(DUL_NS + "Person")),
            Triple(Iri(PBRS_NS + "cheer-01"), RDFS_SUBCLASSOF, Iri(D0_NS + "Activity")),
            Triple(fred("athlete_1"), RDF_TYPE, Iri(PBRS_NS + "cheer-01")),
        ])

    def test_object_event_clash_with_chain(self):
        diagnostics = check_consistency(self.metonymic_graph(), MINI_ONTO)
        assert len(diagnostics) == 1
        diag = diagnostics[0]
        assert diag.code == DISJOINT_CLASH and diag.severity == ERROR
        assert "athlete_1 -> Athlete -> Person -> Agent -> Object" in diag.message
        assert "Event" in diag.message

    def test_single_typing_clean(self):
        graph = graph_of([
            Triple(fred("athlete_1"), RDF_TYPE, fred("Athlete")),
            Triple(fred("Athlete"), RDFS_SUBCLASSOF, Iri(DUL_NS + "Person")),
        ])
        assert check_consistency(graph, MINI_ONTO) == []

    def test_shared_nondisjoint_ancestor_clean(self):
        graph = graph_of([
            Triple(fred("x_1"), RDF_TYPE, fred("A")),
            Triple(fred("x_1"), RDF_TYPE, fred("B")),
            Triple(fred("A"), RDFS_SUBCLASSOF, Iri(DUL_NS + "Person")),
            Triple(fred("B"), RDFS_SUBCLASSOF, Iri(DUL_NS + "Agent")),
        ])
        assert check_consistency(graph, MINI_ONTO) == []

    def test_monotone_in_disjointness(self):
        graph = graph_of([
            Triple(fred("x_1"), RDF_TYPE, Iri(DUL_NS + "Person")),
            Triple(fred("x_1"), RDF_TYPE, Iri(DUL_NS + "Event")),
        ])
        before = check_consistency(graph, MINI_ONTO)
        richer = MiniOntology(MINI_ONTO.subclass_of,
                              MINI_ONTO.disjoint | {frozenset((Iri(DUL_NS + "Person"), Iri(DUL_NS + "Event")))})
        after = check_consistency(graph, richer)
        assert len(after) >= len(before)

    def test_class_disjoint_with_itself_clashes(self):
        graph = graph_of([
            Triple(fred("x_1"), RDF_TYPE, fred("A")),
            Triple(fred("A"), OWL_DISJOINT_WITH, fred("A")),
        ])
        assert [d.message for d in check_consistency(graph, MINI_ONTO)] == [
            "x_1 falls under disjoint classes A and A: x_1 -> A | x_1 -> A"]

    def test_cyclic_ontology_rejected(self):
        with pytest.raises(ValueError):
            MiniOntology({Iri(DUL_NS + "A"): {Iri(DUL_NS + "B")},
                          Iri(DUL_NS + "B"): {Iri(DUL_NS + "A")}}, set())


def _recursive_find_cycle(edges):
    """The recursive depth-first search ``_find_cycle`` replaced: the oracle
    for the cycle it must return."""
    color = defaultdict(int)  # 0 white, 1 gray, 2 black
    stack = []

    def visit(node):
        color[node] = 1
        stack.append(node)
        for nxt in edges.get(node, ()):
            if color[nxt] == 1:
                return stack[stack.index(nxt):] + [nxt]
            if color[nxt] == 0:
                found = visit(nxt)
                if found:
                    return found
        color[node] = 2
        stack.pop()
        return None

    for node in list(edges):
        if color[node] == 0:
            found = visit(node)
            if found:
                return found
    return None


class TestFindCycle:
    DEPTH = 5000  # far beyond the interpreter's recursion limit

    def test_deep_subclass_chain_constructs(self):
        chain = [Triple(ex(f"C{i}"), RDFS_SUBCLASSOF, ex(f"C{i + 1}")) for i in range(self.DEPTH)]
        onto = MiniOntology.from_graph(graph_of(chain))
        assert len(onto.subclass_of) == self.DEPTH

    def test_closed_deep_chain_names_the_cycle(self):
        edges = {ex(f"C{i}"): {ex(f"C{(i + 1) % self.DEPTH}")} for i in range(self.DEPTH)}
        with pytest.raises(ValueError) as err:
            MiniOntology(edges, set())
        names = [f"C{i}" for i in range(self.DEPTH)] + ["C0"]
        assert str(err.value) == "cyclic subclass hierarchy: " + " -> ".join(names)

    def test_agrees_with_recursive_search(self):
        rng = random.Random(11)
        nodes = [ex(f"n{i}") for i in range(7)]
        for _ in range(500):
            edges = {}
            for _ in range(rng.randrange(12)):
                edges.setdefault(rng.choice(nodes), set()).add(rng.choice(nodes))
            assert _find_cycle(edges) == _recursive_find_cycle(edges)


class TestPrecedence:
    def graph_of(self, pairs):
        return graph_of([Triple(ex(a), DUL_PRECEDES, ex(b)) for a, b in pairs])

    def test_chain_inference(self):
        result = infer_precedence(self.graph_of([("wear", "race"), ("race", "win"),
                                                 ("win", "celebrate")]))
        assert (ex("wear"), ex("celebrate")) in result.inferred
        assert (ex("wear"), ex("race")) not in result.inferred  # asserted
        assert result.diagnostics == []

    def test_single_assertion(self):
        result = infer_precedence(self.graph_of([("a", "b")]))
        assert result.closure == [(ex("a"), ex("b"))]
        assert result.inferred == []

    def test_closure_is_transitively_closed_and_irreflexive(self):
        rng = random.Random(7)
        for _ in range(20):
            dag = random_dag(rng, max_nodes=20)
            result = infer_precedence(self.graph_of(dag))
            closure = set(result.closure)
            for (a, b) in closure:
                assert a != b
                for (c, d) in closure:
                    if b == c:
                        assert (a, d) in closure

    def test_matches_reachability_oracle(self):
        rng = random.Random(99)
        for _ in range(30):
            dag = random_dag(rng, max_nodes=25)
            result = infer_precedence(self.graph_of(dag))
            expected = reachability_pairs([(ex(a), ex(b)) for a, b in dag])
            assert set(result.closure) == expected

    def test_self_loop_precedes_itself(self):
        result = infer_precedence(self.graph_of([("a", "a"), ("a", "b"), ("b", "c")]))
        assert result.closure == [(ex("a"), ex("a")), (ex("a"), ex("b")), (ex("a"), ex("c")),
                                  (ex("b"), ex("c"))]
        assert result.inferred == [(ex("a"), ex("c"))]
        assert [d.message for d in result.diagnostics] == [
            "precedes assertions form a cycle: a -> a"]

    def test_cycle_partial_result(self):
        result = infer_precedence(self.graph_of([("a", "b"), ("b", "a")]))
        assert [d.code for d in result.diagnostics] == [PRECEDES_CYCLE]
        assert result.closure  # partial reachability still returned

    def test_cycles_match_reachability_oracle(self):
        rng = random.Random(17)
        for _ in range(200):
            names = [f"n{i}" for i in range(rng.randrange(1, 9))]
            edges = {(rng.choice(names), rng.choice(names)) for _ in range(rng.randrange(1, 16))}
            result = infer_precedence(self.graph_of(sorted(edges)))
            expected = reachability_pairs([(ex(a), ex(b)) for a, b in edges])
            assert result.closure == sorted(expected)
            assert result.inferred == sorted(expected - {(ex(a), ex(b)) for a, b in edges})
            assert ([d.code for d in result.diagnostics] == [PRECEDES_CYCLE]) == any(
                a == b for a, b in expected)


def chain_pairs(names, gap=1):
    """In order, the pairs of the chain names[0] -> names[1] -> ... that lie
    ``gap`` or more links apart: the closure for 1, the inferred pairs for 2."""
    for i, first in enumerate(names):
        for second in names[i + gap:]:
            yield ex(first), ex(second)


class TestPrecedenceCap:
    LINKS = 2000
    NAMES = [f"e{i:04d}" for i in range(LINKS + 1)]
    TOTAL = LINKS * (LINKS + 1) // 2 - LINKS  # inferred pairs: n(n+1)/2 - n

    def chain(self):
        return graph_of([Triple(ex(a), DUL_PRECEDES, ex(b))
                         for a, b in zip(self.NAMES, self.NAMES[1:])])

    def test_long_chain_lists_the_cap_and_warns_with_the_total(self):
        result = infer_precedence(self.chain())
        assert len(result.asserted) == self.LINKS
        assert len(result.closure) == len(result.inferred) == MAX_PRECEDENCE_PAIRS
        assert result.closure == list(islice(chain_pairs(self.NAMES), MAX_PRECEDENCE_PAIRS))
        assert result.inferred == list(islice(chain_pairs(self.NAMES, 2), MAX_PRECEDENCE_PAIRS))
        [warning] = result.diagnostics
        assert (warning.severity, warning.code) == (WARN, PRECEDES_TRUNCATED)
        assert warning.message == (
            f"precedence closure has {self.TOTAL + self.LINKS} pairs, {self.TOTAL} of them "
            f"inferred; the first {MAX_PRECEDENCE_PAIRS} of each are listed")

    def test_long_chain_through_validate(self, tmp_path):
        (tmp_path / "chain.ttl").write_text(serialize_turtle(self.chain()), encoding="utf-8")
        code = main(["validate", "--graph", str(tmp_path / "chain.ttl"), "--out", str(tmp_path)])
        assert code == EXIT_OK  # a warning is no error
        report = json.loads((tmp_path / "validation-report.json").read_text(encoding="utf-8"))
        assert len(report["precedence"]["asserted"]) == self.LINKS
        assert len(report["precedence"]["inferred"]) == MAX_PRECEDENCE_PAIRS
        assert report["precedence"]["inferred"][0] == [EX_NS + "e0000", EX_NS + "e0002"]
        warnings = [d for d in report["diagnostics"] if d["code"] == PRECEDES_TRUNCATED]
        assert len(warnings) == 1 and f", {self.TOTAL} of them inferred;" in warnings[0]["message"]

    def test_long_cycle_is_named_and_capped(self):
        names = self.NAMES[:-1]
        graph = graph_of([Triple(ex(a), DUL_PRECEDES, ex(b))
                          for a, b in zip(names, names[1:] + names[:1])])
        result = infer_precedence(graph)
        cycle, truncated = result.diagnostics
        assert cycle.message == ("precedes assertions form a cycle: "
                                 + " -> ".join(names + names[:1]))
        n = len(names)
        assert f"closure has {n * n} pairs, {n * n - n} of them inferred" in truncated.message
        assert len(result.closure) == MAX_PRECEDENCE_PAIRS

    @pytest.mark.parametrize("links, warned", [(3, False), (4, True)])
    def test_at_the_cap_nothing_is_cut(self, monkeypatch, links, warned):
        monkeypatch.setattr(xkg.validation, "MAX_PRECEDENCE_PAIRS", 6)  # 3 links: 6 pairs
        names = self.NAMES[:links + 1]
        result = infer_precedence(graph_of(
            [Triple(ex(a), DUL_PRECEDES, ex(b)) for a, b in zip(names, names[1:])]))
        assert result.closure == list(islice(chain_pairs(names), 6))
        assert [d.code for d in result.diagnostics] == ([PRECEDES_TRUNCATED] if warned else [])


class TestProfile:
    def test_empty_graph_all_zero(self):
        p = profile(graph_of([]))
        assert p.to_dict() == {**dict.fromkeys(["axioms", "wordnet", "pb_roles", "pb_frames",
                                                "vn_roles", "d0", "dul"], 0),
                               "new_op": None, "new_dp": None}

    def test_structural_statements_excluded(self):
        graph = graph_of([
            Triple(fred("Athlete"), RDF_TYPE, OWL_CLASS),
            Triple(fred("Athlete"), RDFS_LABEL, Literal("Athlete")),
            Triple(fred("Athlete"), RDFS_COMMENT, Literal("a sportsperson")),
            Triple(fred("athlete_1"), RDF_TYPE, fred("Athlete")),
        ])
        assert profile(graph).axioms == 1

    def test_namespace_entity_counts_are_distinct(self):
        graph = graph_of([
            Triple(fred("Athlete"), RDFS_SUBCLASSOF, Iri(WN30_NS + "supersense-noun_person")),
            Triple(fred("Runner"), RDFS_SUBCLASSOF, Iri(WN30_NS + "supersense-noun_person")),
            Triple(fred("celebrate_1"), Iri(PBLR_NS + "celebrate-01.honorer"), fred("athlete_1")),
            Triple(fred("win_1"), RDF_TYPE, Iri(PBRS_NS + "win-01")),
        ])
        p = profile(graph)
        assert (p.wordnet, p.pb_roles, p.pb_frames) == (1, 1, 1)

    def test_new_properties_split_by_object_kind(self):
        base = graph_of([Triple(fred("a_1"), RDF_TYPE, fred("A"))])
        extended = base.with_triples([
            Triple(fred("a_1"), ex("wasBuilt"), TRUE),
            Triple(fred("a_1"), ex("linksTo"), fred("b_1")),
            Triple(fred("b_1"), RDF_TYPE, fred("B")),
        ])
        p = profile(extended, base)
        assert p.axioms == 3
        assert p.new_dp == 1 and p.new_op == 1  # rdf:type present in base

    def test_union_subadditive(self):
        rng = random.Random(3)
        from generators import random_rdf_graph
        for _ in range(10):
            g = random_rdf_graph(rng)
            h = random_rdf_graph(rng)
            union = graph_of(g.triples | h.triples, g.prefixes)
            assert profile(union).axioms <= profile(g).axioms + profile(h).axioms


# ---------------------------------------------------------------------------
# The indexed checks against the full-scan reference
# ---------------------------------------------------------------------------

_CLASSES = [fred("A"), fred("B"), Iri(DUL_NS + "Person"), Iri(DUL_NS + "Agent"),
            Iri(DUL_NS + "Object"), Iri(DUL_NS + "Event"), Iri(D0_NS + "Activity")]
_PLACEHOLDERS = [Iri(UNDECLARED_NS_BASE + "mystery#a"), Iri(UNDECLARED_NS_BASE + "mystery#p"),
                 Iri(UNDECLARED_NS_BASE + "other#b")]
_IRIS = ([ex(c) for c in "abcde"] + _CLASSES + _PLACEHOLDERS
         + [OWL_CLASS, OWL_NAMED_INDIVIDUAL, Iri(PBRS_NS + "run-01"), Iri(WN30_NS + "s")])
_PREDICATES = [RDF_TYPE, RDFS_COMMENT, RDFS_LABEL, RDFS_SUBCLASSOF, OWL_DISJOINT_WITH,
               DUL_ASSOCIATED_WITH, DUL_PRECEDES, DUL_HAS_QUALITY, ex("p"),
               Iri(PBRS_NS + "run-01.agent"), Iri(PBLR_NS + "run-01.runner"), _PLACEHOLDERS[1]]
_SUBJECTS = st.sampled_from(_IRIS + [BlankNode("b0"), BlankNode("b1")])
# Among them literals whose texts are an IRI's value and a blank node's label.
_OBJECTS = st.one_of(_SUBJECTS, st.sampled_from(
    [Literal("x"), Literal("x", language="en"), TRUE, Literal("Event"), Literal(EX_NS + "a"),
     Literal("b0")]))
_ASSOCIATED = [ex("a"), BlankNode("b0")]


def _among(predicate, nodes):
    node = st.sampled_from(nodes)
    return st.builds(Triple, node, st.just(predicate), node)


# Any subject, predicate and object (so blank nodes and literals under every
# indexed predicate, placeholder IRIs in each position, pbrs predicates),
# plus dense typings, subclass links and precedes links, where cycles and
# clashes are common, and fallback associations where one term is the subject
# and the object of several, beside terms that share its text.
_graphs = st.tuples(
    st.lists(st.builds(Triple, _SUBJECTS, st.sampled_from(_PREDICATES), _OBJECTS), max_size=30),
    st.lists(st.builds(Triple, st.sampled_from([ex(c) for c in "abc"]), st.just(RDF_TYPE),
                       st.sampled_from(_CLASSES)), max_size=6),
    st.lists(_among(RDFS_SUBCLASSOF, _CLASSES), max_size=4),
    st.lists(_among(DUL_PRECEDES, [ex(c) for c in "abcdef"]), max_size=14),
    st.lists(st.builds(Triple, st.sampled_from(_ASSOCIATED), st.just(DUL_ASSOCIATED_WITH),
                       st.one_of(st.sampled_from(_ASSOCIATED), _OBJECTS)), max_size=8),
).map(lambda parts: graph_of(set().union(*parts)))


class TestAgreesWithFullScans:
    @settings(max_examples=400, deadline=None)
    @given(_graphs, _graphs)
    def test_same_results_as_the_reference(self, graph, other):
        assert lint(graph) == reference_validation.lint(graph)
        try:
            ontologies = [MINI_ONTO, MiniOntology.from_graph(other)]
        except ValueError:  # a cyclic subclass hierarchy
            ontologies = [MINI_ONTO]
        for onto in ontologies:
            assert (check_consistency(graph, onto)
                    == reference_validation.check_consistency(graph, onto))
        assert infer_precedence(graph) == reference_validation.infer_precedence(graph)
        base = graph_of(other.triples | set(sorted(graph.triples)[::2]))
        for against in (None, base):
            assert profile(graph, against) == reference_validation.profile(graph, against)

    def test_corpus_agrees(self):
        from corpus import build_corpus

        corpus = build_corpus()
        merged = graph_of(corpus.base.triples.union(*corpus.additions.values()))
        assert lint(merged) == reference_validation.lint(merged)
        assert (check_consistency(merged, MINI_ONTO)
                == reference_validation.check_consistency(merged, MINI_ONTO))
        assert infer_precedence(merged) == reference_validation.infer_precedence(merged)
        assert profile(merged, corpus.base) == reference_validation.profile(merged, corpus.base)
