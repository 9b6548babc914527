import logging
import random

import pytest

import reference_base
from generators import AMR_CONCEPTS, AMR_ROLES, random_amr_graph
from xkg.amr import AmrConstant, AmrEdge, AmrGraph, AmrNode, parse_penman
from xkg.config import default_resource_paths
from xkg.rdf import (
    DUL_ASSOCIATED_WITH,
    DUL_HAS_QUALITY,
    FRED_NS,
    OWL_EQUIVALENT_CLASS,
    OWL_SAME_AS,
    PBLR_NS,
    PBRS_NS,
    RDFS_LABEL,
    RDFS_SUBCLASSOF,
    RDF_TYPE,
    VN_ROLE_NS,
    WN30_NS,
    DUL_NS,
    Iri,
    Literal,
    XSD_INTEGER,
    Triple,
    serialize_turtle,
)
from xkg.translate import (
    AlignmentEntry,
    AlignmentMap,
    InvalidAmrError,
    LinkTable,
    RolesetMap,
    align,
    link_entities,
    translate,
)


def fred(local):
    return Iri(FRED_NS + local)


ROLESETS = RolesetMap({
    "celebrate-01": {0: "honorer", 1: "honored"},
    "wear-01": {0: "wearer", 1: "clothing"},
    "win-01": {0: "winner", 1: "contest"},
})


class TestTranslate:
    def test_celebration_scene_shape(self):
        amr = parse_penman(
            "(c / celebrate-01 :ARG0 (a / athlete) :ARG1 (w / win-01) :location (t / track))")
        graph = translate(amr, ROLESETS)
        expected = {
            Triple(fred("celebrate_1"), RDF_TYPE, Iri(PBRS_NS + "celebrate-01")),
            Triple(fred("celebrate_1"), Iri(PBLR_NS + "celebrate-01.honorer"), fred("athlete_1")),
            Triple(fred("celebrate_1"), Iri(PBLR_NS + "celebrate-01.honored"), fred("win_1")),
            Triple(fred("celebrate_1"), Iri(VN_ROLE_NS + "Location"), fred("track_1")),
        }
        assert expected <= graph.triples

    def test_single_plain_node(self):
        graph = translate(parse_penman("(a / athlete)"))
        assert graph.triples == frozenset(
            {Triple(fred("athlete_1"), RDF_TYPE, fred("Athlete"))})

    def test_wear_local_roles(self):
        amr = parse_penman("(w / wear-01 :ARG0 (a / athlete) :ARG1 (u / uniform))")
        graph = translate(amr, ROLESETS)
        assert Triple(fred("wear_1"), Iri(PBLR_NS + "wear-01.wearer"), fred("athlete_1")) in graph.triples
        assert Triple(fred("wear_1"), Iri(PBLR_NS + "wear-01.clothing"), fred("uniform_1")) in graph.triples

    def test_unknown_frame_falls_back_to_positional_role(self):
        amr = parse_penman("(s / sprint-01 :ARG0 (a / athlete))")
        graph = translate(amr, ROLESETS)
        assert Triple(fred("sprint_1"), Iri(PBLR_NS + "sprint-01.arg0"), fred("athlete_1")) in graph.triples

    def test_missing_roleset_entry_warned_once_per_frame_and_index(self, caplog):
        amr = parse_penman("(s / sprint-01 :ARG0 (a / athlete) :ARG2 (t / track)"
                           " :ARG1 (s2 / sprint-01 :ARG0 (b / athlete) :ARG2 (u / track)"
                           " :ARG1 (w / wear-01 :ARG0 a :ARG2 (m / medal))))")
        caplog.set_level(logging.WARNING, logger="xkg.translate")
        for _ in range(2):  # once per call, not once per process
            caplog.clear()
            graph = translate(amr, ROLESETS)
            assert sorted(r.getMessage() for r in caplog.records) == [
                f"no roleset entry for {frame} ARG{index}, using positional role"
                for frame, index in [("sprint-01", 0), ("sprint-01", 1), ("sprint-01", 2),
                                     ("wear-01", 2)]]
        assert Triple(fred("sprint_2"), Iri(PBLR_NS + "sprint-01.arg0"), fred("athlete_2")) in graph.triples

    def test_missing_roleset_entry_warned_once_however_the_role_is_spelled(self, caplog):
        amr = parse_penman("(s / sprint-01 :ARG2 (a / athlete) :arg2 (t / track)"
                           " :ARG02 (u / track) :ARG0 a)")
        caplog.set_level(logging.WARNING, logger="xkg.translate")
        graph = translate(amr, ROLESETS)
        assert [r.getMessage() for r in caplog.records] == [
            "no roleset entry for sprint-01 ARG2, using positional role",
            "no roleset entry for sprint-01 ARG0, using positional role"]
        arg2 = Iri(PBLR_NS + "sprint-01.arg2")
        assert {t.object for t in graph.triples if t.predicate == arg2} == {
            fred("athlete_1"), fred("track_1"), fred("track_2")}

    def test_a_core_role_maps_through_its_own_frame(self):
        amr = parse_penman("(c / celebrate-01 :ARG0 (a / athlete)"
                           " :ARG1 (w / wear-01 :ARG0 a :ARG1 (m / medal)))")
        graph = translate(amr, ROLESETS)
        assert {(t.subject, t.predicate) for t in graph.triples if t.object == fred("athlete_1")} == {
            (fred("celebrate_1"), Iri(PBLR_NS + "celebrate-01.honorer")),
            (fred("wear_1"), Iri(PBLR_NS + "wear-01.wearer"))}

    @pytest.mark.parametrize("concept", ["cat<x", '"big"', "win{-01", "a\\b", "x`"])
    def test_a_concept_no_iri_can_hold_is_rejected(self, concept):
        amr = AmrGraph("a", (AmrNode("a", "athlete"), AmrNode("b", concept)),
                       (AmrEdge("a", ":mod", "b"),))
        with pytest.raises(InvalidAmrError) as raised:
            translate(amr, ROLESETS)
        assert str(raised.value) == f"concept {concept!r} cannot be part of an IRI"

    def test_mod_and_fallback_roles(self):
        amr = parse_penman("(a / athlete :mod (t / team) :topic (m / medal))")
        graph = translate(amr)
        assert Triple(fred("athlete_1"), DUL_HAS_QUALITY, fred("team_1")) in graph.triples
        assert Triple(fred("athlete_1"), DUL_ASSOCIATED_WITH, fred("medal_1")) in graph.triples

    def test_name_cluster_becomes_label(self):
        amr = parse_penman('(c / country :name (n / name :op1 "Saint" :op2 "Lucia"))')
        graph = translate(amr)
        assert graph.triples == frozenset({
            Triple(fred("country_1"), RDF_TYPE, fred("Country")),
            Triple(fred("country_1"), RDFS_LABEL, Literal("Saint Lucia")),
        })

    def test_an_edge_into_a_name_node_is_dropped_with_a_warning(self, caplog):
        amr = parse_penman('(s / see-01 :ARG0 (p / person :name (n / name :op1 "Ann"))'
                           ' :ARG1 n :ARG1 (t / thing))')
        caplog.set_level(logging.WARNING, logger="xkg.translate")
        graph = translate(amr, RolesetMap({"see-01": {0: "seer"}}))
        # The dropped edge maps no role, so the next ARG1 edge is the one warned of.
        assert [r.getMessage() for r in caplog.records] == [
            "edge s :ARG1 into name node n has no object, dropped",
            "no roleset entry for see-01 ARG1, using positional role"]
        assert graph.triples == frozenset({
            Triple(fred("see_1"), RDF_TYPE, Iri(PBRS_NS + "see-01")),
            Triple(fred("see_1"), Iri(PBLR_NS + "see-01.seer"), fred("person_1")),
            Triple(fred("see_1"), Iri(PBLR_NS + "see-01.arg1"), fred("thing_1")),
            Triple(fred("person_1"), RDF_TYPE, fred("Person")),
            Triple(fred("person_1"), RDFS_LABEL, Literal("Ann")),
            Triple(fred("thing_1"), RDF_TYPE, fred("Thing")),
        })

    def test_constants_become_typed_literals(self):
        amr = parse_penman("(t / team :quant 3 :polarity -)")
        graph = translate(amr)
        objects = {t.object for t in graph.triples if isinstance(t.object, Literal)}
        lexicals = {(o.lexical, o.datatype.local_name()) for o in objects}
        assert ("3", "integer") in lexicals
        assert ("false", "boolean") in lexicals

    def test_non_ascii_digits_make_a_plain_literal(self):
        # xsd:integer's lexical space allows only ASCII digits.
        amr = parse_penman("(a / age-01 :ARG1 (p / person) :ARG2 \u0661\u0662 :quant 12)")
        graph = translate(amr)
        objects = {t.object for t in graph.triples}
        assert Literal("\u0661\u0662") in objects and Literal("12", XSD_INTEGER) in objects
        assert 'pblr:age-01.arg2 "\u0661\u0662" .' in serialize_turtle(graph)

    def test_per_concept_counters_in_traversal_order(self):
        amr = parse_penman("(a / athlete :mod (b / athlete) :part (c / athlete))")
        graph = translate(amr)
        individuals = {t.subject.local_name() for t in graph.triples if t.predicate == RDF_TYPE}
        assert individuals == {"athlete_1", "athlete_2", "athlete_3"}

    def test_deterministic_output(self):
        rng = random.Random(5)
        for _ in range(10):
            amr = random_amr_graph(rng)
            assert serialize_turtle(translate(amr)) == serialize_turtle(translate(amr))

    def test_individual_count_matches_node_count(self):
        # Constants and absorbed name clusters excluded.
        rng = random.Random(17)
        for _ in range(25):
            amr = random_amr_graph(rng)
            graph = translate(amr)
            individuals = {t.subject for t in graph.triples if t.predicate == RDF_TYPE}
            assert len(individuals) == len(amr.nodes)

    def test_empty_graph_rejected(self):
        from xkg.amr import AmrGraph
        with pytest.raises(InvalidAmrError):
            translate(AmrGraph("a", (), ()))

    def test_edge_to_unknown_variable_rejected(self):
        from xkg.amr import AmrEdge, AmrGraph, AmrNode
        broken = AmrGraph("a", (AmrNode("a", "athlete"),),
                          (AmrEdge("a", ":mod", "ghost"),))
        with pytest.raises(InvalidAmrError):
            translate(broken)

    def test_no_pbrs_predicates_ever(self):
        rng = random.Random(23)
        for _ in range(25):
            graph = translate(random_amr_graph(rng), ROLESETS)
            assert not any(t.predicate.value.startswith(PBRS_NS) for t in graph.triples)

    def test_ten_thousand_node_star(self):
        """A graph of about 10 000 nodes: one frame with an :ARG0 edge to each
        of 9 000 events, and a :name cluster on every tenth event."""
        from xkg.amr import AmrConstant, AmrEdge, AmrGraph, AmrNode
        nodes, edges = [AmrNode("r", "win-01")], []
        for i in range(1, 9001):
            nodes.append(AmrNode(f"e{i}", "win-01"))
            edges.append(AmrEdge("r", ":ARG0", f"e{i}"))
            if i % 10 == 0:
                nodes.append(AmrNode(f"n{i}", "name"))
                edges += [AmrEdge(f"e{i}", ":name", f"n{i}"),
                          AmrEdge(f"n{i}", ":op1", AmrConstant(f"E{i}", quoted=True))]
        amr = AmrGraph("r", tuple(nodes), tuple(edges))
        assert len(amr.nodes) == 9901
        graph = translate(amr, ROLESETS)
        # A type per event and the root, an :ARG0 per event, a label per name.
        assert len(graph) == 9001 + 9000 + 900
        assert Triple(fred("win_11"), RDFS_LABEL, Literal("E10")) in graph
        assert Triple(fred("win_1"), Iri(PBLR_NS + "win-01.winner"), fred("win_9001")) in graph



# Concepts and roles that reach each rule of ``translate`` and its errors:
# frames with and without roleset entries, hyphenated and non-ASCII lemmas,
# name clusters, and concepts no IRI can hold.
_CONCEPTS = AMR_CONCEPTS + ["celebrate-01", "wear-01", "sprint-01", "gold-medal", "ǆemal-01",
                            "straße", "x-1", "run-999", "", "cat<x", '"big"']
_ROLES = AMR_ROLES + [":ARG5", ":arg1", ":ARG01", ":Location", ":MOD", ":name", ":op1", ":op2",
                      ":topic"]
_CONSTANTS = [AmrConstant("5"), AmrConstant("-"), AmrConstant("+"), AmrConstant("3.14"),
              AmrConstant("٣"), AmrConstant("x"), AmrConstant("Saint Lucia", quoted=True)]


def _translatable_amr(rng):
    """A random AMR graph with name clusters (and name nodes that are none),
    constants, roles of every kind, a repeated variable now and then, and
    rarely a concept no IRI can hold or an edge to an undeclared variable."""
    base = random_amr_graph(rng, max_nodes=12)
    good = _CONCEPTS[:-2] + (_CONCEPTS[-2:] if rng.random() < 0.1 else [])
    nodes = [AmrNode(n.variable, rng.choice(good)) for n in base.nodes]
    edges = [AmrEdge(e.source, rng.choice(_ROLES), e.target) for e in base.edges]
    for i in range(rng.randrange(3)):
        bearer, name = rng.choice(nodes).variable, f"n{i}"
        nodes.append(AmrNode(name, "name"))
        edges.append(AmrEdge(bearer, rng.choice([":name", ":name", ":mod"]), name))
        for k in range(rng.randrange(3)):
            edges.append(AmrEdge(name, rng.choice([f":op{k + 1}", ":op1", ":mod"]),
                                 rng.choice(_CONSTANTS + [AmrConstant(f"N{k}", quoted=True)] * 3)))
    for _ in range(rng.randrange(3)):
        edges.append(AmrEdge(rng.choice(nodes).variable, rng.choice(_ROLES),
                             rng.choice(_CONSTANTS)))
    if rng.random() < 0.05:
        nodes.append(AmrNode(rng.choice(nodes).variable, rng.choice(good)))
    if rng.random() < 0.03:
        edges.insert(rng.randrange(len(edges) + 1),
                     rng.choice([AmrEdge("ghost", ":mod", "v0"), AmrEdge("v0", ":mod", "ghost")]))
    return AmrGraph("v0", tuple(nodes), tuple(dict.fromkeys(edges)))


def _translated(translate_fn, amr, rolesets, caplog):
    caplog.clear()
    try:
        outcome = translate_fn(amr, rolesets)
    except Exception as exc:
        outcome = (type(exc), str(exc))
    return outcome, [(r.name, r.levelno, r.getMessage()) for r in caplog.records]


@pytest.mark.parametrize("seed", [1, 2])
def test_translates_as_each_node_on_its_own_did(seed, caplog):
    """``translate`` against the copy that built and checked every IRI and
    triple on its own (tests/reference_base.py): the same graph, or the same
    exception type and message, and the same warnings in the same order."""
    caplog.set_level(logging.WARNING, logger="xkg.translate")
    rng = random.Random(seed)
    rolesets = [None, ROLESETS, RolesetMap.from_json(default_resource_paths().rolesets)]
    errors = warned = 0
    for _ in range(400):
        amr, maps = _translatable_amr(rng), rng.choice(rolesets)
        new = _translated(translate, amr, maps, caplog)
        assert new == _translated(reference_base.translate, amr, maps, caplog), amr
        errors += isinstance(new[0], tuple)
        warned += bool(new[1])
    assert 10 < errors < 100 and warned > 100


ALIGNMENTS = AlignmentMap({
    "athlete": AlignmentEntry(
        synset=Iri(WN30_NS + "synset-athlete-noun-1"),
        supersenses=(Iri(WN30_NS + "supersense-noun_person"),),
        dolce=(Iri(DUL_NS + "Person"),),
    ),
})


class TestAlign:
    def test_athlete_alignment(self):
        graph = translate(parse_penman("(a / athlete)"))
        aligned = align(graph, ALIGNMENTS)
        added = aligned.triples - graph.triples
        assert added == {
            Triple(fred("Athlete"), OWL_EQUIVALENT_CLASS, Iri(WN30_NS + "synset-athlete-noun-1")),
            Triple(fred("Athlete"), RDFS_SUBCLASSOF, Iri(WN30_NS + "supersense-noun_person")),
            Triple(fred("Athlete"), RDFS_SUBCLASSOF, Iri(DUL_NS + "Person")),
        }

    def test_empty_map_is_identity(self):
        graph = translate(parse_penman("(a / athlete)"))
        assert align(graph, AlignmentMap()).triples == graph.triples

    def test_three_lemmas_three_equivalences(self):
        graph = translate(parse_penman("(a / athlete :mod (t / track) :part (u / uniform))"))
        entries = {
            lemma: AlignmentEntry(synset=Iri(WN30_NS + f"synset-{lemma}-noun-1"))
            for lemma in ("athlete", "track", "uniform")
        }
        aligned = align(graph, AlignmentMap(entries))
        added = aligned.triples - graph.triples
        assert len(added) == 3
        assert all(t.predicate == OWL_EQUIVALENT_CLASS for t in added)

    def test_hyphenated_lemma_matches_underscored_class(self):
        graph = translate(parse_penman("(g / gold-medal)"))
        aligned = align(graph, AlignmentMap({
            "gold-medal": AlignmentEntry(synset=Iri(WN30_NS + "synset-medal-noun-1")),
        }))
        assert Triple(fred("Gold_Medal"), OWL_EQUIVALENT_CLASS,
                      Iri(WN30_NS + "synset-medal-noun-1")) in aligned.triples

    def test_frame_alignment(self):
        graph = translate(parse_penman("(c / cheer-01)"))
        aligned = align(graph, AlignmentMap({
            "cheer-01": AlignmentEntry(dolce=(Iri("http://www.ontologydesignpatterns.org/ont/d0.owl#Activity"),)),
        }))
        assert Triple(Iri(PBRS_NS + "cheer-01"), RDFS_SUBCLASSOF,
                      Iri("http://www.ontologydesignpatterns.org/ont/d0.owl#Activity")) in aligned.triples

    def test_monotone_and_idempotent(self):
        graph = translate(parse_penman("(a / athlete)"))
        once = align(graph, ALIGNMENTS)
        twice = align(once, ALIGNMENTS)
        assert graph.triples <= once.triples
        assert once.triples == twice.triples


class TestLinkEntities:
    def test_an_empty_mention_is_rejected(self, tmp_path):
        path = tmp_path / "links.json"
        path.write_text('{" ": "wd:Q1"}', encoding="utf-8")
        with pytest.raises(ValueError, match="empty mention in link table"):
            LinkTable.from_json(path)

    def test_label_match_adds_same_as(self):
        amr = parse_penman('(c / country :name (n / name :op1 "Saint" :op2 "Lucia"))')
        graph = translate(amr)
        linked = link_entities(graph, LinkTable({"saint lucia": Iri("http://www.wikidata.org/entity/Q760")}))
        assert Triple(fred("country_1"), OWL_SAME_AS, Iri("http://www.wikidata.org/entity/Q760")) in linked.triples

    def test_local_name_match_strips_index(self):
        graph = translate(parse_penman("(a / athlete)"))
        linked = link_entities(graph, LinkTable({"athlete": Iri("http://www.wikidata.org/entity/Q2066131")}))
        assert any(t.predicate == OWL_SAME_AS for t in linked.triples)

    def test_empty_table_is_identity(self):
        graph = translate(parse_penman("(a / athlete)"))
        assert link_entities(graph, LinkTable()).triples == graph.triples

    def test_ambiguous_mention_skipped_and_reported(self, caplog):
        amr = parse_penman("(a / athlete :mod (b / athlete))")
        graph = translate(amr)
        with caplog.at_level(logging.WARNING, logger="xkg.translate"):
            linked = link_entities(
                graph, LinkTable({"athlete": Iri("http://www.wikidata.org/entity/Q1")}))
        assert linked.triples == graph.triples
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", "ambiguous mention 'athlete' matches 2 individuals; link skipped")]

    def test_idempotent(self):
        graph = translate(parse_penman("(a / athlete)"))
        table = LinkTable({"athlete": Iri("http://www.wikidata.org/entity/Q1")})
        once = link_entities(graph, table)
        assert link_entities(once, table).triples == once.triples
