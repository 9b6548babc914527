import logging
import random

import pytest

from generators import random_amr_graph
from xkg.amr import parse_penman
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
