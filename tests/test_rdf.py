import copy
import pickle
import random
from itertools import chain, groupby
from operator import itemgetter

import pytest

import reference_turtle
import xkg.rdf
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import EX_NS, graph_of, random_rdf_graph
from isomorphism import isomorphic
from strategies import turtle_documents
from xkg.rdf import (
    FRED_NS,
    PBLR_NS,
    TRUE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_NS,
    XSD_STRING,
    BlankNode,
    Iri,
    MAX_NESTING,
    Literal,
    PrefixConflictError,
    PrefixTable,
    RDF_TYPE,
    RdfError,
    RdfGraph,
    Triple,
    TurtleSyntaxError,
    UndeclaredPrefixError,
    merge,
    parse_turtle,
    serialize_extensions,
    serialize_turtle,
    standard_prefixes,
)

CELEBRATION_TTL = """
@prefix fred: <http://www.ontologydesignpatterns.org/ont/fred/domain.owl#> .
@prefix pbrs: <https://w3id.org/framester/data/propbank-3.4.0/RoleSet/> .
@prefix pblr: <https://w3id.org/framester/data/propbank-3.4.0/LocalRole/> .

fred:celebrate_1 a pbrs:celebrate-01 ;
    pblr:celebrate-01.honorer fred:athlete_1 .
"""


class TestTerms:
    def test_iri_requires_scheme(self):
        with pytest.raises(ValueError):
            Iri("no-scheme")
        with pytest.raises(ValueError):
            Iri("http://x/ bad space")
        with pytest.raises(ValueError):
            Iri("")

    def test_literal_datatype_language_exclusive(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=XSD_STRING, language="en")

    def test_boolean_lexical_forms(self):
        assert Literal("True", XSD_BOOLEAN).lexical == "true"
        with pytest.raises(ValueError):
            Literal("yes", XSD_BOOLEAN)

    def test_triple_shape(self):
        iri = Iri("http://e/x")
        with pytest.raises(ValueError):
            Triple(Literal("s"), iri, iri)

    def test_local_name(self):
        assert Iri(FRED_NS + "athlete_1").local_name() == "athlete_1"
        assert Iri(PBLR_NS + "celebrate-01.honorer").local_name() == "celebrate-01.honorer"


class TestPrefixTable:
    def test_round_trip_every_label(self):
        table = standard_prefixes()
        for label, ns in table.items():
            iri = table.expand(f"{label}:thing")
            assert iri.value == ns + "thing"
            assert table.contract(iri) == f"{label}:thing"

    def test_minimum_labels_present(self):
        table = standard_prefixes()
        for label in ("fred", "pbrs", "pblr", "vn.role", "wn30", "dul", "d0",
                      "owl", "rdf", "rdfs", "xsd"):
            assert label in table

    def test_conflict_detected(self):
        table = PrefixTable({"ex": "http://a/"})
        with pytest.raises(PrefixConflictError):
            table.with_binding("ex", "http://b/")

    def test_expand_unknown_label(self):
        with pytest.raises(UndeclaredPrefixError):
            PrefixTable().expand("nope:x")

    def test_contract_longest_namespace_without_separator_end(self):
        table = PrefixTable({"ex": "http://e/", "exa": "http://e/a", "exab": "http://e/ab",
                             "isbn": "urn:isbn:"})
        assert table.contract(Iri("http://e/abc")) == "exab:c"
        assert table.contract(Iri("http://e/ax")) == "exa:x"
        # ".c" is no local part, so the next longest namespace wins.
        assert table.contract(Iri("http://e/ab.c")) == "exa:b.c"
        assert table.contract(Iri("urn:isbn:123")) == "isbn:123"
        assert table.contract(Iri("urn:issn:123")) is None


class TestParse:
    def test_minimal_document(self):
        graph = parse_turtle("@prefix ex: <http://e/> . ex:a ex:p ex:b .")
        assert len(graph) == 1
        (triple,) = graph.triples
        assert triple == Triple(Iri("http://e/a"), Iri("http://e/p"), Iri("http://e/b"))

    def test_celebration_fragment(self):
        graph = parse_turtle(CELEBRATION_TTL)
        assert len(graph) == 2
        predicates = {t.predicate.value for t in graph.triples}
        assert PBLR_NS + "celebrate-01.honorer" in predicates

    def test_object_list_with_language_and_datatype(self):
        graph = parse_turtle(
            '@prefix ex: <http://e/> . @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .'
            ' ex:a ex:p "x"@en, "y"^^xsd:string .')
        assert len(graph) == 2
        objects = {t.object for t in graph.triples}
        assert Literal("x", language="en") in objects
        assert Literal("y", datatype=XSD_STRING) in objects

    def test_booleans_and_numbers(self):
        graph = parse_turtle(
            "@prefix ex: <http://e/> . ex:a ex:p true ; ex:q 42 ; ex:r 3.5 ; ex:s false .")
        objects = {t.object for t in graph.triples}
        assert TRUE in objects
        assert Literal("42", XSD_INTEGER) in objects

    def test_blank_nodes(self):
        graph = parse_turtle(
            "@prefix ex: <http://e/> . _:x ex:p [ ex:q ex:b ] . ex:a ex:r _:x .")
        assert len(graph) == 3
        labels = {t.subject.label for t in graph.triples if isinstance(t.subject, BlankNode)}
        assert "x" in labels and len(labels) == 2

    def test_syntax_error_carries_position(self):
        with pytest.raises(TurtleSyntaxError) as err:
            parse_turtle("@prefix ex: <http://e/> .\nex:a ex:p .")
        assert err.value.line == 2

    def test_undeclared_prefix(self):
        with pytest.raises(UndeclaredPrefixError) as err:
            parse_turtle("nope:a nope:p nope:b .")
        assert err.value.label == "nope"

    def test_undeclared_prefix_can_be_bound(self):
        graph = parse_turtle("nope:a nope:p nope:b .", bind_undeclared=True)
        assert len(graph) == 1
        (triple,) = graph.triples
        assert "undeclared/nope#" in triple.subject.value

    def test_second_label_for_a_bound_namespace(self):
        text = f"@prefix f: <{FRED_NS}> .\nf:a f:p f:b ."
        for bind_undeclared in (False, True):
            graph = parse_turtle(text, standard_prefixes(), bind_undeclared=bind_undeclared)
            assert graph.triples == {Triple(Iri(FRED_NS + "a"), Iri(FRED_NS + "p"),
                                            Iri(FRED_NS + "b"))}
            # The first label still contracts, and the second is not declared.
            assert graph.prefixes == standard_prefixes()
            assert serialize_turtle(graph) == serialize_turtle(
                RdfGraph(graph.triples, standard_prefixes()))
            assert "fred:a fred:p fred:b ." in serialize_turtle(graph)
        with pytest.raises(PrefixConflictError):
            parse_turtle(text + "\n@prefix f: <http://e/> .", standard_prefixes())

    def test_comments_ignored(self):
        graph = parse_turtle("# header\n@prefix ex: <http://e/> .\nex:a ex:p ex:b . # trailing")
        assert len(graph) == 1

    def test_duplicate_statement_collapses(self):
        graph = parse_turtle("@prefix ex: <http://e/> . ex:a ex:p ex:b . ex:a ex:p ex:b .")
        assert len(graph) == 1

    @pytest.mark.parametrize("escape", ["\\uZZZZ", "\\u12", "\\ud800", "\\uDFFF"])
    def test_bad_u_escape_is_syntax_error(self, escape):
        with pytest.raises(TurtleSyntaxError) as err:
            parse_turtle(f'@prefix ex: <http://e/> .\nex:a ex:p "x{escape}" .')
        assert (err.value.line, err.value.column, err.value.message) == (2, 13, "bad \\u escape")

    def test_u_escape(self):
        graph = parse_turtle('@prefix ex: <http://e/> . ex:a ex:p "caf\\u00e9\\uFFFD" .')
        (triple,) = graph.triples
        assert triple.object == Literal("caf\u00e9\ufffd")

    def test_bad_datatype_is_syntax_error(self):
        for literal in ('"x"^^<nocolon>', '"yes"^^<http://www.w3.org/2001/XMLSchema#boolean>'):
            with pytest.raises(TurtleSyntaxError):
                parse_turtle(f"@prefix ex: <http://e/> . ex:a ex:p {literal} .")

    def test_nesting_limit(self):
        def nested(depth):
            return ("@prefix ex: <http://e/> . ex:a " + "ex:p [ " * depth
                    + "ex:q ex:b " + "] " * depth + ".")
        assert len(parse_turtle(nested(MAX_NESTING))) == MAX_NESTING + 1
        with pytest.raises(TurtleSyntaxError, match="nested deeper"):
            parse_turtle(nested(MAX_NESTING + 1))
        with pytest.raises(TurtleSyntaxError, match="nested deeper"):
            parse_turtle(nested(3000))

    # Fragments that reach every branch of the tokenizer and the parser.
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from([
            "@prefix", "@en", "@1", "ex:", "ex:a", ":b", "a", "true", "<http://e/x>", "<",
            ">", '"', '"x"', "\\", "\\u00e9", "\\ud800", "\\uZZ", ".", ";", ",", "[", "]",
            "^^", "_:b", "#c\n", "\r\n", " ", "42", "-3.5", "3.5a", "<x>",
            "<http://www.w3.org/2001/XMLSchema#boolean>"]),
        st.characters()), max_size=30))
    def test_arbitrary_text_raises_only_rdf_errors(self, fragments):
        try:
            parse_turtle("".join(fragments))
        except RdfError:
            pass


# One case per TurtleSyntaxError branch of the tokenizer, plus the parser's
# view of a lone '.': (document, line, column, message).
SYNTAX_ERRORS = {
    "unterminated IRI": ("ex:a ex:p <http://e/x", 1, 11, "unterminated IRI reference"),
    "IRI with a space": ("  <http://e/ x> ex:p ex:b .", 1, 3, "unterminated IRI reference"),
    "IRI with a newline": ("ex:a ex:p <http://e/\nx> .", 1, 11, "unterminated IRI reference"),
    "unterminated string": ('ex:a ex:p "abc', 1, 11, "unterminated string literal"),
    "newline in string": ('ex:a ex:p "ab\ncd" .', 1, 11, "newline in string literal"),
    "unknown escape": ('ex:a ex:p "ab\\qc" .', 1, 14, "unknown escape \\q"),
    "escape at end of input": ('ex:a ex:p "ab\\', 1, 14, "unknown escape \\"),
    "short \\u escape at end of input": ('ex:a ex:p "x\\u12', 1, 13, "bad \\u escape"),
    "@ and a non-tag word": ('ex:a ex:p "x"@en- .', 1, 14, "unexpected @en-"),
    "@ and a digit": ("@123 ex:a ex:p ex:b .", 1, 1, "unexpected @123"),
    "lone '.'": (".", 1, 1, "expected subject, found '.'"),
    "prefix label with a local part": ("@prefix ex:a <http://e/> .", 1, 9,
                                       "expected prefix label in @prefix"),
    "bare word": ("ex:a ex:p foo .", 1, 11, "unexpected token 'foo'"),
    "number run into a name": ("ex:a ex:p 3.5a .", 1, 11, "unexpected token '3.5a'"),
    "stray character": ("ex:a ex:p ! .", 1, 11, "unexpected character '!'"),
    "lone '^'": ('ex:a ex:p "x"^xsd:string .', 1, 14, "unexpected character '^'"),
    "line 3 after a comment and CRLF": (
        '# comment\r\n@prefix ex: <http://e/> .\r\n  ex:a ex:p "x\\q" .\r\n',
        3, 15, "unknown escape \\q"),
    "line 3 with a blank CRLF line": (
        "# c\r\n\r\n\tex:a ex:p ex:b ;; .", 3, 18, "expected predicate, found ';'"),
    "line 4 after a trailing comment": (
        "# c\r\n\r\n\tex:a ex:p ex:b .# x\r\n\t  !", 4, 4, "unexpected character '!'"),
    "end of input": ("ex:a ex:p ", 1, 11, "expected object, found ''"),
    "bad boolean form": ('ex:a ex:p "yes"^^<http://www.w3.org/2001/XMLSchema#boolean> .',
                         1, 11, "bad boolean lexical form: 'yes'"),
    "datatype IRI without a scheme": ('ex:a ex:p "x"^^<a> .', 1, 16,
                                      "not an absolute IRI: 'a'"),
    "blank node as datatype": ('ex:a ex:p "x"^^_:b .', 1, 16, "expected datatype IRI after ^^"),
    "blank node read before as predicate": ("_:b ex:p ex:c .\nex:a _:b ex:c .", 2, 6,
                                            "expected predicate, found 'b'"),
    "lone surrogate in a string": ('ex:a ex:p "x\ud800y" .', 1, 13, "lone surrogate U+D800"),
    "lone surrogate in an IRI on line 2": (
        "ex:a ex:p ex:b .\n  ex:c ex:p <http://e/\udfff> .", 2, 23, "lone surrogate U+DFFF"),
    # Turtle 1.1 forms outside the subset, each named at its first character.
    "SPARQL-style PREFIX": ("ex:a ex:p ex:b .\nPREFIX ex: <http://e/>", 2, 1,
                            "SPARQL-style PREFIX directives are not supported"),
    "SPARQL-style prefix in lower case": ("  prefix : <http://e/>", 1, 3,
                                          "SPARQL-style PREFIX directives are not supported"),
    "SPARQL-style BASE": ("Base\t<http://e/>", 1, 1,
                          "SPARQL-style BASE directives are not supported"),
    "@base": ("ex:a ex:p ex:b .\n @base <http://e/> .", 2, 2,
              "@base directives are not supported"),
    "single-quoted string": ("ex:a ex:p 'x' .", 1, 11,
                             "single-quoted string literals are not supported"),
    "triple-single-quoted string": ("ex:a ex:p '''x''' .", 1, 11,
                                    "single-quoted string literals are not supported"),
    "triple-quoted string over two lines": ('ex:a ex:p """x\ny""" .', 1, 11,
                                            "triple-quoted string literals are not supported"),
    "triple-quoted string on one line": ('ex:a ex:p """x""" .', 1, 11,
                                         "triple-quoted string literals are not supported"),
    "triple-quoted string as subject": ('"""x""" ex:p ex:b .', 1, 1,
                                        "triple-quoted string literals are not supported"),
    "triple-quoted string with a bad escape": ('ex:a ex:p """a\\q""" .', 1, 11,
                                               "triple-quoted string literals are not supported"),
    "collection": ("ex:a ex:p ( ex:b ) .", 1, 11, "collections are not supported"),
    # Near misses keep their own messages.
    "a word 'base' as object": ("ex:a ex:p base .", 1, 11, "unexpected token 'base'"),
    "two adjacent strings": ('ex:a ex:p "a\\"""b" .', 1, 16, "expected '.', found 'b'"),
    "language tag @base": ('ex:a ex:p "x"@base ; @base .', 1, 22,
                           "expected predicate, found 'base'"),
}


@pytest.mark.parametrize("text,line,column,message", SYNTAX_ERRORS.values(),
                         ids=SYNTAX_ERRORS.keys())
def test_syntax_error_position_and_message(text, line, column, message):
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(text, bind_undeclared=True)
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


class TestSerialize:
    def test_empty_graph_is_prefix_declarations_only(self):
        text = serialize_turtle(graph_of([], standard_prefixes()))
        lines = [l for l in text.splitlines() if l]
        assert lines and all(l.startswith("@prefix ") for l in lines)

    def test_single_triple_one_statement_line(self):
        graph = parse_turtle("@prefix ex: <http://e/> . ex:a ex:p ex:b .")
        text = serialize_turtle(graph)
        statements = [l for l in text.splitlines() if l and not l.startswith("@prefix")]
        assert statements == ["ex:a ex:p ex:b ."]

    def test_deterministic_for_equal_graphs(self):
        rng = random.Random(7)
        for _ in range(20):
            graph = random_rdf_graph(rng)
            shuffled = graph_of(sorted(graph.triples, key=repr), graph.prefixes)
            assert serialize_turtle(graph) == serialize_turtle(shuffled)

    def test_unknown_namespace_falls_back_to_iriref(self):
        graph = graph_of(
            [Triple(Iri("urn:uuid:x"), Iri("http://unbound.org/p"), Literal("v"))],
            standard_prefixes())
        text = serialize_turtle(graph)
        assert "<http://unbound.org/p>" in text


# Terms over a few namespaces; the prefix tables below may bind them, their
# unsplit prefixes ("http://ex.org/b", "urn:ex:") or unrelated namespaces.
_EXT_NS = ["http://ex.org/a#", "http://ex.org/b/", "http://ex.org/bx/", "urn:ex:y"]
_EXT_BIND_NS = _EXT_NS + ["http://ex.org/b", "http://ex.org/", "urn:ex:", "urn:",
                          "http://other.org/#"]
_ext_iris = st.builds(lambda ns, local: Iri(ns + local), st.sampled_from(_EXT_NS),
                      st.sampled_from(["a", "b", "x.y", "1", "-z", ""]))
_ext_blanks = st.sampled_from([BlankNode("n1"), BlankNode("n2"), BlankNode("b1")])
_ext_literals = st.one_of(
    st.builds(lambda lexical, dt: Literal("true" if dt == XSD_BOOLEAN else lexical, dt),
              st.sampled_from(["7", "2.5", "abc", 'q"t']),
              st.sampled_from([None, XSD_INTEGER, XSD_DECIMAL, XSD_BOOLEAN, XSD_STRING,
                               Iri("http://ex.org/b/dt"), Iri("urn:ex:ydt")])),
    st.builds(Literal, st.sampled_from(["hi", "yo"]), st.none(), st.sampled_from(["en", "fr"])))
_ext_objects = st.one_of(_ext_iris, _ext_blanks, _ext_literals)
_ext_tables = st.dictionaries(st.sampled_from(["ex", "b", "u", "o"]),
                              st.sampled_from(_EXT_BIND_NS), max_size=4)


def _extended(base: RdfGraph, table: PrefixTable, added) -> str:
    """``serialize_turtle`` of the base's triples plus ``added`` under ``table``."""
    return serialize_turtle(RdfGraph(base.triples.union(added), table))


@st.composite
def _base_and_extensions(draw):
    """A base graph and ``(table, additions)`` pairs as the writer takes them:
    each run sorted, without duplicates and disjoint from the base. The runs
    draw on one pool, so extensions share additions, and a last extension may
    be the merge of some of them built from their runs, as the CLI does."""
    base_table = PrefixTable(draw(_ext_tables))
    base = graph_of(draw(st.lists(st.builds(Triple, st.one_of(_ext_iris, _ext_blanks),
                                            _ext_iris, _ext_objects), max_size=12)),
                    base_table)
    base_subjects = sorted({t.subject for t in base.triples}, key=repr)
    base_groups = sorted({t[:2] for t in base.triples}, key=repr)
    subjects = st.one_of(_ext_iris, _ext_blanks, *([st.sampled_from(base_subjects)]
                                                    if base_subjects else []))
    pool = set(draw(st.lists(st.builds(Triple, subjects, _ext_iris, _ext_objects),
                             max_size=8)))
    if base_groups:  # into a base subject's existing predicate group
        pool |= {Triple(*group, o) for group, o in draw(st.lists(
            st.tuples(st.sampled_from(base_groups), _ext_objects), max_size=3))}
    pool = sorted(pool - base.triples)
    extensions = []
    for _ in range(draw(st.integers(0, 4))):
        added = draw(st.lists(st.sampled_from(pool), max_size=6)) if pool else []
        extra = draw(_ext_tables)
        if draw(st.booleans()):  # the base's table plus new labels
            table = base_table
            for label, ns in extra.items():
                if label not in table:
                    table = table.with_binding(label, ns)
        else:  # an unrelated table: base labels may be missing or rebound
            table = PrefixTable(extra)
        extensions.append((table, sorted(set(added))))
    if extensions and draw(st.booleans()):
        kept = [run for _, run in extensions if draw(st.booleans())]
        merged = [t for t, _ in groupby(sorted(chain.from_iterable(kept)))]
        extensions.append((draw(st.sampled_from([table for table, _ in extensions])), merged))
    return base, extensions


class TestSerializeExtensions:
    @settings(max_examples=200, deadline=None)
    @given(_base_and_extensions())
    def test_equals_serialize_turtle(self, case):
        base, extensions = case
        assert list(serialize_extensions(base, extensions)) == [
            _extended(base, table, added) for table, added in extensions]

    BASE = graph_of(
        [Triple(Iri("http://ex.org/b/s"), Iri("http://ex.org/a#p"), Iri("urn:ex:yo")),
         Triple(Iri("http://ex.org/a#t"), Iri("http://ex.org/a#p"), Literal("1", XSD_INTEGER)),
         Triple(Iri("http://ex.org/a#t"), Iri("http://ex.org/a#p"), Literal("x", Iri("urn:dt#d")))],
        PrefixTable({"ex": "http://ex.org/a#"}))

    @pytest.mark.parametrize("table,into_base_subject,fallbacks", [
        ({"ex": "http://ex.org/a#", "n": "http://other.org/"}, True, 0),
        ({"ex": "http://ex.org/a#", "n": "http://ex.org/b/"}, True, 1),  # a base IRI's namespace
        ({"ex": "http://ex.org/a#", "n": "urn:ex:"}, True, 1),  # an unsplit prefix of one
        ({"ex": "http://ex.org/a#", "n": "urn:ex:yx"}, True, 0),  # an unsplit prefix of none
        ({"ex": "http://other.org/"}, True, 1),  # a rebound base label
        ({"n": "http://ex.org/a#"}, True, 1),  # the base namespace under another label
        ({"ex": "http://ex.org/a#"}, False, 0),  # a new subject under the base's table
        ({"ex": "http://ex.org/a#", "n": "urn:dt#"}, True, 1),  # a base datatype's namespace
    ])
    def test_falls_back_where_base_statements_could_change(self, monkeypatch, table,
                                                            into_base_subject, fallbacks):
        calls = []
        monkeypatch.setattr(xkg.rdf, "serialize_turtle",
                            lambda g: calls.append(g) or serialize_turtle(g))
        subject = Iri("http://ex.org/a#t" if into_base_subject else "http://ex.org/a#u")
        added = [Triple(subject, Iri("http://ex.org/a#q"), BlankNode("n1"))]
        table = PrefixTable(table)
        assert list(serialize_extensions(self.BASE, [(table, added)])) == [
            _extended(self.BASE, table, added)]
        assert len(calls) == fallbacks

    def test_each_graph_renders_its_new_terms_under_its_own_table(self):
        added = [Triple(Iri("http://ex.org/a#t"), Iri("http://ex.org/a#q"),
                        Iri("http://other.org/x"))]
        tables = [PrefixTable({"ex": "http://ex.org/a#", "n": "http://other.org/"}),
                  PrefixTable({"ex": "http://ex.org/a#"})]
        texts = list(serialize_extensions(self.BASE, [(table, added) for table in tables]))
        assert texts == [_extended(self.BASE, table, added) for table in tables]
        assert "ex:q n:x" in texts[0] and "ex:q <http://other.org/x>" in texts[1]


class TestRoundTrip:
    def test_hundred_random_graphs(self):
        rng = random.Random(42)
        for _ in range(100):
            graph = random_rdf_graph(rng)
            back = parse_turtle(serialize_turtle(graph))
            assert isomorphic(graph, back)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_round_trip_property(self, seed):
        graph = random_rdf_graph(random.Random(seed))
        assert isomorphic(graph, parse_turtle(serialize_turtle(graph)))

    def test_insert_twice_leaves_cardinality(self):
        t = Triple(Iri(EX_NS + "a"), Iri(EX_NS + "p"), Iri(EX_NS + "b"))
        graph = graph_of([t])
        assert len(graph.with_triples([t])) == len(graph)


class TestIsomorphism:
    def test_blank_relabeling_is_isomorphic(self):
        g1 = parse_turtle("@prefix ex: <http://e/> . _:a ex:p ex:x . _:a ex:p _:b .")
        g2 = parse_turtle("@prefix ex: <http://e/> . _:m ex:p ex:x . _:m ex:p _:n .")
        assert isomorphic(g1, g2)

    def test_different_structure_is_not(self):
        g1 = parse_turtle("@prefix ex: <http://e/> . _:a ex:p ex:x .")
        g2 = parse_turtle("@prefix ex: <http://e/> . _:a ex:p ex:y .")
        assert not isomorphic(g1, g2)

    def test_swapped_blank_roles_detected(self):
        g1 = parse_turtle("@prefix ex: <http://e/> . _:a ex:p _:b . _:a ex:q ex:x .")
        g2 = parse_turtle("@prefix ex: <http://e/> . _:a ex:p _:b . _:b ex:q ex:x .")
        assert not isomorphic(g1, g2)


def diff(after: RdfGraph, before: RdfGraph) -> frozenset[Triple]:
    """Triples present in ``after`` but absent from ``before``."""
    return after.triples - before.triples


class TestGraphIndexes:
    def test_by_predicate_and_node_iris_match_full_scans(self):
        rng = random.Random(23)
        for _ in range(100):
            graph = random_rdf_graph(rng)
            index = graph.by_predicate()
            assert {p: sorted(bucket) for p, bucket in index.items()} == {
                p: sorted(t for t in graph.triples if t.predicate == p)
                for p in {t.predicate for t in graph.triples}}
            assert graph.node_iris() == {term for t in graph.triples for term in (t.subject, t.object)
                                         if isinstance(term, Iri)}
            assert graph.by_predicate() is index  # kept

    def test_empty_graph(self):
        graph = graph_of([])
        assert graph.by_predicate() == {} and graph.node_iris() == frozenset()


class TestMergeDiff:
    def setup_method(self):
        self.rng = random.Random(11)
        self.g = random_rdf_graph(self.rng)
        self.h = random_rdf_graph(self.rng)

    def test_merge_idempotent(self):
        assert merge([self.g, self.g]).triples == self.g.triples

    def test_merge_identity(self):
        empty = graph_of([], self.g.prefixes)
        assert merge([self.g, empty]).triples == self.g.triples

    def test_merge_commutative_associative(self):
        a = merge([self.g, self.h]).triples
        b = merge([self.h, self.g]).triples
        assert a == b
        k = random_rdf_graph(self.rng)
        assert merge([merge([self.g, self.h]), k]).triples == merge([self.g, merge([self.h, k])]).triples

    def test_merge_prefix_conflict(self):
        g1 = graph_of([], PrefixTable({"ex": "http://a/"}))
        g2 = graph_of([], PrefixTable({"ex": "http://b/"}))
        with pytest.raises(PrefixConflictError):
            merge([g1, g2])

    def test_diff_identities(self):
        assert diff(self.g, self.g) == frozenset()
        t = Triple(Iri(EX_NS + "new"), Iri(EX_NS + "p"), Iri(EX_NS + "b"))
        extended = self.g.with_triples([t])
        assert diff(extended, self.g) == frozenset({t})

    def test_diff_merge_containment(self):
        merged = merge([self.g, self.h])
        assert diff(merged, self.g) <= self.h.triples


# ---------------------------------------------------------------------------
# The reader against the reference copy of the earlier reader
# ---------------------------------------------------------------------------

def _read(parse, text, base, bind_undeclared):
    """What a parse gives: its triples and prefix table, or its error."""
    try:
        graph = parse(text, base, bind_undeclared)
    except RdfError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    return (graph.triples, list(graph.prefixes.items()), graph.prefixes._aliases)


class TestReaderAgreesWithReference:
    """The reader gives what the earlier one-token-object reader gives."""

    @settings(max_examples=600, deadline=None)
    @given(turtle_documents(), st.booleans(), st.booleans())
    def test_generated_documents(self, text, with_base, bind_undeclared):
        base = standard_prefixes() if with_base else None
        assert (_read(parse_turtle, text, base, bind_undeclared)
                == _read(reference_turtle.parse_turtle, text, base, bind_undeclared))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 200), st.text(max_size=2))
    def test_serialized_graphs_and_their_mutations(self, seed, at, edit):
        text = serialize_turtle(random_rdf_graph(random.Random(seed)))
        for doc in (text, text[:at] + edit + text[at + 1:]):
            assert (_read(parse_turtle, doc, None, True)
                    == _read(reference_turtle.parse_turtle, doc, None, True))

    @pytest.mark.parametrize("text", [case[0] for case in SYNTAX_ERRORS.values()])
    def test_syntax_error_cases(self, text):
        assert (_read(parse_turtle, text, None, True)
                == _read(reference_turtle.parse_turtle, text, None, True))

    # A last line whose first error lies at a known column; the reader finds
    # offsets only when it raises, by scanning again up to the error.
    LAST_LINES = {
        "scan error": ("ex:a ex:p ! .", 11),
        "parse error": ("ex:a ex:p ex:b ;; .", 17),
        "error at the end of input": ("ex:a ex:p", 10),
        "undeclared prefix": ("ex:a nope:p ex:b .", 6),
        "bad datatype IRI": ('ex:a ex:p "x"^^<nocolon> .', 16),
        "bad boolean form": ('ex:a ex:p "yes"^^<http://www.w3.org/2001/XMLSchema#boolean> .', 11),
        "blank nodes nested too deep": (
            "ex:a " + "ex:p [ " * (MAX_NESTING + 1) + "ex:q ex:b" + " ]" * (MAX_NESTING + 1)
            + " .", 11 + 7 * MAX_NESTING),
        "triple-quoted string": ('ex:a ex:p """x""" .', 11),
        "collection": ("ex:a ex:p ( ex:b ) .", 11),
    }

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("last_line,column", LAST_LINES.values(), ids=LAST_LINES.keys())
    def test_error_deep_in_a_long_document(self, newline, last_line, column):
        head = "".join([f"@prefix ex: <http://e/> .{newline}"] + [
            f'# statement {n}{newline}ex:s{n} ex:p "v{n}" ;{newline}'
            f"    ex:q ex:o{n % 7}, {n} .{newline}" for n in range(300)])
        assert len(xkg.rdf._tokenize(head)) > 2700
        assert len(parse_turtle(head)) == 900
        text = head + last_line
        got = _read(parse_turtle, text, None, False)
        assert got == _read(reference_turtle.parse_turtle, text, None, False)
        assert got[2:] == (head.count("\n") + 1, column)


# ---------------------------------------------------------------------------
# The reader given a base graph's resolved terms
# ---------------------------------------------------------------------------

# Base terms in the namespaces and labels of ``turtle_documents``, so that its
# names (``ex:a``, ``fred:x``, ``<http://e/x>``, ``_:b1``, ...) hit them.
_KNOWN_IRIS = st.builds(lambda ns, local: Iri(ns + local),
                        st.sampled_from(["http://e/", FRED_NS, "http://o.org/#", "urn:"]),
                        st.sampled_from(["a", "b", "x", "y", "a.b", "d-e", "1", "dt", ""]))
_KNOWN_NODES = st.one_of(_KNOWN_IRIS, st.sampled_from([BlankNode("b1"), BlankNode("n"),
                                                       BlankNode("b2")]))
_KNOWN_OBJECTS = st.one_of(_KNOWN_NODES, st.sampled_from([
    Literal("x"), Literal("42", XSD_INTEGER), TRUE, Literal("-3.5", XSD_DECIMAL),
    Literal("x", language="en"), Literal("d", Iri("http://e/dt"))]))
# "f" is an alias when "fred" is bound too; the last "ex" clashes with the documents'.
_KNOWN_BINDINGS = [("ex", "http://e/"), ("fred", FRED_NS), ("f", FRED_NS),
                   ("o", "http://o.org/#"), ("xsd", XSD_NS), ("ex", "http://x/")]


@st.composite
def _base_and_response(draw):
    """A base graph, the table a response is read with (the base's, maybe
    plus a heuristic's label) and a response: a document of the reader's
    strategy around statements written with the texts of the base's
    rendering, literals and ``a`` included, in any position."""
    bindings = draw(st.lists(st.sampled_from(_KNOWN_BINDINGS), max_size=5,
                             unique_by=itemgetter(0)))
    triples = draw(st.lists(st.builds(Triple, _KNOWN_NODES,
                                      st.one_of(_KNOWN_IRIS, st.just(RDF_TYPE)),
                                      _KNOWN_OBJECTS), max_size=10))
    base = RdfGraph(frozenset(triples), PrefixTable(dict(bindings)))
    table = base.prefixes
    if draw(st.booleans()):
        table = table.with_binding("presup", "https://w3id.org/xkg/presupposition#")
    _, nodes, predicates, _ = base.rendering()
    # Texts by the position they fit; now and then any text goes anywhere.
    fits = [sorted({text for term, text in nodes.items() if not isinstance(term, Literal)}
                   | {"ex:z", "_:new"}),
            sorted({*predicates.values(), "ex:z"}),
            sorted({*nodes.values(), "ex:z"})]
    anywhere = sorted({text for texts in fits for text in texts})

    def pick(position):
        return draw(st.sampled_from(anywhere if draw(st.integers(0, 5)) == 0
                                    else fits[position]))

    statements = []
    for _ in range(draw(st.integers(0, 4))):
        pairs = [f"{pick(1)} {pick(2)}" for _ in range(draw(st.integers(1, 2)))]
        subject = f"[ {pick(1)} {pick(2)} ]" if draw(st.integers(0, 5)) == 0 else pick(0)
        statements.append(f"{subject} {' ; '.join(pairs)} .")
    around = draw(turtle_documents())
    at = draw(st.integers(0, len(statements)))
    response = "\n".join([*statements[:at], around, *statements[at:]])
    return base, table, response


class TestReaderWithKnownTerms:
    """Reading with a base graph's ``terms_by_text`` gives what reading
    without them gives: the texts it resolves mean the same under any table
    that extends the base's, since no document can rebind a base label."""

    @settings(max_examples=300, deadline=None)
    @given(_base_and_response(), st.booleans())
    def test_same_as_without_them(self, case, bind_undeclared):
        base, table, response = case
        known = base.terms_by_text()
        before = dict(known)

        def with_terms(text, prefixes, undeclared):
            return parse_turtle(text, prefixes, undeclared, terms=known)

        assert (_read(with_terms, response, table, bind_undeclared)
                == _read(parse_turtle, response, table, bind_undeclared))
        assert known == before  # each parse reads a copy

    def test_only_nodes_and_predicates_by_their_texts(self):
        base = parse_turtle('@prefix ex: <http://e/> .\n'
                            'ex:s a ex:C ; ex:p 42, true, "x", _:b1, <urn:x>, ex:C .')
        assert base.terms_by_text() == {
            "ex:s": Iri("http://e/s"), "ex:C": Iri("http://e/C"), "ex:p": Iri("http://e/p"),
            "_:b1": BlankNode("b1"), "<urn:x>": Iri("urn:x")}
        assert base.terms_by_text() is base.terms_by_text()


def _term_sort_key(term) -> tuple:
    """The serialization order of terms before terms sorted as plain tuples."""
    if isinstance(term, Iri):
        return (0, term.value, "", "")
    if isinstance(term, BlankNode):
        return (1, term.label, "", "")
    return (2, term.lexical, term.datatype.value if term.datatype else "", term.language or "")


def triple_sort_key(t: Triple) -> tuple:
    return (_term_sort_key(t.subject), t.predicate.value, _term_sort_key(t.object))


# IRIs and blank nodes of the same text, and literals of one lexical form
# under several datatypes and languages.
_TEXTS = ["urn:a", "urn:a#b", "urn:b", "http://e/a", "http://e/a/"]
_sort_iris = st.sampled_from(_TEXTS).map(Iri)
_sort_nodes = st.one_of(_sort_iris, st.sampled_from(_TEXTS + ["b1", ""]).map(BlankNode))
_sort_literals = st.builds(
    lambda lexical, tail: Literal(lexical, *tail),
    st.sampled_from(["", "1", "urn:a", "b1", "true"]),
    st.sampled_from([(None, None), (None, "en"), (None, "en-US"), (None, "fr"),
                     (XSD_INTEGER, None), (XSD_STRING, None), (Iri("urn:a"), None),
                     (Iri("urn:a#b"), None)]))
_sort_terms = st.one_of(_sort_nodes, _sort_literals)


class TestSortOrder:
    """Terms and triples sort as plain tuples in the order of the reference keys."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(Triple, _sort_nodes, _sort_iris, _sort_terms), max_size=30))
    def test_triples(self, triples):
        assert sorted(triples) == sorted(triples, key=triple_sort_key)
        assert list(graph_of(triples)) == sorted(set(triples), key=triple_sort_key)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_sort_terms, max_size=30))
    def test_terms(self, terms):
        assert sorted(terms) == sorted(terms, key=_term_sort_key)

    def test_keys_are_distinct_for_distinct_terms(self):
        literals = [Literal("x"), Literal("x", XSD_STRING), Literal("x", language="en"),
                    Literal("x", Iri("urn:x"))]
        terms = [Iri("urn:x"), BlankNode("urn:x"), *literals]
        assert len({_term_sort_key(t) for t in terms}) == len(set(terms)) == len(terms)

    def test_empty_language_tag_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", language="")


class TestTermsAreTuples:
    """Terms hash and compare as tuples, yet stay distinct kinds."""

    def test_no_cross_kind_equality(self):
        assert Iri("urn:x") != BlankNode("urn:x")
        assert BlankNode("urn:x") != Iri("urn:x")
        assert len({Iri("urn:x"), BlankNode("urn:x")}) == 2
        iri = Iri("http://e/x")
        literal = Literal("http://e/x", iri)
        assert literal != Triple(iri, iri, None) and Triple(iri, iri, None) != literal
        assert Literal("x") != Literal("x", XSD_STRING) != Literal("x", language="en")

    @pytest.mark.parametrize("term,attr", [
        (Iri("urn:x"), "value"), (BlankNode("b"), "label"), (Literal("x"), "lexical"),
        (Literal("x"), "language"), (Triple(Iri("urn:s"), Iri("urn:p"), Literal("o")), "object"),
    ])
    def test_immutable(self, term, attr):
        with pytest.raises(AttributeError):
            setattr(term, attr, "y")
        with pytest.raises(AttributeError):
            term.extra = 1

    def test_equal_across_parses(self):
        text = ('@prefix ex: <http://e/> . ex:a ex:p "x"@en , 4 , true , _:b , '
                '"d"^^ex:dt ; ex:q <http://e/b> .')
        first, second = parse_turtle(text).triples, parse_turtle(text).triples
        assert first == second
        for a in first:
            (b,) = [t for t in second if t == a]
            assert a is not b and hash(a) == hash(b)
            assert all(hash(x) == hash(y) for x, y in zip(a, b))

    def test_repr_unchanged(self):
        assert repr(Iri("http://e/x")) == "Iri('http://e/x')"
        assert repr(BlankNode("b1")) == "BlankNode(_:b1)"
        assert repr(Literal("x")) == "Literal('x')"
        assert repr(Literal("x", language="en")) == "Literal('x'@en)"
        assert repr(Literal("1", XSD_INTEGER)) == f"Literal('1'^^{XSD_INTEGER.value})"
        assert repr(Triple(Iri("urn:s"), Iri("urn:p"), BlankNode("o"))) == (
            "Triple(subject=Iri('urn:s'), predicate=Iri('urn:p'), object=BlankNode(_:o))")
        assert str(Iri("urn:s")) == repr(Iri("urn:s"))

    def test_copy_and_pickle_rebuild_equal_terms(self):
        t = Triple(BlankNode("s"), Iri("urn:p"), Literal("True", XSD_BOOLEAN))
        for copied in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert copied == t and type(copied) is Triple
            assert [type(x) for x in copied] == [BlankNode, Iri, Literal]

    def test_fields_and_unpacking(self):
        t = Triple(BlankNode("s"), Iri("urn:p"), Literal("o", language="fr"))
        subject, predicate, obj = t
        assert (subject, predicate, obj) == (t.subject, t.predicate, t.object)
        assert (t.subject.label, t.predicate.value) == ("s", "urn:p")
        assert (t.object.lexical, t.object.datatype, t.object.language) == ("o", None, "fr")
