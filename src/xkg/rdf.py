"""RDF data model and a deterministic Turtle subset parser/serializer.

The graph model is deliberately small: IRIs, literals, blank nodes, triples
with set semantics, and a prefix table. The Turtle dialect covers what the
pipeline's artifacts actually use: prefix declarations, ``a``, predicate and
object lists (``;`` / ``,``), blank nodes (``[]`` and ``_:label``), plain,
language-tagged and datatyped literals, booleans, integers and decimals.
Collections, named graphs, ``@base``, SPARQL-style ``PREFIX``/``BASE``,
single- or triple-quoted strings, doubles (``1.5e3``) and escaped or
percent-encoded characters in local names are not supported, and each
raises an error naming it. A ``\\u`` escape takes exactly four hex digits
and may not name a surrogate, a document may hold no lone surrogate
character, and ``[ ]`` blank nodes nest at most ``MAX_NESTING`` deep;
anything else raises ``TurtleSyntaxError`` with its line and column.

The reader splits the document with one regular expression (whitespace and
comments, then one token), so a token is its text; its kind is worked out
from the text only if the token is not yet resolved. Offsets, and a line and
column, are found by scanning again only for an error. The parser walks the
tokens with a local index, recursing only into ``[ ]``, resolves each
distinct IRI, prefixed name and blank node label once per document and
checks each namespace once; a parse may start from a copy of texts resolved
before (``terms``, e.g. a graph's ``terms_by_text``), which mean the same on
top of that graph's prefix table, as a bound label cannot be rebound. A
prefix table may hold a second label for a namespace, which expands but is
neither declared nor used for contraction, which looks the namespace up by
the IRI's last ``#`` or ``/``.

Terms are tuples laid out so that tuple order is serialization order, and
hashing, equality and sorting run in C: ``Iri`` is ``(0, value)``,
``BlankNode`` ``(1, label)``, ``Literal`` ``(2, lexical, datatype value or
"", language or "", datatype, language)`` and ``Triple`` ``(s, p, o)``. So
triples sort by subject (IRIs, then blank nodes), predicate IRI and object
(literals last, by lexical form, datatype, language) without a key.

A document is the prefix declarations, sorted by label, then one statement
per subject, which ``_statements`` renders from term texts in dicts filled
beforehand. A graph keeps its sorted triples, term texts and statements
(``RdfGraph.rendering``), so it is rendered once however often it is
serialized or extended. That and the graph's other views (``node_iris``,
``by_predicate``, ``terms_by_text``) are ``functools.cached_property``
attributes: each is computed on its first read and kept in the instance
dict, which equality, copies and pickles do not see.
``serialize_extensions`` writes graphs that extend one base graph (the
per-heuristic graphs and their merge), each given as the graph of its
additions, disjoint from the base, under its own prefix table. It takes
the base's rendering and keeps each subject's sorted triples; per graph it
merges the additions, which iterate sorted, into their subjects' base
triples (two sorted runs) and splices the rendered statements in by
subject. A graph whose table could render a base IRI differently gets a full
``serialize_turtle``: its table lacks a base label or binds it elsewhere, or
binds a new namespace that is some base IRI's namespace (one ending in ``#``
or ``/``) or a prefix of one (any other). Either way the bytes are those of
``serialize_turtle``.

A graph that ``parse_turtle`` reads keeps the reader's list of its triples,
in the order the document gives them, as a private order hint, unless a
triple occurs in it twice; ``RdfGraph.from_list`` builds such a graph from
any list. ``rendering`` and iteration sort the hint in place, and
``by_predicate`` fills its buckets in its order. The pipeline writes every
Turtle file sorted, so sorting a file it wrote takes one pass (timsort
finds one run) instead of n log n. No output depends on the hint: each
reader sorts what it takes from it or keeps it in a set, as for a graph
without one, and equality, copies and pickles see only the set.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import defaultdict
from functools import cached_property
from itertools import chain, count, groupby, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Union

from .records import Record

# Namespaces used across the pipeline. Framester/OntologyDesignPatterns IRIs
# are the public ones these prefixes conventionally denote.
FRED_NS = "http://www.ontologydesignpatterns.org/ont/fred/domain.owl#"
DUL_NS = "http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#"
D0_NS = "http://www.ontologydesignpatterns.org/ont/d0.owl#"
VN_ROLE_NS = "http://www.ontologydesignpatterns.org/ont/vn/abox/role/vnrole.owl#"
PBRS_NS = "https://w3id.org/framester/data/propbank-3.4.0/RoleSet/"
PBLR_NS = "https://w3id.org/framester/data/propbank-3.4.0/LocalRole/"
WN30_NS = "https://w3id.org/framester/wn/wn30/instances/"
OWL_NS = "http://www.w3.org/2002/07/owl#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
WIKIDATA_NS = "http://www.wikidata.org/entity/"

#: Namespace bound to prefixes that a response used without declaring them.
UNDECLARED_NS_BASE = "http://example.org/undeclared/"

STANDARD_NAMESPACES: dict[str, str] = {
    "fred": FRED_NS,
    "pbrs": PBRS_NS,
    "pblr": PBLR_NS,
    "vn.role": VN_ROLE_NS,
    "wn30": WN30_NS,
    "dul": DUL_NS,
    "d0": D0_NS,
    "owl": OWL_NS,
    "rdf": RDF_NS,
    "rdfs": RDFS_NS,
    "xsd": XSD_NS,
    "wd": WIKIDATA_NS,
}

_IRI_FORBIDDEN = re.compile(r"[\s<>\"{}|\\^`]")


class RdfError(Exception):
    """Base class for errors raised by this module."""


class TurtleSyntaxError(RdfError):
    """Malformed Turtle input."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


class UndeclaredPrefixError(RdfError):
    """A qualified name used a prefix label with no declaration."""

    def __init__(self, label: str, line: int = 0, column: int = 0):
        self.label = label
        self.line = line
        self.column = column
        super().__init__(f"undeclared prefix '{label}:'")


class PrefixConflictError(RdfError):
    """One prefix label maps to two different namespaces."""

    def __init__(self, label: str, iri1: str, iri2: str):
        self.label = label
        self.iri1 = iri1
        self.iri2 = iri2
        super().__init__(f"prefix '{label}:' bound to both <{iri1}> and <{iri2}>")


# Each term class validates in ``__new__`` and has no instance dict;
# ``tuple.__new__`` builds one unchecked.
_new = tuple.__new__


class _Tuple(tuple):
    __slots__ = ()

    def __getnewargs__(self) -> tuple:
        """The constructor's arguments, for copy and pickle: all but the tag."""
        return self[1:]


class Iri(_Tuple):
    """An absolute IRI."""

    __slots__ = ()
    value = property(itemgetter(1))

    def __new__(cls, value: str) -> "Iri":
        if not value or ":" not in value:
            raise ValueError(f"not an absolute IRI: {value!r}")
        if _IRI_FORBIDDEN.search(value):
            raise ValueError(f"forbidden character in IRI: {value!r}")
        return _new(cls, (0, value))

    def local_name(self) -> str:
        """Everything after the last '#' or '/' (the conventional local part)."""
        cut = max(self.value.rfind("#"), self.value.rfind("/"))
        return self.value[cut + 1 :]

    def __repr__(self) -> str:
        return f"Iri({self.value!r})"


XSD_BOOLEAN = Iri(XSD_NS + "boolean")
XSD_INTEGER = Iri(XSD_NS + "integer")
XSD_DECIMAL = Iri(XSD_NS + "decimal")
XSD_STRING = Iri(XSD_NS + "string")

RDF_TYPE = Iri(RDF_NS + "type")
RDFS_LABEL = Iri(RDFS_NS + "label")
RDFS_COMMENT = Iri(RDFS_NS + "comment")
RDFS_SUBCLASSOF = Iri(RDFS_NS + "subClassOf")
OWL_CLASS = Iri(OWL_NS + "Class")
OWL_OBJECT_PROPERTY = Iri(OWL_NS + "ObjectProperty")
OWL_DATATYPE_PROPERTY = Iri(OWL_NS + "DatatypeProperty")
OWL_NAMED_INDIVIDUAL = Iri(OWL_NS + "NamedIndividual")
OWL_ANNOTATION_PROPERTY = Iri(OWL_NS + "AnnotationProperty")
OWL_ONTOLOGY = Iri(OWL_NS + "Ontology")
OWL_EQUIVALENT_CLASS = Iri(OWL_NS + "equivalentClass")
OWL_SAME_AS = Iri(OWL_NS + "sameAs")
OWL_DISJOINT_WITH = Iri(OWL_NS + "disjointWith")
DUL_ASSOCIATED_WITH = Iri(DUL_NS + "associatedWith")
DUL_HAS_QUALITY = Iri(DUL_NS + "hasQuality")
DUL_PRECEDES = Iri(DUL_NS + "precedes")


class Literal(_Tuple):
    """An RDF literal. ``datatype`` and ``language`` are mutually exclusive,
    and a language tag is never empty."""

    __slots__ = ()
    lexical = property(itemgetter(1))
    datatype = property(itemgetter(4))
    language = property(itemgetter(5))

    def __new__(cls, lexical: str, datatype: Optional[Iri] = None,
                language: Optional[str] = None) -> "Literal":
        if datatype is not None and language is not None:
            raise ValueError("literal cannot have both a datatype and a language tag")
        if language == "":
            raise ValueError("empty language tag")
        if datatype == XSD_BOOLEAN:
            if lexical.lower() not in ("true", "false"):
                raise ValueError(f"bad boolean lexical form: {lexical!r}")
            lexical = lexical.lower()
        return _new(cls, (2, lexical, datatype[1] if datatype else "", language or "",
                          datatype, language))

    def __getnewargs__(self) -> tuple:
        return self[1], self[4], self[5]

    def __repr__(self) -> str:
        if self.language:
            return f"Literal({self.lexical!r}@{self.language})"
        if self.datatype:
            return f"Literal({self.lexical!r}^^{self.datatype.value})"
        return f"Literal({self.lexical!r})"


class BlankNode(_Tuple):
    """A blank node with a parse-scope label."""

    __slots__ = ()
    label = property(itemgetter(1))

    def __new__(cls, label: str) -> "BlankNode":
        return _new(cls, (1, label))

    def __repr__(self) -> str:
        return f"BlankNode(_:{self.label})"


Term = Union[Iri, Literal, BlankNode]

TRUE = Literal("true", XSD_BOOLEAN)
FALSE = Literal("false", XSD_BOOLEAN)


class Triple(_Tuple):
    __slots__ = ()
    subject = property(itemgetter(0))
    predicate = property(itemgetter(1))
    object = property(itemgetter(2))

    def __new__(cls, subject: Union[Iri, BlankNode], predicate: Iri, object: Term) -> "Triple":
        if isinstance(subject, Literal):
            raise ValueError("triple subject cannot be a literal")
        if not isinstance(predicate, Iri):
            raise ValueError("triple predicate must be an IRI")
        return _new(cls, (subject, predicate, object))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Triple(subject={self[0]!r}, predicate={self[1]!r}, object={self[2]!r})"


class PrefixTable:
    """Bidirectional prefix-label <-> namespace mapping.

    Labels are injective: a label maps to one namespace and, to keep
    expansion/contraction a round trip, a namespace maps to one label.
    """

    def __init__(self, mapping: Optional[Mapping[str, str]] = None):
        self._by_label: dict[str, str] = {}
        self._by_ns: dict[str, str] = {}
        # Namespaces ending in neither '#' nor '/', which contract must scan.
        self._unsplit_ns: list[str] = []
        # Further labels of a bound namespace. They expand, but the table
        # neither contracts to nor declares them, so a namespace keeps one
        # label and rendering stays a round trip.
        self._aliases: dict[str, str] = {}
        if mapping:
            for label, ns in mapping.items():
                self._bind(label, ns)

    def _bind(self, label: str, ns: str) -> None:
        existing = self.namespace(label)
        if existing is not None and existing != ns:
            raise PrefixConflictError(label, existing, ns)
        if existing == ns:
            return
        if ns in self._by_ns:
            self._aliases[label] = ns
            return
        self._by_label[label] = ns
        self._by_ns[ns] = label
        if not ns.endswith(("#", "/")):
            self._unsplit_ns.append(ns)

    def _copy(self) -> "PrefixTable":
        out = PrefixTable()
        out._by_label, out._by_ns = dict(self._by_label), dict(self._by_ns)
        out._unsplit_ns, out._aliases = list(self._unsplit_ns), dict(self._aliases)
        return out

    def with_binding(self, label: str, ns: str) -> "PrefixTable":
        out = self._copy()
        out._bind(label, ns)
        return out

    def declared(self) -> "PrefixTable":
        """The table without its aliases: the labels it declares."""
        out = self._copy()
        out._aliases = {}
        return out

    def merged(self, other: "PrefixTable") -> "PrefixTable":
        """Both tables' declared labels; aliases matter only to a parse."""
        out = self.declared()
        for label, ns in other.items():
            out._bind(label, ns)
        return out

    def namespace(self, label: str) -> Optional[str]:
        ns = self._by_label.get(label)
        return self._aliases.get(label) if ns is None else ns

    def expand(self, curie: str) -> Iri:
        label, _, local = curie.partition(":")
        ns = self.namespace(label)
        if ns is None:
            raise UndeclaredPrefixError(label)
        return Iri(ns + local)

    def contract(self, iri: Iri) -> Optional[str]:
        """Return the shortest CURIE for ``iri``, or None if no prefix matches.

        The longest namespace whose remainder is an acceptable local part
        wins. A local part holds no '#' or '/', so the only namespace ending
        in one of them that can match is the IRI up to its last '#' or '/'.
        """
        value = iri.value
        cut = max(value.rfind("#"), value.rfind("/")) + 1
        best = cut if value[:cut] in self._by_ns and _PN_LOCAL_OK.fullmatch(value, cut) else -1
        for ns in self._unsplit_ns:
            if len(ns) > best and value.startswith(ns) and _PN_LOCAL_OK.fullmatch(value, len(ns)):
                best = len(ns)
        if best < 0:
            return None
        return f"{self._by_ns[value[:best]]}:{value[best:]}"

    def items(self) -> Iterable[tuple[str, str]]:
        return self._by_label.items()

    def labels(self) -> Iterable[str]:
        return self._by_label.keys()

    def __contains__(self, label: str) -> bool:
        return self.namespace(label) is not None

    def __len__(self) -> int:
        return len(self._by_label)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrefixTable) and self._by_label == other._by_label

    def __repr__(self) -> str:
        return f"PrefixTable({self._by_label!r})"


def standard_prefixes() -> PrefixTable:
    return PrefixTable(STANDARD_NAMESPACES)


# Local parts we are willing to contract: empty or name-ish with inner dots.
_PN_LOCAL_OK = re.compile(r"|[A-Za-z0-9_](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?")


_set = object.__setattr__  # sets a field of a graph, which __setattr__ refuses


class RdfGraph(Record):
    """An immutable set of triples plus the prefix table used to render it
    (the standard prefixes by default).

    Its views (``node_iris``, ``by_predicate``, ``rendering`` and
    ``terms_by_text``) are computed on the first read and kept in the
    instance dict, which holds nothing else. Callers must not change them.
    """

    __slots__ = ("triples", "prefixes", "_order", "__dict__")
    _fields = ("triples", "prefixes")

    def __init__(self, triples: frozenset[Triple] = frozenset(),
                 prefixes: Optional[PrefixTable] = None):
        _set(self, "triples", triples)
        _set(self, "prefixes", standard_prefixes() if prefixes is None else prefixes)

    @classmethod
    def from_list(cls, triples: list[Triple],
                  prefixes: Optional[PrefixTable] = None) -> "RdfGraph":
        """The graph of ``triples``, which keeps the list as its order hint
        (see the module docstring) when no triple occurs in it twice; the
        list is the graph's from then on."""
        graph = cls(frozenset(triples), prefixes)
        if len(graph.triples) == len(triples):
            _set(graph, "_order", triples)
        return graph

    # cached_property writes to the instance dict directly, not through these.
    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return RdfGraph, (self.triples, self.prefixes)

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.triples

    def __iter__(self) -> Iterator[Triple]:
        """The triples, sorted."""
        return iter(self._sorted())

    def _sorted(self) -> list[Triple]:
        """The triples, sorted: the order hint sorted in place, which takes
        one pass when it is sorted already, or else a sorted copy of the set."""
        try:
            order = self._order
        except AttributeError:
            return sorted(self.triples)
        order.sort()
        return order

    def with_triples(self, extra: Iterable[Triple]) -> "RdfGraph":
        return RdfGraph(self.triples | frozenset(extra), self.prefixes)

    @cached_property
    def node_iris(self) -> frozenset[Iri]:
        """IRIs occurring in a node position (subject or object). ``run_all``
        checks every heuristic's additions against the same base graph's."""
        nodes = set(map(itemgetter(0), self.triples))
        nodes.update(map(itemgetter(2), self.triples))
        return frozenset(term for term in nodes if isinstance(term, Iri))

    @cached_property
    def by_predicate(self) -> dict[Iri, list[Triple]]:
        """Each predicate's triples, in no fixed order (that of the order hint
        when the graph has one)."""
        buckets = defaultdict(list)
        for t in getattr(self, "_order", self.triples):
            buckets[t[1]].append(t)
        return dict(buckets)

    @cached_property
    def rendering(self) -> tuple[list[Triple], dict, dict, list[str]]:
        """The sorted triples, the texts of their subjects and objects and of
        their predicates, and the statements ``serialize_turtle`` writes, so
        the prompts, the base graph's file and ``serialize_extensions`` share
        one rendering."""
        ordered = self._sorted()
        nodes, predicates = _term_texts(ordered, self.prefixes)
        return ordered, nodes, predicates, _statements(ordered, nodes, predicates)

    @cached_property
    def terms_by_text(self) -> dict[str, Union[Iri, BlankNode]]:
        """The graph's IRIs and blank nodes by their texts in ``rendering``.
        Not literals or ``a``, whose texts the reader takes for them only in
        some positions."""
        _, nodes, predicates, _ = self.rendering
        return {text: term for term, text in chain(nodes.items(), predicates.items())
                if not isinstance(term, Literal) and text != "a"}


def merge(graphs: Iterable[RdfGraph]) -> RdfGraph:
    """Union of triple sets and prefix tables.

    Raises PrefixConflictError when one label maps to two namespaces.
    """
    triples: set[Triple] = set()
    prefixes = PrefixTable()
    for g in graphs:
        triples |= g.triples
        prefixes = prefixes.merged(g.prefixes)
    return RdfGraph(frozenset(triples), prefixes)


# ---------------------------------------------------------------------------
# Turtle reader
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?")
# Four hex digits naming no surrogate, which UTF-8 cannot encode.
_UCHAR = r"(?![dD][89A-Fa-f])[0-9A-Fa-f]{4}"

# The whitespace and comments before a token, then the token, the one group;
# the end of input matches as the empty token. Each alternative matches only
# a valid token, so text that none matches is left between two matches and
# _scan_error names it. A failed match can backtrack, but never into a
# shorter valid token: a comment runs to the end of its line, and a number
# may not stop before digits or a fraction, nor run on into a name. A number
# or a blank node label is tried before a prefixed name, which may start like
# one. A name's trailing dots end the statement.
_TOKEN = re.compile(rf"""\s*(?:\#[^\n]*(?![^\n])\s*)*(
    [;,.\[\]] | \^\^
  | "[^"\\\n]*(?:\\(?:[tnr"\\]|u{_UCHAR})[^"\\\n]*)*"
  | <[^>\n <]*>
  | [+-]?[0-9]+(?:\.[0-9]+(?![A-Za-z0-9_\-])|(?![A-Za-z0-9_\-]|\.[0-9]))
  | _:[A-Za-z0-9_.\-]*
  | [A-Za-z0-9_.\-]*:(?:[A-Za-z0-9_.\-:]*[A-Za-z0-9_\-:])?
  | (?:a|true|false)(?!\.*[A-Za-z0-9_\-:])
  | @[a-zA-Z]+(?:-[a-zA-Z0-9]+)*(?![^\W_]|-)
  | \Z)""", re.VERBOSE)
_SKIP = re.compile(r"(?:\s+|#[^\n]*)*")
# For error messages only.
_STRING_RUN = re.compile(r'[^"\\\n]*')
_AT_WORD = re.compile(r"(?:[^\W_]|-)*")
_NAME_RUN = re.compile(r"[A-Za-z0-9_.\-:]*[A-Za-z0-9_\-:]")
_SPARQL_DIRECTIVE = re.compile(r"(?i:(PREFIX)\s+[A-Za-z0-9_.\-]*:|(BASE)\s+<)")
# Turtle 1.1 forms outside the subset that no token matches, and their names.
_DOUBLE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][+-]?[0-9]+(?![A-Za-z0-9_\-:])")
_REFUSED_FORMS = (
    (_DOUBLE, "double literals"),
    (re.compile(r"(?<=[A-Za-z0-9_\-:])\\[_~.\-!$&'()*+,;=/?#@%]"), "escapes in local names"),
    (re.compile(r"(?<=[A-Za-z0-9_\-:])%[0-9A-Fa-f]{2}"), "percent-encoded local names"),
)
_ESCAPE = re.compile(r"\\(u....|.)")
_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\"}

# Token kinds, worked out from a token's text; punctuation, a keyword and the
# end of input are _OTHER.
_OTHER, _IRIREF, _STRING, _BLANK, _LANG, _PNAME, _NUM = range(7)
_KINDS = {"<": _IRIREF, '"': _STRING, "": _OTHER, **dict.fromkeys(";,.[]^", _OTHER)}


def _kind(token: str) -> int:
    kind = _KINDS.get(token[:1])
    if kind is not None:
        return kind
    if token[0] == "@":
        return _OTHER if token == "@prefix" else _LANG
    if token.startswith("_:"):
        return _BLANK
    if token == "a" or token == "true" or token == "false":
        return _OTHER
    return _PNAME if ":" in token else _NUM


def _unescape(body: str) -> str:
    """The value of a valid string literal's body."""
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1]) or chr(int(m[1][1:], 16)), body)


def _line_col(text: str, pos: int) -> tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _syntax_error(text: str, pos: int, message: str) -> TurtleSyntaxError:
    return TurtleSyntaxError(*_line_col(text, pos), message)


def _error(text: str, index: Optional[int] = None, message: str = "") -> TurtleSyntaxError:
    """The error ``message`` at token ``index``, or with no index the error at
    the text that no token matches, where the tokens end."""
    prev = m = None
    for n, m in enumerate(iter(_TOKEN.scanner(text).match, None)):
        if n == index:
            break
        prev = m
    else:
        m = None
    pos = m.start(1) if m else _SKIP.match(text, prev.end() if prev else 0).end()
    for t in (prev, m):  # a triple-quoted string reads as "" and then a string
        if t and t[1] == '""' and t.end() >= pos and text.startswith('"', t.end()):
            return _syntax_error(text, t.start(1), "triple-quoted string literals are not supported")
    return _syntax_error(text, pos, message) if m else _scan_error(text, pos)


def _scan_error(text: str, pos: int) -> TurtleSyntaxError:
    """The error for the text at ``pos``, where no token matches."""
    c = text[pos]
    if c == "<":
        return _syntax_error(text, pos, "unterminated IRI reference")
    if c == "@":
        return _syntax_error(text, pos, f"unexpected @{_AT_WORD.match(text, pos + 1).group()}")
    if c == '"':
        at = pos + 1
        while True:
            at = _STRING_RUN.match(text, at).end()
            c = text[at : at + 1]
            if c != "\\":
                return _syntax_error(text, pos, "newline in string literal" if c
                                     else "unterminated string literal")
            esc = text[at + 1 : at + 2]
            if esc == "u":
                if not re.match(_UCHAR, text[at + 2 : at + 6]):
                    return _syntax_error(text, at, "bad \\u escape")
                at += 6
            elif esc in _ESCAPES:
                at += 2
            else:
                return _syntax_error(text, at, f"unknown escape \\{esc}")
    if c == "'" or c == "(":
        return _syntax_error(text, pos, "collections are not supported" if c == "("
                             else "single-quoted string literals are not supported")
    m = _SPARQL_DIRECTIVE.match(text, pos)
    if m:
        return _syntax_error(text, pos, f"SPARQL-style {(m[1] or m[2]).upper()} directives "
                                        "are not supported")
    if text[pos - 1 : pos] == "." and _DOUBLE.match(text, pos - 1):
        pos -= 1  # a double that starts with '.', read as a statement's end, then digits
    for form, name in _REFUSED_FORMS:
        if form.match(text, pos):
            return _syntax_error(text, pos, f"{name} are not supported")
    m = _NAME_RUN.match(text, pos)
    return _syntax_error(text, pos, f"unexpected token {m.group()!r}" if m
                         else f"unexpected character {c!r}")


def _tokenize(text: str) -> list[str]:
    """The document's tokens, then "" (once or twice) for the end of input."""
    if not text.isascii():
        # A lone surrogate (a JSON body can decode to one) would fail only
        # when the graph is written, since UTF-8 cannot encode it.
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise _syntax_error(text, exc.start, f"lone surrogate U+{ord(text[exc.start]):04X}")
    # [gap, token, gap, token, ..., ""], where a gap is text no token matches.
    parts = _TOKEN.split(text)
    if any(parts[::2]):
        raise _error(text)
    return parts[1::2]


def _shown(token: str) -> str:
    """A token's value as error messages show it."""
    kind = _kind(token)
    if kind == _STRING:
        return _unescape(token[1:-1])
    if kind == _IRIREF:
        return token[1:-1]
    return token[2:] if kind == _BLANK else token[1:] if kind == _LANG else token


#: Deepest nesting of ``[ ]`` blank nodes that ``parse_turtle`` accepts. The
#: parser recurses once per level, so without a limit a hostile document
#: would exhaust the interpreter's stack.
MAX_NESTING = 100


class _Reader:
    """One parse: the tokens, the prefix table and the terms read so far."""

    def __init__(self, text: str, base_prefixes: Optional[PrefixTable],
                 bind_undeclared: bool, terms: Mapping[str, Union[Iri, BlankNode]]):
        self.text = text
        self.tokens = _tokenize(text)
        self.prefixes = base_prefixes._copy() if base_prefixes else PrefixTable()
        self.bind_undeclared = bind_undeclared
        self.triples: list[Triple] = []
        # Node terms by token text. A bound label keeps its namespace
        # (rebinding it raises PrefixConflictError), so reuse is safe.
        self.terms: dict[str, Union[Iri, BlankNode]] = dict(terms)
        # Whether a namespace makes a valid IRI with any local part, which
        # holds no character that Iri forbids.
        self.sound: dict[str, bool] = {}
        self.fresh_ids = count(1)
        self.used_labels: Optional[set[str]] = None

    def error(self, i: int, message: str) -> TurtleSyntaxError:
        return _error(self.text, i, message)

    def parse(self) -> RdfGraph:
        tokens, terms, i = self.tokens, self.terms, 0
        while raw := tokens[i]:
            if raw == "@prefix":
                label = tokens[i + 1]
                if _kind(label) != _PNAME or not label.endswith(":"):
                    raise self.error(i + 1, "expected prefix label in @prefix")
                iri = tokens[i + 2]
                if not iri.startswith("<"):
                    raise self.error(i + 2, "expected <IRI> in @prefix")
                self.expect(i + 3, ".")
                self.prefixes._bind(label[:-1], iri[1:-1])
                i += 4
                continue
            if raw == "[":
                subject, i = self.bnode(i, 0)
            else:
                subject = terms.get(raw) or self.resolve(i, "subject")
                i += 1
            i = self.predicate_object_list(i, subject, 0)
            self.expect(i, ".")
            i += 1
        return RdfGraph.from_list(self.triples, self.prefixes)

    def resolve(self, i: int, role: str) -> Union[Iri, BlankNode]:
        """The term of token ``i``, which ``terms`` lacks, in a ``role`` position."""
        raw = self.tokens[i]
        kind = _kind(raw)
        if kind == _BLANK and role != "predicate":
            term = self.terms[raw] = BlankNode(raw[2:])
            return term
        if kind == _IRIREF:
            term = self.iri(i, raw[1:-1])
        elif kind == _PNAME:
            label, _, local = raw.partition(":")
            ns = self.prefixes.namespace(label)
            if ns is None:
                if not self.bind_undeclared:
                    at = self.error(i, "")
                    raise UndeclaredPrefixError(label, at.line, at.column)
                ns = UNDECLARED_NS_BASE + label + "#"
                self.prefixes._bind(label, ns)
            sound = self.sound.get(ns)
            if sound is None:
                sound = self.sound[ns] = ":" in ns and not _IRI_FORBIDDEN.search(ns)
            term = _new(Iri, (0, ns + local)) if sound else self.iri(i, ns + local)
        elif raw == "@base" and role == "subject":
            raise self.error(i, "@base directives are not supported")
        else:
            raise self.error(i, f"expected {role}, found {_shown(raw)!r}")
        self.terms[raw] = term
        return term

    def iri(self, i: int, value: str) -> Iri:
        try:
            return Iri(value)
        except ValueError as exc:
            raise self.error(i, str(exc))

    def expect(self, i: int, punct: str) -> None:
        if self.tokens[i] != punct:
            raise self.error(i, f"expected {punct!r}, found {_shown(self.tokens[i])!r}")

    def bnode(self, i: int, depth: int) -> tuple[BlankNode, int]:
        """The '[ ]' node opening at ``i`` inside ``depth`` others, and the index after it."""
        if depth == MAX_NESTING:
            raise self.error(i, f"blank nodes nested deeper than {MAX_NESTING}")
        if self.used_labels is None:  # generated labels avoid the document's own
            self.used_labels = {raw[2:] for raw in self.tokens if raw.startswith("_:")}
        while (label := f"b{next(self.fresh_ids)}") in self.used_labels:
            pass
        node = BlankNode(label)
        i += 1
        if self.tokens[i] != "]":
            i = self.predicate_object_list(i, node, depth + 1)
        self.expect(i, "]")
        return node, i + 1

    def predicate_object_list(self, i: int, subject: Union[Iri, BlankNode], depth: int) -> int:
        """Read the predicate-object list at ``i``; return the index after it."""
        tokens, terms, add, resolve = self.tokens, self.terms, self.triples.append, self.resolve
        while True:
            raw = tokens[i]
            if raw == "a":
                predicate = RDF_TYPE
            elif (predicate := terms.get(raw)) is None or predicate[0]:  # none, or a blank node
                predicate = resolve(i, "predicate")
            while True:  # the object list
                raw = tokens[i + 1]
                i += 2
                obj = terms.get(raw)
                if obj is not None:
                    pass
                elif (kind := _kind(raw)) == _STRING:
                    lexical = _unescape(raw[1:-1]) if "\\" in raw else raw[1:-1]
                    raw = tokens[i]
                    if raw[:1] == "@" and raw != "@prefix":
                        obj = _new(Literal, (2, lexical, "", raw[1:], None, raw[1:]))
                        i += 1
                    elif raw == "^^":
                        i += 2
                        datatype = terms.get(tokens[i - 1])
                        if datatype is None or datatype[0]:
                            if _kind(tokens[i - 1]) not in (_IRIREF, _PNAME):
                                raise self.error(i - 1, "expected datatype IRI after ^^")
                            datatype = resolve(i - 1, "datatype")
                        try:
                            obj = Literal(lexical, datatype)
                        except ValueError as exc:  # e.g. "yes"^^xsd:boolean
                            raise self.error(i - 3, str(exc))
                    else:
                        obj = _new(Literal, (2, lexical, "", "", None, None))
                elif kind == _NUM:
                    datatype = XSD_DECIMAL if "." in raw else XSD_INTEGER
                    obj = _new(Literal, (2, raw, datatype[1], "", datatype, None))
                elif raw == "true" or raw == "false":
                    obj = TRUE if raw == "true" else FALSE
                elif raw == "[":
                    obj, i = self.bnode(i - 1, depth)
                else:
                    obj = resolve(i - 1, "object")
                add(_new(Triple, (subject, predicate, obj)))
                if tokens[i] != ",":
                    break
            if tokens[i] != ";":
                return i
            # A dangling ';' may end the list.
            i += 1
            if tokens[i] == "." or tokens[i] == "]":
                return i


def parse_turtle(text: str, base_prefixes: Optional[PrefixTable] = None,
                 bind_undeclared: bool = False,
                 terms: Mapping[str, Union[Iri, BlankNode]] = {}) -> RdfGraph:
    """Parse a Turtle document into an RdfGraph.

    ``base_prefixes`` pre-loads prefix bindings on top of which the document's
    own ``@prefix`` declarations apply. With ``bind_undeclared`` every unknown
    prefix label is bound under a recognizable placeholder namespace instead
    of raising, so lint can flag it downstream. ``terms`` maps texts to their
    terms under ``base_prefixes`` (see ``RdfGraph.terms_by_text``); the parse
    resolves only other texts, with the same outcome.
    """
    return _Reader(text, base_prefixes, bind_undeclared, terms).parse()


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------


def _render_iri(iri: Iri, prefixes: PrefixTable) -> str:
    curie = prefixes.contract(iri)
    if curie is not None:
        return curie
    return f"<{iri.value}>"


_STRING_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def _render_literal(lit: Literal, prefixes: PrefixTable) -> str:
    if lit.datatype == XSD_BOOLEAN:
        return lit.lexical
    if lit.datatype in (XSD_INTEGER, XSD_DECIMAL) and _NUMBER.fullmatch(lit.lexical):
        return lit.lexical
    rendered = f'"{lit.lexical.translate(_STRING_ESCAPES)}"'
    if lit.language:
        return f"{rendered}@{lit.language}"
    if lit.datatype and lit.datatype != XSD_STRING:
        return f"{rendered}^^{_render_iri(lit.datatype, prefixes)}"
    return rendered


def _render_term(term: Term, prefixes: PrefixTable) -> str:
    if isinstance(term, Iri):
        return _render_iri(term, prefixes)
    if isinstance(term, BlankNode):
        return f"_:{term.label}"
    return _render_literal(term, prefixes)


_PREDICATE_TEXTS = {RDF_TYPE: "a"}


def _term_texts(triples: list[Triple], prefixes: PrefixTable, nodes: Mapping[Term, str] = {},
                predicates: Mapping[Iri, str] = _PREDICATE_TEXTS) -> tuple[dict, dict]:
    """Copies of ``nodes`` (subject and object texts) and ``predicates``,
    each with every term of ``triples`` it lacks rendered under ``prefixes``."""
    nodes, predicates = dict(nodes), dict(predicates)
    for term in {*map(itemgetter(0), triples), *map(itemgetter(2), triples)} - nodes.keys():
        nodes[term] = _render_term(term, prefixes)
    for term in set(map(itemgetter(1), triples)) - predicates.keys():
        predicates[term] = _render_iri(term, prefixes)
    return nodes, predicates


def _statements(ordered: list[Triple], nodes: Mapping[Term, str],
                predicates: Mapping[Iri, str]) -> list[str]:
    """One statement per subject of the sorted ``ordered``, whose terms'
    texts ``nodes`` and ``predicates`` hold. Predicate groups after the first
    go on indented continuation lines."""
    statements: list[str] = []
    parts: list[str] = []
    subject = predicate = None
    for s, p, o in ordered:
        if s != subject:
            if parts:
                parts.append(" .")
                statements.append("".join(parts))
            subject, predicate = s, p
            parts = [nodes[s], " ", predicates[p], " ", nodes[o]]
        elif p != predicate:
            predicate = p
            parts += " ;\n    ", predicates[p], " ", nodes[o]
        else:
            parts += ", ", nodes[o]
    if parts:
        parts.append(" .")
        statements.append("".join(parts))
    return statements


def _document(prefixes: PrefixTable, statements: Iterable[str]) -> str:
    """The prefix table's declarations, sorted by label, then the statements."""
    lines = [f"@prefix {label}: <{prefixes.namespace(label)}> ."
             for label in sorted(prefixes.labels())]
    if lines:
        lines.append("")
    lines.extend(statements)
    lines.append("")
    return "\n".join(lines)


def serialize_turtle(graph: RdfGraph) -> str:
    """Render a graph as Turtle with a fixed, deterministic layout.

    The whole prefix table is declared (an empty graph is a document of
    prefix declarations alone); statements are grouped per subject with ';'
    and ',' and sorted, so output is byte-stable for equal graphs.
    """
    return _document(graph.prefixes, graph.rendering[3])


def serialize_extensions(base: RdfGraph, extensions: Iterable[RdfGraph]) -> Iterator[str]:
    """Yield ``serialize_turtle`` of each extension of ``base``, by splicing
    (see the module docstring). An extension is the graph of its additions,
    disjoint from the base's triples; each text is that of the base's
    triples plus the additions under the additions' table."""
    ordered, nodes, predicates, texts = base.rendering
    runs = {s: list(run) for s, run in groupby(ordered, itemgetter(0))}
    subjects = list(runs)
    terms = {*nodes, *map(itemgetter(1), ordered)}
    iris = {term.value for term in terms if isinstance(term, Iri)}
    iris.update(term.datatype.value for term in terms
                if isinstance(term, Literal) and term.datatype)
    iri_namespaces = {value[:max(value.rfind("#"), value.rfind("/")) + 1] for value in iris}
    base_ns = dict(base.prefixes.items())

    def captures(ns: str) -> bool:
        """Whether contraction could pick ``ns`` for some base IRI."""
        if ns.endswith(("#", "/")):
            return ns in iri_namespaces
        return any(value.startswith(ns) for value in iris)

    def splice(extension: RdfGraph) -> str:
        table, added = extension.prefixes, extension._sorted()
        if (any(table.namespace(label) != ns for label, ns in base_ns.items())
                or any(label not in base_ns and captures(ns) for label, ns in table.items())):
            return serialize_turtle(RdfGraph(base.triples | extension.triples, table))
        touched = list(dict.fromkeys(map(itemgetter(0), added)))
        # Two sorted runs, which the sort merges.
        redone = sorted([*added, *chain.from_iterable(map(runs.get, touched, repeat(())))])
        # Base terms render alike under this table; its own terms need not
        # render alike under the next graph's, hence the copies.
        statements: list[str] = []
        start = 0
        for s, text in zip(touched, _statements(redone, *_term_texts(added, table, nodes,
                                                                     predicates))):
            i = bisect_left(subjects, s, start)
            statements += texts[start:i]
            statements.append(text)
            start = i + 1 if s in runs else i
        statements += texts[start:]
        return _document(table, statements)

    # One call per graph, so its temporaries are freed before the next.
    yield from map(splice, extensions)
