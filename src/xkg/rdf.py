"""RDF data model and a deterministic Turtle subset parser/serializer.

The graph model is deliberately small: IRIs, literals, blank nodes, triples
with set semantics, and a prefix table. The Turtle dialect covers what the
pipeline's artifacts actually use: prefix declarations, ``a``, predicate and
object lists (``;`` / ``,``), blank nodes (``[]`` and ``_:label``), plain,
language-tagged and datatyped literals, booleans, integers and decimals.
Collections ``( )`` and named graphs are not supported. A ``\\u`` escape
takes exactly four hex digits and may not name a surrogate, a document may
hold no lone surrogate character, and ``[ ]`` blank nodes nest at most
``MAX_NESTING`` deep; anything else raises ``TurtleSyntaxError`` with its
line and column.

The tokenizer matches one regular expression per token kind at the current
offset and tracks only the offset and the start of the current line, so a
column is computed, not counted. Prefix contraction looks the namespace up
by the IRI's last ``#`` or ``/``.

Serialization is fully deterministic (subjects sorted by expanded IRI, then
predicates, then objects) so that golden-file tests are byte-stable. A
document is the sorted prefix declarations followed by one statement per
subject, and one renderer produces those statements. ``serialize_extensions``
writes graphs that extend one base graph, such as the per-heuristic graphs
and their merge: it renders the base's statements once and, for each graph,
renders again only the subjects its additions touch and splices them in by
subject order. A graph whose prefix table could render a base IRI
differently gets a full ``serialize_turtle`` instead, as does one that lacks
a base triple: its table lacks a base label or binds it to another
namespace, or binds a new namespace that is some base IRI's namespace (one
ending in ``#`` or ``/``) or a prefix of some base IRI (any other). Either
way the bytes are those of ``serialize_turtle``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Optional, Union

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


@dataclass(frozen=True)
class Iri:
    """An absolute IRI."""

    value: str

    def __post_init__(self) -> None:
        if not self.value or ":" not in self.value:
            raise ValueError(f"not an absolute IRI: {self.value!r}")
        if _IRI_FORBIDDEN.search(self.value):
            raise ValueError(f"forbidden character in IRI: {self.value!r}")

    def local_name(self) -> str:
        """Everything after the last '#' or '/' (the conventional local part)."""
        cut = max(self.value.rfind("#"), self.value.rfind("/"))
        return self.value[cut + 1 :]

    def namespace(self) -> str:
        cut = max(self.value.rfind("#"), self.value.rfind("/"))
        return self.value[: cut + 1]

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


@dataclass(frozen=True)
class Literal:
    """An RDF literal. ``datatype`` and ``language`` are mutually exclusive."""

    lexical: str
    datatype: Optional[Iri] = None
    language: Optional[str] = None

    def __post_init__(self) -> None:
        if self.datatype is not None and self.language is not None:
            raise ValueError("literal cannot have both a datatype and a language tag")
        if self.datatype == XSD_BOOLEAN:
            lowered = self.lexical.lower()
            if lowered not in ("true", "false"):
                raise ValueError(f"bad boolean lexical form: {self.lexical!r}")
            object.__setattr__(self, "lexical", lowered)

    def __repr__(self) -> str:
        if self.language:
            return f"Literal({self.lexical!r}@{self.language})"
        if self.datatype:
            return f"Literal({self.lexical!r}^^{self.datatype.value})"
        return f"Literal({self.lexical!r})"


@dataclass(frozen=True)
class BlankNode:
    """A blank node with a parse-scope label."""

    label: str

    def __repr__(self) -> str:
        return f"BlankNode(_:{self.label})"


Term = Union[Iri, Literal, BlankNode]

TRUE = Literal("true", XSD_BOOLEAN)
FALSE = Literal("false", XSD_BOOLEAN)


@dataclass(frozen=True)
class Triple:
    subject: Union[Iri, BlankNode]
    predicate: Iri
    object: Term

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise ValueError("triple subject cannot be a literal")
        if not isinstance(self.predicate, Iri):
            raise ValueError("triple predicate must be an IRI")

    def __iter__(self) -> Iterator[Term]:
        return iter((self.subject, self.predicate, self.object))


def _term_sort_key(term: Term) -> tuple:
    if isinstance(term, Iri):
        return (0, term.value, "", "")
    if isinstance(term, BlankNode):
        return (1, term.label, "", "")
    return (2, term.lexical, term.datatype.value if term.datatype else "", term.language or "")


def triple_sort_key(t: Triple) -> tuple:
    return (_term_sort_key(t.subject), t.predicate.value, _term_sort_key(t.object))


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
        if mapping:
            for label, ns in mapping.items():
                self._bind(label, ns)

    def _bind(self, label: str, ns: str) -> None:
        existing = self._by_label.get(label)
        if existing is not None and existing != ns:
            raise PrefixConflictError(label, existing, ns)
        if existing == ns:
            return
        if ns in self._by_ns:
            # Same namespace under a second label would make contraction
            # ambiguous; keep the first binding.
            return
        self._by_label[label] = ns
        self._by_ns[ns] = label
        if not ns.endswith(("#", "/")):
            self._unsplit_ns.append(ns)

    def with_binding(self, label: str, ns: str) -> "PrefixTable":
        merged = PrefixTable(self._by_label)
        merged._bind(label, ns)
        return merged

    def merged(self, other: "PrefixTable") -> "PrefixTable":
        out = PrefixTable(self._by_label)
        for label, ns in other.items():
            out._bind(label, ns)
        return out

    def namespace(self, label: str) -> Optional[str]:
        return self._by_label.get(label)

    def expand(self, curie: str) -> Iri:
        label, _, local = curie.partition(":")
        ns = self._by_label.get(label)
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
        return label in self._by_label

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


@dataclass(frozen=True)
class RdfGraph:
    """An immutable set of triples plus the prefix table used to render it."""

    triples: frozenset[Triple] = frozenset()
    prefixes: PrefixTable = field(default_factory=standard_prefixes)

    @staticmethod
    def of(triples: Iterable[Triple], prefixes: Optional[PrefixTable] = None) -> "RdfGraph":
        return RdfGraph(frozenset(triples), prefixes or standard_prefixes())

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self.triples, key=triple_sort_key))

    def with_triples(self, extra: Iterable[Triple]) -> "RdfGraph":
        return RdfGraph(self.triples | frozenset(extra), self.prefixes)

    def subjects(self, predicate: Optional[Iri] = None, obj: Optional[Term] = None):
        for t in self.triples:
            if predicate is not None and t.predicate != predicate:
                continue
            if obj is not None and t.object != obj:
                continue
            yield t.subject

    def objects(self, subject: Optional[Term] = None, predicate: Optional[Iri] = None):
        for t in self.triples:
            if subject is not None and t.subject != subject:
                continue
            if predicate is not None and t.predicate != predicate:
                continue
            yield t.object

    def node_iris(self) -> frozenset[Iri]:
        """IRIs occurring in a node position (subject or object).

        Computed on the first call and kept: ``run_all`` checks every
        heuristic's additions against the same base graph.
        """
        cached = self.__dict__.get("_node_iris")
        if cached is None:
            cached = frozenset(term for t in self.triples for term in (t.subject, t.object)
                               if isinstance(term, Iri))
            object.__setattr__(self, "_node_iris", cached)
        return cached

    def all_iris(self) -> frozenset[Iri]:
        out = set()
        for t in self.triples:
            if isinstance(t.subject, Iri):
                out.add(t.subject)
            out.add(t.predicate)
            if isinstance(t.object, Iri):
                out.add(t.object)
        return frozenset(out)


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


def diff(after: RdfGraph, before: RdfGraph) -> frozenset[Triple]:
    """Triples present in ``after`` but absent from ``before``."""
    return after.triples - before.triples


# ---------------------------------------------------------------------------
# Turtle tokenizer
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?")
_LANG_TAG = re.compile(r"[a-zA-Z]+(-[a-zA-Z0-9]+)*")

# Each pattern is matched at the scanner's offset. Newlines can occur only in
# the whitespace that _SKIP consumes; every other token ends on its own line.
_SKIP = re.compile(r"(?:\s+|#[^\n]*)*")
_IRI_BODY = re.compile(r"<([^>\n <]*)>")
_STRING_RUN = re.compile(r'[^"\\\n]*')
# Four hex digits naming no surrogate, which UTF-8 cannot encode.
_UCHAR = re.compile(r"(?![dD][89A-Fa-f])[0-9A-Fa-f]{4}")
# A number that runs on into a name is no number; a dot after one ends the
# statement.
_NAME_AFTER_NUMBER = re.compile(r"[A-Za-z0-9_\-]")
_AT_WORD = re.compile(r"(?:[^\W_]|-)*")
_BLANK_LABEL = re.compile(r"[A-Za-z0-9_.\-]*")
# A name run without its trailing dots, which terminate the statement.
_NAME_RUN = re.compile(r"[A-Za-z0-9_.\-:]*[A-Za-z0-9_\-:]")
_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\"}


@dataclass(slots=True)
class _Token:
    kind: str  # IRIREF PNAME BLANK STRING NUMBER KEYWORD PUNCT EOF
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    if not text.isascii():
        # A lone surrogate (a JSON body can decode to one) would fail only
        # when the graph is written, since UTF-8 cannot encode it.
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            line_start = text.rfind("\n", 0, exc.start) + 1
            raise TurtleSyntaxError(text.count("\n", 0, exc.start) + 1,
                                    exc.start - line_start + 1,
                                    f"lone surrogate U+{ord(text[exc.start]):04X}")
    out: list[_Token] = []
    pos, line, line_start = 0, 1, 0
    while True:
        end = _SKIP.match(text, pos).end()
        newlines = text.count("\n", pos, end)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", pos, end) + 1
        pos = end
        col = pos - line_start + 1
        if pos >= len(text):
            out.append(_Token("EOF", "", line, col))
            return out
        c = text[pos]

        if c == "<":
            m = _IRI_BODY.match(text, pos)
            if m is None:
                raise TurtleSyntaxError(line, col, "unterminated IRI reference")
            out.append(_Token("IRIREF", m.group(1), line, col))
            pos = m.end()
        elif c == '"':
            value, pos = _string(text, pos, line, line_start)
            out.append(_Token("STRING", value, line, col))
        elif c in ";,.[]":
            out.append(_Token("PUNCT", c, line, col))
            pos += 1
        elif c == "^" and text.startswith("^", pos + 1):
            out.append(_Token("PUNCT", "^^", line, col))
            pos += 2
        elif c == "@":
            m = _AT_WORD.match(text, pos + 1)
            word = m.group()
            pos = m.end()
            if word == "prefix":
                out.append(_Token("KEYWORD", "@prefix", line, col))
            elif _LANG_TAG.fullmatch(word):
                out.append(_Token("LANG", word, line, col))
            else:
                raise TurtleSyntaxError(line, col, f"unexpected @{word}")
        elif c == "_" and text.startswith(":", pos + 1):
            m = _BLANK_LABEL.match(text, pos + 2)
            out.append(_Token("BLANK", m.group(), line, col))
            pos = m.end()
        else:
            m = _NUMBER.match(text, pos)
            if m and not _NAME_AFTER_NUMBER.match(text, m.end()):
                out.append(_Token("NUMBER", m.group(), line, col))
                pos = m.end()
                continue
            m = _NAME_RUN.match(text, pos)
            if m is None:
                raise TurtleSyntaxError(line, col, f"unexpected character {c!r}")
            word = m.group()
            if ":" in word:
                out.append(_Token("PNAME", word, line, col))
            elif word == "a":
                out.append(_Token("KEYWORD", "a", line, col))
            elif word in ("true", "false"):
                out.append(_Token("BOOLEAN", word, line, col))
            else:
                raise TurtleSyntaxError(line, col, f"unexpected token {word!r}")
            pos = m.end()


def _string(text: str, pos: int, line: int, line_start: int) -> tuple[str, int]:
    """Scan the string literal whose opening quote is at ``pos``.

    Returns its value and the offset after the closing quote.
    """
    col = pos - line_start + 1
    parts: list[str] = []
    pos += 1
    while True:
        m = _STRING_RUN.match(text, pos)
        parts.append(m.group())
        pos = m.end()
        c = text[pos : pos + 1]
        if c == '"':
            return "".join(parts), pos + 1
        if c == "\n":
            raise TurtleSyntaxError(line, col, "newline in string literal")
        if not c:
            raise TurtleSyntaxError(line, col, "unterminated string literal")
        esc = text[pos + 1 : pos + 2]
        if esc in _ESCAPES:
            parts.append(_ESCAPES[esc])
            pos += 2
        elif esc == "u":
            m = _UCHAR.match(text, pos + 2)
            if m is None:
                raise TurtleSyntaxError(line, pos - line_start + 1, "bad \\u escape")
            parts.append(chr(int(m.group(), 16)))
            pos += 6
        else:
            raise TurtleSyntaxError(line, pos - line_start + 1, f"unknown escape \\{esc}")


# ---------------------------------------------------------------------------
# Turtle parser
# ---------------------------------------------------------------------------

#: Deepest nesting of ``[ ]`` blank nodes that ``parse_turtle`` accepts. The
#: parser recurses once per level, so without a limit a hostile document
#: would exhaust the interpreter's stack.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[_Token], base_prefixes: Optional[PrefixTable],
                 bind_undeclared: bool):
        self.tokens = tokens
        self.i = 0
        # One copy per parse; declarations then bind in place.
        self.prefixes = PrefixTable(base_prefixes._by_label if base_prefixes else None)
        self.declared: set[str] = set()
        self.bind_undeclared = bind_undeclared
        self.triples: list[Triple] = []
        self.blank_counter = 0
        self.depth = 0  # enclosing '[ ]' of the token being parsed
        # Prefixed names already resolved. A bound label keeps its namespace
        # (rebinding it raises PrefixConflictError), so reuse is safe.
        self.resolved: dict[str, Iri] = {}
        # Labels the document uses itself; generated labels must avoid them.
        self.document_labels = {t.value for t in tokens if t.kind == "BLANK"}

    def _peek(self) -> _Token:
        return self.tokens[self.i]

    def _take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect_punct(self, value: str) -> _Token:
        tok = self._take()
        if tok.kind != "PUNCT" or tok.value != value:
            raise TurtleSyntaxError(tok.line, tok.column, f"expected {value!r}, found {tok.value!r}")
        return tok

    def _fresh_blank(self) -> BlankNode:
        while True:
            self.blank_counter += 1
            label = f"b{self.blank_counter}"
            if label not in self.document_labels:
                return BlankNode(label)

    def parse(self) -> tuple[list[Triple], PrefixTable]:
        while self._peek().kind != "EOF":
            tok = self._peek()
            if tok.kind == "KEYWORD" and tok.value == "@prefix":
                self._prefix_decl()
            else:
                self._statement()
        return self.triples, self.prefixes

    def _prefix_decl(self) -> None:
        self._take()
        tok = self._take()
        if tok.kind != "PNAME" or not tok.value.endswith(":"):
            raise TurtleSyntaxError(tok.line, tok.column, "expected prefix label in @prefix")
        label = tok.value[:-1]
        iri_tok = self._take()
        if iri_tok.kind != "IRIREF":
            raise TurtleSyntaxError(iri_tok.line, iri_tok.column, "expected <IRI> in @prefix")
        self._expect_punct(".")
        self.prefixes._bind(label, iri_tok.value)
        self.declared.add(label)

    def _resolve_pname(self, tok: _Token) -> Iri:
        iri = self.resolved.get(tok.value)
        if iri is not None:
            return iri
        label, _, local = tok.value.partition(":")
        ns = self.prefixes.namespace(label)
        if ns is None:
            if not self.bind_undeclared:
                raise UndeclaredPrefixError(label, tok.line, tok.column)
            ns = UNDECLARED_NS_BASE + label + "#"
            self.prefixes._bind(label, ns)
        try:
            iri = self.resolved[tok.value] = Iri(ns + local)
        except ValueError as exc:
            raise TurtleSyntaxError(tok.line, tok.column, str(exc))
        return iri

    def _iri(self, tok: _Token) -> Iri:
        try:
            return Iri(tok.value)
        except ValueError as exc:
            raise TurtleSyntaxError(tok.line, tok.column, str(exc))

    def _statement(self) -> None:
        subject = self._subject()
        self._predicate_object_list(subject)
        self._expect_punct(".")

    def _subject(self) -> Union[Iri, BlankNode]:
        tok = self._peek()
        if tok.kind == "IRIREF":
            self._take()
            return self._iri(tok)
        if tok.kind == "PNAME":
            self._take()
            return self._resolve_pname(tok)
        if tok.kind == "BLANK":
            self._take()
            return self._scoped_blank(tok.value)
        if tok.kind == "PUNCT" and tok.value == "[":
            return self._bnode_property_list()
        raise TurtleSyntaxError(tok.line, tok.column, f"expected subject, found {tok.value!r}")

    def _scoped_blank(self, label: str) -> BlankNode:
        # Labels from the document are kept verbatim; anonymous nodes get
        # fresh ones. Caller-provided graphs never collide because parse
        # always starts a new scope.
        return BlankNode(label)

    def _bnode_property_list(self) -> BlankNode:
        tok = self._expect_punct("[")
        if self.depth == MAX_NESTING:
            raise TurtleSyntaxError(tok.line, tok.column,
                                    f"blank nodes nested deeper than {MAX_NESTING}")
        self.depth += 1
        node = self._fresh_blank()
        if not (self._peek().kind == "PUNCT" and self._peek().value == "]"):
            self._predicate_object_list(node)
        self._expect_punct("]")
        self.depth -= 1
        return node

    def _predicate_object_list(self, subject: Union[Iri, BlankNode]) -> None:
        while True:
            predicate = self._predicate()
            self._object_list(subject, predicate)
            tok = self._peek()
            if tok.kind == "PUNCT" and tok.value == ";":
                self._take()
                # Allow a dangling ';' before '.' or ']'.
                nxt = self._peek()
                if nxt.kind == "PUNCT" and nxt.value in (".", "]"):
                    return
                continue
            return

    def _predicate(self) -> Iri:
        tok = self._take()
        if tok.kind == "KEYWORD" and tok.value == "a":
            return RDF_TYPE
        if tok.kind == "IRIREF":
            return self._iri(tok)
        if tok.kind == "PNAME":
            return self._resolve_pname(tok)
        raise TurtleSyntaxError(tok.line, tok.column, f"expected predicate, found {tok.value!r}")

    def _object_list(self, subject: Union[Iri, BlankNode], predicate: Iri) -> None:
        while True:
            obj = self._object()
            self.triples.append(Triple(subject, predicate, obj))
            tok = self._peek()
            if tok.kind == "PUNCT" and tok.value == ",":
                self._take()
                continue
            return

    def _object(self) -> Term:
        tok = self._peek()
        if tok.kind == "IRIREF":
            self._take()
            return self._iri(tok)
        if tok.kind == "PNAME":
            self._take()
            return self._resolve_pname(tok)
        if tok.kind == "BLANK":
            self._take()
            return self._scoped_blank(tok.value)
        if tok.kind == "PUNCT" and tok.value == "[":
            return self._bnode_property_list()
        if tok.kind == "BOOLEAN":
            self._take()
            return Literal(tok.value, XSD_BOOLEAN)
        if tok.kind == "NUMBER":
            self._take()
            dt = XSD_DECIMAL if "." in tok.value else XSD_INTEGER
            return Literal(tok.value, dt)
        if tok.kind == "STRING":
            self._take()
            nxt = self._peek()
            if nxt.kind == "LANG":
                self._take()
                return Literal(tok.value, language=nxt.value)
            if nxt.kind == "PUNCT" and nxt.value == "^^":
                self._take()
                dt_tok = self._take()
                if dt_tok.kind == "IRIREF":
                    datatype = self._iri(dt_tok)
                elif dt_tok.kind == "PNAME":
                    datatype = self._resolve_pname(dt_tok)
                else:
                    raise TurtleSyntaxError(dt_tok.line, dt_tok.column, "expected datatype IRI after ^^")
                try:
                    return Literal(tok.value, datatype)
                except ValueError as exc:  # e.g. "yes"^^xsd:boolean
                    raise TurtleSyntaxError(tok.line, tok.column, str(exc))
            return Literal(tok.value)
        raise TurtleSyntaxError(tok.line, tok.column, f"expected object, found {tok.value!r}")


def parse_turtle(text: str, base_prefixes: Optional[PrefixTable] = None,
                 bind_undeclared: bool = False) -> RdfGraph:
    """Parse a Turtle document into an RdfGraph.

    ``base_prefixes`` pre-loads prefix bindings on top of which the document's
    own ``@prefix`` declarations apply. With ``bind_undeclared`` every unknown
    prefix label is bound under a recognizable placeholder namespace instead
    of raising, so lint can flag it downstream.
    """
    tokens = _tokenize(text)
    triples, prefixes = _Parser(tokens, base_prefixes, bind_undeclared).parse()
    return RdfGraph(frozenset(triples), prefixes)


# ---------------------------------------------------------------------------
# Serializer
# ---------------------------------------------------------------------------


def _render_iri(iri: Iri, prefixes: PrefixTable) -> str:
    curie = prefixes.contract(iri)
    if curie is not None:
        return curie
    return f"<{iri.value}>"


_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _render_literal(lit: Literal, prefixes: PrefixTable) -> str:
    if lit.datatype == XSD_BOOLEAN:
        return lit.lexical
    if lit.datatype in (XSD_INTEGER, XSD_DECIMAL) and _NUMBER.fullmatch(lit.lexical):
        return lit.lexical
    escaped = "".join(_STRING_ESCAPES.get(c, c) for c in lit.lexical)
    rendered = f'"{escaped}"'
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


def _subject_blocks(triples: Iterable[Triple], prefixes: PrefixTable,
                    rendered: dict[Term, str]) -> list[tuple[tuple, str]]:
    """One statement per subject, as (subject sort key, text), in key order.

    Predicates and objects within a statement are sorted; predicate groups
    after the first go on indented continuation lines. ``rendered`` caches
    each term's text under ``prefixes``, since most terms recur.
    """
    ordered = sorted(triples, key=triple_sort_key)

    def render(term: Term) -> str:
        text = rendered.get(term)
        if text is None:
            text = rendered[term] = _render_term(term, prefixes)
        return text

    blocks = []
    for subject, group in groupby(ordered, key=attrgetter("subject")):
        parts = [("a" if predicate == RDF_TYPE else render(predicate)) + " "
                 + ", ".join(render(t.object) for t in objects)
                 for predicate, objects in groupby(group, key=attrgetter("predicate"))]
        body = " ;\n    ".join(parts)
        blocks.append((_term_sort_key(subject), f"{render(subject)} {body} ."))
    return blocks


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

    The whole prefix table is declared, sorted by label (an empty graph is a
    document of prefix declarations alone); statements are grouped per
    subject with ';' and ',' and sorted by expanded IRI so output is
    byte-stable for equal graphs.
    """
    return _document(graph.prefixes,
                     [text for _, text in _subject_blocks(graph.triples, graph.prefixes, {})])


def serialize_extensions(base: RdfGraph, graphs: Iterable[RdfGraph]) -> Iterator[str]:
    """Yield ``serialize_turtle(graph)`` for each of ``graphs``, which extend ``base``.

    The base's statements are rendered once. For each graph only the
    subjects that its additions touch are rendered again, from their base
    triples plus the additions, and spliced into the base's statements by
    subject order. A graph for which reused statements could render
    differently gets a plain ``serialize_turtle``: one that lacks a base
    triple, lacks a base prefix label or binds it elsewhere, or binds a new
    namespace that contraction could pick for a base IRI.
    """
    rendered: dict[Term, str] = {}
    blocks = _subject_blocks(base.triples, base.prefixes, rendered)
    keys = [key for key, _ in blocks]
    texts = [text for _, text in blocks]
    by_subject: dict[Union[Iri, BlankNode], list[Triple]] = {}
    for t in base.triples:
        by_subject.setdefault(t.subject, []).append(t)
    iris = {term.value for t in base.triples
            for term in (t.subject, t.predicate, t.object, getattr(t.object, "datatype", None))
            if isinstance(term, Iri)}
    iri_namespaces = {value[:max(value.rfind("#"), value.rfind("/")) + 1] for value in iris}
    base_ns = dict(base.prefixes.items())

    def captures(ns: str) -> bool:
        """Whether contraction could pick ``ns`` for some base IRI."""
        if ns.endswith(("#", "/")):
            return ns in iri_namespaces
        return any(value.startswith(ns) for value in iris)

    def splice(graph: RdfGraph) -> str:
        table = graph.prefixes
        if (not base.triples <= graph.triples
                or any(table.namespace(label) != ns for label, ns in base_ns.items())
                or any(label not in base_ns and captures(ns) for label, ns in table.items())):
            return serialize_turtle(graph)
        added = graph.triples - base.triples
        touched = {t.subject for t in added}
        # Base terms render alike under this table; its own terms need not
        # render alike under the next graph's, hence the copy.
        redone = _subject_blocks(
            [*added, *(t for s in touched for t in by_subject.get(s, ()))], table,
            dict(rendered))
        statements: list[str] = []
        start = 0
        for key, text in redone:
            i = bisect_left(keys, key, start)
            statements.extend(texts[start:i])
            statements.append(text)
            start = i + 1 if i < len(keys) and keys[i] == key else i
        statements.extend(texts[start:])
        return _document(table, statements)

    # One call per graph, so its temporaries are freed before the next.
    yield from map(splice, graphs)
