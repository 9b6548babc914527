"""RDF data model and a deterministic Turtle subset parser/serializer.

The graph model is deliberately small: IRIs, literals, blank nodes, triples
with set semantics, and a prefix table. The Turtle dialect covers what the
pipeline's artifacts actually use: prefix declarations, ``a``, predicate and
object lists (``;`` / ``,``), blank nodes (``[]`` and ``_:label``), plain,
language-tagged and datatyped literals, booleans, integers and decimals.
Collections ``( )`` and named graphs are not supported. A ``\\u`` escape
takes exactly four hex digits and may not name a surrogate, and ``[ ]``
blank nodes nest at most ``MAX_NESTING`` deep; anything else raises
``TurtleSyntaxError`` with its line and column.

The tokenizer matches one regular expression per token kind at the current
offset and tracks only the offset and the start of the current line, so a
column is computed, not counted. Prefix contraction looks the namespace up
by the IRI's last ``#`` or ``/``.

Serialization is fully deterministic (subjects sorted by expanded IRI, then
predicates, then objects) so that golden-file tests are byte-stable.
"""

from __future__ import annotations

import re
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
        """IRIs occurring in a node position (subject or object)."""
        out = set()
        for t in self.triples:
            if isinstance(t.subject, Iri):
                out.add(t.subject)
            if isinstance(t.object, Iri):
                out.add(t.object)
        return frozenset(out)

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
        self.prefixes = base_prefixes or PrefixTable()
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
        self.prefixes = self.prefixes.with_binding(label, iri_tok.value)
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
            self.prefixes = self.prefixes.with_binding(label, ns)
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


def serialize_turtle(graph: RdfGraph) -> str:
    """Render a graph as Turtle with a fixed, deterministic layout.

    The whole prefix table is declared, sorted by label (an empty graph is a
    document of prefix declarations alone); statements are grouped per
    subject with ';' and ',' and sorted by expanded IRI so output is
    byte-stable for equal graphs.
    """
    prefixes = graph.prefixes
    ordered = sorted(graph.triples, key=triple_sort_key)
    rendered: dict[Term, str] = {}  # most terms recur; render each once

    def render(term: Term) -> str:
        text = rendered.get(term)
        if text is None:
            text = rendered[term] = _render_term(term, prefixes)
        return text

    lines = [f"@prefix {label}: <{prefixes.namespace(label)}> ."
             for label in sorted(prefixes.labels())]
    if lines:
        lines.append("")

    for subject, group in groupby(ordered, key=attrgetter("subject")):
        parts = [("a" if predicate == RDF_TYPE else render(predicate)) + " "
                 + ", ".join(render(t.object) for t in objects)
                 for predicate, objects in groupby(group, key=attrgetter("predicate"))]
        # Predicate groups on continuation lines, indented for readability.
        body = " ;\n    ".join(parts)
        lines.append(f"{render(subject)} {body} .")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Graph isomorphism up to blank-node relabeling
# ---------------------------------------------------------------------------


def _blank_signature(graph_triples: frozenset[Triple], label: str) -> tuple:
    sig = []
    for t in graph_triples:
        s_blank = isinstance(t.subject, BlankNode) and t.subject.label == label
        o_blank = isinstance(t.object, BlankNode) and t.object.label == label
        if s_blank or o_blank:
            s = "*" if isinstance(t.subject, BlankNode) else t.subject.value
            o = "*" if isinstance(t.object, BlankNode) else _term_sort_key(t.object)
            sig.append((s_blank, t.predicate.value, o_blank, s, o))
    return tuple(sorted(map(repr, sig)))


def _rename_blanks(t: Triple, mapping: dict[str, str]) -> Triple:
    s = BlankNode(mapping[t.subject.label]) if isinstance(t.subject, BlankNode) else t.subject
    o = BlankNode(mapping[t.object.label]) if isinstance(t.object, BlankNode) else t.object
    return Triple(s, t.predicate, o)


def isomorphic(g1: RdfGraph, g2: RdfGraph) -> bool:
    """True when the graphs are equal up to a bijective blank-node relabeling."""
    def split(g: RdfGraph):
        ground, blanky = set(), set()
        labels = set()
        for t in g.triples:
            has_blank = False
            if isinstance(t.subject, BlankNode):
                labels.add(t.subject.label)
                has_blank = True
            if isinstance(t.object, BlankNode):
                labels.add(t.object.label)
                has_blank = True
            (blanky if has_blank else ground).add(t)
        return ground, blanky, sorted(labels)

    ground1, blanky1, labels1 = split(g1)
    ground2, blanky2, labels2 = split(g2)
    if ground1 != ground2 or len(labels1) != len(labels2) or len(blanky1) != len(blanky2):
        return False
    if not labels1:
        return True

    sig1 = {lb: _blank_signature(g1.triples, lb) for lb in labels1}
    sig2 = {lb: _blank_signature(g2.triples, lb) for lb in labels2}
    candidates = {lb: [m for m in labels2 if sig2[m] == sig1[lb]] for lb in labels1}
    order = sorted(labels1, key=lambda lb: len(candidates[lb]))

    def backtrack(idx: int, mapping: dict[str, str], used: set[str]) -> bool:
        if idx == len(order):
            renamed = {_rename_blanks(t, mapping) for t in blanky1}
            return renamed == blanky2
        lb = order[idx]
        for m in candidates[lb]:
            if m in used:
                continue
            mapping[lb] = m
            used.add(m)
            if backtrack(idx + 1, mapping, used):
                return True
            del mapping[lb]
            used.discard(m)
        return False

    return backtrack(0, {}, set())
