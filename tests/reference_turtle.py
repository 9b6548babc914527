"""The Turtle reader as it was before the single-regex scanner: a reference.

``xkg.rdf.parse_turtle`` must agree with ``parse_turtle`` here on every
document: the same triples and prefix table, or the same exception with the
same line, column and message. This copy matches one regular expression per
token kind, builds a token object per token and parses by recursive descent
with a peek/take method per token. It builds the package's own terms and
prefix tables, so only the reading is compared. Since then it also names
the Turtle 1.1 forms outside the subset (``@base``, SPARQL-style
``PREFIX``/``BASE``, single- and triple-quoted strings, collections) in its
errors, as the package's reader does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from xkg.rdf import (
    MAX_NESTING,
    RDF_TYPE,
    UNDECLARED_NS_BASE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    BlankNode,
    Iri,
    Literal,
    PrefixTable,
    RdfGraph,
    Term,
    Triple,
    TurtleSyntaxError,
    UndeclaredPrefixError,
)

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
    # A "" string directly followed by a quote: a triple-quoted string.
    opens_long: bool = False


_LONG_STRING = "triple-quoted string literals are not supported"
_SPARQL_DIRECTIVE = re.compile(r"(?i:(PREFIX)\s+[A-Za-z0-9_.\-]*:|(BASE)\s+<)")


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
            try:
                value, end = _string(text, pos, line, line_start)
            except TurtleSyntaxError:
                if out and out[-1].opens_long:  # this quote is the third of three
                    raise TurtleSyntaxError(out[-1].line, out[-1].column, _LONG_STRING)
                raise
            out.append(_Token("STRING", value, line, col,
                              end == pos + 2 and text.startswith('"', end)))
            pos = end
        elif c == "'":
            raise TurtleSyntaxError(line, col, "single-quoted string literals are not supported")
        elif c == "(":
            raise TurtleSyntaxError(line, col, "collections are not supported")
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
            m = _SPARQL_DIRECTIVE.match(text, pos)
            if m:
                raise TurtleSyntaxError(line, col, f"SPARQL-style {(m[1] or m[2]).upper()} "
                                                   "directives are not supported")
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

class _Parser:
    def __init__(self, tokens: list[_Token], base_prefixes: Optional[PrefixTable],
                 bind_undeclared: bool):
        self.tokens = tokens
        self.i = 0
        # One copy per parse; declarations then bind in place.
        self.prefixes = base_prefixes._copy() if base_prefixes else PrefixTable()
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
        if tok.kind == "LANG" and tok.value == "base":
            raise TurtleSyntaxError(tok.line, tok.column, "@base directives are not supported")
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
    try:
        triples, prefixes = _Parser(tokens, base_prefixes, bind_undeclared).parse()
    except TurtleSyntaxError as exc:
        # An error at a "" that opens a triple-quoted string, or at the string
        # that follows it, is an error at the triple-quoted string.
        at = next((k for k, tok in enumerate(tokens)
                   if (tok.line, tok.column) == (exc.line, exc.column)), None)
        for k in (at - 1, at) if at is not None else ():
            if k >= 0 and tokens[k].opens_long:
                raise TurtleSyntaxError(tokens[k].line, tokens[k].column, _LONG_STRING) from None
        raise
    return RdfGraph(frozenset(triples), prefixes)

