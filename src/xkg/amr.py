"""Abstract Meaning Representation graphs and their PENMAN notation.

``parse_penman_file`` reads every graph of a PENMAN document, one
parenthesized expression after another, and ``parse_penman`` the one graph
of a document that must hold exactly one. Re-entrant variables (mentioned
without ``/``) resolve to one node, and inverse ``-of`` roles are normalized
by flipping the edge (``:ARG0-of`` on X->Y becomes ``:ARG0`` on Y->X). A
role needs a name: ``:``, ``:-of``, ``:-of-of`` and so on are errors.

Constants (quoted strings, numbers, ``-`` and ``+``) are legal edge targets
and do not create nodes. Unquoted targets are variable references and must be
declared somewhere in their graph. A line whose first non-blank character is
``#`` outside a quoted string is a comment, wherever it stands. ISI-style
alignment markers (``~e.4``) are stripped from the whole document first,
with one logged warning; nothing downstream consumes them.

The tokens come from one split of the document, and a walk over them
recurses only into nested nodes. Error offsets count from the start of the
document so stripped, with each line end counted as one character; they are
found only for an error, by scanning again, and do not change.
"""

from __future__ import annotations

import logging
import re
from collections import namedtuple
from typing import NamedTuple, Union

from .records import checked_make

logger = logging.getLogger(__name__)

FRAME_CONCEPT = re.compile(r"^(?P<lemma>.+)-(?P<sense>\d{2,3})$")
_VARIABLE = re.compile(r"^[a-zA-Z][a-zA-Z0-9]*$")
_ALIGNMENT = re.compile(r"~(?:[a-z]\.)?\d+(?:,\d+)*")
_NUMBER = re.compile(r"^[+-]?\d+(\.\d+)?$")
# Whitespace, and lines whose first non-blank character is '#': the reader
# splits "\n" + its text, so every line follows a "\n". A comment runs to
# its line's end, so no match can stop inside one.
_SKIP = r"[^\S\n]*(?:\n[^\S\n]*(?:\#[^\n]*(?![^\n]))?)*"
# A token, in one of three groups: a word that starts with ':' and, if one
# follows it, a quoted constant or a quote that opens none; or '(', ')', '/',
# another word, or "" at the end. A word runs up to a space, tab, newline,
# paren or slash, so a quote elsewhere is part of a word.
_TOKEN = re.compile(rf"""{_SKIP}(?:
    (:[^ \t\n()/]*) (?:{_SKIP}("[^"\\]*(?:\\[\s\S][^"\\]*)*"|"))?
  | ([()/]|[^ \t\n()/]+|\Z))""", re.VERBOSE)
_WORD = re.compile(r"[^ \t\n()/]*")
_ESCAPE = re.compile(r"\\([\s\S])")
_NO_WORD = ("(", ")", "/", "")
_new = tuple.__new__

#: Deepest nesting of nodes that ``parse_penman`` accepts. The parser recurses
#: once per level, so without a limit a hostile file would exhaust the
#: interpreter's stack.
MAX_NESTING = 100


class AmrError(Exception):
    """Base class for AMR parsing errors."""


class PenmanSyntaxError(AmrError):
    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"at offset {position}: {message}")


class DuplicateVariableError(AmrError):
    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(f"variable {variable!r} declared more than once")


class DanglingVariableError(AmrError):
    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(f"variable {variable!r} referenced but never declared")


class AmrConstant(NamedTuple):
    """A constant edge target: a quoted string, a number, or '-'/'+'."""

    value: str
    quoted: bool = False

    def __repr__(self) -> str:
        return f"AmrConstant({self.value!r})" if not self.quoted else f"AmrConstant({self.value!r}, quoted)"


class AmrNode(NamedTuple):
    variable: str
    concept: str


class AmrEdge(namedtuple("AmrEdge", "source role target")):
    """``source`` and ``target`` are variable names; ``target`` may be an
    AmrConstant instead. ``role`` begins with ':'."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, source: str, role: str, target: Union[str, AmrConstant]) -> "AmrEdge":
        if not role.startswith(":"):
            raise ValueError(f"role must begin with ':': {role!r}")
        return tuple.__new__(cls, (source, role, target))


class AmrGraph(NamedTuple):
    """Rooted AMR graph. ``nodes`` preserves declaration (depth-first) order."""

    root: str
    nodes: tuple[AmrNode, ...]
    edges: tuple[AmrEdge, ...]


class _Reader:
    """A PENMAN document with its alignment markers removed and each line
    end, as ``str.splitlines`` finds them, written as one ``\\n`` (a constant
    that spans lines holds ``\\n`` whatever the file's line ends), and its
    tokens, then "" for the end."""

    def __init__(self, text: str):
        self.text = "\n".join(_strip_alignments(text).splitlines())
        # No gap between matches; unused groups are None.
        self.tokens = [*filter(None, _TOKEN.split("\n" + self.text)), ""]

    def offset(self, i: int) -> int:
        """Where token ``i`` starts."""
        starts = [m.start(group) - 1 for m in _TOKEN.finditer("\n" + self.text)
                  for group in (1, 2, 3) if m[group]]
        return (starts + [len(self.text)])[i]

    def error(self, i: int, message: str) -> PenmanSyntaxError:
        return PenmanSyntaxError(self.offset(i), message)

    def expected(self, i: int, what: str) -> PenmanSyntaxError:
        """``what`` and the word at token ``i``, read as any other word
        even if it starts with a quote, at its end."""
        m = _WORD.match(self.text, self.offset(i))
        return PenmanSyntaxError(m.end(), f"{what} {m[0]!r}" if m[0] else "expected a token")


def _strip_alignments(text: str) -> str:
    stripped, count = _ALIGNMENT.subn("", text)
    if count:
        logger.warning("stripped %d alignment marker(s) from PENMAN input", count)
    return stripped


def _read_graph(reader: _Reader, i: int) -> tuple[AmrGraph, int]:
    """The parenthesized expression at token ``i``, with inverse ``-of``
    edges between nodes flipped, and the index after it."""
    tokens = reader.tokens
    nodes: list[AmrNode] = []
    declared: dict[str, str] = {}
    edges: dict[AmrEdge, None] = {}  # insertion-ordered set
    referenced: list[str] = []

    def parse_node(i: int, depth: int) -> tuple[str, int]:
        """The variable of the node opening at ``i``, and the index after it."""
        if depth > MAX_NESTING:
            raise reader.error(i, f"nodes nested deeper than {MAX_NESTING}")
        var = tokens[i + 1]
        if not _VARIABLE.match(var):
            raise reader.expected(i + 1, "bad variable name")
        if tokens[i + 2] != "/":
            raise reader.error(i + 2, f"expected '/' after variable {var!r}")
        concept = tokens[i + 3]
        if concept in _NO_WORD:
            raise reader.error(i + 3, "expected a token")
        if var in declared:
            raise DuplicateVariableError(var)
        declared[var] = concept
        nodes.append(_new(AmrNode, (var, concept)))
        i += 4
        while True:
            role = tokens[i]
            if role == ")":
                return var, i + 1
            if not role:
                raise reader.error(i, "unexpected end of input")
            if role[0] != ":":
                raise reader.expected(i, "expected a :role, found")
            if role.replace("-of", "") == ":":  # ':', ':-of', ':-of-of', ...
                raise reader.error(i, f"role {role!r} has no name")
            target = tokens[i + 1]
            if target == "(":
                target, i = parse_node(i + 1, depth + 1)
            else:
                if target in _NO_WORD:
                    raise reader.error(i + 1, "expected a token")
                if target[0] == '"':  # a quoted constant, or a quote opening none
                    if target == '"':
                        raise reader.error(i + 1, "unterminated string")
                    target = target[1:-1]
                    if "\\" in target:
                        target = _ESCAPE.sub(r"\1", target)
                    target = _new(AmrConstant, (target, True))
                elif _NUMBER.match(target) or target == "-" or target == "+":
                    target = _new(AmrConstant, (target, False))
                else:
                    referenced.append(target)
                i += 2
            if role.endswith("-of") and target.__class__ is str:
                edges[_new(AmrEdge, (target, role[:-3], var))] = None
            else:
                edges[_new(AmrEdge, (var, role, target))] = None

    if tokens[i] != "(":
        at = reader.offset(i)
        raise PenmanSyntaxError(at, f"expected '(', found {reader.text[at : at + 1]!r}")
    try:
        root, i = parse_node(i, 1)
    finally:
        # parse_node reaches itself through its closure; the cycle would keep
        # the whole graph alive until the cyclic collector ran.
        del parse_node
    for var in referenced:
        if var not in declared:
            raise DanglingVariableError(var)
    return AmrGraph(root, tuple(nodes), tuple(edges)), i


def parse_penman_file(text: str) -> list[AmrGraph]:
    """Every graph of a PENMAN document, in order.

    Raises PenmanSyntaxError, DuplicateVariableError, or
    DanglingVariableError.
    """
    reader = _Reader(text)
    graphs = []
    i = 0
    while reader.tokens[i]:
        graph, i = _read_graph(reader, i)
        graphs.append(graph)
    return graphs


def parse_penman(text: str) -> AmrGraph:
    """The one graph of a PENMAN document.

    Raises AmrError ``expected one PENMAN graph, found N`` for a document
    that does not hold exactly one, and the errors of ``parse_penman_file``.
    """
    graphs = parse_penman_file(text)
    if len(graphs) != 1:
        raise AmrError(f"expected one PENMAN graph, found {len(graphs)}")
    return graphs[0]
