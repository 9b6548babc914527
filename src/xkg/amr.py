"""Abstract Meaning Representation graphs and their PENMAN notation.

``parse_penman_file`` reads every graph of a PENMAN document, one
parenthesized expression after another, and ``parse_penman`` the one graph
of a document that must hold exactly one. Re-entrant variables (mentioned
without ``/``) resolve to one node, and inverse ``-of`` roles are normalized
by flipping the edge (``:ARG0-of`` on X->Y becomes ``:ARG0`` on Y->X).

Constants (quoted strings, numbers, ``-`` and ``+``) are legal edge targets
and do not create nodes. Unquoted targets are variable references and must be
declared somewhere in their graph. A line whose first non-blank character is
``#`` outside a quoted string is a comment, wherever it stands. ISI-style
alignment markers (``~e.4``) are stripped from the whole document first,
with one logged warning; nothing downstream consumes them. Error offsets
count from the start of the document so stripped, with each line end
counted as one character.
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
# Whitespace, and lines whose first non-blank character is '#'.
_SPACE = re.compile(r"(?:^[^\S\n]*#.*|\s)*", re.MULTILINE)

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

    def concept(self, variable: str) -> str:
        for n in self.nodes:
            if n.variable == variable:
                return n.concept
        raise KeyError(variable)

    def node(self, variable: str) -> AmrNode:
        for n in self.nodes:
            if n.variable == variable:
                return n
        raise KeyError(variable)


class _Reader:
    """Reads a PENMAN document with its alignment markers removed and each
    line end, as ``str.splitlines`` finds them, written as one ``\\n``: a
    constant that spans lines holds ``\\n`` whatever the file's line ends."""

    def __init__(self, text: str):
        self.text = "\n".join(_strip_alignments(text).splitlines())
        self.pos = 0

    def skip_ws(self) -> None:
        """Skip whitespace and ``#`` comment lines."""
        self.pos = _SPACE.match(self.text, self.pos).end()

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        self.skip_ws()
        if self.peek() != char:
            raise PenmanSyntaxError(self.pos, f"expected {char!r}, found {self.peek()!r}")
        self.pos += 1

    def token(self) -> str:
        """Read up to the next whitespace, paren, or slash."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in " \t\n()/":
            self.pos += 1
        if self.pos == start:
            raise PenmanSyntaxError(start, "expected a token")
        return self.text[start : self.pos]

    def quoted(self) -> str:
        start = self.pos
        self.pos += 1
        out = []
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == "\\" and self.pos + 1 < len(self.text):
                out.append(self.text[self.pos + 1])
                self.pos += 2
                continue
            if c == '"':
                self.pos += 1
                return "".join(out)
            out.append(c)
            self.pos += 1
        raise PenmanSyntaxError(start, "unterminated string")


def _strip_alignments(text: str) -> str:
    stripped, count = _ALIGNMENT.subn("", text)
    if count:
        logger.warning("stripped %d alignment marker(s) from PENMAN input", count)
    return stripped


def _invert(edge: AmrEdge) -> AmrEdge:
    if edge.role.endswith("-of") and isinstance(edge.target, str):
        return AmrEdge(edge.target, edge.role[: -len("-of")], edge.source)
    return edge


def _read_graph(reader: _Reader) -> AmrGraph:
    """Read one parenthesized expression into an AmrGraph, with inverse
    ``-of`` edges between nodes flipped."""
    nodes: list[AmrNode] = []
    declared: dict[str, str] = {}
    edges: dict[AmrEdge, None] = {}  # insertion-ordered set
    referenced: list[str] = []

    def parse_node(depth: int) -> str:
        reader.expect("(")
        if depth > MAX_NESTING:
            raise PenmanSyntaxError(reader.pos - 1, f"nodes nested deeper than {MAX_NESTING}")
        var = reader.token()
        if not _VARIABLE.match(var):
            raise PenmanSyntaxError(reader.pos, f"bad variable name {var!r}")
        reader.skip_ws()
        if reader.peek() != "/":
            raise PenmanSyntaxError(reader.pos, f"expected '/' after variable {var!r}")
        reader.pos += 1
        concept = reader.token()
        if var in declared:
            raise DuplicateVariableError(var)
        declared[var] = concept
        nodes.append(AmrNode(var, concept))

        while True:
            reader.skip_ws()
            c = reader.peek()
            if c == ")":
                reader.pos += 1
                return var
            if c == "":
                raise PenmanSyntaxError(reader.pos, "unexpected end of input")
            role = reader.token()
            if not role.startswith(":"):
                raise PenmanSyntaxError(reader.pos, f"expected a :role, found {role!r}")
            reader.skip_ws()
            c = reader.peek()
            if c == "(":
                target: Union[str, AmrConstant] = parse_node(depth + 1)
            elif c == '"':
                target = AmrConstant(reader.quoted(), quoted=True)
            else:
                word = reader.token()
                if _NUMBER.match(word) or word in ("-", "+"):
                    target = AmrConstant(word)
                else:
                    target = word
                    referenced.append(word)
            edges[_invert(AmrEdge(var, role, target))] = None

    root = parse_node(1)
    for var in referenced:
        if var not in declared:
            raise DanglingVariableError(var)
    return AmrGraph(root, tuple(nodes), tuple(edges))


def parse_penman_file(text: str) -> list[AmrGraph]:
    """Every graph of a PENMAN document, in order.

    Raises PenmanSyntaxError, DuplicateVariableError, or
    DanglingVariableError.
    """
    reader = _Reader(text)
    graphs = []
    reader.skip_ws()
    while reader.pos < len(reader.text):
        graphs.append(_read_graph(reader))
        reader.skip_ws()
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
