"""Abstract Meaning Representation graphs and their PENMAN notation.

``parse_penman`` turns a single parenthesized PENMAN expression into a rooted
graph. Re-entrant variables (mentioned without ``/``) resolve to one node, and
inverse ``-of`` roles are normalized by flipping the edge (``:ARG0-of`` on
X->Y becomes ``:ARG0`` on Y->X) unless normalization is disabled.

Constants (quoted strings, numbers, ``-`` and ``+``) are legal edge targets
and do not create nodes. Unquoted targets are variable references and must be
declared somewhere in the expression. ISI-style alignment markers (``~e.4``)
are stripped with a logged warning; nothing downstream consumes them.
"""

from __future__ import annotations

import logging
import re
from collections import namedtuple
from typing import NamedTuple, Union

logger = logging.getLogger(__name__)

FRAME_CONCEPT = re.compile(r"^(?P<lemma>.+)-(?P<sense>\d{2,3})$")
_VARIABLE = re.compile(r"^[a-zA-Z][a-zA-Z0-9]*$")
_ALIGNMENT = re.compile(r"~(?:[a-z]\.)?\d+(?:,\d+)*")
_NUMBER = re.compile(r"^[+-]?\d+(\.\d+)?$")

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
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

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
        while self.pos < len(self.text) and self.text[self.pos] not in " \t\r\n()/":
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


def parse_penman(text: str, normalize_inverse: bool = True) -> AmrGraph:
    """Parse one PENMAN expression into an AmrGraph.

    Raises PenmanSyntaxError, DuplicateVariableError, or
    DanglingVariableError.
    """
    reader = _Reader(_strip_alignments(text))
    nodes: list[AmrNode] = []
    declared: dict[str, str] = {}
    edges: dict[AmrEdge, None] = {}  # insertion-ordered set
    referenced: list[tuple[str, int]] = []

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
                    referenced.append((word, reader.pos))
            edges[AmrEdge(var, role, target)] = None

    reader.skip_ws()
    root = parse_node(1)
    reader.skip_ws()
    if reader.pos < len(reader.text):
        raise PenmanSyntaxError(reader.pos, "trailing content after the expression")

    for var, _pos in referenced:
        if var not in declared:
            raise DanglingVariableError(var)

    if normalize_inverse:
        edges = dict.fromkeys(_invert(e) for e in edges)

    return AmrGraph(root, tuple(nodes), tuple(edges))


def _invert(edge: AmrEdge) -> AmrEdge:
    if edge.role.endswith("-of") and isinstance(edge.target, str):
        return AmrEdge(edge.target, edge.role[: -len("-of")], edge.source)
    return edge


def _paren_depth(line: str, in_string: bool) -> tuple[int, bool]:
    """The line's '(' less its ')' outside quoted strings, and whether it ends
    inside one; ``in_string`` says whether it starts inside one."""
    if not in_string and '"' not in line:
        return line.count("(") - line.count(")"), False
    depth, escaped = 0, False
    for c in line:
        if in_string:  # as _Reader.quoted reads it: a backslash escapes any character
            if escaped:
                escaped = False
            elif c == "\\":
                escaped = True
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
    return depth, in_string


def parse_penman_file(text: str, normalize_inverse: bool = True) -> list[AmrGraph]:
    """Parse a PENMAN file: '#'-comment lines separate or annotate graphs."""
    graphs: list[AmrGraph] = []
    chunk: list[str] = []

    def flush() -> None:
        block = "\n".join(chunk).strip()
        if block:
            graphs.append(parse_penman(block, normalize_inverse=normalize_inverse))
        chunk.clear()

    depth, in_string = 0, False
    for line in text.splitlines():
        if not in_string and line.lstrip().startswith("#"):
            if depth == 0:
                flush()
            continue
        change, in_string = _paren_depth(line, in_string)
        depth += change
        chunk.append(line)
        if depth == 0 and not in_string and any(s.strip() for s in chunk):
            flush()
    flush()
    return graphs
