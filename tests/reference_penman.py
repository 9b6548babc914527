"""The PENMAN file reader as it was before ``xkg.amr.parse_penman_file`` read
a file with its expression reader: a line chunker that splits the file into
graphs by counting parentheses outside quoted strings, and one expression
reader per chunk. It shares only the record and error types with
``xkg.amr``; the differential property in ``test_amr.py`` compares the two.
"""

from __future__ import annotations

import re
from typing import Union

from xkg.amr import (
    MAX_NESTING,
    AmrConstant,
    AmrEdge,
    AmrGraph,
    AmrNode,
    DanglingVariableError,
    DuplicateVariableError,
    PenmanSyntaxError,
)

_VARIABLE = re.compile(r"^[a-zA-Z][a-zA-Z0-9]*$")
_ALIGNMENT = re.compile(r"~(?:[a-z]\.)?\d+(?:,\d+)*")
_NUMBER = re.compile(r"^[+-]?\d+(\.\d+)?$")


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


def parse_expression(text: str) -> AmrGraph:
    """One PENMAN expression, alignment markers stripped, inverse roles
    normalized; anything after it is an error."""
    reader = _Reader(_ALIGNMENT.sub("", text))
    nodes: list[AmrNode] = []
    declared: dict[str, str] = {}
    edges: dict[AmrEdge, None] = {}
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
            edges[AmrEdge(var, role, target)] = None

    reader.skip_ws()
    root = parse_node(1)
    reader.skip_ws()
    if reader.pos < len(reader.text):
        raise PenmanSyntaxError(reader.pos, "trailing content after the expression")
    for var in referenced:
        if var not in declared:
            raise DanglingVariableError(var)
    return AmrGraph(root, tuple(nodes), tuple(dict.fromkeys(map(_invert, edges))))


def _invert(edge: AmrEdge) -> AmrEdge:
    if edge.role.endswith("-of") and isinstance(edge.target, str):
        return AmrEdge(edge.target, edge.role[: -len("-of")], edge.source)
    return edge


def _paren_depth(line: str, in_string: bool) -> tuple[int, bool]:
    """The line's '(' less its ')' outside quoted strings, and whether it ends
    inside one; ``in_string`` says whether it starts inside one."""
    depth, escaped = 0, False
    for c in line:
        if in_string:  # a backslash escapes any character
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


def parse_penman_file(text: str) -> list[AmrGraph]:
    """Split at lines where the parentheses balance outside a string, and at
    '#' comment lines between graphs; drop '#' comment lines inside one."""
    graphs: list[AmrGraph] = []
    chunk: list[str] = []

    def flush() -> None:
        block = "\n".join(chunk).strip()
        if block:
            graphs.append(parse_expression(block))
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
