"""The PENMAN reader and AMR-to-RDF translation as they were before
``xkg.amr`` read a document from one split and ``xkg.translate.translate``
resolved each concept once per call: a character-at-a-time reader with a
position, and a translation that builds and checks every IRI and triple on
its own. It shares only the record, term and error types, the resource maps
and the predicate table with the package; the differential properties in
``test_amr.py`` and ``test_translate.py`` compare the two.
"""

from __future__ import annotations

import logging
import re
from typing import Optional, Union

from xkg.amr import (
    FRAME_CONCEPT,
    MAX_NESTING,
    AmrConstant,
    AmrEdge,
    AmrGraph,
    AmrNode,
    DanglingVariableError,
    DuplicateVariableError,
    PenmanSyntaxError,
)
from xkg.rdf import (
    DUL_ASSOCIATED_WITH,
    DUL_HAS_QUALITY,
    FRED_NS,
    PBLR_NS,
    PBRS_NS,
    RDFS_LABEL,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    _NUMBER as _TURTLE_NUMBER,
    Iri,
    Literal,
    RdfGraph,
    Term,
    Triple,
    standard_prefixes,
)
from xkg.translate import VN_ROLE_PREDICATES, InvalidAmrError, RolesetMap

logger = logging.getLogger("xkg.amr")
translate_logger = logging.getLogger("xkg.translate")

_VARIABLE = re.compile(r"^[a-zA-Z][a-zA-Z0-9]*$")
_ALIGNMENT = re.compile(r"~(?:[a-z]\.)?\d+(?:,\d+)*")
_NUMBER = re.compile(r"^[+-]?\d+(\.\d+)?$")
# Whitespace, and lines whose first non-blank character is '#'.
_SPACE = re.compile(r"(?:^[^\S\n]*#.*|\s)*", re.MULTILINE)
_ARG_ROLE = re.compile(r"^:ARG(\d+)$", re.IGNORECASE)
_OP_ROLE = re.compile(r"^:op(\d+)$", re.IGNORECASE)


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


def _local_token(concept: str) -> str:
    return concept.replace("-", "_")


def _class_name(concept: str) -> str:
    parts = concept.split("-")
    return "_".join(p.capitalize() for p in parts)


def _constant_literal(constant: AmrConstant) -> Literal:
    if constant.quoted:
        return Literal(constant.value)
    if constant.value == "-":
        return Literal("false", XSD_BOOLEAN)
    if constant.value == "+":
        return Literal("true", XSD_BOOLEAN)
    if _TURTLE_NUMBER.fullmatch(constant.value):  # the Turtle writer's rule: ASCII digits only
        dt = XSD_DECIMAL if "." in constant.value else XSD_INTEGER
        return Literal(constant.value, dt)
    return Literal(constant.value)


def _is_name_cluster(concept: str, out: list[AmrEdge]) -> bool:
    return concept == "name" and bool(out) and all(
        _OP_ROLE.match(e.role) and isinstance(e.target, AmrConstant) for e in out
    )


def _name_label(out: list[AmrEdge]) -> str:
    parts = sorted((int(_OP_ROLE.match(e.role).group(1)), e.target.value) for e in out)
    return " ".join(value for _, value in parts)


def translate(amr: AmrGraph, rolesets: Optional[RolesetMap] = None) -> RdfGraph:
    """Translate an AMR graph into its RDF base form.

    Deterministic: identical inputs serialize identically. Unknown frames are
    logged and fall back to positional ``pblr:F.argN`` predicates. Raises
    InvalidAmrError for an empty graph, an edge to a variable no node
    declares, or a concept with a character that no IRI may hold.
    """
    if not amr.nodes:
        raise InvalidAmrError("empty AMR graph")
    rolesets = rolesets or RolesetMap()

    # Each variable's concept (its first declaration's) and outgoing edges,
    # built once so that translation stays linear in the graph's size.
    concepts = {n.variable: n.concept for n in reversed(amr.nodes)}
    outgoing: dict[str, list[AmrEdge]] = {}
    for e in amr.edges:
        outgoing.setdefault(e.source, []).append(e)
    named = {e.target for e in amr.edges if e.role == ":name" and isinstance(e.target, str)}
    name_nodes = {v for v in named
                  if v in concepts and _is_name_cluster(concepts[v], outgoing.get(v, []))}

    individuals: dict[str, Iri] = {}
    counters: dict[str, int] = {}
    triples: set[Triple] = set()
    unmapped: set[tuple[str, int]] = set()

    for node in amr.nodes:  # declaration order is depth-first from the root
        if node.variable in name_nodes:
            continue
        counters[node.concept] = counters.get(node.concept, 0) + 1
        k = counters[node.concept]
        match = FRAME_CONCEPT.match(node.concept)
        try:
            if match:
                individual = Iri(FRED_NS + f"{_local_token(match.group('lemma'))}_{k}")
                klass = Iri(PBRS_NS + node.concept)
            else:
                individual = Iri(FRED_NS + f"{_local_token(node.concept)}_{k}")
                klass = Iri(FRED_NS + _class_name(node.concept))
        except ValueError:  # a character no IRI may hold, such as '<' or '"'
            raise InvalidAmrError(f"concept {node.concept!r} cannot be part of an IRI")
        individuals[node.variable] = individual
        triples.add(Triple(individual, RDF_TYPE, klass))

    def role_predicate(source_var: str, role: str) -> Iri:
        concept = concepts[source_var]
        arg = _ARG_ROLE.match(role)
        if arg and FRAME_CONCEPT.match(concept):
            index = int(arg.group(1))
            name = rolesets.role(concept, index)
            if name is None:
                if (concept, index) not in unmapped:  # warn once per call
                    unmapped.add((concept, index))
                    translate_logger.warning("no roleset entry for %s ARG%d, using positional role", concept, index)
                name = f"arg{index}"
            return Iri(PBLR_NS + f"{concept}.{name}")
        lowered = role.lower()
        if lowered in VN_ROLE_PREDICATES:
            return VN_ROLE_PREDICATES[lowered]
        if lowered == ":mod":
            return DUL_HAS_QUALITY
        return DUL_ASSOCIATED_WITH

    for edge in amr.edges:
        if edge.source not in individuals and edge.source not in name_nodes:
            raise InvalidAmrError(f"edge source {edge.source!r} is not a node of the graph")
        if (isinstance(edge.target, str)
                and edge.target not in individuals and edge.target not in name_nodes):
            raise InvalidAmrError(f"edge target {edge.target!r} is not a node of the graph")
        source = individuals.get(edge.source)
        if source is None:  # edge hanging off an absorbed name node
            continue
        if edge.role == ":name" and isinstance(edge.target, str) and edge.target in name_nodes:
            triples.add(Triple(source, RDFS_LABEL, Literal(_name_label(outgoing[edge.target]))))
            continue
        predicate = role_predicate(edge.source, edge.role)
        obj: Term
        if isinstance(edge.target, AmrConstant):
            obj = _constant_literal(edge.target)
        else:
            target = individuals.get(edge.target)
            if target is None:  # non-:name edge into an absorbed name node
                continue
            obj = target
        triples.add(Triple(source, predicate, obj))

    return RdfGraph(frozenset(triples), standard_prefixes())
