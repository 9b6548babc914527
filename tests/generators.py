"""Seeded random generators, and the graph builders and PENMAN writer the
tests use, shared by property and acceptance tests."""

from __future__ import annotations

import random
from typing import Iterable, Optional

from xkg.amr import AmrConstant, AmrEdge, AmrError, AmrGraph, AmrNode
from xkg.rdf import (
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    BlankNode,
    Iri,
    Literal,
    PrefixTable,
    RdfGraph,
    Triple,
    standard_prefixes,
)

EX_NS = "http://example.org/x#"


def graph_of(triples: Iterable[Triple], prefixes: Optional[PrefixTable] = None) -> RdfGraph:
    return RdfGraph(frozenset(triples), prefixes or standard_prefixes())


def extended_graph(base: RdfGraph, result) -> RdfGraph:
    """A heuristic's extended graph: the base's triples and an
    ``EnrichmentResult``'s additions, under the result's prefix table."""
    return RdfGraph(base.triples | result.added, result.additions.prefixes)


def random_rdf_graph(rng: random.Random, max_triples: int = 12) -> RdfGraph:
    prefixes = standard_prefixes().with_binding("ex", EX_NS)
    iris = [Iri(EX_NS + w) for w in "abcdefgh"]
    predicates = [Iri(EX_NS + w) for w in ("p", "q", "r", "s")]
    blanks = [BlankNode(f"n{i}") for i in range(4)]

    def literal() -> Literal:
        kind = rng.randrange(5)
        if kind == 0:
            return Literal(rng.choice(["x", "hello world", 'say "hi"', "tab\there", ""]))
        if kind == 1:
            return Literal(rng.choice(["one", "two"]), language=rng.choice(["en", "fr"]))
        if kind == 2:
            return Literal(str(rng.randrange(100)), XSD_INTEGER)
        if kind == 3:
            return Literal(rng.choice(["true", "false"]), XSD_BOOLEAN)
        return Literal(f"{rng.randrange(100)}.{rng.randrange(10)}", XSD_DECIMAL)

    def obj():
        roll = rng.random()
        if roll < 0.5:
            return rng.choice(iris)
        if roll < 0.7:
            return rng.choice(blanks)
        return literal()

    triples = set()
    for _ in range(rng.randrange(1, max_triples + 1)):
        subject = rng.choice(iris + blanks)
        triples.add(Triple(subject, rng.choice(predicates), obj()))
    return graph_of(triples, prefixes)


AMR_CONCEPTS = ["athlete", "track", "team", "medal", "crowd",
                "win-01", "run-02", "cheer-01", "compete-01"]
AMR_ROLES = [":ARG0", ":ARG1", ":ARG2", ":mod", ":location", ":time", ":manner", ":part"]


def random_amr_graph(rng: random.Random, max_nodes: int = 10) -> AmrGraph:
    """A connected AMR graph without inverse roles (the normalized form)."""
    count = rng.randrange(1, max_nodes + 1)
    nodes = tuple(AmrNode(f"v{i}", rng.choice(AMR_CONCEPTS)) for i in range(count))
    edges: list[AmrEdge] = []
    for i in range(1, count):
        parent = rng.randrange(i)
        if rng.random() < 0.3:
            edges.append(AmrEdge(f"v{i}", rng.choice(AMR_ROLES), f"v{parent}"))
        else:
            edges.append(AmrEdge(f"v{parent}", rng.choice(AMR_ROLES), f"v{i}"))
    for _ in range(rng.randrange(0, 3)):
        extra = AmrEdge(f"v{rng.randrange(count)}", rng.choice(AMR_ROLES),
                        f"v{rng.randrange(count)}")
        if extra not in edges:
            edges.append(extra)
    constants = [AmrConstant("5"), AmrConstant("-"), AmrConstant("3.14"),
                 AmrConstant("Saint Lucia", quoted=True)]
    for _ in range(rng.randrange(0, 3)):
        extra = AmrEdge(f"v{rng.randrange(count)}",
                        rng.choice([":quant", ":polarity", ":value"]),
                        rng.choice(constants))
        if extra not in edges:
            edges.append(extra)
    return AmrGraph("v0", nodes, tuple(edges))


def serialize_penman(graph: AmrGraph) -> str:
    """Render an AmrGraph in PENMAN notation.

    Each node is declared exactly once, at its first reachable position in a
    depth-first walk from the root; edges that would revisit a declared node
    print the bare variable, and edges only traversable against their
    direction print with an ``-of`` role.
    """
    tokens = penman_tokens(graph)
    return tokens[0] + "".join(t if t == ")" else " " + t for t in tokens[1:])


def penman_tokens(graph: AmrGraph) -> list[str]:
    """The words of ``serialize_penman(graph)``: ``(`` with its variable, ``/``,
    concepts, roles, targets and ``)``, each to be separated by whitespace."""
    declared: set[str] = set()
    printed: set[int] = set()  # indexes into graph.edges
    concepts = {n.variable: n.concept for n in graph.nodes}

    incident: dict[str, list[int]] = {v: [] for v in concepts}
    for idx, e in enumerate(graph.edges):
        incident[e.source].append(idx)
        if isinstance(e.target, str):
            incident[e.target].append(idx)

    def render_constant(c: AmrConstant) -> str:
        if c.quoted:
            escaped = c.value.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return c.value

    def render(var: str) -> list[str]:
        declared.add(var)
        parts = [f"({var}", "/", concepts[var]]
        for idx in incident[var]:
            if idx in printed:
                continue
            e = graph.edges[idx]
            if e.source == var:
                role, other = e.role, e.target
            else:
                role, other = e.role + "-of", e.source
            printed.add(idx)
            parts.append(role)
            if isinstance(other, AmrConstant):
                parts.append(render_constant(other))
            elif other in declared:
                parts.append(other)
            else:
                parts.extend(render(other))
        return parts + [")"]

    out = render(graph.root)
    unreachable = set(concepts) - declared
    if unreachable:
        raise AmrError(f"nodes unreachable from root: {sorted(unreachable)}")
    return out


_LINE_ENDS = ["\n"] * 8 + ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                           "\u2029"]
_INDENTS = ["", "", " ", "    ", "\t", "  \u3000"]
_COMMENTS = ["#", "# ::snt The athlete (won) a \"gold medal.", "#(", "#)", '# "', "# \\",
             "# ::id 7 ~e.2", "## (x / y)"]
_MARKERS = ["~e.3", "~7", "~e.1,2"]
# Quoted constants with comment marks, parentheses, quotes, backslashes,
# alignment markers and line ends, so that some span lines.
_VALUE_PIECES = ["a", " ", "#", "(", ")", '"', "\\", "~1", "\n", "\n# x (", "\r\n  #)",
                 "\u2028", ")\n"]
_JUNK = ["junk", ")", "(", ":ARG0", "#", "(zz / thing"]


def random_penman_file(rng: random.Random, max_graphs: int = 3) -> tuple[str, str]:
    """A PENMAN document of random graphs in a random layout, and its twin.

    The layout puts line ends of every kind ``str.splitlines`` knows,
    indentation, ``#`` comment lines and lines holding only alignment markers
    between any two words, and alignment markers after them. Some graphs are
    broken: a word dropped, added or repeated. The twin is the same document
    without the two layouts that only a reader of whole documents accepts:
    its marker lines lose their markers, and no graph starts on the line
    where the one before it ends.
    """
    text: list[str] = []
    twin: list[str] = []

    def emit(piece: str, twin_piece: Optional[str] = None) -> None:
        text.append(piece)
        twin.append(piece if twin_piece is None else twin_piece)

    def comment() -> str:
        return rng.choice(_COMMENTS)

    def line_break() -> None:
        emit(rng.choice(_LINE_ENDS))
        for _ in range(rng.choice([0, 0, 1, 2])):
            indent, roll = rng.choice(_INDENTS), rng.random()
            if roll < 0.5:
                emit(indent + comment())
            elif roll < 0.8:
                tail = rng.choice(["", "", " " + comment()])
                emit(indent + rng.choice(_MARKERS) + tail, indent + tail)
            else:
                emit(indent)
            emit(rng.choice(_LINE_ENDS))
        emit(rng.choice(_INDENTS))

    def separator() -> None:
        if rng.random() < 0.2:
            line_break()
        else:
            emit(rng.choice([" ", " ", "  ", "\t"]))

    for _ in range(rng.randrange(0, 2)):
        emit(rng.choice(_INDENTS) + comment() + rng.choice(_LINE_ENDS))
    for index in range(rng.randrange(0, max_graphs + 1)):
        if index:
            if rng.random() < 0.1:
                emit(rng.choice(["", " "]), rng.choice(_LINE_ENDS))
            else:
                line_break()
        graph = random_amr_graph(rng, max_nodes=6)
        edges = list(graph.edges)
        for _ in range(rng.randrange(0, 3)):
            value = "".join(rng.choice(_VALUE_PIECES) for _ in range(rng.randrange(0, 5)))
            edges.append(AmrEdge(rng.choice(graph.nodes).variable, ":op1",
                                 AmrConstant(value, quoted=True)))
        words = penman_tokens(AmrGraph(graph.root, graph.nodes, tuple(dict.fromkeys(edges))))
        if rng.random() < 0.15:
            at = rng.randrange(len(words))
            roll = rng.random()
            if roll < 0.4:
                del words[at]
            elif roll < 0.8:
                words.insert(at, rng.choice(_JUNK))
            else:
                words.insert(at, words[rng.randrange(len(words))])
        for i, word in enumerate(words):
            if i and (word != ")" or rng.random() < 0.3):
                separator()
            emit(word + (rng.choice(_MARKERS) if rng.random() < 0.1 else ""))
    if rng.random() < 0.5:
        emit(rng.choice(_LINE_ENDS))
    return "".join(text), "".join(twin)


def random_dag(rng: random.Random, max_nodes: int = 50) -> list[tuple[str, str]]:
    count = rng.randrange(2, max_nodes + 1)
    labels = [f"e{i}" for i in range(count)]
    edges = set()
    for _ in range(rng.randrange(1, count * 2)):
        i, j = sorted(rng.sample(range(count), 2))
        edges.add((labels[i], labels[j]))
    return sorted(edges)


def random_ratings_table(rng: random.Random, max_raters: int = 5,
                         max_items: int = 20, missing_rate: float = 0.1):
    raters = rng.randrange(2, max_raters + 1)
    items = rng.randrange(2, max_items + 1)
    table: list[list] = []
    for _ in range(items):
        row = []
        for _ in range(raters):
            if rng.random() < missing_rate:
                row.append(None)
            else:
                row.append(rng.randrange(1, 6))
        table.append(row)
    return table
