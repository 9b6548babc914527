"""Graph isomorphism checks for the round-trip tests.

Both search by backtracking over renamings: of blank-node labels for RDF
graphs, of variables for AMR graphs. The package has no runtime use for
them, so they live with the tests.
"""

from __future__ import annotations

from typing import Optional

from xkg.amr import AmrConstant, AmrEdge, AmrGraph
from xkg.rdf import BlankNode, RdfGraph, Triple


def _blank_signature(graph_triples: frozenset[Triple], label: str) -> tuple:
    sig = []
    for t in graph_triples:
        s_blank = isinstance(t.subject, BlankNode) and t.subject.label == label
        o_blank = isinstance(t.object, BlankNode) and t.object.label == label
        if s_blank or o_blank:
            s = "*" if isinstance(t.subject, BlankNode) else t.subject.value
            o = "*" if isinstance(t.object, BlankNode) else repr(t.object)
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


def concepts(g: AmrGraph) -> dict[str, str]:
    """Each variable's concept: its first declaration's, as ``translate``
    reads it."""
    return {n.variable: n.concept for n in reversed(g.nodes)}


def amr_isomorphic(g1: AmrGraph, g2: AmrGraph) -> bool:
    """Equality up to a bijective renaming of variables."""
    if len(g1.nodes) != len(g2.nodes) or len(g1.edges) != len(g2.edges):
        return False

    def profile(g: AmrGraph, concept: dict[str, str], var: str) -> tuple:
        out = sorted((e.role, "*" if isinstance(e.target, str) else repr(e.target))
                     for e in g.edges if e.source == var)
        inc = sorted(e.role for e in g.edges if e.target == var)
        return (concept[var], tuple(out), tuple(inc), var == g.root)

    vars1 = [n.variable for n in g1.nodes]
    vars2 = [n.variable for n in g2.nodes]
    concepts1, concepts2 = concepts(g1), concepts(g2)
    prof2 = {v: profile(g2, concepts2, v) for v in vars2}
    candidates = {v: [w for w in vars2 if prof2[w] == profile(g1, concepts1, v)]
                  for v in vars1}
    order = sorted(vars1, key=lambda v: len(candidates[v]))

    edges2 = set(g2.edges)

    def rename(e: AmrEdge, mapping: dict[str, str]) -> Optional[AmrEdge]:
        target = e.target if isinstance(e.target, AmrConstant) else mapping.get(e.target)
        source = mapping.get(e.source)
        if source is None or target is None:
            return None
        return AmrEdge(source, e.role, target)

    def backtrack(idx: int, mapping: dict[str, str], used: set[str]) -> bool:
        if idx == len(order):
            if mapping[g1.root] != g2.root:
                return False
            return {rename(e, mapping) for e in g1.edges} == edges2
        v = order[idx]
        for w in candidates[v]:
            if w in used:
                continue
            mapping[v] = w
            used.add(w)
            if backtrack(idx + 1, mapping, used):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return backtrack(0, {}, set())
