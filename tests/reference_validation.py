"""The validation checks as they were before the per-predicate index: a reference.

``xkg.validation``'s ``lint``, ``check_consistency``, ``infer_precedence``
and ``profile`` must agree with the functions here on every graph below
``MAX_PRECEDENCE_PAIRS`` closure pairs. This copy scans every triple once
per question, builds the full closure pair set with one breadth-first
search per source, finds a cycle with its own depth-first search and
collects every IRI of the graph in a separate pass (the former
``RdfGraph.all_iris``). It builds the package's own
diagnostics, so only the checking is compared. One change since: a class
disjoint with itself is a clash pair ``(A, A)``; the copy used to raise
ValueError unpacking it.

``check_anchoring`` is the union-find over all of the sorted additions, as it
was before the flood fill; ``xkg.validation.check_anchoring`` must return the
same diagnostics in the same order.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable, Optional

from xkg.rdf import (
    DUL_ASSOCIATED_WITH,
    DUL_PRECEDES,
    OWL_DISJOINT_WITH,
    PBRS_NS,
    RDFS_COMMENT,
    RDFS_SUBCLASSOF,
    RDF_TYPE,
    UNDECLARED_NS_BASE,
    Iri,
    Literal,
    RdfGraph,
    Term,
    Triple,
)
from xkg.validation import (
    ANCHOR_FLOAT,
    DISJOINT_CLASH,
    ERROR,
    FALLBACK_ROLE,
    INFO,
    MISSING_COMMENT,
    PRECEDES_CYCLE,
    PREFIX_MISUSE,
    UNDECLARED_PREFIX,
    WARN,
    _CURATED_NAMESPACES,
    _DECLARATION_CLASSES,
    _PROFILE_NAMESPACES,
    Diagnostic,
    GraphProfile,
    MiniOntology,
    PrecedenceInference,
    is_structural,
)


def check_anchoring(base: RdfGraph, added: Iterable[Triple]) -> list[Diagnostic]:
    added = sorted(set(added))
    if not added:
        return []

    parent: dict[Term, Term] = {}

    def find(x: Term) -> Term:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: Term, b: Term) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for s, _, o in added:
        parent.setdefault(s, s)
        if not isinstance(o, Literal):
            parent.setdefault(o, o)
            union(s, o)

    base_nodes = base.node_iris
    members: dict[Term, list[Triple]] = defaultdict(list)
    anchored: dict[Term, bool] = defaultdict(bool)
    for t in added:
        root = find(t.subject)
        members[root].append(t)
        if t.subject in base_nodes or t.object in base_nodes:
            anchored[root] = True

    diagnostics = []
    for root in sorted(members, key=lambda term: repr(term)):
        if anchored[root]:
            continue
        listing = "; ".join(
            f"{t.subject} {t.predicate.local_name()} {t.object}" for t in members[root][:5]
        )
        extra = len(members[root]) - 5
        if extra > 0:
            listing += f" (+{extra} more)"
        diagnostics.append(Diagnostic(
            ERROR, ANCHOR_FLOAT,
            f"component with {len(members[root])} triple(s) has no node from the base graph: {listing}",
            subject=members[root][0].subject,
        ))
    return diagnostics


def find_cycle(edges: dict[Iri, set[Iri]]) -> Optional[list[Iri]]:
    """The first cycle a depth-first search meets, as a closed path, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[Iri, int] = defaultdict(int)
    for root in list(edges):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        pending = [iter(edges.get(root, ()))]
        while pending:
            for nxt in pending[-1]:
                if color[nxt] == GRAY:
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    pending.append(iter(edges.get(nxt, ())))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return None


def all_iris(graph: RdfGraph) -> frozenset[Iri]:
    out = set()
    for t in graph.triples:
        if isinstance(t.subject, Iri):
            out.add(t.subject)
        out.add(t.predicate)
        if isinstance(t.object, Iri):
            out.add(t.object)
    return frozenset(out)


def minted_terms(graph: RdfGraph) -> set[Iri]:
    minted: set[Iri] = set()
    for t in graph.triples:
        if t.predicate == RDF_TYPE and t.object in _DECLARATION_CLASSES:
            if isinstance(t.subject, Iri):
                minted.add(t.subject)
            continue
        if not t.predicate.value.startswith(_CURATED_NAMESPACES):
            minted.add(t.predicate)
        if t.predicate == RDF_TYPE and isinstance(t.object, Iri):
            if not t.object.value.startswith(_CURATED_NAMESPACES):
                minted.add(t.object)
    return minted


def lint(graph: RdfGraph) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []

    misused = sorted({t.predicate for t in graph.triples
                      if t.predicate.value.startswith(PBRS_NS)})
    for predicate in misused:
        diagnostics.append(Diagnostic(
            WARN, PREFIX_MISUSE,
            f"predicate {predicate.local_name()} lives in the roleset-class namespace; "
            "role predicates belong to the local-role namespace",
            subject=predicate,
        ))

    undeclared = sorted({iri for iri in all_iris(graph)
                         if iri.value.startswith(UNDECLARED_NS_BASE)})
    seen_labels: set[str] = set()
    for iri in undeclared:
        label = iri.value[len(UNDECLARED_NS_BASE):].split("#")[0]
        if label in seen_labels:
            continue
        seen_labels.add(label)
        diagnostics.append(Diagnostic(
            WARN, UNDECLARED_PREFIX,
            f"prefix '{label}:' was used without a declaration",
            subject=iri,
        ))

    commented = {t.subject for t in graph.triples if t.predicate == RDFS_COMMENT}
    for term in sorted(minted_terms(graph)):
        if term in commented:
            continue
        diagnostics.append(Diagnostic(
            INFO, MISSING_COMMENT,
            f"{term.local_name()} has no rdfs:comment",
            subject=term,
        ))

    fallbacks = [t for t in graph.triples if t.predicate == DUL_ASSOCIATED_WITH]
    for t in sorted(fallbacks):
        diagnostics.append(Diagnostic(
            INFO, FALLBACK_ROLE,
            f"fallback association between {t.subject} and {t.object}",
            subject=t.subject,
        ))

    return diagnostics


def check_consistency(graph: RdfGraph, onto: MiniOntology) -> list[Diagnostic]:
    subclass_of: dict[Iri, set[Iri]] = defaultdict(set)
    for klass, supers in onto.subclass_of.items():
        subclass_of[klass] |= supers
    for t in graph.triples:
        if t.predicate == RDFS_SUBCLASSOF and isinstance(t.subject, Iri) and isinstance(t.object, Iri):
            subclass_of[t.subject].add(t.object)

    types: dict[Iri, set[Iri]] = defaultdict(set)
    for t in graph.triples:
        if t.predicate == RDF_TYPE and isinstance(t.subject, Iri) and isinstance(t.object, Iri):
            if t.object not in _DECLARATION_CLASSES:
                types[t.subject].add(t.object)

    def chain_to(start: Iri, goal: Iri) -> Optional[list[Iri]]:
        queue = deque([[start]])
        seen = {start}
        while queue:
            path = queue.popleft()
            if path[-1] == goal:
                return path
            for nxt in sorted(subclass_of.get(path[-1], ())):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(path + [nxt])
        return None

    def ancestors(klass: Iri) -> set[Iri]:
        out: set[Iri] = set()
        queue = deque([klass])
        while queue:
            current = queue.popleft()
            for nxt in subclass_of.get(current, ()):
                if nxt not in out:
                    out.add(nxt)
                    queue.append(nxt)
        return out

    diagnostics = []
    disjoint = set(onto.disjoint)
    for t in graph.triples:
        if t.predicate == OWL_DISJOINT_WITH and isinstance(t.subject, Iri) and isinstance(t.object, Iri):
            disjoint.add(frozenset((t.subject, t.object)))

    for individual in sorted(types):
        reach: set[Iri] = set()
        for klass in types[individual]:
            reach.add(klass)
            reach |= ancestors(klass)
        for pair in sorted(disjoint, key=lambda p: sorted(i.value for i in p)):
            first, second = sorted(pair) if len(pair) == 2 else (*pair, *pair)
            if first in reach and second in reach:
                chains = []
                for goal in (first, second):
                    for klass in sorted(types[individual]):
                        path = chain_to(klass, goal)
                        if path is not None:
                            chains.append(" -> ".join(
                                [individual.local_name()] + [c.local_name() for c in path]))
                            break
                diagnostics.append(Diagnostic(
                    ERROR, DISJOINT_CLASH,
                    f"{individual.local_name()} falls under disjoint classes "
                    f"{first.local_name()} and {second.local_name()}: "
                    + " | ".join(chains),
                    subject=individual,
                ))
    return diagnostics


def infer_precedence(graph: RdfGraph) -> PrecedenceInference:
    asserted = sorted(
        {(t.subject, t.object) for t in graph.triples
         if t.predicate == DUL_PRECEDES and isinstance(t.subject, Iri) and isinstance(t.object, Iri)})
    successors: dict[Iri, set[Iri]] = defaultdict(set)
    for a, b in asserted:
        successors[a].add(b)

    diagnostics: list[Diagnostic] = []
    cycle = find_cycle({k: sorted(v) for k, v in successors.items()})
    if cycle:
        diagnostics.append(Diagnostic(
            ERROR, PRECEDES_CYCLE,
            "precedes assertions form a cycle: " + " -> ".join(c.local_name() for c in cycle),
            subject=cycle[0],
        ))

    closure: set[tuple[Iri, Iri]] = set()
    for start in successors:
        seen: set[Iri] = set()
        queue = deque(successors[start])
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            closure.add((start, node))
            queue.extend(successors.get(node, ()))

    closure_sorted = sorted(closure)
    asserted_set = set(asserted)
    inferred = [p for p in closure_sorted if p not in asserted_set]
    return PrecedenceInference(asserted, closure_sorted, inferred, diagnostics)


def profile(graph: RdfGraph, base: Optional[RdfGraph] = None) -> GraphProfile:
    triples = graph.triples - base.triples if base is not None else graph.triples

    axioms = sum(1 for t in triples if not is_structural(t))
    iris = {term.value for t in triples for term in (t.subject, t.predicate, t.object)
            if isinstance(term, Iri)}
    counts = {name: sum(1 for value in iris if value.startswith(ns))
              for name, ns in _PROFILE_NAMESPACES.items()}

    new_op: Optional[int] = None
    new_dp: Optional[int] = None
    if base is not None:
        base_predicates = {t.predicate for t in base.triples}
        fresh: dict[Iri, bool] = {}
        for t in triples:
            if t.predicate in base_predicates:
                continue
            all_literal = fresh.get(t.predicate, True)
            fresh[t.predicate] = all_literal and isinstance(t.object, Literal)
        new_dp = sum(1 for only_literals in fresh.values() if only_literals)
        new_op = len(fresh) - new_dp

    return GraphProfile(axioms=axioms, new_op=new_op, new_dp=new_dp, **counts)
