"""Logical integrity checks and graph statistics.

Four families of checks, all pure over immutable graphs:

* anchoring, requiring every connected component of newly added triples to
  touch at least one node already in the base graph;
* lints for known pitfalls (role predicates minted in the frame-class
  namespace, terms without ``rdfs:comment``, prefixes used undeclared,
  fallback ``dul:associatedWith`` usage);
* a disjointness check over the transitive subclass closure against a small
  foundational ontology, replacing a full description-logic reasoner;
* the transitive closure of ``dul:precedes``, whose non-asserted pairs are
  the inferred event orderings.

``profile`` computes the per-namespace statistics used to describe a base
graph and the per-heuristic additions.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

from .rdf import (
    D0_NS,
    DUL_ASSOCIATED_WITH,
    DUL_NS,
    DUL_PRECEDES,
    OWL_ANNOTATION_PROPERTY,
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_DISJOINT_WITH,
    OWL_NAMED_INDIVIDUAL,
    OWL_NS,
    OWL_OBJECT_PROPERTY,
    OWL_ONTOLOGY,
    PBLR_NS,
    PBRS_NS,
    RDFS_COMMENT,
    RDFS_LABEL,
    RDFS_NS,
    RDFS_SUBCLASSOF,
    RDF_NS,
    RDF_TYPE,
    UNDECLARED_NS_BASE,
    VN_ROLE_NS,
    WIKIDATA_NS,
    WN30_NS,
    XSD_NS,
    FRED_NS,
    BlankNode,
    Iri,
    Literal,
    RdfGraph,
    Term,
    Triple,
    parse_turtle,
)

ERROR = "ERROR"
WARN = "WARN"
INFO = "INFO"

# Closed diagnostic code registry. RESPONSE_INVALID and PRECEDES_CYCLE cover
# failed backend responses and cyclic orderings, which still need codes;
# PREFIX_CONFLICT a result whose prefixes clash with an earlier merged one.
ANCHOR_FLOAT = "ANCHOR_FLOAT"
PREFIX_MISUSE = "PREFIX_MISUSE"
DISJOINT_CLASH = "DISJOINT_CLASH"
MISSING_COMMENT = "MISSING_COMMENT"
UNDECLARED_PREFIX = "UNDECLARED_PREFIX"
FALLBACK_ROLE = "FALLBACK_ROLE"
RESPONSE_INVALID = "RESPONSE_INVALID"
PRECEDES_CYCLE = "PRECEDES_CYCLE"
PREFIX_CONFLICT = "PREFIX_CONFLICT"

DIAGNOSTIC_CODES = frozenset({
    ANCHOR_FLOAT,
    PREFIX_MISUSE,
    DISJOINT_CLASH,
    MISSING_COMMENT,
    UNDECLARED_PREFIX,
    FALLBACK_ROLE,
    RESPONSE_INVALID,
    PRECEDES_CYCLE,
    PREFIX_CONFLICT,
})


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # ERROR | WARN | INFO
    code: str
    message: str
    subject: Optional[Term] = None

    def __post_init__(self) -> None:
        if self.code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity not in (ERROR, WARN, INFO):
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> dict:
        s = self.subject  # an IRI's value, a literal's lexical form, a blank node's label
        return {
            "severity": self.severity,
            "code": self.code,
            "subject": None if s is None else "_:" + s[1] if isinstance(s, BlankNode) else s[1],
            "message": self.message,
        }


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


# ---------------------------------------------------------------------------
# Anchoring
# ---------------------------------------------------------------------------


def check_anchoring(base: RdfGraph, added: Iterable[Triple]) -> list[Diagnostic]:
    """Report connected components of ``added`` that never touch the base.

    Nodes are subjects and non-literal objects; a component is anchored when
    at least one of its IRI nodes occurs as a node in the base graph.
    Insensitive to triple order.
    """
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

    base_nodes = base.node_iris()  # IRIs only, so no literal or blank node is in it
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


# ---------------------------------------------------------------------------
# Lints
# ---------------------------------------------------------------------------

# Namespaces whose terms are curated elsewhere and need no local rdfs:comment.
_CURATED_NAMESPACES = (
    RDF_NS, RDFS_NS, OWL_NS, XSD_NS, FRED_NS, PBRS_NS, PBLR_NS,
    VN_ROLE_NS, WN30_NS, DUL_NS, D0_NS, WIKIDATA_NS,
)

_DECLARATION_CLASSES = {OWL_CLASS, OWL_OBJECT_PROPERTY, OWL_DATATYPE_PROPERTY,
                        OWL_NAMED_INDIVIDUAL, OWL_ANNOTATION_PROPERTY, OWL_ONTOLOGY}


def _minted_terms(graph: RdfGraph) -> set[Iri]:
    """Terms introduced by this graph rather than by a curated vocabulary."""
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
    """Pitfall lints; never raises.

    PREFIX_MISUSE (WARN): a predicate minted in the frame-class namespace,
    where only classes belong. MISSING_COMMENT (INFO): a newly minted class
    or property without ``rdfs:comment``. UNDECLARED_PREFIX (WARN): terms
    parsed under a placeholder namespace. FALLBACK_ROLE (INFO): each
    ``dul:associatedWith`` occurrence.
    """
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

    undeclared = sorted({iri for iri in graph.all_iris()
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
    for term in sorted(_minted_terms(graph)):
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


# ---------------------------------------------------------------------------
# Consistency against the mini ontology
# ---------------------------------------------------------------------------


@dataclass
class MiniOntology:
    """Subclass edges plus disjoint class pairs over the foundational layer."""

    subclass_of: dict[Iri, set[Iri]] = field(default_factory=dict)
    disjoint: set[frozenset[Iri]] = field(default_factory=set)

    def __post_init__(self) -> None:
        # Sorted roots and successors: the cycle named does not depend on the
        # hash seed.
        cycle = _find_cycle({k: sorted(v) for k, v in sorted(self.subclass_of.items())})
        if cycle:
            raise ValueError("cyclic subclass hierarchy: " + " -> ".join(c.local_name() for c in cycle))

    @staticmethod
    def from_graph(graph: RdfGraph) -> "MiniOntology":
        subclass_of: dict[Iri, set[Iri]] = defaultdict(set)
        disjoint: set[frozenset[Iri]] = set()
        for t in graph.triples:
            if t.predicate == RDFS_SUBCLASSOF and isinstance(t.subject, Iri) and isinstance(t.object, Iri):
                subclass_of[t.subject].add(t.object)
            elif t.predicate == OWL_DISJOINT_WITH and isinstance(t.subject, Iri) and isinstance(t.object, Iri):
                disjoint.add(frozenset((t.subject, t.object)))
        return MiniOntology(dict(subclass_of), disjoint)

    @staticmethod
    def from_turtle_file(path: Union[str, Path]) -> "MiniOntology":
        return MiniOntology.from_graph(parse_turtle(Path(path).read_text(encoding="utf-8")))


def _find_cycle(edges: dict[Iri, set[Iri]]) -> Optional[list[Iri]]:
    """The first cycle a depth-first search meets, as a closed path, or None.

    The search keeps its own stack, so a chain of any length is safe.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[Iri, int] = defaultdict(int)
    for root in list(edges):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]  # the gray nodes, in visiting order
        pending = [iter(edges.get(root, ()))]  # each path node's unvisited successors
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


def check_consistency(graph: RdfGraph, onto: MiniOntology) -> list[Diagnostic]:
    """Find individuals typed into two disjoint class branches.

    Subclass edges from the graph and the ontology are combined, types are
    propagated through the transitive closure, and each disjoint pair held
    simultaneously yields a DISJOINT_CLASH naming both subsumption chains.
    """
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
            first, second = sorted(pair)
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


# ---------------------------------------------------------------------------
# Precedence inference
# ---------------------------------------------------------------------------


@dataclass
class PrecedenceInference:
    asserted: list[tuple[Iri, Iri]]
    closure: list[tuple[Iri, Iri]]
    inferred: list[tuple[Iri, Iri]]
    diagnostics: list[Diagnostic]


def infer_precedence(graph: RdfGraph) -> PrecedenceInference:
    """Transitive closure of ``dul:precedes``; closure minus asserted pairs
    are the inferred orderings.

    A cycle yields a PRECEDES_CYCLE diagnostic and a partial (reachability)
    result instead of failing.
    """
    asserted = sorted(
        {(t.subject, t.object) for t in graph.triples
         if t.predicate == DUL_PRECEDES and isinstance(t.subject, Iri) and isinstance(t.object, Iri)})
    successors: dict[Iri, set[Iri]] = defaultdict(set)
    for a, b in asserted:
        successors[a].add(b)

    diagnostics: list[Diagnostic] = []
    # Roots are already sorted (``asserted`` is); sorted successors make the
    # cycle named independent of the hash seed.
    cycle = _find_cycle({k: sorted(v) for k, v in successors.items()})
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


# ---------------------------------------------------------------------------
# Graph profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphProfile:
    axioms: int
    wordnet: int
    pb_roles: int
    pb_frames: int
    vn_roles: int
    d0: int
    dul: int
    new_op: Optional[int] = None
    new_dp: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "axioms": self.axioms,
            "wordnet": self.wordnet,
            "pb_roles": self.pb_roles,
            "pb_frames": self.pb_frames,
            "vn_roles": self.vn_roles,
            "d0": self.d0,
            "dul": self.dul,
            "new_op": self.new_op,
            "new_dp": self.new_dp,
        }


def is_structural(t: Triple) -> bool:
    """Entity declarations and annotation metadata, excluded from axiom counts."""
    if t.predicate in (RDFS_LABEL, RDFS_COMMENT):
        return True
    return t.predicate == RDF_TYPE and t.object in _DECLARATION_CLASSES


_PROFILE_NAMESPACES = {
    "wordnet": WN30_NS,
    "pb_roles": PBLR_NS,
    "pb_frames": PBRS_NS,
    "vn_roles": VN_ROLE_NS,
    "d0": D0_NS,
    "dul": DUL_NS,
}


def profile(graph: RdfGraph, base: Optional[RdfGraph] = None) -> GraphProfile:
    """Axiom and namespace statistics.

    With a base graph the statistics describe the additions (``graph`` minus
    ``base``) and include the newly introduced properties: predicates of the
    additions absent from the base, a datatype property when every object
    occurrence is a literal, an object property otherwise.
    """
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
