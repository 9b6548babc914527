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

The lints, the consistency check, the closure and the profile read only the
predicates they need from the graph's ``by_predicate`` index. The closure
condenses cycles and ORs reachable sets as Python-int bitsets in reverse
topological order; at most ``MAX_PRECEDENCE_PAIRS`` pairs are listed.
"""

from __future__ import annotations

from collections import defaultdict, deque, namedtuple
from functools import lru_cache
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Union

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
from .records import Record, checked_make

ERROR = "ERROR"
WARN = "WARN"
INFO = "INFO"

# Closed diagnostic code registry. RESPONSE_INVALID and PRECEDES_CYCLE cover
# failed backend responses and cyclic orderings, which still need codes;
# PREFIX_CONFLICT a result whose prefixes clash with the base's or an earlier
# merged one's; PRECEDES_TRUNCATED a closure too large to list in full.
ANCHOR_FLOAT = "ANCHOR_FLOAT"
PREFIX_MISUSE = "PREFIX_MISUSE"
DISJOINT_CLASH = "DISJOINT_CLASH"
MISSING_COMMENT = "MISSING_COMMENT"
UNDECLARED_PREFIX = "UNDECLARED_PREFIX"
FALLBACK_ROLE = "FALLBACK_ROLE"
RESPONSE_INVALID = "RESPONSE_INVALID"
PRECEDES_CYCLE = "PRECEDES_CYCLE"
PREFIX_CONFLICT = "PREFIX_CONFLICT"
PRECEDES_TRUNCATED = "PRECEDES_TRUNCATED"

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
    PRECEDES_TRUNCATED,
})

_new = tuple.__new__  # builds a Diagnostic unchecked, for codes known good


class Diagnostic(namedtuple("Diagnostic", "severity code message subject")):
    """A finding; a tuple like the RDF terms. Severity: ERROR | WARN | INFO."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, severity: str, code: str, message: str,
                subject: Optional[Term] = None) -> "Diagnostic":
        if code not in DIAGNOSTIC_CODES:
            raise ValueError(f"unknown diagnostic code {code!r}")
        if severity not in (ERROR, WARN, INFO):
            raise ValueError(f"unknown severity {severity!r}")
        return _new(cls, (severity, code, message, subject))

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
    Insensitive to triple order and to repeated triples.

    One flood fill over the additions, from the nodes that occur in the base,
    finds every anchored triple; a triple is floating when its subject is not
    reached (a non-literal object lies in its subject's component). Only the
    floating triples are sorted and joined by a union-find, one component per
    diagnostic: its steps on one component never touch another, so the
    roots, their order and the listings are those of a union-find over all of
    ``added``.
    """
    base_nodes = base.node_iris()  # IRIs only, so no literal or blank node is in it
    reached: set[Term] = set()
    rest = []
    for t in added:
        if t[0] in base_nodes or t[2] in base_nodes:
            reached.add(t[0])
            reached.add(t[2])  # a literal here links nothing
        else:
            rest.append(t)
    if not rest:
        return []
    links: dict[Term, list[Term]] = defaultdict(list)
    for s, _, o in rest:
        if not isinstance(o, Literal):
            links[s].append(o)
            links[o].append(s)
    frontier = [node for node in links if node in reached]
    while frontier:
        for node in links[frontier.pop()]:
            if node not in reached:
                reached.add(node)
                frontier.append(node)
    floating = sorted({t for t in rest if t[0] not in reached})

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

    for s, _, o in floating:
        parent.setdefault(s, s)
        if not isinstance(o, Literal):
            parent.setdefault(o, o)
            union(s, o)

    members: dict[Term, list[Triple]] = defaultdict(list)
    for t in floating:
        members[find(t.subject)].append(t)

    diagnostics = []
    for root in sorted(members, key=lambda term: repr(term)):
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
    index = graph.by_predicate()
    minted = {p for p in index if not p.value.startswith(_CURATED_NAMESPACES)}
    for s, _, o in index.get(RDF_TYPE, ()):
        if o in _DECLARATION_CLASSES:
            if isinstance(s, Iri):
                minted.add(s)
        elif isinstance(o, Iri) and not o.value.startswith(_CURATED_NAMESPACES):
            minted.add(o)
    return minted


def lint(graph: RdfGraph) -> list[Diagnostic]:
    """Pitfall lints; never raises.

    PREFIX_MISUSE (WARN): a predicate minted in the frame-class namespace,
    where only classes belong. MISSING_COMMENT (INFO): a newly minted class
    or property without ``rdfs:comment``. UNDECLARED_PREFIX (WARN): terms
    parsed under a placeholder namespace. FALLBACK_ROLE (INFO): each
    ``dul:associatedWith`` occurrence, naming its terms by their reprs.
    """
    index = graph.by_predicate()
    diagnostics = [_new(Diagnostic, (
        WARN, PREFIX_MISUSE,
        f"predicate {predicate.local_name()} lives in the roleset-class namespace; "
        "role predicates belong to the local-role namespace",
        predicate,
    )) for predicate in sorted(p for p in index if p.value.startswith(PBRS_NS))]

    undeclared = sorted({iri for iri in chain(index, graph.node_iris())
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

    commented = {t[0] for t in index.get(RDFS_COMMENT, ())}
    diagnostics += [_new(Diagnostic, (INFO, MISSING_COMMENT, f"{term.local_name()} has no rdfs:comment", term))
                    for term in sorted(_minted_terms(graph) - commented)]
    # Keyed by the term, not its text: an IRI and a literal can share a text.
    names: dict[Term, str] = {}
    for s, _, o in sorted(index.get(DUL_ASSOCIATED_WITH, ())):
        subject = names.get(s)
        if subject is None:
            subject = names[s] = repr(s)
        obj = names.get(o)
        if obj is None:
            obj = names[o] = repr(o)
        diagnostics.append(_new(Diagnostic, (
            INFO, FALLBACK_ROLE, f"fallback association between {subject} and {obj}", s)))
    return diagnostics


# ---------------------------------------------------------------------------
# Consistency against the mini ontology
# ---------------------------------------------------------------------------


class MiniOntology(Record):
    """Subclass edges plus disjoint class pairs over the foundational layer.
    A cyclic subclass hierarchy raises ValueError."""

    __slots__ = _fields = ("subclass_of", "disjoint")

    def __init__(self, subclass_of: Optional[dict[Iri, set[Iri]]] = None,
                 disjoint: Optional[set[frozenset[Iri]]] = None):
        self.subclass_of = {} if subclass_of is None else subclass_of
        self.disjoint = set() if disjoint is None else disjoint
        # Sorted roots and successors: the cycle named does not depend on the
        # hash seed.
        cycle = _find_cycle({k: sorted(v) for k, v in sorted(self.subclass_of.items())})
        if cycle:
            raise ValueError("cyclic subclass hierarchy: " + " -> ".join(c.local_name() for c in cycle))

    @staticmethod
    def from_graph(graph: RdfGraph) -> "MiniOntology":
        subclass_of: dict[Iri, set[Iri]] = defaultdict(set)
        for s, o in _iri_pairs(graph, RDFS_SUBCLASSOF):
            subclass_of[s].add(o)
        return MiniOntology(dict(subclass_of), set(map(frozenset, _iri_pairs(graph, OWL_DISJOINT_WITH))))

    @staticmethod
    def from_turtle_file(path: Union[str, Path]) -> "MiniOntology":
        return MiniOntology.from_graph(parse_turtle(Path(path).read_text(encoding="utf-8")))


def _find_cycle(edges: dict[Iri, Iterable[Iri]]) -> Optional[list[Iri]]:
    """The first cycle a depth-first search from each key in turn meets, as a
    closed path, or None."""
    return _reachability(list(dict.fromkeys(chain(edges, *edges.values()))), edges, False)[1]


def _iri_pairs(graph: RdfGraph, predicate: Iri) -> Iterator[tuple[Iri, Iri]]:
    for s, _, o in graph.by_predicate().get(predicate, ()):
        if isinstance(s, Iri) and isinstance(o, Iri):
            yield s, o


def check_consistency(graph: RdfGraph, onto: MiniOntology) -> list[Diagnostic]:
    """Find individuals typed into two disjoint class branches.

    Subclass edges from the graph and the ontology are combined, types are
    propagated through the transitive closure, and each disjoint pair held
    simultaneously yields a DISJOINT_CLASH naming both subsumption chains.
    A class disjoint with itself is the pair of it and itself.
    """
    subclass_of: dict[Iri, set[Iri]] = defaultdict(set)
    for klass, supers in onto.subclass_of.items():
        subclass_of[klass] |= supers
    for s, o in _iri_pairs(graph, RDFS_SUBCLASSOF):
        subclass_of[s].add(o)

    types: dict[Iri, set[Iri]] = defaultdict(set)
    for s, o in _iri_pairs(graph, RDF_TYPE):
        if o not in _DECLARATION_CLASSES:
            types[s].add(o)

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

    @lru_cache(maxsize=None)
    def up(klass: Iri) -> set[Iri]:  # the class and its ancestors
        out, queue = {klass}, [klass]
        while queue:
            for nxt in subclass_of.get(queue.pop(), ()):
                if nxt not in out:
                    out.add(nxt)
                    queue.append(nxt)
        return out

    disjoint = set(onto.disjoint)
    disjoint.update(map(frozenset, _iri_pairs(graph, OWL_DISJOINT_WITH)))
    pairs = sorted((min(pair), max(pair)) for pair in disjoint)

    diagnostics = []
    for individual in sorted(types):
        reach = set().union(*map(up, types[individual]))
        for first, second in pairs:
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

#: Closure and inferred pairs listed at most: a chain of n links has
#: n(n+1)/2 closure pairs.
MAX_PRECEDENCE_PAIRS = 10_000


class PrecedenceInference(NamedTuple):
    asserted: list[tuple[Iri, Iri]]
    closure: list[tuple[Iri, Iri]]  # sorted, like inferred, and cut at the cap
    inferred: list[tuple[Iri, Iri]]
    diagnostics: list[Diagnostic]


def _reachability(nodes: list[Iri], edges: dict[Iri, Iterable[Iri]],
                  closure: bool) -> tuple[list[int], Optional[list[Iri]]]:
    """With ``closure``, each node's bitset of the nodes it reaches (bit i for
    ``nodes[i]``); and the first cycle met, as a closed path, or None.

    Tarjan's algorithm with its own stack, so a chain of any length is safe;
    stack positions serve as visiting order. A component's set is the OR of
    its successors' sets and bits, and its own if cyclic.
    """
    position = {node: i for i, node in enumerate(nodes)}
    successors = [[position[m] for m in edges.get(node, ())] for node in nodes]
    at, low = [-1] * len(nodes), [0] * len(nodes)  # at -1: not visited
    reach = [-1] * len(nodes)  # -1 until the node's component completes
    stack: list[int] = []
    work: list = []  # the search path: each node and its unvisited successors
    cycle = None

    def push(node: int) -> None:
        at[node] = low[node] = len(stack)
        stack.append(node)
        work.append((node, iter(successors[node])))

    for root in range(len(nodes)):
        if at[root] < 0:
            push(root)
        while work:
            node, pending = work[-1]
            for nxt in pending:
                if at[nxt] < 0:
                    push(nxt)
                    break
                if reach[nxt] < 0:  # on the stack; the first such is on the path
                    if cycle is None:
                        path = [w[0] for w in work]
                        cycle = [nodes[i] for i in path[path.index(nxt):]] + [nodes[nxt]]
                    low[node] = min(low[node], at[nxt])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[node])
                if low[node] == at[node]:
                    members = stack[at[node]:]
                    del stack[at[node]:]
                    bits = 0
                    if closure:
                        for m in members:
                            for nxt in successors[m]:
                                if reach[nxt] >= 0:  # in a component completed before
                                    bits |= reach[nxt] | 1 << nxt
                        if len(members) > 1 or node in successors[node]:
                            bits |= sum(1 << m for m in members)
                    for m in members:
                        reach[m] = bits
    return reach, cycle


def _pairs(nodes: list[Iri], sets: list[int]) -> Iterator[tuple[Iri, Iri]]:
    for first, bits in zip(nodes, sets):
        while bits:
            low = bits & -bits
            yield first, nodes[low.bit_length() - 1]
            bits ^= low


def infer_precedence(graph: RdfGraph) -> PrecedenceInference:
    """Transitive closure of ``dul:precedes``; closure minus asserted pairs
    are the inferred orderings.

    A cycle yields a PRECEDES_CYCLE diagnostic and a partial (reachability)
    result instead of failing. Past ``MAX_PRECEDENCE_PAIRS`` closure pairs a
    PRECEDES_TRUNCATED warning gives the totals.
    """
    asserted = sorted(_iri_pairs(graph, DUL_PRECEDES))
    successors: dict[Iri, list[Iri]] = defaultdict(list)
    for a, b in asserted:
        successors[a].append(b)
    # Sorted roots and successors: the cycle named does not depend on the
    # hash seed, and bit order is term order.
    nodes = sorted({node for pair in asserted for node in pair})
    reach, cycle = _reachability(nodes, successors, True)

    diagnostics: list[Diagnostic] = []
    if cycle:
        diagnostics.append(Diagnostic(
            ERROR, PRECEDES_CYCLE,
            "precedes assertions form a cycle: " + " -> ".join(c.local_name() for c in cycle),
            subject=cycle[0],
        ))

    closure = list(islice(_pairs(nodes, reach), MAX_PRECEDENCE_PAIRS))
    asserted_set = set(asserted)
    inferred = list(islice((p for p in _pairs(nodes, reach) if p not in asserted_set),
                           MAX_PRECEDENCE_PAIRS))
    total = sum(map(int.bit_count, reach))
    if total > MAX_PRECEDENCE_PAIRS:
        diagnostics.append(Diagnostic(
            WARN, PRECEDES_TRUNCATED,
            f"precedence closure has {total} pairs, {total - len(asserted)} of them inferred; "
            f"the first {MAX_PRECEDENCE_PAIRS} of each are listed",
        ))
    return PrecedenceInference(asserted, closure, inferred, diagnostics)


# ---------------------------------------------------------------------------
# Graph profile
# ---------------------------------------------------------------------------


class GraphProfile(NamedTuple):
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
        return self._asdict()


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
    iris = {term.value for term in set(chain.from_iterable(triples)) if isinstance(term, Iri)}
    counts = {name: sum(1 for value in iris if value.startswith(ns))
              for name, ns in _PROFILE_NAMESPACES.items()}

    new_op: Optional[int] = None
    new_dp: Optional[int] = None
    if base is not None:
        # A predicate absent from the base has all its triples in the additions.
        base_predicates = set(map(itemgetter(1), base.triples))
        fresh = [all(isinstance(t[2], Literal) for t in bucket)
                 for predicate, bucket in graph.by_predicate().items()
                 if predicate not in base_predicates]
        new_dp = sum(fresh)
        new_op = len(fresh) - new_dp

    return GraphProfile(axioms=axioms, new_op=new_op, new_dp=new_dp, **counts)
