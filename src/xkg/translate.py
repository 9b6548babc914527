"""Deterministic AMR-to-RDF translation plus table-driven alignment.

``translate`` applies a fixed rule set:

1. a frame node ``(v / name-NN)`` becomes an individual ``fred:name_k`` typed
   by the frame class ``pbrs:name-NN`` (``k`` counts per concept, in
   depth-first declaration order, starting at 1);
2. a plain concept node ``(v / noun)`` becomes ``fred:noun_k`` typed by the
   class ``fred:Noun``;
3. a ``:ARGn`` edge from frame F maps to the local-role predicate
   ``pblr:F.<rolename>`` through the roleset table, falling back to
   ``pblr:F.argN`` for unknown frames or unmapped indexes;
4. a non-core role with a VerbNet mapping uses that predicate
   (``:location`` -> ``vn.role:Location``); ``:mod`` becomes
   ``dul:hasQuality``; anything else falls back to ``dul:associatedWith``;
5. ``:name``/``:op`` clusters collapse into an ``rdfs:label`` on the bearer;
6. constants become typed literals.

``align`` and ``link_entities`` enrich the translated graph from static
resource maps standing in for the external WSD and entity-linking systems.
Both only ever add triples and are idempotent.
"""

from __future__ import annotations

import json
import logging
import re
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Union

from .amr import FRAME_CONCEPT, AmrConstant, AmrEdge, AmrGraph
from .rdf import (
    DUL_ASSOCIATED_WITH,
    DUL_HAS_QUALITY,
    FRED_NS,
    OWL_EQUIVALENT_CLASS,
    OWL_SAME_AS,
    PBLR_NS,
    PBRS_NS,
    RDFS_LABEL,
    RDFS_SUBCLASSOF,
    RDF_TYPE,
    VN_ROLE_NS,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    _IRI_FORBIDDEN,
    _NUMBER,
    _new,
    Iri,
    Literal,
    RdfGraph,
    Triple,
    standard_prefixes,
)
from .records import Record

logger = logging.getLogger(__name__)

_ARG_ROLE = re.compile(r"^:ARG(\d+)$", re.IGNORECASE)
_OP_ROLE = re.compile(r"^:op(\d+)$", re.IGNORECASE)
_INDEX_SUFFIX = re.compile(r"_\d+$")

#: Non-core AMR roles with a conventional VerbNet role predicate.
VN_ROLE_PREDICATES: dict[str, Iri] = {
    ":location": Iri(VN_ROLE_NS + "Location"),
    ":time": Iri(VN_ROLE_NS + "Time"),
    ":source": Iri(VN_ROLE_NS + "Source"),
    ":destination": Iri(VN_ROLE_NS + "Destination"),
    ":instrument": Iri(VN_ROLE_NS + "Instrument"),
    ":beneficiary": Iri(VN_ROLE_NS + "Beneficiary"),
    ":cause": Iri(VN_ROLE_NS + "Cause"),
    ":experiencer": Iri(VN_ROLE_NS + "Experiencer"),
}


class TranslateError(Exception):
    """Base class for translation errors."""


class InvalidAmrError(TranslateError):
    """The AMR graph violates a translation precondition."""


def _typed(value, kind: type, what: str):
    """``value`` if it is a ``kind``; a map of the wrong shape is a ValueError."""
    if isinstance(value, kind):
        return value
    name = {dict: "object", list: "array", str: "string"}[kind]
    raise ValueError(f"{what} must be a JSON {name}, found {value!r:.60}")


def _json_object(path: Union[str, Path]) -> dict:
    return _typed(json.loads(Path(path).read_text(encoding="utf-8")), dict, "the map")


class RolesetMap(Record):
    """Frame id -> ARG index -> local role name (lowercase token)."""

    __slots__ = _fields = ("frames",)

    def __init__(self, frames: Optional[dict[str, dict[int, str]]] = None):
        self.frames = {} if frames is None else frames

    @staticmethod
    def from_json(path: Union[str, Path]) -> "RolesetMap":
        frames = {}
        for frame, roles in _json_object(path).items():
            frames[frame] = {int(idx): _typed(role, str, f"role {idx} of {frame!r}")
                             for idx, role in _typed(roles, dict, f"roles of {frame!r}").items()}
            for role in frames[frame].values():
                Iri(PBLR_NS + f"{frame}.{role}")  # ValueError for a role no IRI can hold
        return RolesetMap(frames)

    def role(self, frame: str, index: int) -> Optional[str]:
        return self.frames.get(frame, {}).get(index)


class AlignmentEntry(NamedTuple):
    synset: Optional[Iri] = None
    supersenses: tuple[Iri, ...] = ()
    dolce: tuple[Iri, ...] = ()


def _alignment_lookup_key(key: str) -> str:
    # Lemmas may carry hyphens while class local names use underscores;
    # fold both so "gold-medal" finds fred:Gold_medal.
    return key.lower().replace("-", "_")


class AlignmentMap(Record):
    """Lemma or frame id -> WordNet synset, supersenses, and DOLCE types."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Optional[dict[str, AlignmentEntry]] = None):
        self.entries = {_alignment_lookup_key(k): v for k, v in (entries or {}).items()}

    @staticmethod
    def from_json(path: Union[str, Path]) -> "AlignmentMap":
        prefixes = standard_prefixes()

        def iri(curie, key: str) -> Iri:
            curie = _typed(curie, str, f"an IRI of alignment {key!r}")
            return prefixes.expand(curie) if "://" not in curie else Iri(curie)

        entries = {}
        for key, spec in _json_object(path).items():
            spec = _typed(spec, dict, f"alignment {key!r}")
            supersenses, dolce = (_typed(spec.get(name, []), list, f"{name} of {key!r}")
                                  for name in ("supersenses", "dolce"))
            entries[key] = AlignmentEntry(
                synset=iri(spec["synset"], key) if spec.get("synset") else None,
                supersenses=tuple(iri(c, key) for c in supersenses),
                dolce=tuple(iri(c, key) for c in dolce),
            )
        return AlignmentMap(entries)

    def get(self, key: str) -> Optional[AlignmentEntry]:
        return self.entries.get(_alignment_lookup_key(key))


class LinkTable(Record):
    """Surface mention -> external entity IRI. Matching is case-insensitive."""

    __slots__ = _fields = ("mentions",)

    def __init__(self, mentions: Optional[dict[str, Iri]] = None):
        self.mentions = {} if mentions is None else mentions

    @staticmethod
    def from_json(path: Union[str, Path]) -> "LinkTable":
        prefixes = standard_prefixes()
        mentions = {}
        for mention, target in _json_object(path).items():
            if not mention.strip():
                raise ValueError("empty mention in link table")
            target = _typed(target, str, f"link target of {mention!r}")
            iri = prefixes.expand(target) if "://" not in target else Iri(target)
            mentions[mention.strip().lower()] = iri
        return LinkTable(mentions)

    def items(self) -> Iterable[tuple[str, Iri]]:
        return self.mentions.items()


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
    if _NUMBER.fullmatch(constant.value):  # the Turtle writer's rule: ASCII digits only
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
    triples: set[Triple] = set()
    add = triples.add
    unmapped: set[tuple[str, int]] = set()

    # Concept -> [its individuals' IRI prefix, its class, individuals so far].
    # A concept is checked once: the IRIs built from it add only '_' and digits.
    kinds: dict[str, list] = {}
    for node in amr.nodes:  # declaration order is depth-first from the root
        variable, concept = node
        if variable in name_nodes:
            continue
        kind = kinds.get(concept)
        if kind is None:
            if _IRI_FORBIDDEN.search(concept):  # such as '<' or '"'
                raise InvalidAmrError(f"concept {concept!r} cannot be part of an IRI")
            match = FRAME_CONCEPT.match(concept)
            if match:
                kind = [FRED_NS + _local_token(match["lemma"]) + "_", PBRS_NS + concept, 0]
            else:
                kind = [FRED_NS + _local_token(concept) + "_", FRED_NS + _class_name(concept), 0]
            kind[1] = _new(Iri, (0, kind[1]))
            kinds[concept] = kind
        kind[2] += 1
        individual = individuals[variable] = _new(Iri, (0, kind[0] + str(kind[2])))
        add(_new(Triple, (individual, RDF_TYPE, kind[1])))

    def role_predicate(concept: str, role: str) -> Iri:
        arg = _ARG_ROLE.match(role)
        if arg and FRAME_CONCEPT.match(concept):
            index = int(arg.group(1))
            name = rolesets.role(concept, index)
            if name is None:
                if (concept, index) not in unmapped:  # warn once per call
                    unmapped.add((concept, index))
                    logger.warning("no roleset entry for %s ARG%d, using positional role", concept, index)
                name = f"arg{index}"
            return Iri(PBLR_NS + f"{concept}.{name}")
        lowered = role.lower()
        if lowered in VN_ROLE_PREDICATES:
            return VN_ROLE_PREDICATES[lowered]
        if lowered == ":mod":
            return DUL_HAS_QUALITY
        return DUL_ASSOCIATED_WITH

    predicates: dict[tuple[str, str], Iri] = {}  # by (source concept, role)
    for source_var, role, target_var in amr.edges:
        if source_var not in individuals and source_var not in name_nodes:
            raise InvalidAmrError(f"edge source {source_var!r} is not a node of the graph")
        if (isinstance(target_var, str)
                and target_var not in individuals and target_var not in name_nodes):
            raise InvalidAmrError(f"edge target {target_var!r} is not a node of the graph")
        source = individuals.get(source_var)
        if source is None:  # edge hanging off an absorbed name node
            continue
        if role == ":name" and isinstance(target_var, str) and target_var in name_nodes:
            add(_new(Triple, (source, RDFS_LABEL, Literal(_name_label(outgoing[target_var])))))
            continue
        if isinstance(target_var, AmrConstant):
            obj = _constant_literal(target_var)
        else:
            obj = individuals.get(target_var)
            if obj is None:  # into a name node, which becomes a label, not an individual
                logger.warning("edge %s %s into name node %s has no object, dropped",
                               source_var, role, target_var)
                continue
        key = (concepts[source_var], role)
        predicate = predicates.get(key)
        if predicate is None:
            predicate = predicates[key] = role_predicate(*key)
        add(_new(Triple, (source, predicate, obj)))

    return RdfGraph(frozenset(triples), standard_prefixes())


def _typed_classes(graph: RdfGraph) -> dict[Iri, list[Iri]]:
    """Class IRI -> individuals typed by it (fred and pbrs classes only)."""
    out: dict[Iri, list[Iri]] = {}
    for s, _, o in graph.by_predicate.get(RDF_TYPE, ()):
        if isinstance(o, Iri) and isinstance(s, Iri) and o.value.startswith((FRED_NS, PBRS_NS)):
            out.setdefault(o, []).append(s)
    return out


def align(graph: RdfGraph, alignments: AlignmentMap) -> RdfGraph:
    """Attach WordNet and DOLCE axioms to classes found in the graph.

    Adds ``owl:equivalentClass`` to the synset and ``rdfs:subClassOf`` to each
    supersense and DOLCE type of every mapped class; unmapped lemmas are
    skipped. Original triples are always preserved.
    """
    added: set[Triple] = set()
    for klass in _typed_classes(graph):
        entry = alignments.get(klass.local_name())
        if entry is None:
            continue
        if entry.synset is not None:
            added.add(Triple(klass, OWL_EQUIVALENT_CLASS, entry.synset))
        for supersense in entry.supersenses:
            added.add(Triple(klass, RDFS_SUBCLASSOF, supersense))
        for dolce in entry.dolce:
            added.add(Triple(klass, RDFS_SUBCLASSOF, dolce))
    return graph.with_triples(added)


def individual_match_keys(graph: RdfGraph) -> dict[str, list[Iri]]:
    """Match key (casefolded, underscores folded to spaces) -> individuals."""
    keys: dict[str, set[Iri]] = {}

    def note(key: str, individual: Iri) -> None:
        folded = key.replace("_", " ").strip().lower()
        if folded:
            keys.setdefault(folded, set()).add(individual)

    for klass, members in _typed_classes(graph).items():
        for ind in members:
            note(_INDEX_SUFFIX.sub("", ind.local_name()), ind)
    for s, _, o in graph.by_predicate.get(RDFS_LABEL, ()):
        if isinstance(o, Literal) and isinstance(s, Iri):
            note(o.lexical, s)
    return {k: sorted(v) for k, v in keys.items()}


def link_entities(graph: RdfGraph, links: LinkTable) -> RdfGraph:
    """Add ``owl:sameAs`` links for individuals matching a mention.

    A mention matching several individuals is skipped with a logged warning.
    """
    keys = individual_match_keys(graph)
    added: set[Triple] = set()
    for mention, target in sorted(links.items()):
        folded = mention.replace("_", " ").strip().lower()
        candidates = keys.get(folded, [])
        if not candidates:
            continue
        if len(candidates) > 1:
            logger.warning("ambiguous mention %r matches %d individuals; link skipped",
                           mention, len(candidates))
            continue
        added.add(Triple(candidates[0], OWL_SAME_AS, target))
    return graph.with_triples(added)
