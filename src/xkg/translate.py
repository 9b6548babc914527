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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

from .amr import FRAME_CONCEPT, AmrConstant, AmrGraph
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
    Iri,
    Literal,
    RdfGraph,
    Term,
    Triple,
    standard_prefixes,
)

logger = logging.getLogger(__name__)

_ARG_ROLE = re.compile(r"^:ARG(\d+)$", re.IGNORECASE)
_OP_ROLE = re.compile(r"^:op(\d+)$", re.IGNORECASE)
_INDEX_SUFFIX = re.compile(r"_\d+$")
_NUMBER = re.compile(r"^[+-]?\d+(\.\d+)?$")

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


@dataclass
class RolesetMap:
    """Frame id -> ARG index -> local role name (lowercase token)."""

    frames: dict[str, dict[int, str]] = field(default_factory=dict)

    @staticmethod
    def from_json(path: Union[str, Path]) -> "RolesetMap":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        frames = {
            frame: {int(idx): str(role) for idx, role in roles.items()}
            for frame, roles in raw.items()
        }
        return RolesetMap(frames)

    def role(self, frame: str, index: int) -> Optional[str]:
        return self.frames.get(frame, {}).get(index)


@dataclass
class AlignmentEntry:
    synset: Optional[Iri] = None
    supersenses: tuple[Iri, ...] = ()
    dolce: tuple[Iri, ...] = ()


def _alignment_lookup_key(key: str) -> str:
    # Lemmas may carry hyphens while class local names use underscores;
    # fold both so "gold-medal" finds fred:Gold_medal.
    return key.lower().replace("-", "_")


@dataclass
class AlignmentMap:
    """Lemma or frame id -> WordNet synset, supersenses, and DOLCE types."""

    entries: dict[str, AlignmentEntry] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.entries = {_alignment_lookup_key(k): v for k, v in self.entries.items()}

    @staticmethod
    def from_json(path: Union[str, Path]) -> "AlignmentMap":
        prefixes = standard_prefixes()

        def iri(curie: str) -> Iri:
            return prefixes.expand(curie) if "://" not in curie else Iri(curie)

        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        entries = {}
        for key, spec in raw.items():
            entries[key] = AlignmentEntry(
                synset=iri(spec["synset"]) if spec.get("synset") else None,
                supersenses=tuple(iri(s) for s in spec.get("supersenses", ())),
                dolce=tuple(iri(s) for s in spec.get("dolce", ())),
            )
        return AlignmentMap(entries)

    def get(self, key: str) -> Optional[AlignmentEntry]:
        return self.entries.get(_alignment_lookup_key(key))


@dataclass
class LinkTable:
    """Surface mention -> external entity IRI. Matching is case-insensitive."""

    mentions: dict[str, Iri] = field(default_factory=dict)

    @staticmethod
    def from_json(path: Union[str, Path]) -> "LinkTable":
        prefixes = standard_prefixes()
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        mentions = {}
        for mention, target in raw.items():
            if not mention.strip():
                raise ValueError("empty mention in link table")
            iri = prefixes.expand(target) if "://" not in target else Iri(target)
            mentions[mention.strip().lower()] = iri
        return LinkTable(mentions)

    def items(self) -> Iterable[tuple[str, Iri]]:
        return self.mentions.items()


@dataclass(frozen=True)
class AmbiguousMention:
    """One mention matched several individuals; the link was skipped."""

    mention: str
    candidates: tuple[Iri, ...]


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
    if _NUMBER.match(constant.value):
        dt = XSD_DECIMAL if "." in constant.value else XSD_INTEGER
        return Literal(constant.value, dt)
    return Literal(constant.value)


def _is_name_cluster(graph: AmrGraph, variable: str) -> bool:
    if graph.concept(variable) != "name":
        return False
    out = graph.outgoing(variable)
    return bool(out) and all(
        _OP_ROLE.match(e.role) and isinstance(e.target, AmrConstant) for e in out
    )


def _name_label(graph: AmrGraph, variable: str) -> str:
    parts = sorted(
        ((int(_OP_ROLE.match(e.role).group(1)), e.target.value) for e in graph.outgoing(variable)),
    )
    return " ".join(value for _, value in parts)


def translate(amr: AmrGraph, rolesets: Optional[RolesetMap] = None,
              vn_roles: Optional[dict[str, Iri]] = None) -> RdfGraph:
    """Translate an AMR graph into its RDF base form.

    Deterministic: identical inputs serialize identically. Unknown frames are
    logged and fall back to positional ``pblr:F.argN`` predicates.
    """
    if not amr.nodes:
        raise InvalidAmrError("empty AMR graph")
    rolesets = rolesets or RolesetMap()
    vn_roles = VN_ROLE_PREDICATES if vn_roles is None else vn_roles

    name_nodes = {n.variable for n in amr.nodes
                  if _is_name_cluster(amr, n.variable)
                  and any(e.role == ":name" and e.target == n.variable for e in amr.edges)}

    individuals: dict[str, Iri] = {}
    counters: dict[str, int] = {}
    triples: set[Triple] = set()

    for node in amr.nodes:  # declaration order is depth-first from the root
        if node.variable in name_nodes:
            continue
        counters[node.concept] = counters.get(node.concept, 0) + 1
        k = counters[node.concept]
        match = FRAME_CONCEPT.match(node.concept)
        if match:
            individual = Iri(FRED_NS + f"{_local_token(match.group('lemma'))}_{k}")
            klass = Iri(PBRS_NS + node.concept)
        else:
            individual = Iri(FRED_NS + f"{_local_token(node.concept)}_{k}")
            klass = Iri(FRED_NS + _class_name(node.concept))
        individuals[node.variable] = individual
        triples.add(Triple(individual, RDF_TYPE, klass))

    def role_predicate(source_var: str, role: str) -> Iri:
        concept = amr.concept(source_var)
        arg = _ARG_ROLE.match(role)
        if arg and FRAME_CONCEPT.match(concept):
            index = int(arg.group(1))
            name = rolesets.role(concept, index)
            if name is None:
                logger.warning("no roleset entry for %s ARG%d, using positional role", concept, index)
                name = f"arg{index}"
            return Iri(PBLR_NS + f"{concept}.{name}")
        lowered = role.lower()
        if lowered in vn_roles:
            return vn_roles[lowered]
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
            triples.add(Triple(source, RDFS_LABEL, Literal(_name_label(amr, edge.target))))
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


def _typed_classes(graph: RdfGraph) -> dict[Iri, list[Iri]]:
    """Class IRI -> individuals typed by it (fred and pbrs classes only)."""
    out: dict[Iri, list[Iri]] = {}
    for t in graph.triples:
        if t.predicate == RDF_TYPE and isinstance(t.object, Iri) and isinstance(t.subject, Iri):
            if t.object.value.startswith((FRED_NS, PBRS_NS)):
                out.setdefault(t.object, []).append(t.subject)
    return out


def _alignment_key(klass: Iri) -> str:
    return klass.local_name().lower()


def align(graph: RdfGraph, alignments: AlignmentMap) -> RdfGraph:
    """Attach WordNet and DOLCE axioms to classes found in the graph.

    Adds ``owl:equivalentClass`` to the synset and ``rdfs:subClassOf`` to each
    supersense and DOLCE type of every mapped class; unmapped lemmas are
    skipped. Original triples are always preserved.
    """
    added: set[Triple] = set()
    for klass in _typed_classes(graph):
        entry = alignments.get(_alignment_key(klass))
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
    for t in graph.triples:
        if t.predicate == RDFS_LABEL and isinstance(t.object, Literal) and isinstance(t.subject, Iri):
            note(t.object.lexical, t.subject)
    return {k: sorted(v, key=lambda i: i.value) for k, v in keys.items()}


def link_entities(graph: RdfGraph, links: LinkTable,
                  diagnostics: Optional[list] = None) -> RdfGraph:
    """Add ``owl:sameAs`` links for individuals matching a mention.

    A mention matching several individuals is reported as AmbiguousMention in
    ``diagnostics`` (when given) and skipped.
    """
    keys = individual_match_keys(graph)
    added: set[Triple] = set()
    for mention, target in sorted(links.items()):
        folded = mention.replace("_", " ").strip().lower()
        candidates = keys.get(folded, [])
        if not candidates:
            continue
        if len(candidates) > 1:
            report = AmbiguousMention(mention, tuple(candidates))
            if diagnostics is not None:
                diagnostics.append(report)
            logger.warning("ambiguous mention %r matches %d individuals; link skipped",
                           mention, len(candidates))
            continue
        added.add(Triple(candidates[0], OWL_SAME_AS, target))
    return graph.with_triples(added)
