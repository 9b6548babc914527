"""Extended knowledge graphs from AMR.

A deterministic pipeline: PENMAN-notation AMR graphs are translated into an
RDF base graph with frame, role, and taxonomy alignments; eleven
knowledge-enrichment heuristics prompt a completion backend for additional
triples anchored to the base; validation checks anchoring, pitfalls,
class-disjointness consistency, and event-order inference; and agreement
statistics summarize human ratings of the generated triples.
"""

from .amr import AmrEdge, AmrGraph, AmrNode, parse_penman
from .enrichment import (
    HEURISTICS,
    EnrichmentResult,
    HeuristicSpec,
    assemble_prompt,
    extract_turtle,
    read_system_template,
    run_all,
    run_heuristic,
)
from .pipeline import PipelineResult, run_pipeline
from .rdf import (
    BlankNode,
    Iri,
    Literal,
    PrefixTable,
    RdfGraph,
    Triple,
    merge,
    parse_turtle,
    serialize_extensions,
    serialize_turtle,
)
from .translate import AlignmentMap, LinkTable, RolesetMap, align, link_entities, translate
from .validation import (
    Diagnostic,
    GraphProfile,
    MiniOntology,
    check_anchoring,
    check_consistency,
    infer_precedence,
    lint,
    profile,
)

__version__ = "0.1.0"

__all__ = [
    "AmrEdge", "AmrGraph", "AmrNode", "parse_penman",
    "HEURISTICS", "EnrichmentResult", "HeuristicSpec", "assemble_prompt",
    "extract_turtle", "read_system_template", "run_all", "run_heuristic",
    "BlankNode", "Iri", "Literal", "PrefixTable", "RdfGraph", "Triple",
    "merge", "parse_turtle", "serialize_extensions", "serialize_turtle",
    "PipelineResult", "run_pipeline",
    "AlignmentMap", "LinkTable", "RolesetMap", "align", "link_entities", "translate",
    "Diagnostic", "GraphProfile", "MiniOntology", "check_anchoring",
    "check_consistency", "infer_precedence", "lint", "profile",
    "__version__",
]
