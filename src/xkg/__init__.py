"""Extended knowledge graphs from AMR.

A deterministic pipeline: PENMAN-notation AMR graphs are translated into an
RDF base graph with frame, role, and taxonomy alignments; eleven
knowledge-enrichment heuristics prompt a completion backend for additional
triples anchored to the base; validation checks anchoring, pitfalls,
class-disjointness consistency, and event-order inference; and agreement
statistics summarize human ratings of the generated triples.

Each export is read from its module when it is used (PEP 562), so
``import xkg.rdf`` loads only ``rdf`` and ``records``. A submodule is an
attribute of the package too: ``xkg.translate`` is the module, whose
function is ``xkg.translate.translate``.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each module and the names the package exports from it.
_EXPORTS = {
    "amr": ("AmrEdge", "AmrGraph", "AmrNode", "parse_penman"),
    "enrichment": ("HEURISTICS", "EnrichmentResult", "HeuristicSpec", "assemble_prompt",
                   "extract_turtle", "run_all", "run_heuristic"),
    "rdf": ("BlankNode", "Iri", "Literal", "PrefixTable", "RdfGraph", "Triple", "merge",
            "parse_turtle", "serialize_extensions", "serialize_turtle"),
    "pipeline": ("PipelineResult", "run_pipeline"),
    "translate": ("AlignmentMap", "LinkTable", "RolesetMap", "align", "link_entities"),
    "validation": ("Diagnostic", "GraphProfile", "MiniOntology", "check_anchoring",
                   "check_consistency", "infer_precedence", "lint", "profile"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """An export, read from its module; else the submodule ``name``. An export
    is not kept here, so it is whatever its module holds now, also after a
    wrapper or patch installed there is removed."""
    module = _HOME.get(name)
    if module is not None:
        return getattr(import_module(f"{__name__}.{module}"), name)
    if not name.startswith("_"):
        try:
            return import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
