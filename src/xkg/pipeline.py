"""The whole chain for one scene, in memory.

``run_pipeline`` goes from a scene description and its PENMAN parse to the
base graph, the eleven heuristic results, the merged graph and its
validation report. It is built from the stage functions below, which the
``xkg`` subcommands also call one at a time, so the chain and the separate
stages produce the same graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

from . import validation
from .amr import AmrError, parse_penman_file
from .backends import (
    SUPPORTED_IMAGE_SUFFIXES,
    Backend,
    HttpBackend,
    UnsupportedImageFormatError,
)
from .config import PipelineConfig, ResourcePaths
from .enrichment import EnrichmentResult, HeuristicSpec, run_all
from .rdf import RdfGraph
from .translate import AlignmentMap, LinkTable, RolesetMap, align, link_entities, translate
from .validation import Diagnostic, GraphProfile, MiniOntology, PrecedenceInference


@dataclass(frozen=True)
class ValidationReport:
    diagnostics: list[Diagnostic]
    profile: GraphProfile
    precedence: PrecedenceInference

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == validation.ERROR]

    def to_dict(self) -> dict:
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "profile": self.profile.to_dict(),
            "precedence": {
                "asserted": [[a.value, b.value] for a, b in self.precedence.asserted],
                "inferred": [[a.value, b.value] for a, b in self.precedence.inferred],
            },
        }


@dataclass(frozen=True)
class PipelineResult:
    description: str
    base: RdfGraph
    results: list[EnrichmentResult]
    merged: RdfGraph
    report: ValidationReport


def describe(source: Union[str, Path], backend: Backend) -> str:
    """The scene description: ``source`` itself when it is text, else the
    backend's description of the image file it names."""
    if isinstance(source, str):
        return source
    if source.suffix.lower() not in SUPPORTED_IMAGE_SUFFIXES:
        raise UnsupportedImageFormatError(f"unsupported image format {source.suffix!r}")
    return backend.describe(source)


def build_base(penman: str, resources: ResourcePaths) -> RdfGraph:
    """Translate, align and link the one AMR graph of a PENMAN document.

    Raises AmrError unless the document holds exactly one graph: separate
    graphs reuse variable-derived IRIs such as ``fred:x_1``, so translating
    several into one base graph would merge unrelated individuals.
    """
    graphs = parse_penman_file(penman)
    if len(graphs) != 1:
        raise AmrError(f"expected one PENMAN graph, found {len(graphs)}")
    graph = translate(graphs[0], RolesetMap.from_json(resources.rolesets))
    graph = align(graph, AlignmentMap.from_json(resources.alignments))
    return link_entities(graph, LinkTable.from_json(resources.links))


def enrich(base: RdfGraph, backend: Backend, config: PipelineConfig,
           heuristics: Optional[Sequence[HeuristicSpec]],
           force_merge: bool) -> tuple[list[EnrichmentResult], RdfGraph]:
    """Run the heuristics (all of them for None) with the configured budget."""
    # Only a live backend waits on the network; a mock answers at once, so
    # threads would add cost and nothing else.
    live = isinstance(backend, HttpBackend)
    return run_all(
        base, backend, config.require_resources().prompts_dir,
        heuristics=heuristics,
        max_tokens=config.backend.max_tokens,
        temperature=config.backend.temperature,
        max_concurrent=config.backend.max_concurrent if live else 1,
        force_merge=force_merge,
    )


def validate(graph: RdfGraph, base: Optional[RdfGraph],
             resources: ResourcePaths) -> ValidationReport:
    """Lints, consistency against the mini ontology, precedence and profile;
    with ``base`` the profile describes the additions."""
    diagnostics = validation.lint(graph)
    onto = MiniOntology.from_turtle_file(resources.mini_ontology)
    diagnostics.extend(validation.check_consistency(graph, onto))
    precedence = validation.infer_precedence(graph)
    diagnostics.extend(precedence.diagnostics)
    return ValidationReport(diagnostics, validation.profile(graph, base), precedence)


def run_pipeline(source: Union[str, Path], penman: str, config: PipelineConfig,
                 backend: Backend, force_merge: bool) -> PipelineResult:
    """Describe, build the base graph, enrich it with every heuristic and
    validate the merged graph against the base.

    ``source`` is the description text, or the Path of an image for the
    backend to describe. ``force_merge`` is the merge policy of this run;
    the ``xkg`` command passes its flag or ``config.force_merge``.
    """
    resources = config.require_resources()
    description = describe(source, backend)
    base = build_base(penman, resources)
    results, merged = enrich(base, backend, config, None, force_merge)
    return PipelineResult(description, base, results, merged,
                          validate(merged, base, resources))
