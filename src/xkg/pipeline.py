"""The whole chain for one scene, in memory.

``run_pipeline`` goes from a scene description and its PENMAN parse to the
base graph, the eleven heuristic results, the merged graph and its
validation report. It is built from the stage functions below, which the
``xkg`` subcommands also call one at a time, so the chain and the separate
stages produce the same graphs. Each setting has one owner, the
``PipelineConfig``: its backend config sets the model, token budget and
temperature of every request, and its ``force_merge`` the merge policy.
"""

from __future__ import annotations

from pathlib import Path
from stat import S_ISREG
from typing import NamedTuple, Optional, Sequence, Union

from . import validation
from .amr import parse_penman
from .backends import Backend, BackendError, HttpBackend
from .config import ConfigError, PipelineConfig, ResourcePaths
from .enrichment import EnrichmentResult, HeuristicSpec, run_all
from .rdf import RdfError, RdfGraph
from .translate import AlignmentMap, LinkTable, RolesetMap, align, link_entities, translate
from .validation import Diagnostic, GraphProfile, MiniOntology, PrecedenceInference


class ValidationReport(NamedTuple):
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


class PipelineResult(NamedTuple):
    description: str
    base: RdfGraph
    results: list[EnrichmentResult]
    merged: RdfGraph
    report: ValidationReport


#: The MIME type of each image format ``describe`` accepts, by the file's
#: lower-cased suffix.
IMAGE_TYPES = {".png": "image/png", ".jpg": "image/jpeg", ".jpeg": "image/jpeg",
               ".webp": "image/webp", ".gif": "image/gif"}

#: The largest image file ``describe`` accepts, in bytes (20 MiB). It reads
#: the whole file, and a backend sends it in one request.
MAX_IMAGE_BYTES = 20 * 1024 * 1024


def describe(source: Union[str, Path], backend: Backend) -> str:
    """The scene description: ``source`` itself when it is text, else the
    backend's description of the image file it names.

    The one reader of the image, for every backend: it checks the suffix,
    and refuses anything but a regular file (a directory, a FIFO, a device)
    and a file larger than ``MAX_IMAGE_BYTES`` before it opens it, then hands
    the bytes and their MIME type to ``backend.describe``. Raises
    BackendError, with nothing sent, for an image refused or unreadable; and
    for a description that UTF-8 cannot encode (a JSON body can decode to a
    lone surrogate), which could not be written.
    """
    if isinstance(source, str):
        return source
    mime = IMAGE_TYPES.get(source.suffix.lower())
    if mime is None:
        raise BackendError(f"unsupported image format {source.suffix!r}")
    try:
        status = source.stat()
        if not S_ISREG(status.st_mode):
            raise BackendError(f"cannot read image {source}: not a regular file")
        if status.st_size > MAX_IMAGE_BYTES:
            raise BackendError(f"image {source} is {status.st_size} bytes, more than "
                               f"MAX_IMAGE_BYTES ({MAX_IMAGE_BYTES})")
        image = source.read_bytes()
    except OSError as exc:
        raise BackendError(f"cannot read image {source}: {exc}")
    description = backend.describe(image, mime)
    try:
        description.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise BackendError(f"description holds a lone surrogate "
                           f"U+{ord(description[exc.start]):04X} at offset {exc.start}")
    return description


def _load_resource(load, path: Path):
    """``load(path)``; a resource file that cannot be read or that the loader
    rejects (ValueError, RdfError) raises ConfigError naming the file."""
    try:
        return load(path)
    except (OSError, ValueError, RdfError) as exc:
        raise ConfigError(f"resource file {path}: {exc}")


def build_base(penman: str, resources: ResourcePaths) -> RdfGraph:
    """Translate, align and link the one AMR graph of a PENMAN document.

    Raises AmrError unless the document holds exactly one graph: separate
    graphs reuse variable-derived IRIs such as ``fred:x_1``, so translating
    several into one base graph would merge unrelated individuals.
    """
    graph = translate(parse_penman(penman),
                      _load_resource(RolesetMap.from_json, resources.rolesets))
    graph = align(graph, _load_resource(AlignmentMap.from_json, resources.alignments))
    return link_entities(graph, _load_resource(LinkTable.from_json, resources.links))


def enrich(base: RdfGraph, backend: Backend, config: PipelineConfig,
           heuristics: Optional[Sequence[HeuristicSpec]]
           ) -> tuple[list[EnrichmentResult], RdfGraph]:
    """Run the heuristics (all of them for None) and merge them under
    ``config.force_merge``.

    A live ``HttpBackend`` runs every heuristic at once and keeps at most
    ``config.backend.max_concurrent`` requests in flight; back-off and
    response parsing hold no slot. Any other backend runs them one after
    another.
    """
    # Only a live backend waits on the network; a mock answers at once, so
    # threads would add cost and nothing else.
    live = isinstance(backend, HttpBackend)
    return run_all(
        base, backend, config.require_resources().prompts_dir,
        heuristics=heuristics,
        max_concurrent=config.backend.max_concurrent if live else 1,
        force_merge=config.force_merge,
    )


def validate(graph: RdfGraph, base: Optional[RdfGraph],
             resources: ResourcePaths) -> ValidationReport:
    """Lints, consistency against the mini ontology, precedence and profile;
    with ``base`` the profile describes the additions."""
    diagnostics = validation.lint(graph)
    onto = _load_resource(MiniOntology.from_turtle_file, resources.mini_ontology)
    diagnostics.extend(validation.check_consistency(graph, onto))
    precedence = validation.infer_precedence(graph)
    diagnostics.extend(precedence.diagnostics)
    return ValidationReport(diagnostics, validation.profile(graph, base), precedence)


def run_pipeline(source: Union[str, Path], penman: str, config: PipelineConfig,
                 backend: Backend) -> PipelineResult:
    """Build the base graph, describe, enrich the base with every heuristic
    and validate the merged graph against the base.

    ``source`` is the description text, or the Path of an image for the
    backend to describe. The base needs no model, so it is built first: a
    PENMAN document it rejects ends the run before any request is sent.
    ``config.force_merge`` is the merge policy; the ``xkg`` command sets it
    for ``--force-merge``.
    """
    resources = config.require_resources()
    base = build_base(penman, resources)
    description = describe(source, backend)
    results, merged = enrich(base, backend, config, None)
    return PipelineResult(description, base, results, merged,
                          validate(merged, base, resources))
