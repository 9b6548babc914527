"""Orchestration of the 11 knowledge-enrichment heuristics.

``run_all`` makes every check that needs no model (a non-empty base; each
template readable and holding ``{{graph}}``) before its first request. Each
heuristic's prompt embeds the base's Turtle text, serialized once;
``run_heuristic`` sends it to a completion backend, which sets the model,
token budget and temperature of the call, extracts the Turtle from the
response, and validates the additions: anchoring to base nodes and the
pitfall lints. A response is read against the base's ``terms_by_text``, so
only the terms it introduces are resolved. A result is its additions, one
graph under their prefix table, and diagnostics, with no copy of the base.
``run_all`` alone decides each result's fate and merges the base and the
kept additions into one graph, quarantining any result that carries an
ERROR diagnostic unless ``force_merge`` is set, and any whose prefixes clash
with an earlier merged one's (PREFIX_CONFLICT) even then.

With ``max_concurrent`` above 1, ``run_all`` starts every heuristic at once,
each on its own thread, and leaves it to the backend to bound its requests
in flight (``HttpBackend`` holds a slot for each HTTP attempt alone), so a
heuristic in retry back-off or parsing its response keeps no other waiting.

Templates are data, not code: plain text files with a ``{{graph}}``
placeholder, shipped under the package resources and freely editable.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from . import validation
from .backends import Backend, BackendError
from .rdf import (
    BlankNode,
    Iri,
    PrefixConflictError,
    PrefixTable,
    RdfGraph,
    RdfError,
    Triple,
    parse_turtle,
    serialize_turtle,
)
from .validation import Diagnostic, check_anchoring, has_errors, lint

logger = logging.getLogger(__name__)

GRAPH_PLACEHOLDER = "{{graph}}"
SYSTEM_TEMPLATE = "system.txt"

XKG_NS_BASE = "https://w3id.org/xkg/"


class EnrichmentError(Exception):
    """Base class for enrichment failures."""


class MissingTemplateError(EnrichmentError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"prompt template not found: {name}")


class MissingPlaceholderError(EnrichmentError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"template {name} has no {GRAPH_PLACEHOLDER} placeholder")


class NoTurtleFoundError(EnrichmentError):
    def __init__(self) -> None:
        super().__init__("no Turtle content found in the response")


class HeuristicSpec(NamedTuple):
    """One enrichment heuristic: its name, namespace for new terms, template."""

    name: str
    prefix: str
    namespace: str
    prompt_template: str


HEURISTICS: tuple[HeuristicSpec, ...] = (
    HeuristicSpec("Presuppositions", "presup", XKG_NS_BASE + "presupposition#",
                  "presuppositions.txt"),
    HeuristicSpec("ConversationalImplicatures", "implic", XKG_NS_BASE + "implicature#",
                  "conversational-implicatures.txt"),
    HeuristicSpec("FactualImpact", "impact", XKG_NS_BASE + "impact#",
                  "factual-impact.txt"),
    HeuristicSpec("ImageSchemas", "imgschema", XKG_NS_BASE + "image-schema#",
                  "image-schemas.txt"),
    HeuristicSpec("MetonymicCoercion", "meton", XKG_NS_BASE + "metonymy#",
                  "metonymic-coercion.txt"),
    HeuristicSpec("MoralValueCoercion", "moral", XKG_NS_BASE + "moral-value#",
                  "moral-value-coercion.txt"),
    HeuristicSpec("SymbolicCoercion", "symbol", XKG_NS_BASE + "symbolism#",
                  "symbolic-coercion.txt"),
    HeuristicSpec("EventSequences", "seq", XKG_NS_BASE + "event-sequence#",
                  "event-sequences.txt"),
    HeuristicSpec("CausalRelations", "cause", XKG_NS_BASE + "causality#",
                  "causal-relations.txt"),
    HeuristicSpec("ImpliedFutureEvents", "future", XKG_NS_BASE + "future-event#",
                  "implied-future-events.txt"),
    HeuristicSpec("PotentialNonEvents", "nonevent", XKG_NS_BASE + "non-event#",
                  "potential-non-events.txt"),
)

HEURISTIC_BY_NAME = {spec.name: spec for spec in HEURISTICS}


class PromptRequest(NamedTuple):
    """One completion request; ``tag``, the heuristic name, keys mock backends.
    The backend's config sets the model, token budget and temperature."""

    system_text: str
    user_text: str
    tag: Optional[str] = None


class EnrichmentResult(NamedTuple):
    """One heuristic's outcome: ``additions``, the graph of what it adds to the
    base (no base triple) under its prefix table, which iterates sorted in one
    pass; ``diagnostics``, a tuple, so that no result changes once
    ``run_all`` returns it; ``quarantined``, which only ``run_all`` sets,
    keeps it out of the merge."""

    heuristic: str
    additions: RdfGraph
    diagnostics: tuple[Diagnostic, ...]
    raw_response: str
    quarantined: bool = False

    @property
    def added(self) -> frozenset[Triple]:
        """The triples of ``additions``."""
        return self.additions.triples

    @property
    def failed(self) -> bool:
        return has_errors(self.diagnostics)


def _read_template(prompts_dir: Union[str, Path], name: str) -> str:
    """The text of template ``name``. Raises MissingTemplateError, or
    EnrichmentError for a template that cannot be read as UTF-8."""
    path = Path(prompts_dir) / name
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise MissingTemplateError(name) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise EnrichmentError(f"cannot read prompt template {path}: {exc}")


def assemble_prompt(base_turtle: str, system_template: str, spec: HeuristicSpec,
                    template: str) -> PromptRequest:
    """Substitute the base graph's Turtle text into the heuristic's template.

    ``base_turtle`` is ``serialize_turtle(base)``; ``system_template`` and
    ``template``, the texts of the shared and the heuristic's template, are
    read, and the latter checked for ``{{graph}}``, by ``run_all``. Reads no
    file. Deterministic: the same texts give a byte-identical request.
    """
    system_text = system_template.replace("{{namespace}}", spec.namespace)
    system_text = system_text.replace("{{prefix}}", spec.prefix)
    user_text = template.replace(GRAPH_PLACEHOLDER, base_turtle)
    return PromptRequest(system_text, user_text, spec.name)


_FENCE = re.compile(r"```(?:turtle|ttl)?\s*\n(.*?)```", re.DOTALL)
#: A line that plausibly starts or continues a Turtle statement.
_TURTLEISH = re.compile(
    r"^\s*(@prefix\b|#|<[^>]*>|_:\w|\[|[A-Za-z][\w.\-]*:|:\S|\.\s*$)")


def _strip_prose(text: str) -> str:
    """One repair pass: drop lines that do not look like Turtle."""
    kept = []
    for line in text.splitlines():
        if not line.strip():
            kept.append(line)
            continue
        if _TURTLEISH.match(line) and not line.rstrip().endswith(":"):
            kept.append(line)
    return "\n".join(kept)


def extract_turtle(response: str, base_prefixes: PrefixTable,
                   terms: Mapping[str, Union[Iri, BlankNode]] = {}) -> RdfGraph:
    """Parse the Turtle content of a model response.

    Fenced blocks win over bare text; one repair pass strips prose lines from
    unparseable input; prefixes used without declaration are bound under a
    placeholder namespace that lint reports as UNDECLARED_PREFIX; ``terms``
    is ``parse_turtle``'s. Raises
    NoTurtleFoundError when nothing statement-like remains, or RdfError when
    candidate Turtle still fails to parse after the repair pass.
    """
    fenced = _FENCE.findall(response)
    candidate = "\n".join(fenced) if fenced else response
    for repaired in (False, True):
        if not any(line.strip() and not line.lstrip().startswith("#")
                   for line in candidate.splitlines()):
            raise NoTurtleFoundError()
        try:
            return parse_turtle(candidate, base_prefixes, bind_undeclared=True, terms=terms)
        except RdfError:
            if repaired:
                raise
            candidate = _strip_prose(candidate)


def run_heuristic(base: RdfGraph, request: PromptRequest, prefixes: PrefixTable,
                  backend: Backend) -> EnrichmentResult:
    """Send one heuristic's request, then extract and validate the answer.

    ``request`` is ``assemble_prompt``'s, whose ``tag`` names the heuristic,
    and ``prefixes`` the base's table with the heuristic's own label bound,
    which the response is read under. The additions' table is the reader's
    without its aliases. Reads no file and leaves ``quarantined`` to
    ``run_all``. Failures never propagate: a backend or parse failure yields
    a result with no additions and a RESPONSE_INVALID error diagnostic.
    """
    response, unexpected = "", None
    try:
        response = backend.complete(request)
    except BackendError as exc:
        problem = f"backend failure: {exc}"
    except Exception as exc:  # any other fault fails this heuristic alone
        problem, unexpected = f"backend failure: {type(exc).__name__}: {exc}", exc
    else:
        try:
            extracted = extract_turtle(response, prefixes, base.terms_by_text)
        except (EnrichmentError, RdfError) as exc:
            problem = f"unusable response: {exc}"
        else:
            prefixes = extracted.prefixes.declared()  # extends ``prefixes``
            # Sorted from the response's order; the additions keep it as their hint.
            ordered = [t for t in extracted if t not in base.triples]
            additions = RdfGraph.from_list(ordered, prefixes)
            # Linted as a graph of its own, so the result keeps no lint index.
            diagnostics = (*check_anchoring(base, additions.triples),
                           *lint(RdfGraph(additions.triples, prefixes)))
            return EnrichmentResult(request.tag, additions, diagnostics, response)
    logger.warning("%s: %s", request.tag, problem, exc_info=unexpected)
    return EnrichmentResult(request.tag, RdfGraph(frozenset(), prefixes),
                            (Diagnostic(validation.ERROR, validation.RESPONSE_INVALID, problem),),
                            response)


def run_all(base: RdfGraph, backend: Backend,
            prompts_dir: Union[str, Path],
            heuristics: Optional[Sequence[HeuristicSpec]] = None,
            max_concurrent: int = 1,
            force_merge: bool = False) -> tuple[list[EnrichmentResult], RdfGraph]:
    """Run every heuristic and merge the additions onto the base.

    Before any request it reads the system template, checks that the base
    is not empty, and reads each heuristic's template and checks that it
    holds ``{{graph}}``, raising EnrichmentError (MissingTemplateError,
    MissingPlaceholderError) with nothing sent. A step builds its prompt as
    it sends it, so only prompts in flight are held. A heuristic whose label
    the base binds elsewhere is not run.

    With ``max_concurrent`` at most 1 the heuristics run one after another
    on the calling thread. Above 1, every heuristic starts at once on its
    own thread, and the backend bounds its requests in flight (see
    ``Backend``); a custom backend that waits must bound its own.
    Results come back in the order of ``heuristics`` (registry order by
    default) regardless of completion order, so output is deterministic even
    with concurrent backend calls. The merged graph is the base and the
    ``additions`` of the results not quarantined: a result carrying an ERROR
    diagnostic is quarantined unless ``force_merge``, one with
    PREFIX_CONFLICT always. Only this function sets ``quarantined``. The
    merged table is the one the clashes were checked against: the base's
    declared labels and the kept results', as ``rdf.merge`` gives it.
    """
    specs = list(heuristics) if heuristics is not None else list(HEURISTICS)
    system_template = _read_template(prompts_dir, SYSTEM_TEMPLATE)
    if not base.triples:
        raise EnrichmentError("base graph is empty")
    templates = []
    for spec in specs:
        template = _read_template(prompts_dir, spec.prompt_template)
        if GRAPH_PLACEHOLDER not in template:
            raise MissingPlaceholderError(spec.prompt_template)
        templates.append(template)
    base_turtle = serialize_turtle(base)
    base.terms_by_text  # built once, before the threads read it

    def run_one(spec: HeuristicSpec, template: str) -> EnrichmentResult:
        try:
            prefixes = base.prefixes.with_binding(spec.prefix, spec.namespace)
        except PrefixConflictError as exc:
            logger.warning("%s: not run: %s", spec.name, exc)
            return EnrichmentResult(spec.name, RdfGraph(frozenset(), base.prefixes),
                                    (Diagnostic(validation.ERROR, validation.PREFIX_CONFLICT,
                                                f"not run: {exc}"),), "", quarantined=True)
        request = assemble_prompt(base_turtle, system_template, spec, template)
        return run_heuristic(base, request, prefixes, backend)

    if max_concurrent > 1 and len(specs) > 1:
        with ThreadPoolExecutor(max_workers=len(specs)) as pool:
            outcomes = list(pool.map(run_one, specs, templates))
    else:
        outcomes = [run_one(spec, template) for spec, template in zip(specs, templates)]

    # In run order, so completion order cannot decide a clash.
    results, kept, table = [], [], base.prefixes.declared()
    for r in outcomes:
        if r.failed and not force_merge:
            r = r._replace(quarantined=True)
        if not r.quarantined:
            try:
                table = table.merged(r.additions.prefixes)
            except PrefixConflictError as exc:
                r = r._replace(diagnostics=(*r.diagnostics, Diagnostic(
                    validation.ERROR, validation.PREFIX_CONFLICT, f"not merged: {exc}")),
                    quarantined=True)
            else:
                kept.append(r.additions.triples)
        results.append(r)
    return results, RdfGraph(base.triples.union(*kept), table)
