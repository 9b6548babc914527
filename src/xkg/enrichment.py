"""Orchestration of the 11 knowledge-enrichment heuristics.

Each heuristic turns the base graph into a prompt (the shared system
template, its own template and the graph's Turtle text; ``run_all`` reads
the system template and serializes the graph once), sends it to a
completion backend, which sets the model, token budget and temperature of
the call, extracts the Turtle from the response, and validates
the additions: anchoring to base nodes and the pitfall lints. A response is
read against the base's ``terms_by_text``, so only the terms it introduces
are resolved. The per-heuristic result is the additions, their prefix table
and diagnostics, with no copy of the base; ``run_all`` merges everything into
one graph, quarantining any heuristic whose result carries an ERROR
diagnostic unless ``force_merge`` is set. A result whose prefixes clash with
an earlier merged one's gets a PREFIX_CONFLICT error and stays out, even
with ``force_merge``.

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
    merge,
    parse_turtle,
    serialize_turtle,
)
from .records import Record
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


class EnrichmentResult(Record):
    """One heuristic's outcome: its additions to ``base`` and their prefix
    table; ``quarantined`` keeps it out of the merge."""

    __slots__ = _fields = ("heuristic", "base", "added", "prefixes", "diagnostics",
                           "raw_response", "quarantined")

    def __init__(self, heuristic: str, base: RdfGraph, added: frozenset[Triple],
                 prefixes: PrefixTable, diagnostics: list[Diagnostic], raw_response: str,
                 quarantined: bool = False):
        self.heuristic = heuristic
        self.base = base
        self.added = added
        self.prefixes = prefixes
        self.diagnostics = diagnostics
        self.raw_response = raw_response
        self.quarantined = quarantined

    @property
    def failed(self) -> bool:
        return has_errors(self.diagnostics)

    @property
    def xkg(self) -> RdfGraph:
        """The extended graph (base plus additions), built on each read."""
        return RdfGraph(self.base.triples | self.added, self.prefixes)


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


def read_system_template(prompts_dir: Union[str, Path]) -> str:
    """The system prompt template shared by every heuristic; raises as ``_read_template``."""
    return _read_template(prompts_dir, SYSTEM_TEMPLATE)


def assemble_prompt(base_turtle: str, system_template: str, spec: HeuristicSpec,
                    prompts_dir: Union[str, Path]) -> PromptRequest:
    """Substitute the base graph's Turtle text into the heuristic's template.

    ``base_turtle`` is ``serialize_turtle(base)`` and ``system_template`` is
    ``read_system_template(prompts_dir)``; ``run_all`` computes both once and
    passes them to every heuristic. Deterministic: the same texts and
    template produce a byte-identical request. Raises MissingTemplateError /
    MissingPlaceholderError, or EnrichmentError for an unreadable template.
    """
    template = _read_template(prompts_dir, spec.prompt_template)
    if GRAPH_PLACEHOLDER not in template:
        raise MissingPlaceholderError(spec.prompt_template)
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
    if not any(line.strip() and not line.lstrip().startswith("#")
               for line in candidate.splitlines()):
        raise NoTurtleFoundError()
    try:
        return parse_turtle(candidate, base_prefixes, bind_undeclared=True, terms=terms)
    except RdfError:
        repaired = _strip_prose(candidate)
        if not any(line.strip() and not line.lstrip().startswith("#")
                   for line in repaired.splitlines()):
            raise NoTurtleFoundError()
        return parse_turtle(repaired, base_prefixes, bind_undeclared=True, terms=terms)


def run_heuristic(base: RdfGraph, base_turtle: str, system_template: str,
                  spec: HeuristicSpec, backend: Backend,
                  prompts_dir: Union[str, Path]) -> EnrichmentResult:
    """Prompt, complete, extract, and validate one heuristic.

    ``base_turtle`` is ``serialize_turtle(base)``, the text the prompt
    embeds, and ``system_template`` the text of ``read_system_template``.
    The result's table is the reader's without its aliases. Failures never
    propagate: a backend or parse failure yields a result with no additions
    and a RESPONSE_INVALID error diagnostic; a base binding the heuristic's
    label elsewhere, with no request sent, a quarantined PREFIX_CONFLICT one.
    """
    if not base.triples:
        raise EnrichmentError("base graph is empty")
    request = assemble_prompt(base_turtle, system_template, spec, prompts_dir)
    try:
        prefixes = base.prefixes.with_binding(spec.prefix, spec.namespace)
    except PrefixConflictError as exc:
        logger.warning("%s: not run: %s", spec.name, exc)
        return EnrichmentResult(spec.name, base, frozenset(), base.prefixes,
                                [Diagnostic(validation.ERROR, validation.PREFIX_CONFLICT,
                                            f"not run: {exc}")], "", quarantined=True)
    response, unexpected = "", None
    try:
        response = backend.complete(request)
    except BackendError as exc:
        problem = f"backend failure: {exc}"
    except Exception as exc:  # any other fault fails this heuristic alone
        problem, unexpected = f"backend failure: {type(exc).__name__}: {exc}", exc
    else:
        try:
            extracted = extract_turtle(response, prefixes, base.terms_by_text())
        except (EnrichmentError, RdfError) as exc:
            problem = f"unusable response: {exc}"
        else:
            added = extracted.triples - base.triples
            prefixes = extracted.prefixes.declared()  # extends ``prefixes``
            diagnostics = list(check_anchoring(base, added))
            diagnostics.extend(lint(RdfGraph(added, prefixes)))
            return EnrichmentResult(spec.name, base, added, prefixes, diagnostics, response)
    logger.warning("%s: %s", spec.name, problem, exc_info=unexpected)
    return EnrichmentResult(spec.name, base, frozenset(), prefixes,
                            [Diagnostic(validation.ERROR, validation.RESPONSE_INVALID, problem)],
                            response)


def run_all(base: RdfGraph, backend: Backend,
            prompts_dir: Union[str, Path],
            heuristics: Optional[Sequence[HeuristicSpec]] = None,
            max_concurrent: int = 1,
            force_merge: bool = False) -> tuple[list[EnrichmentResult], RdfGraph]:
    """Run every heuristic and merge the additions onto the base.

    With ``max_concurrent`` at most 1 the heuristics run one after another
    on the calling thread. Above 1, every heuristic starts at once on its
    own thread, and the backend bounds its requests in flight (see
    ``Backend``); a custom backend that waits must bound its own.
    Results come back in the order of ``heuristics`` (registry order by
    default) regardless of completion order, so output is deterministic even
    with concurrent backend calls. A result carrying an ERROR diagnostic
    contributes nothing to the merged graph unless ``force_merge``; one with
    PREFIX_CONFLICT never does.
    """
    specs = list(heuristics) if heuristics is not None else list(HEURISTICS)
    base_turtle = serialize_turtle(base)
    base.terms_by_text()  # built once, before the threads read it
    system_template = read_system_template(prompts_dir)

    def run_one(spec: HeuristicSpec) -> EnrichmentResult:
        return run_heuristic(base, base_turtle, system_template, spec, backend, prompts_dir)

    if max_concurrent > 1 and len(specs) > 1:
        with ThreadPoolExecutor(max_workers=len(specs)) as pool:
            results = list(pool.map(run_one, specs))
    else:
        results = [run_one(spec) for spec in specs]

    # In run order, so completion order cannot decide a clash.
    mergeable = []
    table = base.prefixes
    for r in results:
        r.quarantined = r.quarantined or (r.failed and not force_merge)
        if r.quarantined:
            continue
        try:
            table = table.merged(r.prefixes)
        except PrefixConflictError as exc:
            r.diagnostics.append(Diagnostic(validation.ERROR, validation.PREFIX_CONFLICT,
                                            f"not merged: {exc}"))
            r.quarantined = True
            continue
        mergeable.append(RdfGraph(r.added, r.prefixes))
    return results, merge([RdfGraph(base.triples, base.prefixes), *mergeable])
