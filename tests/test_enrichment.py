import gc
import logging
import random
import shutil
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xkg.backends import (
    AuthError,
    BackendError,
    MAX_BACKOFF_S,
    BackendConfig,
    HttpBackend,
    MappingBackend,
    MockBackend,
    TransportError,
)
from xkg.amr import AmrError
from xkg.config import default_config, default_resource_paths
from xkg.enrichment import (
    HEURISTIC_BY_NAME,
    HEURISTICS,
    EnrichmentError,
    MissingPlaceholderError,
    MissingTemplateError,
    NoTurtleFoundError,
    PromptRequest,
    assemble_prompt,
    extract_turtle,
    run_all,
    run_heuristic,
)
from xkg.rdf import (
    DUL_NS,
    FRED_NS,
    Iri,
    RdfGraph,
    Triple,
    TurtleSyntaxError,
    parse_turtle,
    serialize_turtle,
    standard_prefixes,
)
from xkg.pipeline import describe, run_pipeline
from corpus import build_corpus
from generators import extended_graph
from xkg.validation import (
    ANCHOR_FLOAT,
    DIAGNOSTIC_CODES,
    ERROR,
    PREFIX_CONFLICT,
    PREFIX_MISUSE,
    RESPONSE_INVALID,
    UNDECLARED_PREFIX,
    lint,
)

PROMPTS = default_resource_paths().prompts_dir
MOCKS = default_resource_paths().mock_dir

SCENE_BASE = parse_turtle("""
@prefix fred: <http://www.ontologydesignpatterns.org/ont/fred/domain.owl#> .
@prefix pbrs: <https://w3id.org/framester/data/propbank-3.4.0/RoleSet/> .
@prefix pblr: <https://w3id.org/framester/data/propbank-3.4.0/LocalRole/> .
@prefix vn.role: <http://www.ontologydesignpatterns.org/ont/vn/abox/role/vnrole.owl#> .

fred:celebrate_1 a pbrs:celebrate-01 ;
    vn.role:Location fred:track_1 ;
    pblr:celebrate-01.honored fred:win_1 ;
    pblr:celebrate-01.honorer fred:athlete_1 .
fred:win_1 a pbrs:win-01 .
""", standard_prefixes())
SCENE_TURTLE = serialize_turtle(SCENE_BASE)
SYSTEM = (PROMPTS / "system.txt").read_text(encoding="utf-8")

IMPACT_RESPONSE = """```turtle
@prefix fred: <http://www.ontologydesignpatterns.org/ont/fred/domain.owl#> .
@prefix impact: <https://w3id.org/xkg/impact#> .

fred:athlete_1 impact:hasExpectedEmotion impact:Joy ,
        impact:Pride ;
    impact:hasExpectedPhysicalState impact:Exhilaration ;
    impact:hasExpectedSocialImpact impact:NationalRecognition .

fred:win_1 impact:hasExpectedSocialImpact impact:MedalCeremony .
```"""

FACTUAL = HEURISTIC_BY_NAME["FactualImpact"]
FACTUAL_TEMPLATE = (PROMPTS / FACTUAL.prompt_template).read_text(encoding="utf-8")
FACTUAL_PREFIXES = SCENE_BASE.prefixes.with_binding(FACTUAL.prefix, FACTUAL.namespace)


def run_factual(backend):
    """``run_heuristic`` for FactualImpact over the scene, as ``run_all`` calls it."""
    request = assemble_prompt(SCENE_TURTLE, SYSTEM, FACTUAL, FACTUAL_TEMPLATE)
    return run_heuristic(SCENE_BASE, request, FACTUAL_PREFIXES, backend)


class TestRegistry:
    def test_exactly_the_eleven_names(self):
        assert [spec.name for spec in HEURISTICS] == [
            "Presuppositions", "ConversationalImplicatures", "FactualImpact",
            "ImageSchemas", "MetonymicCoercion", "MoralValueCoercion",
            "SymbolicCoercion", "EventSequences", "CausalRelations",
            "ImpliedFutureEvents", "PotentialNonEvents",
        ]

    def test_namespaces_distinct(self):
        namespaces = {spec.namespace for spec in HEURISTICS}
        assert len(namespaces) == len(HEURISTICS)

    def test_every_template_exists_with_placeholder(self):
        for spec in HEURISTICS:
            text = (PROMPTS / spec.prompt_template).read_text(encoding="utf-8")
            assert "{{graph}}" in text


class TestAssemblePrompt:
    """The prompt of one heuristic; ``run_all`` reads and checks its
    templates before any request."""

    def test_empty_base_gives_prefix_only_graph_slot(self):
        request = assemble_prompt(serialize_turtle(RdfGraph()), SYSTEM, FACTUAL,
                                  FACTUAL_TEMPLATE)
        graph_lines = [l for l in request.user_text.splitlines() if l.startswith("@prefix")]
        assert graph_lines
        assert "fred:" not in request.user_text.replace(
            "@prefix fred: <http://www.ontologydesignpatterns.org/ont/fred/domain.owl#> .", "")

    def test_base_graph_embedded(self):
        request = assemble_prompt(SCENE_TURTLE, SYSTEM, FACTUAL, FACTUAL_TEMPLATE)
        assert "fred:athlete_1" in request.user_text
        assert SCENE_TURTLE in request.user_text
        assert request.tag == "FactualImpact"

    def test_byte_identical_requests(self):
        first = assemble_prompt(SCENE_TURTLE, SYSTEM, FACTUAL, FACTUAL_TEMPLATE)
        second = assemble_prompt(SCENE_TURTLE, SYSTEM, FACTUAL, FACTUAL_TEMPLATE)
        assert first == second

    def test_missing_template(self, tmp_path):
        backend = MappingBackend({})
        for prompts in (tmp_path, tmp_path / "no-such-dir"):
            with pytest.raises(MissingTemplateError) as raised:
                run_all(SCENE_BASE, backend, prompts)
            assert str(raised.value) == "prompt template not found: system.txt"
        (tmp_path / "system.txt").write_text("sys", encoding="utf-8")
        with pytest.raises(MissingTemplateError) as raised:
            run_all(SCENE_BASE, backend, tmp_path, heuristics=[FACTUAL])
        assert str(raised.value) == "prompt template not found: factual-impact.txt"

    def test_unreadable_template_is_not_a_missing_one(self, tmp_path):
        (tmp_path / "system.txt").mkdir()
        (tmp_path / FACTUAL.prompt_template).write_bytes(b"\xff {{graph}}")
        sound_system = tmp_path / "sound-system"
        sound_system.mkdir()
        (sound_system / "system.txt").write_text("sys", encoding="utf-8")
        (sound_system / FACTUAL.prompt_template).write_bytes(b"\xff {{graph}}")
        for prompts in (tmp_path, sound_system):
            with pytest.raises(EnrichmentError) as raised:
                run_all(SCENE_BASE, MappingBackend({}), prompts, heuristics=[FACTUAL])
            assert type(raised.value) is EnrichmentError
            assert str(raised.value).startswith("cannot read prompt template")

    def test_missing_placeholder(self, tmp_path):
        (tmp_path / "system.txt").write_text("sys", encoding="utf-8")
        (tmp_path / FACTUAL.prompt_template).write_text("no slot here", encoding="utf-8")
        with pytest.raises(MissingPlaceholderError) as raised:
            run_all(SCENE_BASE, MappingBackend({}), tmp_path, heuristics=[FACTUAL])
        assert str(raised.value) == "template factual-impact.txt has no {{graph}} placeholder"


class TestExtractTurtle:
    def test_fenced_impact_fragment(self):
        graph = extract_turtle(IMPACT_RESPONSE, SCENE_BASE.prefixes)
        assert len(graph.triples) == 5
        joy = Triple(Iri(FRED_NS + "athlete_1"),
                     Iri("https://w3id.org/xkg/impact#hasExpectedEmotion"),
                     Iri("https://w3id.org/xkg/impact#Joy"))
        assert joy in graph.triples

    def test_refusal_text(self):
        with pytest.raises(NoTurtleFoundError):
            extract_turtle("I cannot help.", SCENE_BASE.prefixes)

    def test_prose_line_stripped_in_repair_pass(self):
        response = """Here are the triples:
fred:athlete_1 fred:p fred:x_1 .
fred:x_1 fred:q fred:y_1 .
fred:y_1 fred:q fred:z_1 .
"""
        graph = extract_turtle(response, SCENE_BASE.prefixes)
        assert len(graph.triples) == 3

    def test_repair_pass_keeps_blank_lines(self):
        # Prose lines go, blank lines stay: an error still in the repaired
        # text is on the line it has among the lines kept.
        response = "Sure:\nfred:athlete_1 fred:p fred:x_1 .\n\nfred:x_1 fred:q ! ."
        with pytest.raises(TurtleSyntaxError) as raised:
            extract_turtle(response, SCENE_BASE.prefixes)
        assert (raised.value.line, raised.value.column) == (3, 17)

    def test_bare_turtle_without_fences(self):
        graph = extract_turtle("fred:athlete_1 fred:p fred:x_1 .", SCENE_BASE.prefixes)
        assert len(graph.triples) == 1

    def test_undeclared_prefix_bound_not_fatal(self):
        graph = extract_turtle("fred:athlete_1 mystery:p fred:x_1 .", SCENE_BASE.prefixes)
        (triple,) = graph.triples
        assert "undeclared/mystery#" in triple.predicate.value

    def test_empty_response_is_error(self):
        with pytest.raises(NoTurtleFoundError):
            extract_turtle("", SCENE_BASE.prefixes)

    def test_second_label_for_a_bound_namespace_is_declared(self):
        response = f"@prefix f: <{FRED_NS}> .\nf:athlete_1 f:p f:x_1 ."
        graph = extract_turtle(response, SCENE_BASE.prefixes)
        assert graph.triples == {Triple(Iri(FRED_NS + "athlete_1"), Iri(FRED_NS + "p"),
                                        Iri(FRED_NS + "x_1"))}
        assert UNDECLARED_PREFIX not in {d.code for d in lint(graph)}


class TestRunHeuristic:
    def test_impact_mock_flow(self):
        backend = MappingBackend({"FactualImpact": IMPACT_RESPONSE})
        result = run_factual(backend)
        assert len(result.added) == 5
        assert not result.failed
        assert [d for d in result.diagnostics if d.code == ANCHOR_FLOAT] == []
        assert extended_graph(SCENE_BASE, result).triples == SCENE_BASE.triples | result.added

    def test_additions_are_sorted_and_hold_no_base_triple(self):
        # Out of order, restating two base triples, and with a DUL fallback
        # association for lint's sorted bucket.
        response = (f"@prefix fred: <{FRED_NS}> .\n"
                    f"@prefix dul: <{DUL_NS}> .\n"
                    "fred:win_1 dul:associatedWith fred:track_1 ; a pbrs:win-01 .\n"
                    "fred:celebrate_1 vn.role:Location fred:track_1 ;\n"
                    "    dul:associatedWith fred:win_1, fred:athlete_1 .\n")
        backend = MappingBackend({"FactualImpact": response})
        result = run_factual(backend)
        fred, associated = lambda local: Iri(FRED_NS + local), Iri(DUL_NS + "associatedWith")
        new = [Triple(fred("celebrate_1"), associated, fred("athlete_1")),
               Triple(fred("celebrate_1"), associated, fred("win_1")),
               Triple(fred("win_1"), associated, fred("track_1"))]
        assert result.added == frozenset(new)
        assert list(result.additions) == new
        assert [d.subject for d in result.diagnostics if d.code == "FALLBACK_ROLE"] == [
            t.subject for t in new]

    def test_floating_triples_flagged(self):
        backend = MappingBackend({
            "FactualImpact": "@prefix x: <http://x.example/> . x:a x:p x:b ."})
        result = run_factual(backend)
        floats = [d for d in result.diagnostics if d.code == ANCHOR_FLOAT]
        assert len(floats) == 1
        assert result.failed

    def test_pbrs_predicate_flagged(self):
        backend = MappingBackend({
            "FactualImpact":
            "@prefix fred: <http://www.ontologydesignpatterns.org/ont/fred/domain.owl#> .\n"
            "@prefix pbrs: <https://w3id.org/framester/data/propbank-3.4.0/RoleSet/> .\n"
            "fred:spectator_1 pbrs:cheer-01.agent fred:athlete_1 ."})
        result = run_factual(backend)
        assert PREFIX_MISUSE in {d.code for d in result.diagnostics}

    def test_backend_failure_becomes_diagnostic(self):
        backend = MappingBackend({})
        result = run_factual(backend)
        assert result.added == frozenset()
        assert [d.code for d in result.diagnostics] == [RESPONSE_INVALID]
        assert result.failed

    def test_unexpected_backend_exception_becomes_diagnostic(self):
        class Broken(MappingBackend):
            def complete(self, request):
                raise RuntimeError("boom")

        result = run_factual(Broken({}))
        assert result.added == frozenset()
        assert [d.code for d in result.diagnostics] == [RESPONSE_INVALID]
        assert result.diagnostics[0].message == "backend failure: RuntimeError: boom"

    def test_unparseable_response_becomes_diagnostic(self):
        backend = MappingBackend({"FactualImpact": "I cannot help."})
        result = run_factual(backend)
        assert result.added == frozenset()
        assert result.failed
        assert result.additions.prefixes == FACTUAL_PREFIXES
        assert extended_graph(SCENE_BASE, result).triples == SCENE_BASE.triples

    def test_leaves_quarantine_to_run_all(self):
        result = run_factual(MappingBackend({}))
        assert result.failed and not result.quarantined

    def test_result_table_is_the_readers_without_its_aliases(self):
        response = (f"@prefix f: <{FRED_NS}> .\n@prefix ex: <http://e/> .\n"
                    "f:athlete_1 ex:p f:win_1, undeclared:x .")
        result = run_factual(MappingBackend({"FactualImpact": response}))
        expected = FACTUAL_PREFIXES.merged(extract_turtle(response, FACTUAL_PREFIXES).prefixes)
        table = result.additions.prefixes
        assert list(table.items()) == list(expected.items())
        assert "ex" in table and "undeclared" in table
        assert "f" not in table  # an alias matters only to the parse
        assert result.added == {
            Triple(Iri(FRED_NS + "athlete_1"), Iri("http://e/p"), Iri(FRED_NS + "win_1")),
            Triple(Iri(FRED_NS + "athlete_1"), Iri("http://e/p"),
                   Iri("http://example.org/undeclared/undeclared#x"))}


class TestRunAll:
    def empty_backend(self):
        return MappingBackend({spec.name: "" for spec in HEURISTICS})

    def test_empty_mocks_merge_to_base(self):
        results, merged = run_all(SCENE_BASE, self.empty_backend(), PROMPTS)
        assert merged.triples == SCENE_BASE.triples
        assert len(results) == 11
        assert [r.heuristic for r in results] == [spec.name for spec in HEURISTICS]

    def test_single_addition_merges(self):
        responses = {spec.name: "" for spec in HEURISTICS}
        responses["FactualImpact"] = (
            "@prefix fred: <http://www.ontologydesignpatterns.org/ont/fred/domain.owl#> .\n"
            "@prefix impact: <https://w3id.org/xkg/impact#> .\n"
            "fred:athlete_1 impact:hasExpectedEmotion impact:Joy .")
        _, merged = run_all(SCENE_BASE, MappingBackend(responses), PROMPTS)
        assert len(merged.triples) == len(SCENE_BASE.triples) + 1

    def test_quarantine_drops_error_results(self):
        responses = {spec.name: "" for spec in HEURISTICS}
        responses["FactualImpact"] = "@prefix x: <http://x.example/> . x:a x:p x:b ."
        results, merged = run_all(SCENE_BASE, MappingBackend(responses), PROMPTS)
        assert merged.triples == SCENE_BASE.triples
        assert all(r.failed and r.quarantined for r in results)
        forced_results, forced = run_all(SCENE_BASE, MappingBackend(responses), PROMPTS,
                                         force_merge=True)
        assert len(forced.triples) == len(SCENE_BASE.triples) + 1
        assert not any(r.quarantined for r in forced_results)

    @pytest.mark.parametrize("escape", ["\\uZZZZ", "\\ud800"])
    def test_bad_u_escape_quarantines_only_its_heuristic(self, escape):
        responses = {spec.name: "" for spec in HEURISTICS}
        responses["FactualImpact"] = IMPACT_RESPONSE
        responses["MoralValueCoercion"] = (
            "@prefix fred: <http://www.ontologydesignpatterns.org/ont/fred/domain.owl#> .\n"
            f'fred:athlete_1 fred:motto "go{escape}" .')
        results, merged = run_all(SCENE_BASE, MappingBackend(responses), PROMPTS)
        by_name = {r.heuristic: r for r in results}
        moral = by_name["MoralValueCoercion"]
        assert [d.code for d in moral.diagnostics] == [RESPONSE_INVALID]
        assert "bad \\u escape" in moral.diagnostics[0].message
        assert not by_name["FactualImpact"].failed
        assert merged.triples == SCENE_BASE.triples | by_name["FactualImpact"].added

    @pytest.mark.parametrize("obj", ['"go\ud800"', "<http://e/go\udc00>"])
    def test_lone_surrogate_quarantines_only_its_heuristic(self, obj):
        # A JSON body can decode to a lone surrogate, which UTF-8 cannot encode.
        responses = {spec.name: "" for spec in HEURISTICS}
        responses["FactualImpact"] = IMPACT_RESPONSE
        responses["MoralValueCoercion"] = (
            "@prefix fred: <http://www.ontologydesignpatterns.org/ont/fred/domain.owl#> .\n"
            f"fred:athlete_1 fred:motto {obj} .")
        results, merged = run_all(SCENE_BASE, MappingBackend(responses), PROMPTS)
        by_name = {r.heuristic: r for r in results}
        moral = by_name["MoralValueCoercion"]
        assert [d.code for d in moral.diagnostics] == [RESPONSE_INVALID]
        assert "lone surrogate" in moral.diagnostics[0].message
        assert not by_name["FactualImpact"].failed
        assert merged.triples == SCENE_BASE.triples | by_name["FactualImpact"].added
        for graph in [merged] + [extended_graph(SCENE_BASE, r) for r in results]:
            serialize_turtle(graph).encode("utf-8")

    def clashing_responses(self):
        """Two anchored responses that bind ``ex:`` to different namespaces."""
        responses = {spec.name: "" for spec in HEURISTICS}
        for name, ns in (("CausalRelations", "http://b/"), ("FactualImpact", "http://a/")):
            responses[name] = (f"@prefix fred: <{FRED_NS}> .\n@prefix ex: <{ns}> .\n"
                               f"fred:athlete_1 ex:p ex:x .")
        return responses

    @pytest.mark.parametrize("force_merge", [False, True])
    def test_prefix_conflict_quarantines_the_later_heuristic(self, force_merge):
        outcomes = []
        for max_concurrent in (1, 4):
            results, merged = run_all(SCENE_BASE, MappingBackend(self.clashing_responses()),
                                      PROMPTS, max_concurrent=max_concurrent,
                                      force_merge=force_merge)
            by_name = {r.heuristic: r for r in results}
            impact, causal = by_name["FactualImpact"], by_name["CausalRelations"]
            assert not impact.quarantined and impact.added
            assert causal.quarantined
            assert [d.code for d in causal.diagnostics if d.severity == "ERROR"] == [
                PREFIX_CONFLICT]
            assert "'ex:' bound to both <http://a/> and <http://b/>" in causal.diagnostics[-1].message
            assert merged.triples == SCENE_BASE.triples | impact.added
            assert merged.prefixes.namespace("ex") == "http://a/"
            # Its own extended graph still holds its additions, read under its
            # own binding of ex: though the other response's parse met ex:p first.
            assert causal.added == {Triple(Iri(FRED_NS + "athlete_1"), Iri("http://b/p"),
                                           Iri("http://b/x"))}
            assert extended_graph(SCENE_BASE, causal).triples == SCENE_BASE.triples | causal.added
            outcomes.append((serialize_turtle(merged),
                             [(r.heuristic, r.quarantined, r.diagnostics) for r in results]))
        assert outcomes[0] == outcomes[1]

    def test_a_returned_result_cannot_be_changed(self):
        # Each way run_all builds a result: anchored additions, an unusable
        # response, a heuristic not run, and one not merged.
        base = parse_turtle("@prefix presup: <http://other.example/> .\n" + SCENE_TURTLE)
        responses = self.clashing_responses()
        responses["MoralValueCoercion"] = "no turtle here"
        results, _ = run_all(base, MappingBackend(responses), PROMPTS)
        by_name = {r.heuristic: r for r in results}
        messages = {name: by_name[name].diagnostics[-1].message for name in (
            "MoralValueCoercion", "Presuppositions", "CausalRelations")}
        assert messages["MoralValueCoercion"].startswith("unusable response: ")
        assert messages["Presuppositions"].startswith("not run: ")
        assert messages["CausalRelations"].startswith("not merged: ")
        assert by_name["FactualImpact"].added
        for result in results:
            assert type(result.diagnostics) is tuple
            with pytest.raises(AttributeError):
                result.diagnostics.append(None)

    def test_response_rebinding_a_base_label_is_quarantined(self):
        # A response's texts read as base terms only while base labels keep
        # their namespaces, which the reader's table enforces.
        responses = {spec.name: "" for spec in HEURISTICS}
        responses["FactualImpact"] = IMPACT_RESPONSE
        responses["MoralValueCoercion"] = (
            "@prefix fred: <http://other/> .\nfred:athlete_1 fred:p fred:win_1 .")
        for max_concurrent in (1, 4):
            results, merged = run_all(SCENE_BASE, MappingBackend(responses), PROMPTS,
                                      max_concurrent=max_concurrent)
            by_name = {r.heuristic: r for r in results}
            moral = by_name["MoralValueCoercion"]
            assert moral.quarantined and moral.added == frozenset()
            assert [(d.code, d.message) for d in moral.diagnostics] == [(
                RESPONSE_INVALID,
                f"unusable response: prefix 'fred:' bound to both <{FRED_NS}> and <http://other/>")]
            assert not by_name["FactualImpact"].quarantined
            assert merged.triples == SCENE_BASE.triples | by_name["FactualImpact"].added

    @pytest.mark.parametrize("force_merge", [False, True])
    def test_base_binding_a_heuristic_label_elsewhere_quarantines_it(self, force_merge):
        # The base binds presup: elsewhere, so Presuppositions cannot bind its
        # own namespace: it is not run, and the others are.
        base = parse_turtle("@prefix presup: <http://other.example/> .\n" + SCENE_TURTLE)
        responses = {spec.name: "" for spec in HEURISTICS}
        responses["FactualImpact"] = IMPACT_RESPONSE
        responses["Presuppositions"] = IMPACT_RESPONSE
        outcomes = []
        for max_concurrent in (1, 4):
            tags = []

            class Recording(MappingBackend):
                def complete(self, request):
                    tags.append(request.tag)
                    return super().complete(request)

            results, merged = run_all(base, Recording(responses), PROMPTS,
                                      max_concurrent=max_concurrent, force_merge=force_merge)
            by_name = {r.heuristic: r for r in results}
            presup = by_name["Presuppositions"]
            assert presup.quarantined and presup.added == frozenset()
            assert presup.additions.prefixes == base.prefixes and presup.raw_response == ""
            assert [(d.severity, d.code, d.message) for d in presup.diagnostics] == [(
                ERROR, PREFIX_CONFLICT, "not run: prefix 'presup:' bound to both "
                "<http://other.example/> and <https://w3id.org/xkg/presupposition#>")]
            assert sorted(tags) == sorted(
                spec.name for spec in HEURISTICS if spec.name != "Presuppositions")
            assert not by_name["FactualImpact"].quarantined
            assert merged.triples == base.triples | by_name["FactualImpact"].added
            assert merged.prefixes.namespace("presup") == "http://other.example/"
            outcomes.append((serialize_turtle(merged),
                             [(r.heuristic, r.quarantined, r.diagnostics) for r in results]))
        assert outcomes[0] == outcomes[1]

    def test_unexpected_backend_exception_fails_only_its_heuristic(self):
        class Flaky(MappingBackend):
            def complete(self, request):
                if request.tag == "MoralValueCoercion":
                    raise RuntimeError("connection pool exploded")
                return super().complete(request)

        responses = {spec.name: "" for spec in HEURISTICS}
        responses["FactualImpact"] = IMPACT_RESPONSE
        for max_concurrent in (1, 4):
            results, merged = run_all(SCENE_BASE, Flaky(responses), PROMPTS,
                                      max_concurrent=max_concurrent)
            by_name = {r.heuristic: r for r in results}
            moral = by_name["MoralValueCoercion"]
            assert moral.quarantined
            assert [d.code for d in moral.diagnostics] == [RESPONSE_INVALID]
            assert "RuntimeError: connection pool exploded" in moral.diagnostics[0].message
            assert not by_name["FactualImpact"].quarantined
            assert merged.triples == SCENE_BASE.triples | by_name["FactualImpact"].added

    def test_mock_directory_run_is_byte_stable(self):
        base = SCENE_BASE  # anchors exist for athlete/win triples
        backend = MockBackend(MOCKS)
        first_results, first = run_all(base, backend, PROMPTS)
        second_results, second = run_all(base, backend, PROMPTS)
        assert serialize_turtle(first) == serialize_turtle(second)
        assert [r.heuristic for r in first_results] == [r.heuristic for r in second_results]

    def test_concurrent_run_matches_sequential(self):
        backend = MockBackend(MOCKS)
        seq_results, seq = run_all(SCENE_BASE, backend, PROMPTS, max_concurrent=1)
        par_results, par = run_all(SCENE_BASE, backend, PROMPTS, max_concurrent=4)
        assert serialize_turtle(seq) == serialize_turtle(par)
        assert [r.heuristic for r in seq_results] == [r.heuristic for r in par_results]

    def test_results_keep_no_lint_index(self):
        # lint builds the per-predicate index and the node IRIs of the graph
        # it reads, and a graph keeps both for its life. Nothing reads a
        # result's after run_all, so lint reads a graph of its own. The
        # instance dict is checked because reading a view builds it.
        results, _ = run_all(SCENE_BASE, MockBackend(MOCKS), PROMPTS)
        assert sum(len(r.additions) for r in results) > 0
        for r in results:
            for view in ("by_predicate", "node_iris"):
                assert view not in vars(r.additions), (r.heuristic, view)

    def test_keeps_no_prompt_alive(self):
        # Four renamed copies of the corpus's base graph, the size of the
        # benchmark's large graph. Each prompt embeds the base's text, so a
        # backend or a result that kept its request would hold a copy of the
        # text per heuristic.
        corpus = build_corpus()

        def renamed(term, copy):
            if isinstance(term, Iri) and term.value.startswith(FRED_NS):
                return Iri(f"{term.value}_{copy}")
            return term

        base = RdfGraph(frozenset(Triple(renamed(s, copy), p, renamed(o, copy))
                                  for copy in range(4) for s, p, o in corpus.base.triples),
                        corpus.base.prefixes)
        text = serialize_turtle(base)  # builds the base's caches, which outlive run_all
        base.terms_by_text
        backend = MappingBackend({spec.name: "" for spec in HEURISTICS})
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            results, merged = run_all(base, backend, PROMPTS)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(results) == len(HEURISTICS) and merged.triples == base.triples
        assert held < 4 * len(text), (held, len(text))


def _statement(subject: str, predicate: str, obj: str) -> str:
    return f"{subject} {predicate} {obj} ."


_TURTLE_LINES = st.builds(
    _statement,
    st.sampled_from(["fred:athlete_1", "fred:win_1", "ex:a", "_:b", "mystery:x"]),
    st.sampled_from(["ex:p", "pbrs:run-01.agent", "dul:associatedWith", "a", "mystery:q"]),
    st.sampled_from(["ex:b", "fred:track_1", '"x"@en', "true", "[ ex:p ex:c ]", "owl:Class"]))


@st.composite
def _responses(draw):
    """A response per heuristic: clean, fenced, prose-wrapped, unparseable,
    empty or missing (a backend error), any of them binding ``ex:`` to one of
    two namespaces, so prefixes clash across heuristics."""
    responses = {}
    for spec in HEURISTICS:
        kind = draw(st.sampled_from(["clean", "fenced", "prose", "unparseable", "text", "empty",
                                     "missing"]))
        if kind == "missing":
            continue
        ns = draw(st.sampled_from(["http://a.example/", "http://b.example/"]))
        body = (f"@prefix fred: <{FRED_NS}> .\n@prefix ex: <{ns}> .\n"
                "@prefix pbrs: <https://w3id.org/framester/data/propbank-3.4.0/RoleSet/> .\n"
                "@prefix dul: <http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#> .\n"
                "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
                + "\n".join(draw(st.lists(_TURTLE_LINES, min_size=1, max_size=5))))
        responses[spec.name] = {
            "clean": body,
            "fenced": f"Here you go:\n```turtle\n{body}\n```\nDone.",
            "prose": f"Sure, the triples are:\n{body}\nHope this helps.",
            "unparseable": body + "\nfred:athlete_1 ex:p .",
            "text": draw(st.text(max_size=40)),
            "empty": "",
        }[kind]
    return responses


class TestRunAllGate:
    @settings(max_examples=60, deadline=None)
    @given(_responses(), st.booleans())
    def test_never_raises_and_is_the_same_at_any_concurrency(self, responses, force_merge):
        outcomes = []
        for max_concurrent in (1, 4):
            results, merged = run_all(SCENE_BASE, MappingBackend(responses), PROMPTS,
                                      max_concurrent=max_concurrent, force_merge=force_merge)
            for r in results:
                assert all(d.code in DIAGNOSTIC_CODES for d in r.diagnostics)
                if r.quarantined:
                    assert any(d.severity == ERROR for d in r.diagnostics), r.heuristic
            outcomes.append((serialize_turtle(merged),
                             [(r.heuristic, r.quarantined, r.diagnostics) for r in results]))
        assert outcomes[0] == outcomes[1]


class FakeResponse:
    def __init__(self, status, body=None, text=""):
        self.status_code = status
        self._body = body or {}
        self.text = text

    def json(self):
        return self._body


class NotJson(FakeResponse):
    def json(self):
        raise ValueError("Expecting value")


class TestHttpBackend:
    def config(self, **overrides):
        settings = dict(endpoint="https://api.example/v1/chat", model="test-model",
                        credential_env="XKG_TEST_KEY", retries=2)
        settings.update(overrides)
        return BackendConfig(**settings)

    def request(self):
        return PromptRequest("sys", "user", "T")

    def test_missing_credential_is_auth_error(self, monkeypatch):
        monkeypatch.delenv("XKG_TEST_KEY", raising=False)
        backend = HttpBackend(self.config(), post=lambda *a, **k: FakeResponse(200))
        with pytest.raises(AuthError):
            backend.complete(self.request())

    def test_rejected_credential_not_retried(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        calls = []

        def post(url, payload, headers, timeout):
            calls.append(url)
            return FakeResponse(401)

        backend = HttpBackend(self.config(), post=post, sleep=lambda s: None)
        with pytest.raises(AuthError):
            backend.complete(self.request())
        assert len(calls) == 1

    def test_transient_errors_retried_then_succeed(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        responses = [FakeResponse(500), FakeResponse(429),
                     FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})]
        delays = []
        backend = HttpBackend(self.config(), post=lambda *a, **k: responses.pop(0),
                              sleep=delays.append)
        assert backend.complete(self.request()) == "ok"
        assert delays == [0.5, 1.0]

    def test_backoff_doubles_up_to_a_ceiling(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        delays = []
        backend = HttpBackend(self.config(retries=9), post=lambda *a, **k: FakeResponse(503),
                              sleep=delays.append)
        with pytest.raises(TransportError):
            backend.complete(self.request())
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] + [MAX_BACKOFF_S] * 3

    @pytest.mark.parametrize("status, retry_after, delays", [
        (503, "2", [2.0, 1.0]),
        (429, " 2 ", [2.0, 1.0]),
        (503, "600", [MAX_BACKOFF_S, 1.0]),
        (503, "Wed, 21 Oct 2026 07:28:00 GMT", [0.5, 1.0]),
        (503, "1.5", [0.5, 1.0]),
        (503, "\u0662", [0.5, 1.0]),  # a digit, but not an ASCII one
        (500, "2", [0.5, 1.0]),  # only a 429 or 503 is read
        (503, None, [0.5, 1.0]),  # a response without headers
    ])
    def test_retry_after_in_seconds_sets_the_delay(self, monkeypatch, status, retry_after,
                                                   delays):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        first = FakeResponse(status)
        if retry_after is not None:
            first.headers = {"Retry-After": retry_after}
        responses = [first, FakeResponse(503),
                     FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})]
        waited = []
        backend = HttpBackend(self.config(), post=lambda *a, **k: responses.pop(0),
                              sleep=waited.append)
        assert backend.complete(self.request()) == "ok"
        assert waited == delays

    def test_a_thousand_retries_end_in_transport_error(self, monkeypatch):
        # 0.5 * 2 ** 1024 does not fit a float; the capped back-off never
        # computes it.
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        delays = []
        backend = HttpBackend(self.config(retries=1100), post=lambda *a, **k: FakeResponse(503),
                              sleep=delays.append)
        with pytest.raises(TransportError, match="HTTP 503"):
            backend.complete(self.request())
        assert len(delays) == 1100 and max(delays) == MAX_BACKOFF_S

    @pytest.mark.parametrize("failure, cause", [
        (FakeResponse(503), "HTTP 503"),
        (ConnectionError("refused"), "ConnectionError: refused"),
    ])
    def test_retry_logged_with_its_cause(self, monkeypatch, caplog, failure, cause):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        outcomes = [failure, FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})]

        def post(*args):
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        backend = HttpBackend(self.config(), post=post, sleep=lambda s: None)
        with caplog.at_level(logging.DEBUG, logger="xkg.backends"):
            assert backend.complete(self.request()) == "ok"
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.DEBUG, f"attempt 1 of 3 failed ({cause}); retrying in 0.5s")]

    def test_client_error_is_raised_at_once(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        body = "no such model: " + "x" * 300
        calls, delays = [], []

        def post(*args):
            calls.append(args)
            return FakeResponse(404, text=body)

        backend = HttpBackend(self.config(), post=post, sleep=delays.append)
        with pytest.raises(TransportError) as raised:
            backend.complete(self.request())
        assert str(raised.value) == "HTTP 404: " + body[:200]
        assert len(calls) == 1 and delays == []

    def test_completion_shape(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        backend = HttpBackend(self.config(),
                              post=lambda *a: FakeResponse(200, {"completion": "x"}))
        assert backend.complete(self.request()) == "x"

    def test_unrecognized_shape_is_named(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        backend = HttpBackend(self.config(), post=lambda *a: FakeResponse(200, {"foo": 1}))
        with pytest.raises(TransportError) as raised:
            backend.complete(self.request())
        assert str(raised.value) == 'unrecognized response shape: {"foo": 1}'

    def test_body_that_is_not_json_is_bad(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        backend = HttpBackend(self.config(), post=lambda *a: NotJson(200))
        with pytest.raises(TransportError) as raised:
            backend.complete(self.request())
        assert str(raised.value) == "bad response body: Expecting value"

    @pytest.mark.parametrize("response, message", [
        (FakeResponse(404, text="gone"), "HTTP 404: gone"),
        (FakeResponse(200, {"foo": 1}), 'unrecognized response shape: {"foo": 1}'),
        (NotJson(200), "bad response body: Expecting value"),
    ], ids=["404", "unrecognized-shape", "not-json"])
    @pytest.mark.parametrize("max_concurrent", [1, 4])
    def test_failure_quarantines_each_heuristic(self, monkeypatch, response, message,
                                                max_concurrent):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        backend = HttpBackend(self.config(max_concurrent=max_concurrent),
                              post=lambda *a: response, sleep=lambda s: None)
        results, merged = run_all(SCENE_BASE, backend, PROMPTS, max_concurrent=max_concurrent)
        assert [(r.quarantined, [(d.code, d.message) for d in r.diagnostics])
                for r in results] == [
            (True, [(RESPONSE_INVALID, f"backend failure: {message}")])] * len(HEURISTICS)
        assert merged.triples == SCENE_BASE.triples

    def test_missing_endpoint_rejected(self):
        with pytest.raises(ValueError, match="^backend endpoint is not configured$"):
            HttpBackend(self.config(endpoint=""))

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError, match="max_concurrent"):
            HttpBackend(self.config(max_concurrent=0))

    def test_retries_exhausted(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        backend = HttpBackend(self.config(retries=1), post=lambda *a, **k: FakeResponse(503),
                              sleep=lambda s: None)
        with pytest.raises(TransportError):
            backend.complete(self.request())

    def test_anthropic_style_content_shape(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        backend = HttpBackend(
            self.config(),
            post=lambda *a, **k: FakeResponse(200, {"content": [{"type": "text", "text": "hi"}]}))
        assert backend.complete(self.request()) == "hi"

    def test_payload_settings_come_from_the_config(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        payloads = []

        def post(url, payload, headers, timeout):
            payloads.append(payload)
            return FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})

        backend = HttpBackend(self.config(max_tokens=77, temperature=0.25), post=post)
        assert backend.complete(self.request()) == "ok"
        assert backend.describe(b"\x89PNG fake", "image/png") == "ok"
        for payload in payloads:
            assert {key: payload[key] for key in payload if key != "messages"} == {
                "model": "test-model", "max_tokens": 77, "temperature": 0.25}
        assert payloads[0]["messages"] == [{"role": "system", "content": "sys"},
                                           {"role": "user", "content": "user"}]

    def test_describe_sends_image_payload(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        captured = {}

        def post(url, payload, headers, timeout):
            captured.update(payload)
            return FakeResponse(200, {"choices": [{"message": {"content": "a scene"}}]})

        backend = HttpBackend(self.config(), post=post)
        assert backend.describe(b"\x89PNG fake", "image/png") == "a scene"
        parts = captured["messages"][0]["content"]
        kinds = {part["type"] for part in parts}
        assert kinds == {"text", "image_url"}
        image_part = next(p for p in parts if p["type"] == "image_url")
        assert image_part["image_url"]["url"] == "data:image/png;base64,iVBORyBmYWtl"

    @pytest.mark.parametrize("suffix, mime", [
        (".png", "image/png"), (".jpg", "image/jpeg"), (".jpeg", "image/jpeg"),
        (".webp", "image/webp"), (".gif", "image/gif"), (".PNG", "image/png"),
    ], ids=["png", "jpg", "jpeg", "webp", "gif", "PNG"])
    def test_each_image_format_is_posted_as_a_data_url(self, monkeypatch, tmp_path,
                                                       suffix, mime):
        """``pipeline.describe`` of an image file posts the whole payload
        written out here: the file as a data URL of its format's type, after
        the prompt text, under the config's settings."""
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        image = tmp_path / f"scene{suffix}"
        image.write_bytes(b"\x00\xffimage bytes\n")
        sent = []

        def post(url, payload, headers, timeout):
            sent.append((url, payload, headers, timeout))
            return FakeResponse(200, {"choices": [{"message": {"content": "a scene"}}]})

        assert describe(image, HttpBackend(self.config(), post=post)) == "a scene"
        assert sent == [("https://api.example/v1/chat", {
            "model": "test-model", "max_tokens": 2048, "temperature": 0.0,
            "messages": [{"role": "user", "content": [
                {"type": "text",
                 "text": "Describe this picture in natural language, in one dense paragraph."},
                {"type": "image_url",
                 "image_url": {"url": f"data:{mime};base64,AP9pbWFnZSBieXRlcwo="}},
            ]}],
        }, {"Authorization": "Bearer k", "Content-Type": "application/json"}, 60.0)]

    def test_describe_rejects_unknown_image_format(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        bad = tmp_path / "scene.bmp"
        bad.write_bytes(b"BM")
        sent = []
        backend = HttpBackend(self.config(), post=lambda *a, **k: sent.append(a))
        with pytest.raises(BackendError, match="^unsupported image format '.bmp'$"):
            describe(bad, backend)
        assert sent == []

    def test_describe_of_an_unreadable_image_sends_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        sent = []
        backend = HttpBackend(self.config(), post=lambda *a, **k: sent.append(a))
        with pytest.raises(BackendError, match="cannot read image .*scene.png"):
            describe(tmp_path / "scene.png", backend)
        assert sent == []

    def test_canned_backends_without_an_answer(self, tmp_path):
        with pytest.raises(TransportError, match="no canned image description"):
            MappingBackend({}).describe(b"\x89PNG fake", "image/png")
        with pytest.raises(FileNotFoundError, match="mock directory not found"):
            MockBackend(tmp_path / "missing")


class Endpoint:
    """An injected ``post`` for ``HttpBackend``: answers each heuristic with
    its bundled mock response and records the most calls in flight at once.

    ``statuses`` maps a heuristic to the statuses its first attempts get
    before a 200. A call waits (at most 5 s) until ``gate`` calls have been
    in flight at once, so a cap of ``gate`` is reached, then stays in flight
    2 ms, so calls past a cap would overlap.

    The first ``fail_first`` calls get 503 whoever makes them. A call from a
    heuristic that got none of those waits until that many back-offs
    (``sleep``) have begun, and each back-off lasts until such a call is
    made after it began; ``backoffs`` records whether it was.
    """

    def __init__(self, statuses=None, gate=1, fail_first=0):
        self.responses = MockBackend(MOCKS).responses
        self.statuses = {name: list(codes) for name, codes in (statuses or {}).items()}
        self.gate = gate
        self.fail_first = fail_first
        self.failed = set()
        self.backoffs = []
        self.cond = threading.Condition()
        self.in_flight = self.peak = self.calls = self.fresh_calls = 0

    def __call__(self, url, payload, headers, timeout):
        system = payload["messages"][0]["content"]
        name = next(spec.name for spec in HEURISTICS if f"<{spec.namespace}>" in system)
        with self.cond:
            self.calls += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.cond.notify_all()
            self.cond.wait_for(lambda: self.peak >= self.gate, timeout=5)
            codes = self.statuses.get(name)
            if self.calls <= self.fail_first:
                status = 503
                self.failed.add(name)
            else:
                status = codes.pop(0) if codes else 200
                if name not in self.failed:
                    self.cond.wait_for(lambda: len(self.backoffs) >= self.fail_first, timeout=5)
                    self.fresh_calls += 1
                    self.cond.notify_all()
        time.sleep(0.002)
        with self.cond:
            self.in_flight -= 1
        return FakeResponse(status, {"choices": [{"message": {"content": self.responses[name]}}]})

    def sleep(self, delay):
        with self.cond:
            index, seen = len(self.backoffs), self.fresh_calls
            self.backoffs.append(False)
            self.cond.notify_all()
            self.backoffs[index] = self.cond.wait_for(lambda: self.fresh_calls > seen, timeout=5)


class TestRequestsInFlight:
    """``max_concurrent`` bounds the HTTP attempts one backend has in flight,
    not the heuristics ``run_all`` has in progress."""

    @pytest.fixture(autouse=True)
    def credential(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")

    def backend(self, endpoint, max_concurrent, sleep=lambda s: None):
        config = BackendConfig(endpoint="https://api.example/v1/chat", model="test-model",
                               credential_env="XKG_TEST_KEY", retries=2,
                               max_concurrent=max_concurrent)
        return HttpBackend(config, post=endpoint, sleep=sleep)

    @pytest.mark.parametrize("cap", [1, 2, 4])
    def test_in_flight_reaches_the_cap_and_never_passes_it(self, cap):
        endpoint = Endpoint(gate=cap)
        results, _ = run_all(SCENE_BASE, self.backend(endpoint, cap), PROMPTS, max_concurrent=cap)
        assert endpoint.peak == cap
        assert endpoint.calls == len(HEURISTICS) == len(results)

    def test_backoff_holds_no_slot(self):
        # One request in flight at most; the first two requests get 503, and
        # each back-off lasts until a heuristic that got no 503 sends one. A
        # back-off that held the slot, or a worker of a two-thread pool,
        # would leave no one to send it.
        endpoint = Endpoint(fail_first=2)
        backend = self.backend(endpoint, 1, sleep=endpoint.sleep)
        results, _ = run_all(SCENE_BASE, backend, PROMPTS, max_concurrent=2)
        assert endpoint.backoffs == [True, True]
        assert endpoint.peak == 1 and endpoint.calls == len(HEURISTICS) + 2
        assert all(r.raw_response for r in results)

    def test_a_request_goes_out_while_another_backs_off(self):
        # One slot. The first request gets a 503, and during its back-off a
        # second request, sent from another thread, must be answered. A
        # back-off that held the slot would keep it waiting past the join.
        statuses = [503]

        def post(url, payload, headers, timeout):
            text = payload["messages"][1]["content"]
            return FakeResponse(statuses.pop() if statuses else 200,
                                {"choices": [{"message": {"content": text}}]})

        answered = []

        def sleep(delay):
            other = threading.Thread(target=lambda: answered.append(
                backend.complete(PromptRequest("system", "second"))))
            other.start()
            other.join(timeout=5)
            answered.append(not other.is_alive())

        backend = self.backend(post, 1, sleep=sleep)
        assert backend.complete(PromptRequest("system", "first")) == "first"
        assert answered == ["second", True]

    def test_two_runs_sharing_a_backend_stay_within_its_cap(self):
        endpoint = Endpoint(gate=3)
        backend = self.backend(endpoint, 3)
        outcomes = []
        runs = [threading.Thread(target=lambda: outcomes.append(
                    run_all(SCENE_BASE, backend, PROMPTS, max_concurrent=3)))
                for _ in range(2)]
        # 22 heuristic threads switching every 10 us, so a slot taken or
        # given back without the semaphore's lock would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for run in runs:
                run.start()
            for run in runs:
                run.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(run.is_alive() for run in runs) and len(outcomes) == 2
        assert endpoint.peak == 3 and endpoint.calls == 2 * len(HEURISTICS)
        assert serialize_turtle(outcomes[0][1]) == serialize_turtle(outcomes[1][1])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_outcome_at_any_concurrency_under_retries(self, seed):
        # Up to three 503/429 answers per heuristic; three exhaust retries=2,
        # which quarantines the heuristic for RESPONSE_INVALID.
        rng = random.Random(seed)
        statuses = {spec.name: [rng.choice([503, 429]) for _ in range(rng.randrange(4))]
                    for spec in HEURISTICS}
        outcomes = []
        for cap in (1, 4):
            endpoint = Endpoint(statuses)
            results, merged = run_all(SCENE_BASE, self.backend(endpoint, cap), PROMPTS,
                                      max_concurrent=cap)
            assert endpoint.calls == sum(min(len(codes) + 1, 3) for codes in statuses.values())
            outcomes.append(([(r.heuristic, r.added, r.quarantined, r.diagnostics,
                               r.raw_response) for r in results], serialize_turtle(merged)))
        assert outcomes[0] == outcomes[1]


class CountingPost:
    """An injected ``post`` for ``HttpBackend`` that counts the requests it
    is sent and answers each with an empty completion."""

    def __init__(self):
        self.requests = []

    def __call__(self, url, payload, headers, timeout):
        self.requests.append(payload)
        return FakeResponse(200, {"choices": [{"message": {"content": ""}}]})


def _break_last_template(prompts, fault):
    """Break the last heuristic's template: remove it, make it unreadable,
    or drop its placeholder."""
    path = prompts / HEURISTICS[-1].prompt_template
    if fault == "missing":
        path.unlink()
    elif fault == "unreadable":
        path.write_bytes(b"\xff {{graph}}")
    else:
        path.write_text("no slot here", encoding="utf-8")


class TestNoRequestBeforeALocalFault:
    """A fault that needs no model to find ends the run before any request,
    at any concurrency."""

    @pytest.fixture(autouse=True)
    def credential(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")

    def backend(self, post, max_concurrent):
        return HttpBackend(BackendConfig(endpoint="https://api.example/v1/chat", model="m",
                                         credential_env="XKG_TEST_KEY",
                                         max_concurrent=max_concurrent), post=post)

    @pytest.mark.parametrize("max_concurrent", [1, 4])
    @pytest.mark.parametrize("fault, error, message", [
        ("missing", MissingTemplateError, "prompt template not found: potential-non-events.txt"),
        ("unreadable", EnrichmentError, "cannot read prompt template "),
        ("no-placeholder", MissingPlaceholderError,
         "template potential-non-events.txt has no {{graph}} placeholder"),
    ], ids=["missing", "unreadable", "no-placeholder"])
    def test_bad_last_template(self, tmp_path, max_concurrent, fault, error, message):
        prompts = shutil.copytree(PROMPTS, tmp_path / "prompts")
        _break_last_template(prompts, fault)
        post = CountingPost()
        with pytest.raises(error) as raised:
            run_all(SCENE_BASE, self.backend(post, max_concurrent), prompts,
                    max_concurrent=max_concurrent)
        assert type(raised.value) is error and str(raised.value).startswith(message)
        assert post.requests == []

    @pytest.mark.parametrize("max_concurrent", [1, 4])
    def test_empty_base(self, max_concurrent):
        post = CountingPost()
        with pytest.raises(EnrichmentError, match="^base graph is empty$"):
            run_all(RdfGraph(), self.backend(post, max_concurrent), PROMPTS,
                    max_concurrent=max_concurrent)
        assert post.requests == []

    @pytest.mark.parametrize("max_concurrent", [1, 4])
    def test_two_graph_penman_sends_no_image(self, tmp_path, max_concurrent):
        image = tmp_path / "scene.png"
        image.write_bytes(b"\x89PNG fake")
        post = CountingPost()
        backend = self.backend(post, max_concurrent)
        config = default_config()._replace(backend=backend.config)
        with pytest.raises(AmrError, match="found 2"):
            run_pipeline(image, "(a / cat)\n(b / dog)\n", config, backend)
        assert post.requests == []
