import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xkg.backends import (
    AuthError,
    BackendConfig,
    BudgetExceededError,
    HttpBackend,
    MappingBackend,
    MockBackend,
    TransportError,
)
from xkg.config import default_resource_paths
from xkg.enrichment import (
    HEURISTIC_BY_NAME,
    HEURISTICS,
    MissingPlaceholderError,
    MissingTemplateError,
    NoTurtleFoundError,
    PromptRequest,
    assemble_prompt,
    extract_turtle,
    read_system_template,
    run_all,
    run_heuristic,
)
from xkg.rdf import (
    FRED_NS,
    Iri,
    RdfGraph,
    Triple,
    parse_turtle,
    serialize_turtle,
    standard_prefixes,
)
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
SYSTEM = read_system_template(PROMPTS)

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
    def test_empty_base_gives_prefix_only_graph_slot(self):
        request = assemble_prompt(serialize_turtle(RdfGraph()), SYSTEM,
                                  FACTUAL, PROMPTS)
        graph_lines = [l for l in request.user_text.splitlines() if l.startswith("@prefix")]
        assert graph_lines
        assert "fred:" not in request.user_text.replace(
            "@prefix fred: <http://www.ontologydesignpatterns.org/ont/fred/domain.owl#> .", "")

    def test_base_graph_embedded(self):
        request = assemble_prompt(SCENE_TURTLE, SYSTEM, FACTUAL, PROMPTS)
        assert "fred:athlete_1" in request.user_text
        assert SCENE_TURTLE in request.user_text
        assert request.tag == "FactualImpact"

    def test_byte_identical_requests(self):
        first = assemble_prompt(SCENE_TURTLE, SYSTEM, FACTUAL, PROMPTS)
        second = assemble_prompt(SCENE_TURTLE, SYSTEM, FACTUAL, PROMPTS)
        assert first == second

    def test_missing_template(self, tmp_path):
        with pytest.raises(MissingTemplateError):
            read_system_template(tmp_path)
        with pytest.raises(MissingTemplateError):
            assemble_prompt(SCENE_TURTLE, SYSTEM, FACTUAL, tmp_path)

    def test_missing_placeholder(self, tmp_path):
        (tmp_path / "system.txt").write_text("sys", encoding="utf-8")
        (tmp_path / FACTUAL.prompt_template).write_text("no slot here", encoding="utf-8")
        with pytest.raises(MissingPlaceholderError):
            assemble_prompt(SCENE_TURTLE, SYSTEM, FACTUAL, tmp_path)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            PromptRequest("s", "u", max_tokens=0, temperature=0.0)
        with pytest.raises(ValueError):
            PromptRequest("s", "u", max_tokens=10, temperature=-1.0)


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
        result = run_heuristic(SCENE_BASE, SCENE_TURTLE, SYSTEM, FACTUAL, backend, PROMPTS)
        assert len(result.added) == 5
        assert not result.failed
        assert [d for d in result.diagnostics if d.code == ANCHOR_FLOAT] == []
        assert result.xkg.triples == SCENE_BASE.triples | result.added

    def test_floating_triples_flagged(self):
        backend = MappingBackend({
            "FactualImpact": "@prefix x: <http://x.example/> . x:a x:p x:b ."})
        result = run_heuristic(SCENE_BASE, SCENE_TURTLE, SYSTEM, FACTUAL, backend, PROMPTS)
        floats = [d for d in result.diagnostics if d.code == ANCHOR_FLOAT]
        assert len(floats) == 1
        assert result.failed

    def test_pbrs_predicate_flagged(self):
        backend = MappingBackend({
            "FactualImpact":
            "@prefix fred: <http://www.ontologydesignpatterns.org/ont/fred/domain.owl#> .\n"
            "@prefix pbrs: <https://w3id.org/framester/data/propbank-3.4.0/RoleSet/> .\n"
            "fred:spectator_1 pbrs:cheer-01.agent fred:athlete_1 ."})
        result = run_heuristic(SCENE_BASE, SCENE_TURTLE, SYSTEM, FACTUAL, backend, PROMPTS)
        assert PREFIX_MISUSE in {d.code for d in result.diagnostics}

    def test_backend_failure_becomes_diagnostic(self):
        backend = MappingBackend({})
        result = run_heuristic(SCENE_BASE, SCENE_TURTLE, SYSTEM, FACTUAL, backend, PROMPTS)
        assert result.added == frozenset()
        assert [d.code for d in result.diagnostics] == [RESPONSE_INVALID]
        assert result.failed

    def test_unexpected_backend_exception_becomes_diagnostic(self):
        class Broken(MappingBackend):
            def complete(self, request):
                raise RuntimeError("boom")

        result = run_heuristic(SCENE_BASE, SCENE_TURTLE, SYSTEM, FACTUAL, Broken({}), PROMPTS)
        assert result.added == frozenset()
        assert [d.code for d in result.diagnostics] == [RESPONSE_INVALID]
        assert result.diagnostics[0].message == "backend failure: RuntimeError: boom"

    def test_unparseable_response_becomes_diagnostic(self):
        backend = MappingBackend({"FactualImpact": "I cannot help."})
        result = run_heuristic(SCENE_BASE, SCENE_TURTLE, SYSTEM, FACTUAL, backend, PROMPTS)
        assert result.added == frozenset()
        assert result.failed


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
        _, forced = run_all(SCENE_BASE, MappingBackend(responses), PROMPTS, force_merge=True)
        assert len(forced.triples) == len(SCENE_BASE.triples) + 1

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
        for graph in [merged] + [r.xkg for r in results]:
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
            # Its own extended graph still holds its additions.
            assert causal.xkg.triples == SCENE_BASE.triples | causal.added
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


class TestHttpBackend:
    def config(self, **overrides):
        settings = dict(endpoint="https://api.example/v1/chat", model="test-model",
                        credential_env="XKG_TEST_KEY", retries=2)
        settings.update(overrides)
        return BackendConfig(**settings)

    def request(self, max_tokens=64):
        return PromptRequest("sys", "user", max_tokens=max_tokens, temperature=0.0, tag="T")

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

    def test_retries_exhausted(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        backend = HttpBackend(self.config(retries=1), post=lambda *a, **k: FakeResponse(503),
                              sleep=lambda s: None)
        with pytest.raises(TransportError):
            backend.complete(self.request())

    def test_budget_cap(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        backend = HttpBackend(self.config(max_tokens_cap=32),
                              post=lambda *a, **k: FakeResponse(200))
        with pytest.raises(BudgetExceededError):
            backend.complete(self.request(max_tokens=64))

    def test_anthropic_style_content_shape(self, monkeypatch):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        backend = HttpBackend(
            self.config(),
            post=lambda *a, **k: FakeResponse(200, {"content": [{"type": "text", "text": "hi"}]}))
        assert backend.complete(self.request()) == "hi"

    def test_describe_sends_image_payload(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        image = tmp_path / "scene.png"
        image.write_bytes(b"\x89PNG fake")
        captured = {}

        def post(url, payload, headers, timeout):
            captured.update(payload)
            return FakeResponse(200, {"choices": [{"message": {"content": "a scene"}}]})

        backend = HttpBackend(self.config(), post=post)
        assert backend.describe(image) == "a scene"
        parts = captured["messages"][0]["content"]
        kinds = {part["type"] for part in parts}
        assert kinds == {"text", "image_url"}
        image_part = next(p for p in parts if p["type"] == "image_url")
        assert image_part["image_url"]["url"].startswith("data:image/png;base64,")

    def test_describe_rejects_unknown_image_format(self, monkeypatch, tmp_path):
        from xkg.backends import UnsupportedImageFormatError
        monkeypatch.setenv("XKG_TEST_KEY", "k")
        bad = tmp_path / "scene.bmp"
        bad.write_bytes(b"BM")
        backend = HttpBackend(self.config(), post=lambda *a, **k: FakeResponse(200))
        with pytest.raises(UnsupportedImageFormatError):
            backend.describe(bad)
