import json
import logging
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import xkg.cli
from xkg import run_pipeline
from xkg.backends import BackendConfig, MappingBackend, MockBackend
from xkg.cli import EXIT_CONFIG, EXIT_DIAGNOSTICS, EXIT_OK, main
from corpus import build_corpus
from strategies import ratings_csv_texts, turtle_documents
from xkg.config import (ResourcePaths, bundled_resources_root, default_config,
                        default_resource_paths)
from xkg.enrichment import HEURISTICS
from xkg.pipeline import enrich, validate
from xkg.rdf import (FRED_NS, XSD_INTEGER, BlankNode, Iri, Literal, RdfGraph, parse_turtle,
                     serialize_turtle)
from xkg.validation import (ANCHOR_FLOAT, DIAGNOSTIC_CODES, ERROR, FALLBACK_ROLE, INFO, WARN,
                            Diagnostic)

FIXTURES = bundled_resources_root() / "fixtures"
SCENE_TXT = str(FIXTURES / "athlete-scene.txt")
SCENE_AMR = str(FIXTURES / "athlete-scene.amr")


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


class TestDescribe:
    def test_text_passthrough_is_identity(self, tmp_path):
        code = main(["describe", "--text", SCENE_TXT, "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert read(tmp_path / "description.txt") == read(Path(SCENE_TXT))

    def test_mock_image_returns_canned_description(self, tmp_path):
        image = tmp_path / "scene.png"
        image.write_bytes(b"\x89PNG fake")
        code = main(["describe", "--image", str(image), "--mock", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "Saint Lucia" in read(tmp_path / "description.txt")

    def test_image_without_endpoint_is_config_error(self, tmp_path):
        image = tmp_path / "scene.png"
        image.write_bytes(b"\x89PNG fake")
        code = main(["describe", "--image", str(image), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_unsupported_image_format(self, tmp_path):
        bad = tmp_path / "scene.tiff"
        bad.write_bytes(b"II*")
        code = main(["describe", "--image", str(bad), "--mock", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["describe", "run"])
    def test_description_with_lone_surrogate_is_input_error(self, tmp_path, monkeypatch,
                                                            capsys, command):
        image = tmp_path / "scene.png"
        image.write_bytes(b"\x89PNG fake")
        monkeypatch.setattr(xkg.cli, "_make_backend",
                            lambda config, mock: MappingBackend({}, description="a\ud800"))
        argv = [command, "--image", str(image), "--mock", "--out", str(tmp_path / "out")]
        code = main(argv + (["--amr", SCENE_AMR] if command == "run" else []))
        assert code == EXIT_CONFIG
        assert "lone surrogate U+D800 at offset 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestBase:
    def test_scene_base_graph_contains_golden_triples(self, tmp_path):
        code = main(["base", "--amr", SCENE_AMR, "--out", str(tmp_path)])
        assert code == EXIT_OK
        text = read(tmp_path / "base-graph.ttl")
        for snippet in (
            "fred:Athlete rdfs:subClassOf dul:Person",
            "owl:equivalentClass wn30:synset-athlete-noun-1",
            "vn.role:Location fred:track_1",
            "pblr:celebrate-01.honorer fred:athlete_1",
            "pblr:celebrate-01.honored fred:win_1",
        ):
            assert snippet in text
        profile = json.loads(read(tmp_path / "base-profile.json"))
        assert profile["axioms"] > 0

    def test_empty_resources_yield_no_alignment_axioms(self, tmp_path):
        for name in ("rolesets.json", "alignments.json", "links.json"):
            (tmp_path / name).write_text("{}", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"resources": {
            "rolesets": "rolesets.json",
            "alignments": "alignments.json",
            "links": "links.json",
        }}), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["base", "--amr", SCENE_AMR, "--config", str(config), "--out", str(out)])
        assert code == EXIT_OK
        text = read(out / "base-graph.ttl")
        assert "subClassOf" not in text
        assert "equivalentClass" not in text
        assert "sameAs" not in text
        assert "pblr:celebrate-01.arg0" in text  # positional fallback roles

    def test_missing_amr_file(self, tmp_path):
        assert main(["base", "--amr", "/nope.amr", "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_bad_penman_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.amr"
        bad.write_text("(a / athlete", encoding="utf-8")
        assert main(["base", "--amr", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["base", "run"])
    @pytest.mark.parametrize("count", [0, 2])
    def test_penman_file_must_hold_one_graph(self, tmp_path, capsys, command, count):
        # Separate graphs reuse IRIs such as fred:x_1; translating them all
        # would merge unrelated individuals, translating one drops the rest.
        amr = tmp_path / "scenes.amr"
        amr.write_text("# only a comment\n" + "(x / athlete)\n# next\n" * count, encoding="utf-8")
        extra = ["--mock", "--text", SCENE_TXT] if command == "run" else []
        code = main([command, *extra, "--amr", str(amr), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"found {count}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_two_graphs_on_one_line_are_two(self, tmp_path, capsys):
        amr = tmp_path / "scenes.amr"
        amr.write_text("(x / athlete) (y / athlete)\n", encoding="utf-8")
        assert main(["base", "--amr", str(amr), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "expected one PENMAN graph, found 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["base", "run"])
    @pytest.mark.parametrize("concept", [f"cat{c}x" for c in '<>"{}|\\^`'] + ['"big"'])
    def test_concept_no_iri_can_hold_is_input_error(self, tmp_path, capsys, command, concept):
        amr = tmp_path / "scene.amr"
        amr.write_text(f"(a / {concept} :mod (b / big))", encoding="utf-8")
        extra = ["--mock", "--text", SCENE_TXT] if command == "run" else []
        code = main([command, *extra, "--amr", str(amr), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: concept {concept!r} cannot be part of an IRI"]
        assert not (tmp_path / "out").exists()


@pytest.fixture()
def base_graph_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("base")
    assert main(["base", "--amr", SCENE_AMR, "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    # The merged graph deliberately carries the metonymic inconsistency.
    code = main(["run", "--mock", "--text", SCENE_TXT, "--amr", SCENE_AMR, "--out", str(out)])
    assert code == EXIT_DIAGNOSTICS
    return out


class TestEnrich:
    def test_single_heuristic_mock(self, base_graph_dir, tmp_path):
        code = main(["enrich", "--base", str(base_graph_dir / "base-graph.ttl"),
                     "--heuristic", "FactualImpact", "--mock", "--out", str(tmp_path)])
        assert code == EXIT_OK
        text = read(tmp_path / "xkg-FactualImpact.ttl")
        assert "impact:hasExpectedEmotion impact:Joy" in text
        assert "impact:hasExpectedPhysicalState impact:Exhilaration" in text

    def test_all_heuristics_write_all_outputs(self, base_graph_dir, tmp_path):
        code = main(["enrich", "--base", str(base_graph_dir / "base-graph.ttl"),
                     "--mock", "--out", str(tmp_path)])
        assert code == EXIT_OK
        files = {p.name for p in tmp_path.iterdir()}
        assert "xkg-merged.ttl" in files and "diagnostics.json" in files
        assert sum(1 for name in files if name.startswith("xkg-")) == 12

    def test_unknown_heuristic_rejected(self, base_graph_dir, tmp_path):
        code = main(["enrich", "--base", str(base_graph_dir / "base-graph.ttl"),
                     "--heuristic", "Nope", "--mock", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_empty_base_is_input_error(self, tmp_path):
        empty = tmp_path / "empty.ttl"
        empty.write_text("", encoding="utf-8")
        code = main(["enrich", "--base", str(empty), "--mock", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_floating_mock_quarantined_with_exit_code(self, base_graph_dir, tmp_path):
        mocks = tmp_path / "mocks"
        mocks.mkdir()
        (mocks / "FactualImpact.ttl").write_text(
            "@prefix x: <http://x.example/> . x:a x:p x:b .", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"resources": {"mock_dir": "mocks"}}), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["enrich", "--base", str(base_graph_dir / "base-graph.ttl"),
                     "--heuristic", "FactualImpact", "--mock",
                     "--config", str(config), "--out", str(out)])
        assert code == EXIT_DIAGNOSTICS
        diagnostics = json.loads(read(out / "diagnostics.json"))
        assert diagnostics["FactualImpact"]["quarantined"] is True
        merged = parse_turtle(read(out / "xkg-merged.ttl"))
        base = parse_turtle(read(base_graph_dir / "base-graph.ttl"))
        assert merged.triples == base.triples

    def test_force_merge_overrides_quarantine(self, base_graph_dir, tmp_path):
        mocks = tmp_path / "mocks"
        mocks.mkdir()
        (mocks / "FactualImpact.ttl").write_text(
            "@prefix x: <http://x.example/> . x:a x:p x:b .", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"resources": {"mock_dir": "mocks"}}), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["enrich", "--base", str(base_graph_dir / "base-graph.ttl"),
                     "--heuristic", "FactualImpact", "--mock", "--force-merge",
                     "--config", str(config), "--out", str(out)])
        assert code == EXIT_OK
        merged = parse_turtle(read(out / "xkg-merged.ttl"))
        base = parse_turtle(read(base_graph_dir / "base-graph.ttl"))
        assert len(merged.triples) == len(base.triples) + 1


    def test_prefix_conflict_quarantines_later_heuristic_despite_force_merge(
            self, base_graph_dir, tmp_path):
        mocks = tmp_path / "mocks"
        mocks.mkdir()
        for name, ns in (("FactualImpact", "http://a/"), ("CausalRelations", "http://b/")):
            (mocks / f"{name}.ttl").write_text(
                f"@prefix fred: <{FRED_NS}> .\n@prefix ex: <{ns}> .\nfred:athlete_1 ex:p ex:x .",
                encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"resources": {"mock_dir": "mocks"}}), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["enrich", "--base", str(base_graph_dir / "base-graph.ttl"),
                     "--heuristic", "FactualImpact,CausalRelations", "--mock", "--force-merge",
                     "--config", str(config), "--out", str(out)])
        assert code == EXIT_DIAGNOSTICS
        diagnostics = json.loads(read(out / "diagnostics.json"))
        assert diagnostics["FactualImpact"]["quarantined"] is False
        assert diagnostics["CausalRelations"]["quarantined"] is True
        assert "PREFIX_CONFLICT" in [d["code"] for d in diagnostics["CausalRelations"]["diagnostics"]]
        causal = read(out / "xkg-CausalRelations.ttl")
        assert "@prefix ex: <http://b/> ." in causal and "ex:p ex:x" in causal
        merged = read(out / "xkg-merged.ttl")
        assert "@prefix ex: <http://a/> ." in merged and "http://b/" not in merged


    def test_heuristic_listing_order_does_not_matter(self, base_graph_dir, tmp_path):
        mocks = tmp_path / "mocks"
        mocks.mkdir()
        for name, ns in (("FactualImpact", "http://a/"), ("CausalRelations", "http://b/")):
            (mocks / f"{name}.ttl").write_text(
                f"@prefix fred: <{FRED_NS}> .\n@prefix ex: <{ns}> .\nfred:athlete_1 ex:p ex:x .",
                encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"resources": {"mock_dir": "mocks"}}), encoding="utf-8")
        outs = []
        for listing in ("FactualImpact,CausalRelations", "CausalRelations,FactualImpact"):
            outs.append(tmp_path / listing.replace(",", "-"))
            assert main(["enrich", "--base", str(base_graph_dir / "base-graph.ttl"),
                         "--heuristic", listing, "--mock", "--config", str(config),
                         "--out", str(outs[-1])]) == EXIT_DIAGNOSTICS
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        # Registry order: FactualImpact runs first and keeps its prefix.
        diagnostics = json.loads(read(outs[1] / "diagnostics.json"))
        assert list(diagnostics) == ["FactualImpact", "CausalRelations"]
        assert diagnostics["CausalRelations"]["quarantined"] is True

    def test_base_binding_a_heuristic_label_elsewhere_quarantines_it(self, base_graph_dir,
                                                                      tmp_path, capsys):
        base = tmp_path / "base.ttl"
        base.write_text("@prefix presup: <http://other.example/> .\n"
                        + read(base_graph_dir / "base-graph.ttl"), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["enrich", "--base", str(base), "--mock", "--out", str(out)])
        assert code == EXIT_DIAGNOSTICS
        assert "error:" not in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["diagnostics.json", "xkg-merged.ttl", *(f"xkg-{s.name}.ttl" for s in HEURISTICS)])
        diagnostics = json.loads(read(out / "diagnostics.json"))
        assert diagnostics["Presuppositions"] == {"added": 0, "quarantined": True, "diagnostics": [{
            "severity": "ERROR", "code": "PREFIX_CONFLICT", "subject": None,
            "message": "not run: prefix 'presup:' bound to both <http://other.example/> and "
                       "<https://w3id.org/xkg/presupposition#>"}]}
        assert parse_turtle(read(out / "xkg-Presuppositions.ttl")).triples == parse_turtle(
            read(base)).triples
        assert [name for name, entry in diagnostics.items() if entry["quarantined"]] == [
            "Presuppositions"]

    def test_duplicated_heuristic_runs_once(self, base_graph_dir, tmp_path, monkeypatch):
        backend = MockBackend(default_config().require_resources().mock_dir)
        monkeypatch.setattr(xkg.cli, "_make_backend", lambda config, mock: backend)
        code = main(["enrich", "--base", str(base_graph_dir / "base-graph.ttl"),
                     "--heuristic", "FactualImpact, FactualImpact", "--mock",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert [request.tag for request in backend.requests] == ["FactualImpact"]
        assert list(json.loads(read(tmp_path / "diagnostics.json"))) == ["FactualImpact"]


class TestJsonWriter:
    def test_writes_json_dumps_bytes(self, tmp_path):
        payload = {"diagnostics": [{"severity": "ERROR", "subject": None, "message": "é\x00\n"}],
                   "profile": {"axioms": 3, "new_op": None}, "empty": [[], {}], "ratio": 0.5,
                   "flags": (True, False)}
        xkg.cli._write_json(tmp_path / "report.json", payload)
        expected = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        assert (tmp_path / "report.json").read_bytes() == expected


# Diagnostics as the validators build them: every registered code, every
# subject kind, and messages and labels with non-ASCII text, control
# characters and lone surrogates.
_chars = st.one_of(st.characters(), st.sampled_from("\x00\x1f\x7f\"\\\u00e9\u2028\ud800\udfff"))
_texts = st.text(_chars, max_size=8)
_iris = st.text("aZ09#/:%-._~\u00e9", max_size=6).map(lambda s: Iri("http://x.example/" + s))
_subjects = st.one_of(
    st.none(), _iris, st.builds(BlankNode, _texts),
    st.builds(Literal, _texts, st.sampled_from([None, XSD_INTEGER])),
    st.builds(Literal, _texts, st.none(), st.just("en")))
# Small pools, so that a list repeats (severity, code) pairs and subjects:
# one code under two severities, and an IRI, a blank node and a literal whose
# texts coincide ("_:urn:x"), beside an IRI and a literal that share the
# blank node's label.
_HEADS = [(INFO, FALLBACK_ROLE), (WARN, FALLBACK_ROLE), (ERROR, ANCHOR_FLOAT)]
_SUBJECT_POOL = [None, Iri("_:urn:x"), BlankNode("urn:x"), Literal("_:urn:x"), Iri("urn:x"),
                 Literal("urn:x", language="en")]
_diagnostics = st.lists(st.builds(
    lambda head, message, subject: Diagnostic(*head, message, subject),
    st.one_of(st.sampled_from(_HEADS), st.tuples(st.sampled_from([ERROR, WARN, INFO]),
                                                 st.sampled_from(sorted(DIAGNOSTIC_CODES)))),
    st.one_of(st.sampled_from(["m", "\u00e9"]), _texts),
    st.one_of(st.sampled_from(_SUBJECT_POOL), _subjects)), max_size=20)
_nodes = st.one_of(st.sampled_from([Iri("http://x.example/a"), Iri("urn:x")]), _iris)
_indents = st.sampled_from(["\n", "\n  ", "\n    ", "\n      "])


def _diagnostics_reference(results) -> str:
    """``diagnostics.json`` through the dict-building writer."""
    return json.dumps({
        r.heuristic: {"added": len(r.added), "quarantined": r.quarantined,
                      "diagnostics": [d.to_dict() for d in r.diagnostics]}
        for r in results}, indent=2) + "\n"


class TestReportTemplates:
    """The per-diagnostic templates write the bytes of ``json.dumps(indent=2)``
    over ``to_dict``."""

    def test_repeated_heads_and_subjects(self):
        # Every pooled (severity, code) pair with every pooled subject: each
        # head comes six times and each subject three.
        diagnostics = [Diagnostic(severity, code, 'a "m\u00e9"\n', subject)
                       for severity, code in _HEADS for subject in _SUBJECT_POOL]
        expected = json.dumps([d.to_dict() for d in diagnostics], indent=2)
        for outer in ("\n", "\n    "):
            assert xkg.cli._diagnostics_json(diagnostics, outer) == expected.replace("\n", outer)

    @settings(max_examples=300, deadline=None)
    @given(_diagnostics, _indents)
    def test_diagnostics_equal_json_of_to_dict(self, diagnostics, outer):
        expected = json.dumps([d.to_dict() for d in diagnostics], indent=2)
        assert xkg.cli._diagnostics_json(diagnostics, outer) == expected.replace("\n", outer)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_nodes, _nodes), max_size=20), _indents)
    def test_pairs_equal_json_of_values(self, pairs, outer):
        expected = json.dumps([[a.value, b.value] for a, b in pairs], indent=2)
        assert xkg.cli._pairs_json(pairs, outer) == expected.replace("\n", outer)

    @pytest.mark.parametrize("responses", [
        {},
        {"FactualImpact": "@prefix x: <http://x.example/> . x:a x:p x:b .",
         "CausalRelations": "not turtle at all {"},
    ], ids=["no-results", "quarantined"])
    def test_diagnostics_file(self, tmp_path, responses):
        base = parse_turtle(read(Path(__file__).parent / "golden" / "base-graph.ttl"))
        specs = [spec for spec in HEURISTICS if spec.name in responses]
        results, merged = enrich(base, MappingBackend(responses), default_config(), specs)
        assert [r.quarantined for r in results] == [True] * len(responses)
        code = xkg.cli._write_enrichment(tmp_path, base, results, merged)
        assert code == (EXIT_DIAGNOSTICS if responses else EXIT_OK)
        assert read(tmp_path / "diagnostics.json") == _diagnostics_reference(results)

    def test_extension_files_equal_serialize_turtle(self, tmp_path):
        # Two merged results share a triple; a floating one is quarantined.
        base = parse_turtle(read(Path(__file__).parent / "golden" / "base-graph.ttl"))
        shared = f"@prefix fred: <{FRED_NS}> . fred:athlete_1 fred:p fred:x . "
        responses = {"FactualImpact": shared + "fred:x fred:q fred:y .",
                     "CausalRelations": shared + "fred:athlete_1 fred:r 3 .",
                     "EventSequences": "@prefix x: <http://x.example/> . x:a x:p x:b ."}
        specs = [spec for spec in HEURISTICS if spec.name in responses]
        results, merged = enrich(base, MappingBackend(responses), default_config(), specs)
        assert {r.heuristic: r.quarantined for r in results} == {
            "FactualImpact": False, "CausalRelations": False, "EventSequences": True}
        assert xkg.cli._write_enrichment(tmp_path, base, results, merged) == EXIT_DIAGNOSTICS
        for result in results:
            assert read(tmp_path / f"xkg-{result.heuristic}.ttl") == serialize_turtle(result.xkg)
        assert read(tmp_path / "xkg-merged.ttl") == serialize_turtle(merged)

    @pytest.mark.parametrize("name", ["empty", "corpus"])
    def test_validation_report(self, tmp_path, name):
        corpus = build_corpus()
        graph = (RdfGraph() if name == "empty" else
                 RdfGraph(corpus.base.triples.union(*corpus.additions.values()),
                          corpus.base.prefixes))
        report = validate(graph, None, default_config().require_resources())
        xkg.cli._write_validation(tmp_path, report)
        expected = json.dumps(report.to_dict(), indent=2) + "\n"
        assert read(tmp_path / "validation-report.json") == expected


class TestValidate:
    def test_clean_base_has_no_errors(self, base_graph_dir, tmp_path):
        code = main(["validate", "--graph", str(base_graph_dir / "base-graph.ttl"),
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads(read(tmp_path / "validation-report.json"))
        assert [d for d in report["diagnostics"] if d["severity"] == "ERROR"] == []

    def test_metonymic_xkg_reports_clash(self, base_graph_dir, tmp_path):
        enrich_out = tmp_path / "enrich"
        main(["enrich", "--base", str(base_graph_dir / "base-graph.ttl"),
              "--heuristic", "MetonymicCoercion", "--mock", "--out", str(enrich_out)])
        code = main(["validate", "--graph", str(enrich_out / "xkg-MetonymicCoercion.ttl"),
                     "--base", str(base_graph_dir / "base-graph.ttl"),
                     "--out", str(tmp_path)])
        assert code == EXIT_DIAGNOSTICS
        report = json.loads(read(tmp_path / "validation-report.json"))
        clashes = [d for d in report["diagnostics"] if d["code"] == "DISJOINT_CLASH"]
        assert clashes
        assert "athlete_1 -> Athlete -> Person -> Agent -> Object" in clashes[0]["message"]

    def test_event_sequences_inferred_pairs_listed(self, base_graph_dir, tmp_path):
        enrich_out = tmp_path / "enrich"
        main(["enrich", "--base", str(base_graph_dir / "base-graph.ttl"),
              "--heuristic", "EventSequences", "--mock", "--out", str(enrich_out)])
        code = main(["validate", "--graph", str(enrich_out / "xkg-EventSequences.ttl"),
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads(read(tmp_path / "validation-report.json"))
        inferred = {tuple(pair) for pair in report["precedence"]["inferred"]}
        fred = "http://www.ontologydesignpatterns.org/ont/fred/domain.owl#"
        for earlier in ("wear_1", "race_1", "competition_1", "win_1"):
            assert (fred + earlier, fred + "celebrate_1") in inferred


class TestValidateConfig:
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_cyclic_mini_ontology_is_config_error(self, tmp_path, capsys, command):
        (tmp_path / "onto.ttl").write_text(
            "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
            "@prefix ex: <http://example.org/> .\n"
            "ex:A rdfs:subClassOf ex:B .\nex:B rdfs:subClassOf ex:A .\n", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"resources": {"mini_ontology": "onto.ttl"}}),
                          encoding="utf-8")
        args = (["validate", "--graph", str(Path(__file__).parent / "golden" / "base-graph.ttl")]
                if command == "validate" else
                ["run", "--mock", "--text", SCENE_TXT, "--amr", SCENE_AMR])
        code = main(args + ["--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "cyclic subclass hierarchy: A -> B -> A" in capsys.readouterr().err


class TestAgree:
    def test_perfect_agreement_alphas(self, tmp_path):
        ratings = tmp_path / "ratings.csv"
        rows = ["item_id,heuristic,annotator,score"]
        for h in ("FactualImpact", "EventSequences"):
            for i in range(4):
                score = (i % 2) * 4 + 1  # 1 or 5, same for every annotator
                for a in range(3):
                    rows.append(f"{h}-{i},{h},ann{a},{score}")
        ratings.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["agree", "--ratings", str(ratings), "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads(read(tmp_path / "agreement-report.json"))
        assert all(h["krippendorff_alpha"] == 1.0 for h in report["heuristics"])
        assert all(h["mean_kappa"] == 1.0 for h in report["heuristics"])

    def test_hand_computed_kappa(self, tmp_path):
        ratings = tmp_path / "ratings.csv"
        rows = ["item_id,heuristic,annotator,score"]
        # Chance-level fixture: p_o = p_e = 0.5, kappa = 0.
        for i, (a, b) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)]):
            rows.append(f"i{i},H,annA,{a}")
            rows.append(f"i{i},H,annB,{b}")
        ratings.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["agree", "--ratings", str(ratings), "--out", str(tmp_path)]) == EXIT_OK
        report = json.loads(read(tmp_path / "agreement-report.json"))
        assert report["heuristics"][0]["mean_kappa"] == pytest.approx(0.0)

    def test_missing_ratings_file(self, tmp_path):
        assert main(["agree", "--ratings", "/nope.csv", "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("row", ["a,h", "i1,H,a1,4,x", 'i1,H,"a1,4'])
    def test_malformed_row_is_input_error(self, tmp_path, capsys, row):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(f"item_id,heuristic,annotator,score\n{row}\n", encoding="utf-8")
        code = main(["agree", "--ratings", str(ratings), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "row 2: not as many fields as the header" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("item_id,heuristic,annotator,score\ni1,H,a1,\ni1,H,a2,\ni2,G,a1,4\n",
         "no scores for heuristic 'H'"),
        ("item_id,heuristic,annotator,score,score\ni1,H,a1,4,2\n",
         "ratings CSV header names column 'score' more than once"),
    ], ids=["all-blank-heuristic", "duplicated-column"])
    def test_bad_ratings_are_input_errors(self, tmp_path, capsys, text, message):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(text, encoding="utf-8")
        code = main(["agree", "--ratings", str(ratings), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["describe", "--text", "{missing}"],
    ["describe", "--text", "{directory}"],
    ["describe", "--image", "{missing}.png", "--config", "{live_config}"],
    ["base", "--amr", "{binary}"],
    ["enrich", "--mock", "--base", "{missing}"],
    ["validate", "--graph", "{binary}"],
    ["validate", "--graph", str(Path(__file__).parent / "golden" / "base-graph.ttl"),
     "--base", "{missing}"],
    ["agree", "--ratings", "{binary}"],
    ["run", "--mock", "--text", "{missing}", "--amr", SCENE_AMR],
    ["run", "--mock", "--text", SCENE_TXT, "--amr", "{directory}"],
])
def test_unreadable_input_file_is_input_error(tmp_path, capsys, argv):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe not UTF-8 \x80")
    live_config = tmp_path / "live.json"
    live_config.write_text(json.dumps({"backend": {"endpoint": "http://127.0.0.1:9/chat"}}),
                           encoding="utf-8")
    names = {"missing": tmp_path / "missing", "directory": tmp_path, "binary": binary,
             "live_config": live_config}
    argv = [arg.format(**names) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["describe", "--text", SCENE_TXT],
    ["base", "--amr", SCENE_AMR],
    ["enrich", "--mock", "--base", str(Path(__file__).parent / "golden" / "base-graph.ttl")],
    ["validate", "--graph", str(Path(__file__).parent / "golden" / "base-graph.ttl")],
    ["agree", "--ratings", str(Path(__file__).parent / "golden" / "ratings.csv")],
    ["run", "--mock", "--text", SCENE_TXT, "--amr", SCENE_AMR],
], ids=["describe", "base", "enrich", "validate", "agree", "run"])
@pytest.mark.parametrize("out", ["{file}", "{file}/out"], ids=["file", "under-file"])
def test_unwritable_output_is_input_error(tmp_path, capsys, argv, out):
    (tmp_path / "file").write_text("", encoding="utf-8")
    assert main([*argv, "--out", out.format(file=tmp_path / "file")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


# Each subcommand, the exit it gives here and the files it writes, the first
# one first.
_WRITERS = {
    "describe": (["describe", "--text", SCENE_TXT], EXIT_OK, ["description.txt"]),
    "base": (["base", "--amr", SCENE_AMR], EXIT_OK, ["base-graph.ttl", "base-profile.json"]),
    "enrich": (["enrich", "--mock", "--base",
                str(Path(__file__).parent / "golden" / "base-graph.ttl")], EXIT_OK,
               [*(f"xkg-{spec.name}.ttl" for spec in HEURISTICS), "xkg-merged.ttl",
                "diagnostics.json"]),
    "validate": (["validate", "--graph", str(Path(__file__).parent / "golden" / "base-graph.ttl")],
                 EXIT_OK, ["validation-report.json", "validation-report.txt"]),
    "agree": (["agree", "--ratings", str(Path(__file__).parent / "golden" / "ratings.csv")],
              EXIT_OK, ["agreement-report.json", "agreement-report.txt"]),
    "run": (["run", "--mock", "--text", SCENE_TXT, "--amr", SCENE_AMR], EXIT_DIAGNOSTICS,
            ["description.txt", "base-graph.ttl", "base-profile.json",
             *(f"xkg-{spec.name}.ttl" for spec in HEURISTICS), "xkg-merged.ttl",
             "diagnostics.json", "validation-report.json", "validation-report.txt"]),
}


@pytest.mark.parametrize("command", list(_WRITERS))
def test_every_subcommand_creates_a_missing_nested_out(tmp_path, capsys, command):
    argv, expected, names = _WRITERS[command]
    out = tmp_path / "a" / "b" / "c"
    assert main([*argv, "--out", str(out)]) == expected
    assert "error:" not in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == sorted(names)


@pytest.mark.parametrize("command", list(_WRITERS))
def test_output_file_that_is_a_directory_is_input_error(tmp_path, capsys, command):
    argv, _, names = _WRITERS[command]
    (tmp_path / names[0]).mkdir()
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / names[0]}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, resource, name, content", [
    ("base", "rolesets", "rolesets.json", b"{not JSON"),
    ("base", "rolesets", "rolesets.json", b"[]"),
    ("base", "rolesets", "rolesets.json", b'{"wear-01": ["wearer"]}'),
    ("base", "rolesets", "rolesets.json", b'{"wear-01": {"0": 7}}'),
    ("base", "rolesets", "rolesets.json", b'{"wear-01": {"0": "the wearer"}}'),
    ("base", "alignments", "alignments.json", b'{"athlete": {"dolce": "dul:Person"}}'),
    ("base", "alignments", "alignments.json", b'{"athlete": {"synset": 1}}'),
    ("base", "links", "links.json", b'{"America": 30}'),
    ("base", "links", "links.json", b"\xff not UTF-8"),
    ("enrich", "prompts_dir", "system.txt", b"\xff not UTF-8"),
    ("enrich", "prompts_dir", HEURISTICS[0].prompt_template, b"\xff not UTF-8"),
    ("enrich", "mock_dir", f"{HEURISTICS[0].name}.ttl", b"\xff not UTF-8"),
], ids=["rolesets-not-json", "rolesets-array", "roles-array", "role-number", "role-with-space",
        "dolce-string", "synset-number", "link-number", "links-not-utf8",
        "system-template-not-utf8", "heuristic-template-not-utf8", "mock-response-not-utf8"])
def test_bad_resource_file_is_config_error(tmp_path, capsys, command, resource, name, content):
    bundled = getattr(default_config().resources, resource)
    if bundled.is_dir():
        shutil.copytree(bundled, tmp_path / resource)
        path = tmp_path / resource / name
        setting = resource
    else:
        path = tmp_path / name
        setting = name
    path.write_bytes(content)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"resources": {resource: setting}}), encoding="utf-8")
    base = str(Path(__file__).parent / "golden" / "base-graph.ttl")
    argv = (["base", "--amr", SCENE_AMR] if command == "base" else
            ["enrich", "--mock", "--base", base])
    code = main([*argv, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]
    assert not (tmp_path / "out").exists()


def test_stdout_that_cannot_encode_the_output_is_escaped(tmp_path):
    """A diagnostic or heuristic name that stdout's encoding cannot hold is
    printed with backslash escapes; the files are UTF-8 as always."""
    graph = tmp_path / "clash.ttl"
    graph.write_text("@prefix dul: <http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#> .\n"
                     "<http://example.org/Zoë> a dul:Event, dul:Object .\n", encoding="utf-8")
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("item_id,heuristic,annotator,score\n"
                       "i1,Métaphore,a,3\ni1,Métaphore,b,4\ni2,Métaphore,a,5\n",
                       encoding="utf-8")
    commands = {"validate": (["validate", "--graph", str(graph)], EXIT_DIAGNOSTICS, "Zo"),
                "agree": (["agree", "--ratings", str(ratings)], EXIT_OK, "M")}
    for name, (argv, expected, prefix) in commands.items():
        runs = {}
        for encoding in ("ascii", "utf-8"):
            out = tmp_path / f"{name}-{encoding}"
            code, stdout, stderr = _xkg_fresh([*argv, "--out", str(out)],
                                              PYTHONIOENCODING=encoding)
            assert (code, stderr) == (expected, ""), (name, encoding)
            runs[encoding] = stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        (ascii_out, ascii_files), (utf8_out, utf8_files) = runs["ascii"], runs["utf-8"]
        assert prefix + ("\\xeb" if name == "validate" else "\\xe9") in ascii_out
        assert ascii_out == utf8_out.encode("ascii", "backslashreplace").decode("ascii")
        assert ascii_files == utf8_files


@pytest.mark.parametrize("backend, message", [
    ({"max_tokens": 0}, "'max_tokens' must be positive"),
    ({"max_tokens_cap": 8192}, "unknown backend settings: ['max_tokens_cap']"),
    ({"timeout": 0}, "'timeout' must be positive"),
    ({"timeout": -1.5}, "'timeout' must be positive"),
    ({"timeout": float("inf")}, "'timeout' must be positive and finite"),
    ({"max_concurrent": 0}, "'max_concurrent' must be positive"),
    ({"retries": -1}, "'retries' must be non-negative"),
    ({"temperature": -0.5}, "'temperature' must be non-negative"),
    ({"temperature": float("nan")}, "'temperature' must be non-negative and finite"),
    ({"temperature": float("inf")}, "'temperature' must be non-negative and finite"),
    ({"max_concurrent": -2}, "'max_concurrent' must be positive and finite, found -2"),
    ({"timeout": float("nan")}, "'timeout' must be positive and finite, found nan"),
    ({"retries": 11}, "'retries' must be at most 10, found 11"),
])
def test_backend_setting_out_of_range_is_config_error(tmp_path, capsys, backend, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"backend": backend}), encoding="utf-8")  # NaN, Infinity
    code = main(["run", "--mock", "--text", SCENE_TXT, "--amr", SCENE_AMR,
                 "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not (tmp_path / "out").exists()


def test_unbounded_retries_is_config_error(tmp_path, capsys):
    # A back-off doubling 1100 times would overflow a float; the config
    # never gets that far.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"backend": {"endpoint": "http://127.0.0.1:9/chat",
                                              "retries": 1100}}), encoding="utf-8")
    image = tmp_path / "scene.png"
    image.write_bytes(b"\x89PNG fake")
    code = main(["describe", "--image", str(image), "--config", str(config),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: backend setting 'retries' must be at most 10, found 1100\n")
    assert not (tmp_path / "out").exists()


# PENMAN concepts, among them words with each character that no IRI may hold.
_CONCEPTS = st.one_of(st.sampled_from(["athlete", "win-01", "name", "gold-medal"]),
                      st.text('ab-01\u00e9<>"{}|\\^`', min_size=1, max_size=5))
_ROLES = st.sampled_from([":ARG0", ":ARG1", ":mod", ":name", ":op1", ":ARG0-of", ":polarity"])
_TARGETS = st.sampled_from(['"Saint Lucia"', "5", "-", "v0", "v9"])
_NOISE = st.sampled_from(["(", ")", "/", ":ARG0", "\n#", "~e.1", '"', "x"])


@st.composite
def _penman_documents(draw) -> str:
    """One AMR graph in PENMAN; two in five have one or two words inserted
    anywhere."""
    words = ["(v0", "/", draw(_CONCEPTS)]
    for i in range(1, draw(st.integers(0, 3)) + 1):
        child = f"(v{i} / {draw(_CONCEPTS)})" if draw(st.booleans()) else draw(_TARGETS)
        words += [draw(_ROLES), child]
    words.append(")")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        words.insert(draw(st.integers(0, len(words))), draw(_NOISE))
    return " ".join(words)


_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-1, 12), st.floats(),
                         st.sampled_from(["", "x", "http://127.0.0.1:9/chat"]))
# The bundled resource paths, any of them under any resource key.
_RESOURCE_VALUES = st.one_of(_JSON_VALUES,
                             st.sampled_from([str(path) for path in default_resource_paths()]))
_SECTIONS = {
    "backend": st.dictionaries(
        st.sampled_from([*BackendConfig._fields, "max_tokens_cap", "api_key"]), _JSON_VALUES,
        max_size=2),
    "resources": st.dictionaries(
        st.sampled_from([*ResourcePaths._fields, "mockdir"]), _RESOURCE_VALUES, max_size=2),
    "force_merge": st.booleans(),
}


@st.composite
def _configs(draw):
    """A config file's JSON value: mostly an object of the known sections,
    now and then with any value in a section's place or an unknown key such
    as the removed ``max_tokens_cap``, and one time in ten no object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(_JSON_VALUES, st.lists(_JSON_VALUES, max_size=2)))
    raw = {}
    for key, section in _SECTIONS.items():
        roll = draw(st.integers(0, 9))
        if roll < 5:
            raw[key] = draw(section)
        elif roll == 9:
            raw[key] = draw(_JSON_VALUES)
    if draw(st.integers(0, 9)) == 0:
        raw[draw(st.sampled_from(["max_tokens_cap", "force-merge"]))] = draw(_JSON_VALUES)
    return raw


class TestExitCodeContract:
    """Any input: exit 0, 1 or 2, never an exception, and exit 2 (alone) with
    exactly one ``error:`` line."""

    @staticmethod
    def check(capsys, argv) -> None:
        capsys.readouterr()  # what an earlier example wrote
        with tempfile.TemporaryDirectory() as out:
            code = main([*argv, "--out", out])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert code in (EXIT_OK, EXIT_DIAGNOSTICS, EXIT_CONFIG)
        assert len(errors) == (code == EXIT_CONFIG), errors

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_penman_documents())
    def test_penman_for_base(self, tmp_path, capsys, penman):
        amr = tmp_path / "scene.amr"
        amr.write_text(penman, encoding="utf-8")
        self.check(capsys, ["base", "--amr", str(amr)])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_configs())
    def test_config_for_run_mock(self, tmp_path, capsys, raw):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")  # NaN, Infinity
        self.check(capsys, ["run", "--mock", "--text", SCENE_TXT, "--amr", SCENE_AMR,
                            "--config", str(config)])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ratings_csv_texts())
    def test_ratings_for_agree(self, tmp_path, capsys, text):
        ratings = tmp_path / "ratings.csv"
        ratings.write_bytes(text.encode("utf-8"))
        self.check(capsys, ["agree", "--ratings", str(ratings)])

    # A lone surrogate in the text is written as bytes that are not UTF-8.
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(turtle_documents())
    def test_turtle_for_validate_and_enrich_mock(self, tmp_path, capsys, text):
        graph = tmp_path / "graph.ttl"
        graph.write_bytes(text.encode("utf-8", "surrogatepass"))
        self.check(capsys, ["validate", "--graph", str(graph)])
        self.check(capsys, ["enrich", "--mock", "--base", str(graph)])


def _xkg_fresh(argv, **environ):
    """``xkg *argv`` in a new interpreter, with ``environ`` added to its
    environment: the exit code, stdout and stderr."""
    src = str(Path(xkg.cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **environ)
    done = subprocess.run([sys.executable, "-m", "xkg.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_successive_calls_equal_fresh_processes(tmp_path, capsys):
    """``main`` keeps one parser per process; a call, also one that argparse
    rejects, leaves nothing behind that changes the next call's outputs."""
    golden = Path(__file__).parent / "golden"
    out = tmp_path / "out"
    calls = [
        ["validate", "--graph", str(golden / "xkg-merged.ttl"),
         "--base", str(golden / "base-graph.ttl"), "--out", str(out / "validate")],
        ["agree", "--ratings", str(golden / "ratings.csv"), "--out", str(out / "agree")],
        ["validate", "--graph", str(golden / "base-graph.ttl"), "--bogus", "--out", str(out)],
        ["enrich", "--mock", "--base", str(golden / "base-graph.ttl"), "--heuristic",
         "EventSequences", "--out", str(out / "enrich")],
        ["agree", "--out", str(out / "agree")],
        ["agree", "--ratings", str(tmp_path / "missing.csv"), "--out", str(out / "missing")],
        ["validate", "--graph", str(golden / "base-graph.ttl"), "--out", str(out / "again")],
    ]

    def files():
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file()}

    fresh = [_xkg_fresh(argv) for argv in calls]
    fresh_files = files()
    shutil.rmtree(out)
    in_process = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, *capsys.readouterr()))
    assert [call[0] for call in fresh] == [1, 0, 2, 0, 2, 2, 0]
    assert in_process == fresh
    assert files() == fresh_files
    assert xkg.cli.build_parser() is xkg.cli.build_parser()


def test_verbose_flag_holds_on_every_call(tmp_path):
    """``-v`` turns DEBUG logging on in any call of a process, also once the
    root logger has handlers, which stay as they are; a call without it turns
    it off again."""
    graph = str(Path(__file__).parent / "golden" / "base-graph.ttl")
    root = logging.getLogger()
    level, handlers = root.level, list(root.handlers)
    try:
        for verbose in (False, True, False):
            argv = ["-v"] * verbose + ["validate", "--graph", graph, "--out", str(tmp_path)]
            assert main(argv) == EXIT_OK
            assert logging.getLogger("xkg.cli").isEnabledFor(logging.DEBUG) is verbose
            assert root.handlers == handlers
    finally:
        root.setLevel(level)


class TestGoldenFiles:
    GOLDEN = Path(__file__).parent / "golden"

    def test_base_graph_bytes_are_pinned(self, base_graph_dir):
        # Deterministic serialization makes the translated scene graph
        # byte-stable; regenerate tests/golden/ deliberately if rules change.
        assert read(base_graph_dir / "base-graph.ttl") == read(self.GOLDEN / "base-graph.ttl")
        assert read(base_graph_dir / "base-profile.json") == read(self.GOLDEN / "base-profile.json")

    @pytest.mark.parametrize("name", [f"xkg-{spec.name}.ttl" for spec in HEURISTICS]
                             + ["xkg-merged.ttl"])
    def test_enrichment_bytes_are_pinned(self, run_dir, name):
        assert read(run_dir / name) == read(self.GOLDEN / name)

    @pytest.mark.parametrize("name", ["diagnostics.json", "validation-report.json",
                                      "validation-report.txt"])
    def test_validation_bytes_are_pinned(self, run_dir, name):
        assert (run_dir / name).read_bytes() == (self.GOLDEN / name).read_bytes()

    def test_corpus_validation_bytes_are_pinned(self, tmp_path):
        # The merged corpus holds a DISJOINT_CLASH, precedence chains and
        # FALLBACK_ROLE and MISSING_COMMENT diagnostics.
        corpus = build_corpus()
        merged = RdfGraph(corpus.base.triples.union(*corpus.additions.values()),
                          corpus.base.prefixes)
        (tmp_path / "base.ttl").write_text(serialize_turtle(corpus.base), encoding="utf-8")
        (tmp_path / "merged.ttl").write_text(serialize_turtle(merged), encoding="utf-8")
        code = main(["validate", "--graph", str(tmp_path / "merged.ttl"),
                     "--base", str(tmp_path / "base.ttl"), "--out", str(tmp_path / "out")])
        assert code == EXIT_DIAGNOSTICS
        for name in ("validation-report.json", "validation-report.txt"):
            golden = self.GOLDEN / f"corpus-{name}"
            assert (tmp_path / "out" / name).read_bytes() == golden.read_bytes(), name

    def test_agreement_report_bytes_are_pinned(self, tmp_path, capsys):
        # A fixed ratings CSV with missing scores, an unlisted heuristic, a
        # degenerate heuristic, one without overlap and a non-ASCII annotator.
        ratings = str(self.GOLDEN / "ratings.csv")
        assert main(["agree", "--ratings", ratings, "--out", str(tmp_path)]) == EXIT_OK
        for name in ("agreement-report.json", "agreement-report.txt"):
            assert (tmp_path / name).read_bytes() == (self.GOLDEN / name).read_bytes(), name
        assert capsys.readouterr().out == read(self.GOLDEN / "agreement-report.txt")


class TestRun:
    def test_full_mock_pipeline(self, tmp_path):
        code = main(["run", "--mock", "--text", SCENE_TXT, "--amr", SCENE_AMR,
                     "--out", str(tmp_path)])
        # The merged graph deliberately carries the metonymic inconsistency.
        assert code == EXIT_DIAGNOSTICS
        names = {p.name for p in tmp_path.iterdir()}
        assert {"description.txt", "base-graph.ttl", "xkg-merged.ttl",
                "diagnostics.json", "validation-report.json"} <= names

    def test_run_equals_the_separate_stages(self, tmp_path):
        run_dir, stage_dir = tmp_path / "run", tmp_path / "stages"
        code = main(["run", "--mock", "--text", SCENE_TXT, "--amr", SCENE_AMR,
                     "--out", str(run_dir)])
        base, merged = str(stage_dir / "base-graph.ttl"), str(stage_dir / "xkg-merged.ttl")
        stage_codes = [
            main(["describe", "--text", SCENE_TXT, "--out", str(stage_dir)]),
            main(["base", "--amr", SCENE_AMR, "--out", str(stage_dir)]),
            main(["enrich", "--mock", "--base", base, "--out", str(stage_dir)]),
            main(["validate", "--graph", merged, "--base", base, "--out", str(stage_dir)]),
        ]
        assert code == max(stage_codes)
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == sorted(p.name for p in stage_dir.iterdir())
        for name in names:
            assert (run_dir / name).read_bytes() == (stage_dir / name).read_bytes(), name

        config = default_config()
        result = run_pipeline(read(Path(SCENE_TXT)), read(Path(SCENE_AMR)), config,
                              MockBackend(config.require_resources().mock_dir))
        assert result.description == read(run_dir / "description.txt")
        assert serialize_turtle(result.base) == read(run_dir / "base-graph.ttl")
        assert serialize_turtle(result.merged) == read(run_dir / "xkg-merged.ttl")
        assert len(result.results) == 11
        for r in result.results:
            assert serialize_turtle(r.xkg) == read(run_dir / f"xkg-{r.heuristic}.ttl")
        assert json.loads(read(run_dir / "validation-report.json")) == result.report.to_dict()
