import json
from pathlib import Path

import pytest

from xkg import run_pipeline
from xkg.backends import MockBackend
from xkg.cli import EXIT_CONFIG, EXIT_DIAGNOSTICS, EXIT_OK, main
from xkg.config import bundled_resources_root, default_config
from xkg.rdf import parse_turtle, serialize_turtle

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


@pytest.fixture()
def base_graph_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("base")
    assert main(["base", "--amr", SCENE_AMR, "--out", str(out)]) == EXIT_OK
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


class TestGoldenFiles:
    GOLDEN = Path(__file__).parent / "golden"

    def test_base_graph_bytes_are_pinned(self, base_graph_dir):
        # Deterministic serialization makes the translated scene graph
        # byte-stable; regenerate tests/golden/ deliberately if rules change.
        assert read(base_graph_dir / "base-graph.ttl") == read(self.GOLDEN / "base-graph.ttl")
        assert read(base_graph_dir / "base-profile.json") == read(self.GOLDEN / "base-profile.json")


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
                              MockBackend(config.require_resources().mock_dir), False)
        assert result.description == read(run_dir / "description.txt")
        assert serialize_turtle(result.base) == read(run_dir / "base-graph.ttl")
        assert serialize_turtle(result.merged) == read(run_dir / "xkg-merged.ttl")
        assert len(result.results) == 11
        for r in result.results:
            assert serialize_turtle(r.xkg) == read(run_dir / f"xkg-{r.heuristic}.ttl")
        assert json.loads(read(run_dir / "validation-report.json")) == result.report.to_dict()
