"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The full-scale calibration graphs come from tests/corpus.py, built by
explicit enumeration because the original published graph files are not
bundled; all other fixtures ship with the package resources.
"""

import filecmp
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from corpus import build_corpus
from generators import (extended_graph, graph_of, random_amr_graph, random_dag,
                        random_ratings_table, random_rdf_graph, serialize_penman)
from isomorphism import amr_isomorphic, isomorphic
from oracles import (
    connected_components,
    kappa_oracle,
    krippendorff_oracle,
    percent_agreement_oracle,
    reachability_pairs,
)
from xkg.amr import parse_penman, parse_penman_file
from xkg.backends import MappingBackend
import xkg
from xkg.cli import EXIT_CONFIG, EXIT_DIAGNOSTICS, main
from xkg.config import bundled_resources_root, default_resource_paths
from xkg.enrichment import HEURISTIC_BY_NAME, run_all
from xkg.rdf import (
    DUL_NS,
    FRED_NS,
    OWL_EQUIVALENT_CLASS,
    PBLR_NS,
    PBRS_NS,
    RDFS_SUBCLASSOF,
    RDF_TYPE,
    TRUE,
    VN_ROLE_NS,
    WN30_NS,
    Iri,
    Triple,
    parse_turtle,
    serialize_turtle,
)
from xkg.translate import AlignmentMap, LinkTable, RolesetMap, align, link_entities, translate
from xkg.validation import (
    ANCHOR_FLOAT,
    DISJOINT_CLASH,
    ERROR,
    PREFIX_MISUSE,
    MiniOntology,
    check_anchoring,
    check_consistency,
    infer_precedence,
    lint,
    profile,
)
from xkg.agreement import (
    cohen_kappa_pairwise,
    krippendorff_alpha,
    mean_sd,
    percent_agreement,
)

RESOURCES = default_resource_paths()
FIXTURES = bundled_resources_root() / "fixtures"

BASE_PROFILE_ROW = (293, 33, 23, 20, 1, 4, 10)


def run_one(base, name: str, response: str):
    """The result of heuristic ``name`` answering ``response``, run alone."""
    (result,), _ = run_all(base, MappingBackend({name: response}), RESOURCES.prompts_dir,
                           heuristics=[HEURISTIC_BY_NAME[name]])
    return result


def profile_row(p) -> tuple:
    """A profile's counts in the order of the paper's table."""
    return (p.axioms, p.wordnet, p.pb_roles, p.pb_frames, p.vn_roles, p.d0, p.dul)
ADDITION_AXIOM_TARGETS = {
    "Presuppositions": 32,
    "ConversationalImplicatures": 36,
    "FactualImpact": 13,
    "ImageSchemas": 63,
    "MetonymicCoercion": 26,
    "MoralValueCoercion": 12,
    "SymbolicCoercion": 15,
    "EventSequences": 15,
    "CausalRelations": 16,
    "ImpliedFutureEvents": 14,
    "PotentialNonEvents": 23,
}


def fred(local: str) -> Iri:
    return Iri(FRED_NS + local)


def scene_base_graph():
    amr = parse_penman_file((FIXTURES / "athlete-scene.amr").read_text(encoding="utf-8"))[0]
    graph = translate(amr, RolesetMap.from_json(RESOURCES.rolesets))
    graph = align(graph, AlignmentMap.from_json(RESOURCES.alignments))
    return link_entities(graph, LinkTable.from_json(RESOURCES.links))


def test_criterion_1_round_trips():
    started = time.monotonic()
    rng = random.Random(20240810)
    for _ in range(100):
        graph = random_rdf_graph(rng)
        assert isomorphic(graph, parse_turtle(serialize_turtle(graph)))
    for _ in range(50):
        amr = random_amr_graph(rng)
        assert amr_isomorphic(amr, parse_penman(serialize_penman(amr)))
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"\ncriterion 1 PASS: 100 RDF + 50 AMR round trips isomorphic in {elapsed:.2f}s")


def test_criterion_2_golden_triples():
    graph = scene_base_graph()
    expected = {
        Triple(fred("Athlete"), RDFS_SUBCLASSOF, Iri(DUL_NS + "Person")),
        Triple(fred("Athlete"), RDFS_SUBCLASSOF, Iri(WN30_NS + "supersense-noun_person")),
        Triple(fred("Athlete"), OWL_EQUIVALENT_CLASS, Iri(WN30_NS + "synset-athlete-noun-1")),
        Triple(fred("celebrate_1"), RDF_TYPE, Iri(PBRS_NS + "celebrate-01")),
        Triple(fred("celebrate_1"), Iri(VN_ROLE_NS + "Location"), fred("track_1")),
        Triple(fred("celebrate_1"), Iri(PBLR_NS + "celebrate-01.honorer"), fred("athlete_1")),
        Triple(fred("celebrate_1"), Iri(PBLR_NS + "celebrate-01.honored"), fred("win_1")),
    }
    missing = expected - graph.triples
    assert not missing, f"missing golden triples: {missing}"
    print("\ncriterion 2 PASS: scene translation contains every golden triple")


def test_criterion_3_profile_calibration():
    corpus = build_corpus()
    base_profile = profile(corpus.base)
    assert profile_row(base_profile) == BASE_PROFILE_ROW

    for heuristic, expected_axioms in ADDITION_AXIOM_TARGETS.items():
        addition_profile = profile(corpus.xkg(heuristic), corpus.base)
        assert addition_profile.axioms == expected_axioms, heuristic

    presup = profile(corpus.xkg("Presuppositions"), corpus.base)
    assert presup.new_dp == 11
    presup_ns = HEURISTIC_BY_NAME["Presuppositions"].namespace
    boolean_objects = [t.object for t in corpus.additions["Presuppositions"]
                       if t.predicate.value.startswith(presup_ns)]
    assert len(boolean_objects) == 11
    assert all(obj == TRUE for obj in boolean_objects)
    print("\ncriterion 3 PASS: base profile "
          f"{profile_row(base_profile)} and all 11 addition axiom counts match; "
          "11 boolean datatype properties, all true")


def test_criterion_4_anchoring():
    base = scene_base_graph()
    impact_mock = (RESOURCES.mock_dir / "FactualImpact.ttl").read_text(encoding="utf-8")
    result = run_one(base, "FactualImpact", impact_mock)
    assert [d for d in result.diagnostics if d.code == ANCHOR_FLOAT] == []

    floating = {Triple(Iri("http://x.example/a"), Iri("http://x.example/p"),
                       Iri("http://x.example/b"))}
    assert len(check_anchoring(base, floating)) == 1

    rng = random.Random(4242)
    base_nodes = sorted(base.node_iris, key=lambda i: i.value)
    for _ in range(50):
        pool = [rng.choice(base_nodes) if rng.random() < 0.3
                else Iri(f"http://x.example/n{rng.randrange(15)}")
                for _ in range(12)]
        added = {Triple(rng.choice(pool), Iri("http://x.example/p"), rng.choice(pool))
                 for _ in range(rng.randrange(1, 12))}
        components = connected_components([(t.subject, t.object) for t in added])
        expected = sum(1 for comp in components if not comp & set(base_nodes))
        assert len(check_anchoring(base, added)) == expected
    print("\ncriterion 4 PASS: canned impact mock fully anchored; floating fixture and "
          "50 random addition sets agree with the component oracle")


def test_criterion_5_consistency():
    base = scene_base_graph()
    onto = MiniOntology.from_turtle_file(RESOURCES.mini_ontology)

    metonymic = (RESOURCES.mock_dir / "MetonymicCoercion.ttl").read_text(encoding="utf-8")
    result = run_one(base, "MetonymicCoercion", metonymic)
    clashes = check_consistency(extended_graph(base, result), onto)
    assert len(clashes) == 1
    assert clashes[0].code == DISJOINT_CLASH
    assert "athlete_1 -> Athlete -> Person -> Agent -> Object" in clashes[0].message

    assert check_consistency(base, onto) == []
    assert [d for d in lint(base) if d.severity == ERROR] == []
    print("\ncriterion 5 PASS: metonymic fixture reproduces the object/event clash "
          "with the expected chain; clean fixtures have zero ERROR diagnostics")


def test_criterion_6_precedence():
    started = time.monotonic()
    base = scene_base_graph()
    sequences = (RESOURCES.mock_dir / "EventSequences.ttl").read_text(encoding="utf-8")
    result = run_one(base, "EventSequences", sequences)
    inference = infer_precedence(extended_graph(base, result))
    inferred = set(inference.inferred)
    for earlier in ("wear_1", "race_1", "competition_1", "win_1"):
        assert (fred(earlier), fred("celebrate_1")) in inferred

    rng = random.Random(66)
    from xkg.rdf import DUL_PRECEDES
    for _ in range(100):
        dag = random_dag(rng, max_nodes=50)
        graph = graph_of([Triple(Iri(f"http://x.example/{a}"), DUL_PRECEDES,
                                 Iri(f"http://x.example/{b}")) for a, b in dag])
        expected = reachability_pairs(
            [(Iri(f"http://x.example/{a}"), Iri(f"http://x.example/{b}")) for a, b in dag])
        assert set(infer_precedence(graph).closure) == expected
    elapsed = time.monotonic() - started
    assert elapsed < 2.0
    print(f"\ncriterion 6 PASS: celebration inferred after wear, race, competition, win; "
          f"100 random DAG closures match reachability in {elapsed:.2f}s")


def test_criterion_7_agreement_statistics():
    def raters(table):
        return [f"r{j}" for j in range(len(table[0]))]

    def same(got, want):
        return got is None if want is None else got == pytest.approx(want, abs=1e-9)

    perfect = [[1, 1, 1], [5, 5, 5], [3, 3, 3]]
    assert krippendorff_alpha(perfect).value == pytest.approx(1.0)
    assert cohen_kappa_pairwise(raters(perfect), perfect).mean == pytest.approx(1.0)

    assert mean_sd([[1, 5]]) == (3.0, 2.0)

    rng = random.Random(777)
    alpha_checked = kappa_checked = 0
    for _ in range(200):
        table = random_ratings_table(rng, max_raters=5, max_items=20, missing_rate=0.1)

        expected_alpha = krippendorff_oracle(table)
        alpha = krippendorff_alpha(table)
        assert same(None if alpha is None else alpha.value, expected_alpha)
        alpha_checked += expected_alpha is not None

        assert same(percent_agreement(table), percent_agreement_oracle(table))

        result = cohen_kappa_pairwise(raters(table), table)
        for pair in [] if result is None else result.pairs:
            a = int(pair.annotator_a.removeprefix("r"))
            b = int(pair.annotator_b.removeprefix("r"))
            assert same(pair.kappa, kappa_oracle(table, a, b))
            kappa_checked += pair.kappa is not None
    assert alpha_checked > 150 and kappa_checked > 150
    print(f"\ncriterion 7 PASS: perfect-agreement fixtures give alpha=1 and kappa=1; "
          f"{alpha_checked} alpha and {kappa_checked} kappa values match the oracles to 1e-9")


def test_criterion_8_prefix_lint():
    offending = graph_of([
        Triple(fred("spectator_1"), Iri(PBRS_NS + "cheer-01.agent"), fred("athlete_1")),
    ])
    assert [d.code for d in lint(offending) if d.code == PREFIX_MISUSE] == [PREFIX_MISUSE]

    base = scene_base_graph()
    assert [d for d in lint(base) if d.code == PREFIX_MISUSE] == []
    print("\ncriterion 8 PASS: roleset-namespace predicate flagged; "
          "zero false positives on the base graph")


def test_criterion_9_end_to_end_determinism(tmp_path):
    started = time.monotonic()
    args = ["run", "--mock",
            "--text", str(FIXTURES / "athlete-scene.txt"),
            "--amr", str(FIXTURES / "athlete-scene.amr")]
    first, second = tmp_path / "first", tmp_path / "second"
    code1 = main(args + ["--out", str(first)])
    code2 = main(args + ["--out", str(second)])
    assert code1 == code2 == EXIT_DIAGNOSTICS  # merged graph carries the known clash

    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert not mismatch and not errors
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"\ncriterion 9 PASS: two mock pipeline runs byte-identical "
          f"({len(names)} files) in {elapsed:.2f}s")


# Hash seeds under which the branching precedence cycle below was reported
# along three different paths (a -> d -> a, a -> c -> a, a -> b -> a) while
# the cycle search still walked sets in hash order.
HASH_SEEDS = ("0", "1", "6")

BRANCHING_PRECEDES_CYCLE = """\
@prefix dul: <http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#> .
@prefix ex: <http://example.org/> .
ex:a dul:precedes ex:b, ex:c, ex:d .
ex:b dul:precedes ex:a .
ex:c dul:precedes ex:a .
ex:d dul:precedes ex:a .
"""

BRANCHING_SUBCLASS_CYCLE = """\
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://example.org/> .
ex:A rdfs:subClassOf ex:B, ex:C, ex:D .
ex:B rdfs:subClassOf ex:A .
ex:C rdfs:subClassOf ex:A .
ex:D rdfs:subClassOf ex:A .
"""


def _xkg_in_fresh_interpreter(argv, seed):
    """``xkg *argv`` in a new interpreter under PYTHONHASHSEED=seed: the exit
    code and stderr."""
    src = str(Path(xkg.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-m", "xkg.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stderr


def test_outputs_independent_of_hash_seed(tmp_path):
    """Companion to criterion 9: every output byte, and every message, is the
    same under any hash seed."""
    graph = tmp_path / "cycle.ttl"
    graph.write_text(BRANCHING_PRECEDES_CYCLE, encoding="utf-8")
    (tmp_path / "onto.ttl").write_text(BRANCHING_SUBCLASS_CYCLE, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text('{"resources": {"mini_ontology": "onto.ttl"}}', encoding="utf-8")
    commands = {
        "validate": (["validate", "--graph", str(graph)], EXIT_DIAGNOSTICS),
        "run": (["run", "--mock", "--text", str(FIXTURES / "athlete-scene.txt"),
                 "--amr", str(FIXTURES / "athlete-scene.amr")], EXIT_DIAGNOSTICS),
        "cyclic-ontology": (["validate", "--graph", str(graph), "--config", str(config)],
                            EXIT_CONFIG),
    }
    for name, (argv, expected_code) in commands.items():
        outputs = []
        for seed in HASH_SEEDS:
            out = tmp_path / f"{name}-{seed}"
            code, stderr = _xkg_in_fresh_interpreter(argv + ["--out", str(out)], seed)
            assert code == expected_code, (name, seed, stderr)
            files = sorted(out.iterdir()) if out.exists() else []
            outputs.append((stderr, [(f.name, f.read_bytes()) for f in files]))
        for seed, output in zip(HASH_SEEDS[1:], outputs[1:]):
            assert output == outputs[0], f"{name}: PYTHONHASHSEED={seed} differs from 0"
    report = (tmp_path / "validate-0" / "validation-report.json").read_text(encoding="utf-8")
    assert "precedes assertions form a cycle: a -> b -> a" in report


def test_full_scale_mock_merge_dedups():
    """Companion check: full-scale mocks merge with set semantics."""
    corpus = build_corpus()
    from corpus import additions_as_turtle
    responses = {name: additions_as_turtle(corpus, name) for name in ADDITION_AXIOM_TARGETS}
    backend = MappingBackend(responses)
    results, merged = run_all(corpus.base, backend, RESOURCES.prompts_dir)
    assert all(not r.failed for r in results)
    union = set().union(*(r.added for r in results))
    assert merged.triples == corpus.base.triples | union
    total = sum(len(r.added) for r in results)
    assert total == sum(ADDITION_AXIOM_TARGETS.values())
    # One triple is deliberately shared between two heuristics, so the merged
    # additions come out one short of the column sum.
    assert len(union) == total - 1
    assert len(merged.triples) == len(corpus.base.triples) + total - 1
