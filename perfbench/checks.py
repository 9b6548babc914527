"""Output checks that do not trust the code under test.

Outputs are read back with a small Turtle reader written here, not with the
package's parser, and compared with the generators' expectations and the
brute-force oracles in ``tests/oracles.py``. Each check returns a list of
problems; an empty list means the operation succeeded. An expected
quarantine or an expected exit code 1 is a success.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from inputs import (
    DUL_PRECEDES,
    FRED,
    HEURISTIC_NAMES,
    RDF_TYPE,
    RDFS,
    XSD,
    canonical,
    iri,
    plain,
    ratings_table,
    typed,
)

OWL = "http://www.w3.org/2002/07/owl#"
SUBCLASS = iri(RDFS + "subClassOf")
DISJOINT = iri(OWL + "disjointWith")
TYPE = iri(RDF_TYPE)
PRECEDES = iri(DUL_PRECEDES)
DECLARATIONS = {iri(OWL + c) for c in ("Class", "ObjectProperty", "DatatypeProperty",
                                       "NamedIndividual", "AnnotationProperty", "Ontology")}
TOLERANCE = 1e-9

# ---------------------------------------------------------------------------
# A minimal Turtle reader (prefixes, IRIs, literals, ';' and ',' lists)
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<skip>\s+|\#[^\n]*)
  | (?P<iri><[^>\s]*>)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<directive>@prefix\b)
  | (?P<lang>@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)
  | (?P<caret>\^\^)
  | (?P<number>[+-]?[0-9]+(?:\.[0-9]+)?)
  | (?P<punct>[.;,])
  | (?P<pname>(?:[A-Za-z][\w.\-]*)?:(?:[\w\-]|\.(?=[\w\-]))*)
  | (?P<word>[A-Za-z]+)
""", re.VERBOSE)
_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


class ReadError(ValueError):
    pass


def _tokens(text: str):
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ReadError(f"unreadable Turtle at offset {pos}: {text[pos:pos + 30]!r}")
        pos = match.end()
        if match.lastgroup != "skip":
            yield match.lastgroup, match.group()


def read_turtle(text: str) -> frozenset:
    """Triples of canonical term strings (see ``inputs``)."""
    prefixes: dict[str, str] = {}
    tokens = list(_tokens(text))
    triples = set()
    i = 0

    def take() -> tuple[str, str]:
        nonlocal i
        if i >= len(tokens):
            raise ReadError("unexpected end of document")
        i += 1
        return tokens[i - 1]

    def expand(kind: str, value: str) -> str:
        if kind == "iri":
            return value
        if kind == "pname":
            label, local = value.split(":", 1)
            if label not in prefixes:
                raise ReadError(f"undeclared prefix {label!r}")
            return iri(prefixes[label] + local)
        raise ReadError(f"expected an IRI, found {value!r}")

    def term() -> str:
        kind, value = take()
        if kind == "string":
            lexical = re.sub(r"\\(.)", lambda m: _UNESCAPE.get(m.group(1), m.group(1)), value[1:-1])
            if i < len(tokens) and tokens[i][0] == "lang":
                return plain(lexical) + take()[1]
            if i < len(tokens) and tokens[i][0] == "caret":
                take()
                return typed(lexical, expand(*take())[1:-1])
            return plain(lexical)
        if kind == "number":
            return typed(value, XSD + ("decimal" if "." in value else "integer"))
        if kind == "word" and value in ("true", "false"):
            return typed(value, XSD + "boolean")
        return expand(kind, value)

    while i < len(tokens):
        kind, value = take()
        if kind == "directive":
            label = take()[1]
            namespace = take()[1]
            if take()[1] != "." or not label.endswith(":"):
                raise ReadError(f"malformed prefix declaration for {label!r}")
            prefixes[label[:-1]] = namespace[1:-1]
            continue
        i -= 1
        subject = term()
        while True:
            kind, value = take()
            predicate = TYPE if (kind, value) == ("word", "a") else expand(kind, value)
            while True:
                triples.add((subject, predicate, term()))
                separator = take()[1]
                if separator != ",":
                    break
            if separator == ".":
                break
            if separator != ";":
                raise ReadError(f"expected ';' or '.', found {separator!r}")
    return frozenset(triples)


def read_file(path: Path) -> frozenset:
    return read_turtle(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def precedes_edges(triples) -> set:
    return {(s[1:-1], o[1:-1]) for s, p, o in triples
            if p == PRECEDES and s.startswith("<") and o.startswith("<")}


def clash_subjects(triples, ontology) -> set:
    """Individuals whose types reach both classes of a disjoint pair."""
    supers: dict[str, set] = {}
    disjoint = set()
    for s, p, o in list(ontology) + list(triples):
        if p == SUBCLASS and s.startswith("<") and o.startswith("<"):
            supers.setdefault(s, set()).add(o)
        elif p == DISJOINT and s.startswith("<") and o.startswith("<"):
            disjoint.add(frozenset((s, o)))
    types: dict[str, set] = {}
    for s, p, o in triples:
        if p == TYPE and s.startswith("<") and o.startswith("<") and o not in DECLARATIONS:
            types.setdefault(s, set()).add(o)
    clashes = set()
    for individual, classes in types.items():
        reach = set(classes)
        frontier = list(classes)
        while frontier:
            for nxt in supers.get(frontier.pop(), ()):
                if nxt not in reach:
                    reach.add(nxt)
                    frontier.append(nxt)
        for pair in disjoint:
            if pair <= reach:
                clashes.add(individual[1:-1])
    return clashes


def check_precedence(triples, asserted, inferred, oracles) -> list[str]:
    edges = precedes_edges(triples)
    closure = {(a, b) for a, b in oracles.reachability_pairs(sorted(edges))}
    problems = []
    if set(map(tuple, asserted)) != edges:
        problems.append(f"asserted precedence differs: {len(asserted)} vs {len(edges)} edges")
    if set(map(tuple, inferred)) != closure - edges:
        problems.append(f"inferred precedence differs: {len(inferred)} vs {len(closure - edges)} pairs")
    return problems


def check_report_diagnostics(diagnostics, triples, ontology) -> list[str]:
    """DISJOINT_CLASH subjects match the oracle; no cycle in a DAG."""
    clashes = {d["subject"] for d in diagnostics if d["code"] == "DISJOINT_CLASH"}
    expected = clash_subjects(triples, ontology)
    problems = []
    if clashes != expected:
        problems.append(f"clash subjects differ: {sorted(clashes)[:3]} vs {sorted(expected)[:3]}")
    if any(d["code"] == "PRECEDES_CYCLE" for d in diagnostics):
        problems.append("unexpected PRECEDES_CYCLE")
    return problems


# ---------------------------------------------------------------------------
# Workload checks
# ---------------------------------------------------------------------------


def check_scene_outputs(scene, out: Path, exit_code: int, ontology, oracles) -> list[str]:
    """One ``xkg run --mock`` scene against the generator's expectations."""
    problems = []
    try:
        diagnostics = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
        report = json.loads((out / "validation-report.json").read_text(encoding="utf-8"))
        base = read_file(out / "base-graph.ttl")
        merged_text = (out / "xkg-merged.ttl").read_text(encoding="utf-8")
        merged = read_turtle(merged_text)
        per_heuristic = {h: read_file(out / f"xkg-{h}.ttl") for h in HEURISTIC_NAMES}
    except (OSError, ValueError) as exc:
        return [f"scene {scene.index}: unreadable output: {exc}"]

    for h in HEURISTIC_NAMES:
        entry = diagnostics.get(h, {})
        if entry.get("quarantined") != (h in scene.quarantined):
            problems.append(f"{h}: quarantined={entry.get('quarantined')}, expected {h in scene.quarantined}")
        if entry.get("added") != len(scene.added[h]):
            problems.append(f"{h}: added={entry.get('added')}, expected {len(scene.added[h])}")
        if not base <= per_heuristic[h] or per_heuristic[h] - base != scene.added[h]:
            problems.append(f"{h}: extended graph differs from base plus expected additions")
    if not base <= merged or merged - base != scene.merged_additions:
        problems.append("merged graph differs from base plus unquarantined additions")
    problems += check_round_trip(merged_text)
    problems += check_precedence(merged, report["precedence"]["asserted"],
                                 report["precedence"]["inferred"], oracles)
    problems += check_report_diagnostics(report["diagnostics"], merged, ontology)
    expected_exit = 1 if scene.quarantined or clash_subjects(merged, ontology) else 0
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code}, expected {expected_exit}")
    return [f"scene {scene.index}: {p}" for p in problems]


def check_round_trip(text: str) -> list[str]:
    """Parse and re-serialize with the package: same triples, same bytes."""
    from xkg.rdf import parse_turtle, serialize_turtle

    try:
        again = serialize_turtle(parse_turtle(text))
    except Exception as exc:  # any failure of the code under test is a failed check
        return [f"round trip raised {type(exc).__name__}: {exc}"]
    if again != text:
        return ["round trip changed the serialization"]
    return []


def canonical_triples(triples) -> frozenset:
    """Package triples as canonical strings."""
    return frozenset((canonical(t.subject), canonical(t.predicate), canonical(t.object))
                     for t in triples)


def check_scene_in_memory(scene, base, results, merged, precedence, diagnostics,
                          ontology, oracles) -> list[str]:
    """One ``run_all`` scene (no files) against the generator's expectations."""
    from xkg.rdf import serialize_turtle

    problems = []
    base_t = canonical_triples(base.triples)
    by_name = {r.heuristic: r for r in results}
    if list(by_name) != list(HEURISTIC_NAMES):
        problems.append("results are not in registry order")
    for h in HEURISTIC_NAMES:
        result = by_name.get(h)
        if result is None:
            problems.append(f"{h}: no result")
            continue
        if result.failed != (h in scene.quarantined):
            problems.append(f"{h}: failed={result.failed}, expected {h in scene.quarantined}")
        if canonical_triples(result.added) != scene.added[h]:
            problems.append(f"{h}: added triples differ from the generator's")
    merged_t = canonical_triples(merged.triples)
    if not base_t <= merged_t or merged_t - base_t != scene.merged_additions:
        problems.append("merged graph differs from base plus unquarantined additions")
    problems += check_round_trip(serialize_turtle(merged))
    problems += check_precedence(
        merged_t, [(a.value, b.value) for a, b in precedence.asserted],
        [(a.value, b.value) for a, b in precedence.inferred], oracles)
    problems += check_report_diagnostics([d.to_dict() for d in diagnostics], merged_t, ontology)
    return [f"scene {scene.index}: {p}" for p in problems]


def check_large_graph(graph, out: Path, enrich_code: int, validate_code: int,
                      ontology, oracles) -> list[str]:
    """``xkg enrich`` and ``xkg validate`` on the scaled corpus, both writing to ``out``."""
    problems = []
    try:
        diagnostics = json.loads((out / "diagnostics.json").read_text(encoding="utf-8"))
        report = json.loads((out / "validation-report.json").read_text(encoding="utf-8"))
        merged_text = (out / "xkg-merged.ttl").read_text(encoding="utf-8")
        merged = read_turtle(merged_text)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if enrich_code != 0:
        problems.append(f"enrich exit code {enrich_code}, expected 0")
    for h in HEURISTIC_NAMES:
        entry = diagnostics.get(h, {})
        if entry.get("quarantined") or entry.get("added") != len(graph.additions[h]):
            problems.append(f"{h}: added={entry.get('added')} quarantined={entry.get('quarantined')}, "
                            f"expected {len(graph.additions[h])} and False")
    if merged != graph.base | graph.merged_additions:
        problems.append("merged graph differs from base plus all additions")
    problems += check_round_trip(merged_text)
    expected_axioms = graph.axioms_per_copy * graph.scale
    if report["profile"]["axioms"] != expected_axioms:
        problems.append(f"profile axioms {report['profile']['axioms']}, expected {expected_axioms}")
    problems += check_precedence(merged, report["precedence"]["asserted"],
                                 report["precedence"]["inferred"], oracles)
    problems += check_report_diagnostics(report["diagnostics"], merged, ontology)
    expected_code = 1 if clash_subjects(merged, ontology) else 0
    if validate_code != expected_code:
        problems.append(f"validate exit code {validate_code}, expected {expected_code}")
    return problems


def check_document(types: dict, out: Path, exit_code: int) -> list[str]:
    """``xkg base`` on the large AMR document: every individual typed as expected."""
    try:
        text = (out / "base-graph.ttl").read_text(encoding="utf-8")
        base = read_turtle(text)
    except (OSError, ValueError) as exc:
        return [f"unreadable base graph: {exc}"]
    problems = [] if exit_code == 0 else [f"base exit code {exit_code}, expected 0"]
    typed_fred = {(s, o) for s, p, o in base if p == TYPE and s.startswith("<" + FRED)}
    if typed_fred != {(iri(i), iri(c)) for i, c in types.items()}:
        problems.append(f"base graph types {len(typed_fred)} individuals, expected {len(types)}")
    return problems + check_round_trip(text)


def check_agreement(report_path: Path, rows, oracles) -> list[str]:
    """Every statistic of the agreement report against the oracles."""
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable agreement report: {exc}"]
    problems = []
    stats = {h["heuristic"]: h for h in report["heuristics"]}
    rated = [h for h in HEURISTIC_NAMES if any(r[1] == h for r in rows)]
    if list(stats) != rated:
        problems.append(f"agreement rows {list(stats)} differ from rated heuristics {rated}")
    for h in rated:
        table = ratings_table(rows, h)
        got = stats.get(h)
        if got is None:
            continue
        values = [v for row in table for v in row if v is not None]
        mean = sum(values) / len(values)
        sd = (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5
        pairs = []
        for a in range(3):
            for b in range(a + 1, 3):
                if sum(1 for row in table if row[a] is not None and row[b] is not None) >= 2:
                    pairs.append(oracles.kappa_oracle(table, a, b))
        defined = [k for k in pairs if k is not None]
        expected = {
            "items": len(table),
            "mean": mean,
            "sd": sd,
            "percent_agreement": oracles.percent_agreement_oracle(table),
            "mean_kappa": (sum(defined) / len(defined)) if defined else None,
            "krippendorff_alpha": oracles.krippendorff_oracle(table),
        }
        for key, want in expected.items():
            have = got.get(key)
            if want is None or have is None:
                if want != have:
                    problems.append(f"{h} {key}: {have} vs oracle {want}")
            elif abs(have - want) > TOLERANCE:
                problems.append(f"{h} {key}: {have} vs oracle {want}")
    return problems
