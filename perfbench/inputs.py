"""Seeded input generators for the benchmark workloads.

Every generator takes the seed (and an index where inputs form a sequence)
as an argument and is a pure function of them. The program under test only
ever sees the files these functions write; the expectations they return are
what the output checks compare against.

Terms in expectations are canonical strings, independent of the package's
own classes: ``<iri>`` for IRIs, ``"lexical"^^<datatype>`` for typed
literals, ``"lexical"`` for plain ones.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

FRED = "http://www.ontologydesignpatterns.org/ont/fred/domain.owl#"
DUL = "http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#"
PBRS = "https://w3id.org/framester/data/propbank-3.4.0/RoleSet/"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS = "http://www.w3.org/2000/01/rdf-schema#"
XSD = "http://www.w3.org/2001/XMLSchema#"
DUL_PRECEDES = DUL + "precedes"
XKG = "https://w3id.org/xkg/"

# The heuristic registry as the prompts and mock files name it: (name,
# prefix, namespace). Duplicated here on purpose, so a renamed namespace in
# the package shows up as a failed check rather than a silently moved one.
HEURISTICS = (
    ("Presuppositions", "presup", XKG + "presupposition#"),
    ("ConversationalImplicatures", "implic", XKG + "implicature#"),
    ("FactualImpact", "impact", XKG + "impact#"),
    ("ImageSchemas", "imgschema", XKG + "image-schema#"),
    ("MetonymicCoercion", "meton", XKG + "metonymy#"),
    ("MoralValueCoercion", "moral", XKG + "moral-value#"),
    ("SymbolicCoercion", "symbol", XKG + "symbolism#"),
    ("EventSequences", "seq", XKG + "event-sequence#"),
    ("CausalRelations", "cause", XKG + "causality#"),
    ("ImpliedFutureEvents", "future", XKG + "future-event#"),
    ("PotentialNonEvents", "nonevent", XKG + "non-event#"),
)
HEURISTIC_NAMES = tuple(name for name, _, _ in HEURISTICS)

PREFIXES = {
    "fred": FRED, "dul": DUL, "pbrs": PBRS,
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#", "rdfs": RDFS,
    "owl": "http://www.w3.org/2002/07/owl#", "xsd": XSD,
    "wn30": "https://w3id.org/framester/wn/wn30/instances/",
    "pblr": "https://w3id.org/framester/data/propbank-3.4.0/LocalRole/",
    "vn.role": "http://www.ontologydesignpatterns.org/ont/vn/abox/role/vnrole.owl#",
    "d0": "http://www.ontologydesignpatterns.org/ont/d0.owl#",
    "wd": "http://www.wikidata.org/entity/",
}
PREFIXES.update({prefix: ns for _, prefix, ns in HEURISTICS})

# ---------------------------------------------------------------------------
# Canonical terms and a minimal Turtle writer
# ---------------------------------------------------------------------------


def iri(value: str) -> str:
    return f"<{value}>"


def plain(lexical: str) -> str:
    return '"' + lexical.replace("\\", "\\\\").replace('"', '\\"') + '"'


def typed(lexical: str, datatype: str) -> str:
    return plain(lexical) + f"^^<{datatype}>"


TRUE = typed("true", XSD + "boolean")

_LOCAL_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


def _render(term: str, use_prefixes: bool) -> str:
    if term.startswith("<"):
        value = term[1:-1]
        if use_prefixes:
            for label, ns in PREFIXES.items():
                local = value[len(ns):]
                if value.startswith(ns) and local and set(local) <= _LOCAL_OK | {"."} \
                        and local[0] in _LOCAL_OK and local[-1] in _LOCAL_OK:
                    return f"{label}:{local}"
        return term
    if term == TRUE:
        return "true"
    return term


def write_turtle(triples, use_prefixes: bool = True) -> str:
    """One statement per line; prefixed names where a binding fits."""
    lines = []
    if use_prefixes:
        lines = [f"@prefix {label}: <{ns}> ." for label, ns in sorted(PREFIXES.items())]
        lines.append("")
    for s, p, o in triples:
        pred = "a" if p == iri(RDF_TYPE) else _render(p, use_prefixes)
        lines.append(f"{_render(s, use_prefixes)} {pred} {_render(o, use_prefixes)} .")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------

KNOWN_FRAMES = ("celebrate-01", "wear-01", "win-01", "race-02", "cheer-01",
                "finish-01", "lose-01", "compete-01", "achieve-01")
UNKNOWN_FRAMES = ("sprint-01", "leap-01", "wave-02", "gleam-01", "gather-03", "shout-01")
ALIGNED_NOUNS = ("athlete", "uniform", "flag", "track", "spectator", "competition")
OTHER_NOUNS = ("country", "stadium", "crowd", "medal", "jersey", "banner", "podium", "coach")
NAMES = (("Saint", "Lucia"), ("America",), ("Jamaica",))
CORE_ROLES = (":ARG0", ":ARG1", ":ARG2")
NONCORE_ROLES = (":location", ":time", ":mod", ":manner", ":part")

SIZE_RANGE = (10, 150)     # AMR nodes, name nodes included
SIZE_STRATA = 8
RESPONSE_KINDS = ("clean", "fenced", "prose", "floating", "unparseable")
# Scenes alternate between these response mixes over the 11 heuristics, so
# every pair of consecutive scenes holds the same shares: clean 15/22,
# fenced 3/22, prose-wrapped 2/22, floating 1/22, unparseable 1/22. The
# shares are an assumption, not measured model output (the paper reports
# none): mostly clean, with every repair and quarantine path in each pair.
MIXES = (
    {"clean": 8, "fenced": 2, "prose": 1},
    {"clean": 7, "fenced": 1, "prose": 1, "floating": 1, "unparseable": 1},
)
QUARANTINED_KINDS = ("floating", "unparseable")


@dataclass
class Scene:
    index: int
    nodes: int
    penman: str
    text: str
    responses: dict[str, str]
    kinds: dict[str, str]
    added: dict[str, frozenset]        # heuristic -> triples the result adds
    failed_503: str                    # heuristic whose first HTTP attempt fails

    @property
    def quarantined(self) -> frozenset:
        return frozenset(h for h, kind in self.kinds.items() if kind in QUARANTINED_KINDS)

    @property
    def merged_additions(self) -> frozenset:
        out: set = set()
        for heuristic, triples in self.added.items():
            if heuristic not in self.quarantined:
                out |= triples
        return frozenset(out)

    @property
    def expected_exit(self) -> int:
        return 1 if self.quarantined else 0


def scene_size(seed: int, index: int) -> int:
    """Every block of 8 scenes holds the same 8 sizes, in a seeded order.

    Any run of whole blocks then has the same size distribution whatever
    the seed, which keeps percentiles comparable across seeds.
    """
    block, slot = divmod(index, SIZE_STRATA)
    order = list(range(SIZE_STRATA))
    random.Random(seed * 7919 + block).shuffle(order)
    lo, hi = SIZE_RANGE
    return lo + round((order[slot] + 0.5) * (hi - lo) / SIZE_STRATA)


def _amr_nodes(rng: random.Random, count: int):
    """A random tree of ``count`` nodes (name nodes included), root first."""
    nodes = [{"var": "v0", "concept": rng.choice(KNOWN_FRAMES), "children": [], "name": False}]
    while len(nodes) < count:
        parent = rng.choice([n for n in nodes if not n["name"]])
        parent_is_frame = parent["concept"][-3] == "-"
        if rng.random() < 0.4:
            concept = rng.choice(KNOWN_FRAMES if rng.random() < 0.7 else UNKNOWN_FRAMES)
        else:
            concept = rng.choice(ALIGNED_NOUNS if rng.random() < 0.5 else OTHER_NOUNS)
        is_frame = concept[-3] == "-"
        if parent_is_frame and rng.random() < 0.6:
            role = rng.choice(CORE_ROLES)
        elif is_frame and not parent_is_frame and rng.random() < 0.5:
            role = rng.choice(CORE_ROLES) + "-of"
        else:
            role = rng.choice(NONCORE_ROLES)
        node = {"var": f"v{len(nodes)}", "concept": concept, "children": [], "name": False}
        parent["children"].append((role, node))
        nodes.append(node)
        if not is_frame and len(nodes) < count and rng.random() < 0.15:
            name = {"var": f"n{len(nodes)}", "concept": "name", "children": [], "name": True,
                    "ops": rng.choice(NAMES)}
            node["children"].append((":name", name))
            nodes.append(name)
    return nodes[0]


def _render_penman(root, rng: random.Random) -> tuple[str, list[tuple[str, str]]]:
    """PENMAN text plus the (variable, concept) list in declaration order."""
    order: list[tuple[str, str]] = []
    lines: list[str] = []

    def visit(node, indent: int, prefix: str) -> None:
        pad = " " * indent
        lines.append(f"{pad}{prefix}({node['var']} / {node['concept']}")
        order.append((node["var"], node["concept"]))
        if node["name"]:
            for i, op in enumerate(node["ops"], start=1):
                lines.append(f'{pad}   :op{i} "{op}"')
        for role, child in node["children"]:
            visit(child, indent + 3, role + " ")
        frame = node["concept"][-3] == "-"
        if frame and rng.random() < 0.15:
            lines.append(f"{pad}   :polarity -")
        if not node["name"] and rng.random() < 0.1:
            lines.append(f"{pad}   :quant {rng.randrange(1, 20)}")
        earlier = [v for v, c in order if c != "name" and v != node["var"]]
        if frame and earlier and rng.random() < 0.2:
            lines.append(f"{pad}   :ARG2 {rng.choice(earlier)}")
        lines[-1] += ")"

    visit(root, 0, "")
    return "\n".join(lines) + "\n", order


def individual_types(order: list[tuple[str, str]]) -> dict[str, str]:
    """Individual IRI -> its class, as the translation mints them, in order.

    Individuals are ``fred:<token>_<k>`` with ``k`` counted per concept; a
    frame is typed by its roleset class, a noun by ``fred:<Noun>``.
    """
    counters: dict[str, int] = {}
    types = {}
    for _var, concept in order:
        if concept == "name":
            continue
        counters[concept] = counters.get(concept, 0) + 1
        frame = concept[-3] == "-"
        lemma = concept[:-3] if frame else concept
        types[FRED + f"{lemma.replace('-', '_')}_{counters[concept]}"] = (
            PBRS + concept if frame else FRED + concept.capitalize())
    return types


DOCUMENT_NODES = 250


def make_document(seed: int, nodes: int = DOCUMENT_NODES) -> tuple[str, dict[str, str]]:
    """One large AMR graph (a whole document) and its expected typing."""
    rng = random.Random(seed * 92821 + 3)
    penman, order = _render_penman(_amr_nodes(rng, nodes), rng)
    return penman, individual_types(order)


def _clean_triples(rng: random.Random, heuristic: str, ns: str,
                   individuals: list[str], events: list[str]) -> frozenset:
    triples = set()
    if heuristic == "EventSequences" and len(events) >= 2:
        chain = rng.sample(events, min(len(events), rng.randint(2, 6)))
        for a, b in zip(chain, chain[1:]):
            triples.add((iri(a), iri(DUL_PRECEDES), iri(b)))
        if len(chain) >= 3 and rng.random() < 0.5:
            triples.add((iri(chain[0]), iri(DUL_PRECEDES), iri(chain[2])))
        return frozenset(triples)
    if heuristic == "ImpliedFutureEvents" and events:
        future = iri(ns + "upcoming1")
        for event in rng.sample(events, min(len(events), 2)):
            triples.add((iri(event), iri(DUL_PRECEDES), future))
        triples.add((future, iri(RDF_TYPE), iri(ns + "FutureEvent")))
    for j in range(rng.randint(2, 5)):
        anchor = iri(rng.choice(individuals))
        thing, kind = iri(ns + f"thing{j}"), iri(ns + f"Kind{j}")
        triples.add((anchor, iri(ns + f"relates{j}"), thing))
        triples.add((thing, iri(RDF_TYPE), kind))
        if rng.random() < 0.5:
            triples.add((kind, iri(RDFS + "comment"), plain(f"a kind seen in {heuristic}")))
        if rng.random() < 0.3:
            triples.add((kind, iri(RDFS + "subClassOf"), iri(DUL + "Quality")))
        if heuristic == "Presuppositions":
            triples.add((anchor, iri(ns + f"heldBefore{j}"), TRUE))
    return frozenset(triples)


def _floating_triples(ns: str) -> frozenset:
    return frozenset({
        (iri(ns + "orphan1"), iri(ns + "linkedTo"), iri(ns + "orphan2")),
        (iri(ns + "orphan2"), iri(RDF_TYPE), iri(ns + "Orphan")),
    })


def _response(rng: random.Random, kind: str, triples: frozenset, prefix: str) -> str:
    body = write_turtle(sorted(triples), use_prefixes=rng.random() < 0.8)
    if kind in ("clean", "floating"):
        return body
    if kind == "fenced":
        return f"Here are the additions for this scene.\n\n```turtle\n{body}```\n\nLet me know if you need more.\n"
    if kind == "prose":
        return f"Sure. Below are the statements you asked for.\n{body}These capture what a reader infers.\n"
    if rng.random() < 0.5:
        return f"I could not map this scene.\n{prefix}:broken {prefix}:triple [ .\n"
    return "I am sorry, but I cannot produce any statements for this scene.\n"


def make_scene(seed: int, index: int) -> Scene:
    size = scene_size(seed, index)
    rng = random.Random(seed * 1_000_003 + index)
    root = _amr_nodes(rng, size)
    penman, order = _render_penman(root, rng)
    types = individual_types(order)
    individuals = list(types)
    events = [ind for ind, klass in types.items() if klass.startswith(PBRS)]

    mix = MIXES[index % len(MIXES)]
    kinds_list = [kind for kind in RESPONSE_KINDS for _ in range(mix.get(kind, 0))]
    rng.shuffle(kinds_list)
    kinds = dict(zip(HEURISTIC_NAMES, kinds_list))

    responses: dict[str, str] = {}
    added: dict[str, frozenset] = {}
    for name, prefix, ns in HEURISTICS:
        kind = kinds[name]
        if kind == "floating":
            triples = _floating_triples(ns)
        else:
            triples = _clean_triples(rng, name, ns, individuals, events)
        responses[name] = _response(rng, kind, triples, prefix)
        added[name] = frozenset() if kind == "unparseable" else triples
    text = (f"Scene {index}: a crowd watches {len(events)} events unfold around "
            f"{len(individuals) - len(events)} people and things.\n")
    return Scene(index, size, penman, text, responses, kinds, added,
                 failed_503=rng.choice(HEURISTIC_NAMES))


def write_scene(scene: Scene, directory: Path) -> dict[str, Path]:
    """Scene files for the CLI: PENMAN, text, a mock dir and a config."""
    mocks = directory / "mocks"
    mocks.mkdir(parents=True, exist_ok=True)
    for name, body in scene.responses.items():
        (mocks / f"{name}.ttl").write_text(body, encoding="utf-8")
    paths = {"amr": directory / "scene.amr", "text": directory / "scene.txt",
             "config": directory / "config.json"}
    paths["amr"].write_text(scene.penman, encoding="utf-8")
    paths["text"].write_text(scene.text, encoding="utf-8")
    paths["config"].write_text(json.dumps({"resources": {"mock_dir": "mocks"}}), encoding="utf-8")
    return paths


# ---------------------------------------------------------------------------
# Ratings
# ---------------------------------------------------------------------------

RATERS = ("r1", "r2", "r3")
RATED_PER_HEURISTIC = 40
MISSING_RATE = 0.1


def make_ratings(seed: int, generated: dict[str, list]) -> list[tuple[str, str, str, int | None]]:
    """Rows (item_id, heuristic, annotator, score) over a sample of triples.

    Each heuristic contributes up to 40 sampled triples, rated 1-5 by three
    raters who mostly agree around a per-item quality; one score in ten is
    missing.
    """
    rng = random.Random(seed * 31337 + 5)
    rows = []
    for heuristic in HEURISTIC_NAMES:
        triples = sorted(generated.get(heuristic, ()))
        sample = rng.sample(triples, min(len(triples), RATED_PER_HEURISTIC))
        for j, _triple in enumerate(sample):
            quality = rng.randint(2, 5)
            for rater in RATERS:
                if rng.random() < MISSING_RATE:
                    score = None
                else:
                    score = max(1, min(5, quality + rng.choice((-1, 0, 0, 0, 1))))
                rows.append((f"{heuristic}-{j}", heuristic, rater, score))
    return rows


def write_ratings(rows, path: Path) -> None:
    lines = ["item_id,heuristic,annotator,score"]
    lines += [f"{i},{h},{a},{'' if s is None else s}" for i, h, a, s in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def ratings_table(rows, heuristic: str) -> list[list]:
    """Dense items x raters table for the brute-force oracles."""
    items: dict[str, dict] = {}
    for item, h, rater, score in rows:
        if h == heuristic:
            items.setdefault(item, {})[rater] = score
    return [[cells.get(r) for r in RATERS] for cells in items.values()]


# ---------------------------------------------------------------------------
# Scaled corpus
# ---------------------------------------------------------------------------

CORPUS_SCALE = 4


@dataclass
class LargeGraph:
    scale: int
    base: frozenset
    additions: dict[str, frozenset]
    axioms_per_copy: int

    @property
    def merged_additions(self) -> frozenset:
        return frozenset().union(*self.additions.values())


def canonical(term) -> str:
    """Canonical string of a package term (``Iri``, ``Literal``, ``BlankNode``)."""
    cls = type(term).__name__
    if cls == "Iri":
        return iri(term.value)
    if cls == "Literal":
        if term.language:
            return plain(term.lexical) + "@" + term.language
        if term.datatype is not None:
            return typed(term.lexical, term.datatype.value)
        return plain(term.lexical)
    return f"_:{term.label}"


_RENAMED = (FRED, PBRS) + tuple(ns for _, _, ns in HEURISTICS)


def make_large_graph(seed: int, corpus, scale: int = CORPUS_SCALE) -> LargeGraph:
    """``scale`` copies of the corpus, each renamed with a seeded suffix.

    Every IRI in the fred, roleset and heuristic namespaces gets the copy's
    suffix; shared vocabulary (DUL, D0, WordNet, local roles) stays, so each
    copy keeps the corpus's consistency and precedence structure and every
    statement of every copy is distinct.
    """
    rng = random.Random(seed * 65537 + 11)
    token = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))

    def rename(term: str, suffix: str) -> str:
        if term.startswith("<") and term[1:-1].startswith(_RENAMED):
            return term[:-1] + suffix + ">"
        return term

    def scaled(triples) -> frozenset:
        rows = [tuple(canonical(x) for x in t) for t in triples]
        out = set()
        for copy in range(scale):
            suffix = f"_{token}{copy}"
            for s, p, o in rows:
                out.add((rename(s, suffix), p, rename(o, suffix)))
        return frozenset(out)

    additions = {name: scaled(corpus.additions[name]) for name in HEURISTIC_NAMES}
    union = frozenset().union(*corpus.additions.values())
    per_copy = sum(1 for t in union if not _structural(tuple(canonical(x) for x in t)))
    return LargeGraph(scale, scaled(corpus.base.triples), additions, per_copy)


_DECLARATIONS = {iri("http://www.w3.org/2002/07/owl#" + c) for c in (
    "Class", "ObjectProperty", "DatatypeProperty", "NamedIndividual",
    "AnnotationProperty", "Ontology")}


def _structural(triple) -> bool:
    _s, p, o = triple
    if p in (iri(RDFS + "label"), iri(RDFS + "comment")):
        return True
    return p == iri(RDF_TYPE) and o in _DECLARATIONS


def write_large_graph(graph: LargeGraph, document: str, directory: Path) -> dict[str, Path]:
    mocks = directory / "mocks"
    mocks.mkdir(parents=True, exist_ok=True)
    for name, triples in graph.additions.items():
        (mocks / f"{name}.ttl").write_text(write_turtle(sorted(triples)), encoding="utf-8")
    paths = {"base": directory / "base.ttl", "config": directory / "config.json",
             "amr": directory / "document.amr"}
    paths["base"].write_text(write_turtle(sorted(graph.base)), encoding="utf-8")
    paths["amr"].write_text(document, encoding="utf-8")
    paths["config"].write_text(json.dumps({"resources": {"mock_dir": "mocks"}}), encoding="utf-8")
    return paths
