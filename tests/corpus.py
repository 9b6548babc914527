"""Full-scale synthetic corpus standing in for the study's published graphs.

The original base graph and per-heuristic extension graphs are not shipped
with this repository, so the calibration tests run against synthetic graphs
built here by explicit enumeration: every count in the target statistics
table is realized by constructing exactly that many entities or statements,
which makes manual enumeration the oracle for the expected numbers.

Layout of the base graph (targets in parentheses):

* 20 frame individuals typed by 20 distinct roleset classes (frames 20);
* 21 noun individuals typed by 21 fred classes, each class equivalent to a
  distinct synset (21) and 12 of them under distinct supersenses (33 total
  WordNet entities);
* 23 local-role assertions with 23 distinct role predicates (roles 23);
* one VerbNet role assertion (1);
* 8 subclass links into distinct DUL classes, which together with the two
  DUL properties used by filler statements give 10 DUL entities;
* 5 subclass links into 4 distinct D0 classes (4);
* one owl:sameAs link and filler quality/association statements bringing the
  non-structural statement count to exactly 293.

Each heuristic's addition set is enumerated the same way to hit its axiom
count and per-namespace columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from xkg.enrichment import HEURISTIC_BY_NAME, HEURISTICS
from xkg.rdf import (
    D0_NS,
    DUL_ASSOCIATED_WITH,
    DUL_HAS_QUALITY,
    DUL_NS,
    DUL_PRECEDES,
    FRED_NS,
    OWL_EQUIVALENT_CLASS,
    OWL_SAME_AS,
    PBLR_NS,
    PBRS_NS,
    RDFS_LABEL,
    RDFS_SUBCLASSOF,
    RDF_TYPE,
    TRUE,
    VN_ROLE_NS,
    WIKIDATA_NS,
    WN30_NS,
    Iri,
    Literal,
    PrefixTable,
    RdfGraph,
    Triple,
    standard_prefixes,
)

FRAMES = [
    "celebrate-01", "win-01", "wear-01", "race-02", "compete-01",
    "finish-01", "cheer-01", "achieve-01", "capture-01", "realize-01",
    "inspire-01", "represent-01", "embody-01", "work-01", "dedicate-01",
    "pay-01", "see-01", "pose-01", "beam-02", "thrill-01",
]

NOUNS = [
    "athlete", "track", "uniform", "jersey", "flag", "stadium", "spectator",
    "competitor", "crowd", "joy", "exhilaration", "pride", "spirit",
    "competition", "emotion", "moment", "scene", "potential", "arm",
    "country", "medal",
]

# (frame, role name, target individual lemma) with 23 distinct predicates
LOCAL_ROLES = [
    ("celebrate-01", "honorer", "athlete"),
    ("celebrate-01", "honored", "win"),
    ("wear-01", "wearer", "athlete"),
    ("wear-01", "clothing", "uniform"),
    ("win-01", "winner", "athlete"),
    ("win-01", "contest", "competition"),
    ("race-02", "racer", "athlete"),
    ("compete-01", "competitor", "competitor"),
    ("compete-01", "competition", "competition"),
    ("finish-01", "finisher", "competitor"),
    ("cheer-01", "cheerer", "spectator"),
    ("cheer-01", "cheered", "athlete"),
    ("achieve-01", "achiever", "athlete"),
    ("achieve-01", "achievement", "win"),
    ("capture-01", "captured", "moment"),
    ("realize-01", "realizer", "athlete"),
    ("inspire-01", "inspirer", "scene"),
    ("inspire-01", "inspired", "spectator"),
    ("represent-01", "representative", "athlete"),
    ("represent-01", "represented", "country"),
    ("embody-01", "embodier", "athlete"),
    ("embody-01", "embodied", "spirit"),
    ("dedicate-01", "agent", "athlete"),
]

SUPERSENSES = {
    "athlete": "noun_person",
    "track": "noun_location",
    "uniform": "noun_artifact",
    "joy": "noun_feeling",
    "competition": "noun_event",
    "crowd": "noun_group",
    "spirit": "noun_cognition",
    "potential": "noun_attribute",
    "moment": "noun_time",
    "scene": "noun_communication",
    "arm": "noun_body",
    "emotion": "noun_state",
}

DUL_ALIGNMENTS = {
    "athlete": "Person",
    "uniform": "PhysicalObject",
    "country": "Organization",
    "competition": "Situation",
    "flag": "InformationEntity",
    "emotion": "Quality",
    "competitor": "Agent",
    "track": "SpaceRegion",
}

D0_ALIGNMENTS = [
    ("class", "Joy", "CognitiveEntity"),
    ("class", "Potential", "Characteristic"),
    ("frame", "celebrate-01", "Activity"),
    ("frame", "cheer-01", "Activity"),
    ("frame", "win-01", "Event"),
]

BASE_FILLER_QUALITY = 21
BASE_FILLER_ASSOC = 160


def fred(local: str) -> Iri:
    return Iri(FRED_NS + local)


def ind(lemma: str, k: int = 1) -> Iri:
    return fred(f"{lemma.split('-')[0].replace('-', '_')}_{k}")


def noun_class(lemma: str) -> Iri:
    return fred(lemma.capitalize())


def synset(lemma: str) -> Iri:
    return Iri(WN30_NS + f"synset-{lemma}-noun-1")


def supersense(name: str) -> Iri:
    return Iri(WN30_NS + f"supersense-{name}")


def heuristic_ns(name: str) -> str:
    return HEURISTIC_BY_NAME[name].namespace


@dataclass
class Corpus:
    base: RdfGraph
    additions: dict[str, frozenset[Triple]]

    def xkg(self, heuristic: str) -> RdfGraph:
        return RdfGraph(self.base.triples | self.additions[heuristic],
                        self.base.prefixes)


def _pair_stream() -> Iterator[tuple[Iri, Iri]]:
    """Deterministic stream of distinct ordered individual pairs."""
    individuals = [ind(f) for f in FRAMES] + [ind(n) for n in NOUNS]
    count = len(individuals)
    for distance in range(1, count):
        for i in range(count):
            yield individuals[i], individuals[(i + distance) % count]


def build_corpus() -> Corpus:
    pairs = _pair_stream()
    triples: set[Triple] = set()

    def add(s: Iri, p: Iri, o) -> None:
        triple = Triple(s, p, o)
        assert triple not in triples, f"duplicate while enumerating: {triple}"
        triples.add(triple)

    for frame in FRAMES:
        add(ind(frame), RDF_TYPE, Iri(PBRS_NS + frame))
    for noun in NOUNS:
        add(ind(noun), RDF_TYPE, noun_class(noun))
        add(noun_class(noun), OWL_EQUIVALENT_CLASS, synset(noun))
    for noun, sense in SUPERSENSES.items():
        add(noun_class(noun), RDFS_SUBCLASSOF, supersense(sense))
    for noun, dul_class in DUL_ALIGNMENTS.items():
        add(noun_class(noun), RDFS_SUBCLASSOF, Iri(DUL_NS + dul_class))
    for kind, name, d0_class in D0_ALIGNMENTS:
        subject = noun_class(name.lower()) if kind == "class" else Iri(PBRS_NS + name)
        add(subject, RDFS_SUBCLASSOF, Iri(D0_NS + d0_class))
    for frame, role, target in LOCAL_ROLES:
        add(ind(frame), Iri(PBLR_NS + f"{frame}.{role}"), ind(target))
    add(ind("celebrate-01"), Iri(VN_ROLE_NS + "Location"), ind("track"))
    add(ind("country"), OWL_SAME_AS, Iri(WIKIDATA_NS + "Q760"))
    add(ind("country"), RDFS_LABEL, Literal("Saint Lucia"))  # structural

    for _ in range(BASE_FILLER_QUALITY):
        s, o = next(pairs)
        add(s, DUL_HAS_QUALITY, o)
    for _ in range(BASE_FILLER_ASSOC):
        s, o = next(pairs)
        add(s, DUL_ASSOCIATED_WITH, o)

    prefixes = standard_prefixes().merged(
        PrefixTable({spec.prefix: spec.namespace for spec in HEURISTICS}))
    base = RdfGraph(frozenset(triples), prefixes)

    additions: dict[str, frozenset[Triple]] = {}

    def build(name: str, rows: list[Triple], filler: int) -> None:
        block = set(rows)
        assert len(block) == len(rows), f"{name}: duplicate rows"
        for _ in range(filler):
            s, o = next(pairs)
            block.add(Triple(s, DUL_ASSOCIATED_WITH, o))
        assert not block & base.triples, f"{name}: overlaps the base graph"
        additions[name] = frozenset(block)

    ns = heuristic_ns("Presuppositions")
    dp_subjects = ["stadium", "competition", "athlete", "uniform", "track",
                   "flag", "medal", "crowd", "jersey", "scene", "win-01"]
    dp_names = ["existedBeforeScene", "wasScheduledInAdvance", "hadTrained",
                "wasIssuedBeforehand", "wasPreparedForRacing", "wasRaisedBefore",
                "wasAtStake", "hadGathered", "carriedAthleteName",
                "wasPubliclyVisible", "wasContested"]
    rows = [Triple(ind(s), Iri(ns + n), TRUE) for s, n in zip(dp_subjects, dp_names)]
    for new, frame, anchor in [("train", "train-01", "athlete"),
                               ("build", "build-01", "stadium"),
                               ("qualify", "qualify-01", "athlete")]:
        rows.append(Triple(fred(f"{new}_1"), RDF_TYPE, Iri(PBRS_NS + frame)))
        rows.append(Triple(fred(f"{new}_1"), DUL_ASSOCIATED_WITH, ind(anchor)))
    build("Presuppositions", rows, filler=32 - len(rows))

    ns = heuristic_ns("ConversationalImplicatures")
    rows = []
    chains = [("athlete", "hasNationality", "nationality"),
              ("win", "hasVictory", "victory"),
              ("athlete", "hasEmotion", "elation"),
              ("moment", "hasSignificance", "milestone"),
              ("crowd", "hasAtmosphere", "excitement"),
              ("athlete", "hasStatus", "champion")]
    for anchor, prop, lemma in chains:
        instance = Iri(ns + f"{lemma}_1")
        klass = Iri(ns + lemma.capitalize())
        rows.append(Triple(ind(anchor), Iri(ns + prop), instance))
        rows.append(Triple(instance, RDF_TYPE, klass))
        rows.append(Triple(klass, OWL_EQUIVALENT_CLASS, synset(lemma)))
    direct = [("athlete", "hasRival", "competitor"),
              ("athlete", "hasAudience", "spectator"),
              ("win", "hasOutcome", "medal"),
              ("celebrate-01", "hasSetting", "stadium"),
              ("country", "hasRepresentative", "athlete"),
              ("scene", "conveysPride", "pride"),
              ("win", "suggestsEffort", "work-01"),
              ("athlete", "impliesQualification", "competition")]
    for s, prop, o in direct:
        rows.append(Triple(ind(s), Iri(ns + prop), ind(o)))
    build("ConversationalImplicatures", rows, filler=36 - len(rows))

    ns = heuristic_ns("FactualImpact")
    rows = [
        Triple(ind("athlete"), Iri(ns + "hasExpectedEmotion"), Iri(ns + "Joy")),
        Triple(ind("athlete"), Iri(ns + "hasExpectedEmotion"), Iri(ns + "Pride")),
        Triple(ind("athlete"), Iri(ns + "hasExpectedPhysicalState"), Iri(ns + "Exhilaration")),
        Triple(ind("athlete"), Iri(ns + "hasExpectedSocialImpact"), Iri(ns + "NationalRecognition")),
        Triple(ind("win-01"), Iri(ns + "hasExpectedSocialImpact"), Iri(ns + "MedalCeremony")),
        Triple(Iri(ns + "Joy"), OWL_EQUIVALENT_CLASS, synset("joy")),
        Triple(Iri(ns + "Pride"), OWL_EQUIVALENT_CLASS, synset("pride")),
        Triple(Iri(ns + "Exhilaration"), OWL_EQUIVALENT_CLASS, synset("exhilaration")),
        Triple(Iri(ns + "NationalRecognition"), OWL_EQUIVALENT_CLASS, synset("recognition")),
        Triple(Iri(ns + "Joy"), RDFS_SUBCLASSOF, supersense("noun_feeling")),
    ]
    build("FactualImpact", rows, filler=13 - len(rows))

    ns = heuristic_ns("ImageSchemas")
    schemas = [
        ("Container", "PhysicalObject", "container"),
        ("Path", "SpaceRegion", "path"),
        ("Source_Path_Goal", "SpaceRegion", "route"),
        ("Balance", "Quality", "balance"),
        ("Force", "Quality", "force"),
        ("Collection", "Collection", "collection"),
        ("Cycle", "Process", "cycle"),
        ("Verticality", "Quality", "verticality"),
        ("Center_Periphery", "SpaceRegion", "center"),
        ("Contact", "Quality", "contact"),
        ("Support", "Quality", "support"),
        ("Blockage", "Quality", None),
        ("Attraction", "Quality", None),
        ("Scale", "Quality", None),
    ]
    rows = []
    for schema, dul_class, lemma in schemas:
        klass = Iri(ns + schema)
        rows.append(Triple(klass, RDFS_SUBCLASSOF, Iri(DUL_NS + dul_class)))
        rows.append(Triple(Iri(ns + schema.lower() + "_1"), RDF_TYPE, klass))
        if lemma is not None:
            rows.append(Triple(klass, OWL_EQUIVALENT_CLASS, synset(lemma)))
    involves = Iri(ns + "involvesSchema")
    involved = [("stadium", "container"), ("race-02", "path"),
                ("race-02", "source_path_goal"), ("athlete", "balance"),
                ("race-02", "force"), ("crowd", "collection"),
                ("competition", "cycle"), ("celebrate-01", "verticality"),
                ("track", "center_periphery"), ("wear-01", "contact"),
                ("track", "support"), ("finish-01", "blockage"),
                ("medal", "attraction"), ("win-01", "scale"),
                ("arm", "verticality"), ("flag", "verticality"),
                ("spectator", "container"), ("uniform", "contact"),
                ("pose-01", "balance"), ("beam-02", "force")]
    for anchor, schema in involved:
        rows.append(Triple(ind(anchor), involves, Iri(ns + schema + "_1")))
    build("ImageSchemas", rows, filler=63 - len(rows))

    ns = heuristic_ns("MetonymicCoercion")
    stands_for = Iri(ns + "standsFor")
    rows = [
        Triple(ind("athlete"), RDF_TYPE, Iri(PBRS_NS + "cheer-01")),
        Triple(fred("applaud_1"), RDF_TYPE, Iri(PBRS_NS + "applaud-01")),
        Triple(fred("congratulate_1"), RDF_TYPE, Iri(PBRS_NS + "congratulate-01")),
        Triple(fred("toast_1"), RDF_TYPE, Iri(PBRS_NS + "toast-01")),
        # The classic slip: a role predicate minted in the roleset namespace.
        Triple(ind("spectator"), Iri(PBRS_NS + "cheer-01.agent"), ind("athlete")),
        Triple(fred("applaud_1"), Iri(PBLR_NS + "applaud-01.agent"), ind("spectator")),
        Triple(fred("applaud_1"), Iri(PBLR_NS + "applaud-01.applauded"), ind("athlete")),
        Triple(fred("congratulate_1"), Iri(PBLR_NS + "congratulate-01.congratulator"), ind("competitor")),
        Triple(fred("congratulate_1"), Iri(PBLR_NS + "congratulate-01.congratulated"), ind("athlete")),
        Triple(fred("toast_1"), Iri(PBLR_NS + "toast-01.toaster"), ind("crowd")),
        Triple(ind("jersey"), stands_for, ind("athlete")),
        Triple(ind("uniform"), stands_for, ind("country")),
        Triple(ind("flag"), stands_for, ind("country")),
        Triple(ind("crowd"), stands_for, ind("cheer-01")),
        Triple(ind("stadium"), stands_for, ind("competition")),
        Triple(ind("medal"), stands_for, ind("win-01")),
    ]
    build("MetonymicCoercion", rows, filler=26 - len(rows))

    ns = heuristic_ns("MoralValueCoercion")
    expresses = Iri(ns + "expressesValue")
    rows = [
        Triple(fred("strive_1"), RDF_TYPE, Iri(PBRS_NS + "strive-01")),
        Triple(fred("strive_1"), Iri(PBLR_NS + "strive-01.striver"), ind("athlete")),
        Triple(fred("strive_1"), Iri(PBLR_NS + "strive-01.goal"), ind("win-01")),
        Triple(ind("celebrate-01"), expresses, Iri(ns + "Achievement")),
        Triple(ind("athlete"), expresses, Iri(ns + "Dedication")),
        Triple(ind("win-01"), expresses, Iri(ns + "Merit")),
    ]
    build("MoralValueCoercion", rows, filler=12 - len(rows))

    ns = heuristic_ns("SymbolicCoercion")
    rows = [
        Triple(ind("flag"), Iri(ns + "symbolizes"), ind("country")),
        Triple(ind("uniform"), Iri(ns + "symbolizes"), ind("country")),
        Triple(ind("flag"), RDF_TYPE, Iri(ns + "Emblem")),
        Triple(ind("medal"), RDF_TYPE, Iri(ns + "Trophy")),
        Triple(ind("jersey"), RDF_TYPE, Iri(ns + "Insignia")),
        Triple(Iri(ns + "Emblem"), OWL_EQUIVALENT_CLASS, synset("emblem")),
        Triple(Iri(ns + "Trophy"), OWL_EQUIVALENT_CLASS, synset("trophy")),
        Triple(Iri(ns + "Insignia"), OWL_EQUIVALENT_CLASS, synset("insignia")),
        Triple(Iri(ns + "Banner"), OWL_EQUIVALENT_CLASS, synset("banner")),
        Triple(Iri(ns + "Symbol"), OWL_EQUIVALENT_CLASS, synset("symbol")),
        Triple(Iri(ns + "Pennant"), OWL_EQUIVALENT_CLASS, synset("pennant")),
        Triple(Iri(ns + "Emblem"), RDFS_SUBCLASSOF, supersense("noun_communication")),
        Triple(Iri(ns + "Banner"), RDFS_SUBCLASSOF, Iri(ns + "Emblem")),
        Triple(Iri(ns + "Emblem"), RDFS_SUBCLASSOF, Iri(ns + "Symbol")),
        Triple(Iri(ns + "Pennant"), RDFS_SUBCLASSOF, Iri(ns + "Banner")),
    ]
    build("SymbolicCoercion", rows, filler=15 - len(rows))

    chain = ["wear-01", "competition", "race-02", "finish-01", "win-01",
             "cheer-01", "celebrate-01", "pose-01", "beam-02", "capture-01"]
    rows = [Triple(ind(a), DUL_PRECEDES, ind(b)) for a, b in zip(chain, chain[1:])]
    build("EventSequences", rows, filler=15 - len(rows))

    ns = heuristic_ns("CausalRelations")
    causes = Iri(ns + "causes")
    rows = [
        Triple(ind("win-01"), causes, ind("celebrate-01")),
        Triple(ind("win-01"), causes, ind("cheer-01")),
        Triple(ind("win-01"), causes, ind("joy")),
        Triple(ind("work-01"), causes, ind("achieve-01")),
        Triple(ind("dedicate-01"), causes, ind("win-01")),
        Triple(ind("win-01"), causes, ind("thrill-01")),
        Triple(ind("win-01"), RDF_TYPE, Iri(ns + "Triumph")),
        Triple(Iri(ns + "Triumph"), OWL_EQUIVALENT_CLASS, synset("triumph")),
    ]
    build("CausalRelations", rows, filler=16 - len(rows))

    ns = heuristic_ns("ImpliedFutureEvents")
    ceremony = fred("celebrate_2")  # the anticipated public celebration
    expected = Iri(ns + "expectedEvent")
    rows = [
        Triple(ceremony, RDF_TYPE, Iri(PBRS_NS + "celebrate-01")),
        Triple(ceremony, Iri(PBLR_NS + "celebrate-01.honorer"), ind("country")),
        Triple(ind("win-01"), DUL_PRECEDES, ceremony),
        Triple(ind("celebrate-01"), DUL_PRECEDES, ceremony),
        # Shared with EventSequences on purpose; the merge dedups it.
        Triple(ind("celebrate-01"), DUL_PRECEDES, ind("pose-01")),
        Triple(ind("athlete"), expected, ceremony),
        Triple(ind("country"), expected, ceremony),
        Triple(ind("crowd"), expected, ceremony),
    ]
    build("ImpliedFutureEvents", rows, filler=14 - len(rows))

    ns = heuristic_ns("PotentialNonEvents")
    alternative = Iri(ns + "alternativeTo")
    rows = []
    for lemma, frame, role, anchor, actual in [
        ("lose", "lose-01", "loser", "athlete", "win-01"),
        ("fall", "fall-01", "faller", "athlete", "race-02"),
        ("stumble", "stumble-01", "stumbler", "competitor", "finish-01"),
        ("fail", "fail-01", "failer", "athlete", "achieve-01"),
    ]:
        rows.append(Triple(fred(f"{lemma}_1"), RDF_TYPE, Iri(PBRS_NS + frame)))
        rows.append(Triple(fred(f"{lemma}_1"), Iri(PBLR_NS + f"{frame}.{role}"), ind(anchor)))
        rows.append(Triple(fred(f"{lemma}_1"), alternative, ind(actual)))
    # Same contest, hypothetically lost: reuses a base role predicate.
    rows.append(Triple(fred("lose_1"), Iri(PBLR_NS + "win-01.contest"), ind("competition")))
    build("PotentialNonEvents", rows, filler=23 - len(rows))

    return Corpus(base, additions)


def additions_as_turtle(corpus: Corpus, heuristic: str) -> str:
    """The addition set rendered as a canned mock response."""
    from xkg.rdf import serialize_turtle

    return serialize_turtle(RdfGraph(corpus.additions[heuristic], corpus.base.prefixes))
