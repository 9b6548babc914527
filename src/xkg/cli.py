"""Command-line front end for the enrichment pipeline.

Subcommands mirror the pipeline stages: ``describe`` (image or text to a
description file), ``base`` (PENMAN to the translated base graph),
``enrich`` (heuristic additions and merged graph), ``validate`` (lints,
consistency, precedence, profile), ``agree`` (rater statistics), and ``run``
(the whole chain). The pipeline subcommands read their input files, call the
matching stage of :mod:`xkg.pipeline` (``run`` calls ``run_pipeline``) and
write the results. Every stage that would call a live model accepts
``--mock``, making the full pipeline reproducible offline.

Every JSON file is the text of ``json.dumps(indent=2)``. The profiles and
the agreement report are written by ``json.dumps`` itself.
``validation-report.json`` and ``diagnostics.json`` hold one entry per
diagnostic, so they are rendered from text pieces instead, with the same
bytes and no dict built: one head per (severity, code) pair and one JSON
text per subject and per precedence node. ``json.dumps`` over
``Diagnostic.to_dict`` and ``ValidationReport.to_dict`` stays the reference
the tests compare them with. A command creates its ``--out`` once. Files are
UTF-8; stdout escapes what its encoding cannot hold. ``main`` builds the
argument parser once per process.

Exit codes: 0 on success, 1 when a heuristic was quarantined or validation
produced ERROR diagnostics, 2 on configuration or input failures, including
an input file that cannot be read and an output that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii as _encode
from pathlib import Path
from typing import Optional

from . import agreement as agreement_mod
from . import validation
from .amr import AmrError
from .backends import BackendError, HttpBackend, MockBackend
from .config import ConfigError, PipelineConfig, default_config, load_config
from .enrichment import HEURISTICS, HEURISTIC_BY_NAME, EnrichmentError
from .pipeline import ValidationReport, build_base, describe, enrich, run_pipeline, validate
from .rdf import (BlankNode, RdfError, RdfGraph, parse_turtle, serialize_extensions,
                  serialize_turtle)
from .translate import TranslateError

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_CONFIG = 2


class CliError(Exception):
    """Fatal configuration or input problem (exit code 2)."""


def _load_pipeline_config(path: Optional[str], force_merge: bool = False) -> PipelineConfig:
    """The config at ``path`` (the bundled one for None); ``--force-merge``
    sets its ``force_merge``."""
    config = load_config(path) if path else default_config()
    return config._replace(force_merge=True) if force_merge else config


def _make_backend(config: PipelineConfig, mock: bool):
    if mock:
        return MockBackend(config.require_resources().mock_dir)
    if not config.backend.endpoint:
        raise CliError("no backend endpoint configured; pass --mock or set backend.endpoint")
    return HttpBackend(config.backend)


def _echo(text: str) -> None:
    """Write ``text`` to stdout, backslash-escaping what it cannot encode."""
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    sys.stdout.write(text.encode(encoding, "backslashreplace").decode(encoding))


def _out_dir(path: str) -> Path:
    """``--out``, created with its parents before a command's first file; one
    that cannot be created is an input error."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot write {out_dir}: {exc}")
    return out_dir


def _write(path: Path, content: str) -> None:
    """Write ``content`` to ``path``; an output that cannot be written is an
    input error."""
    try:
        path.write_text(content, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _diagnostics_json(diagnostics, outer: str) -> str:
    """``json.dumps([d.to_dict() for d in diagnostics], indent=2)`` with each
    ``"\\n"`` replaced by ``outer``, which nests it where ``outer`` starts a
    line. No dict is built, and each (severity, code) pair's head and each
    subject's text are rendered once."""
    if not diagnostics:
        return "[]"
    inner = outer + "  "
    key = inner + "  "
    head = "{" + key + '"severity": %s,' + key + '"code": %s,' + key + '"subject": '
    middle = "," + key + '"message": '
    end = inner + "}"
    # Keyed by the term, not its value: a blank node renders its label with
    # "_:", an IRI or a literal with the same value without.
    heads: dict[tuple[str, str], str] = {}
    subjects: dict = {None: "null"}
    entries = []
    for severity, code, message, s in diagnostics:
        start = heads.get((severity, code))
        if start is None:
            start = heads[severity, code] = head % (_encode(severity), _encode(code))
        subject = subjects.get(s)
        if subject is None:
            subject = subjects[s] = _encode("_:" + s[1] if isinstance(s, BlankNode) else s[1])
        entries.append(start + subject + middle + _encode(message) + end)
    return "[" + inner + ("," + inner).join(entries) + outer + "]"


def _pairs_json(pairs, outer: str) -> str:
    """``json.dumps([[a.value, b.value] for a, b in pairs], indent=2)``, nested
    as in ``_diagnostics_json``; each node's text is encoded once."""
    if not pairs:
        return "[]"
    inner = outer + "  "
    template = "[" + inner + "  %s," + inner + "  %s" + inner + "]"
    texts = {node: _encode(node.value) for node in set(chain.from_iterable(pairs))}
    return "[" + inner + ("," + inner).join([
        template % (texts[a], texts[b]) for a, b in pairs]) + outer + "]"


#: One result's entry in ``diagnostics.json``, and ``validation-report.json``
#: with its final newline: the layout ``json.dumps(indent=2)`` gives their
#: dicts.
_DIAGNOSTICS_ENTRY = '%s: {\n    "added": %d,\n    "quarantined": %s,\n    "diagnostics": %s\n  }'
_REPORT = ('{\n  "diagnostics": %s,\n  "profile": %s,\n  "precedence": {'
           '\n    "asserted": %s,\n    "inferred": %s\n  }\n}\n')


def _write_json(path: Path, payload) -> None:
    _write(path, json.dumps(payload, indent=2) + "\n")


def _read_input(path: str, load=lambda p: p.read_text(encoding="utf-8")):
    """``load(Path(path))``; an input file that cannot be read is an input error."""
    try:
        return load(Path(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _read_graph(path: str) -> RdfGraph:
    try:
        return parse_turtle(_read_input(path))
    except RdfError as exc:
        raise CliError(f"cannot parse {path}: {exc}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _write_description(out_dir: Path, description: str) -> None:
    _write(out_dir / "description.txt", description)
    _echo(f"{out_dir / 'description.txt'}\n")


def cmd_describe(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args.config)
    if args.text:
        description = _read_input(args.text)
    else:
        try:
            description = describe(Path(args.image), _make_backend(config, args.mock))
        except BackendError as exc:
            raise CliError(f"description backend failed: {exc}")
    _write_description(_out_dir(args.out), description)
    return EXIT_OK


def _write_base(out_dir: Path, base: RdfGraph) -> None:
    _write(out_dir / "base-graph.ttl", serialize_turtle(base))
    _write_json(out_dir / "base-profile.json", validation.profile(base).to_dict())


def cmd_base(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args.config)
    penman = _read_input(args.amr)
    try:
        base = build_base(penman, config.require_resources())
    except AmrError as exc:
        raise CliError(f"cannot parse {args.amr}: {exc}")
    out_dir = _out_dir(args.out)
    _write_base(out_dir, base)
    _echo(f"{out_dir / 'base-graph.ttl'}\n")
    return EXIT_OK


def _select_heuristics(selector: str):
    """The named heuristics in registry order, each once (None for 'all'), so
    the run order does not depend on how they are listed."""
    if selector == "all":
        return None
    names = [name.strip() for name in selector.split(",")]
    for name in names:
        if name not in HEURISTIC_BY_NAME:
            raise CliError(f"unknown heuristic {name!r}; known: "
                           + ", ".join(spec.name for spec in HEURISTICS))
    return [spec for spec in HEURISTICS if spec.name in names]


def _write_enrichment(out_dir: Path, base: RdfGraph, results, merged: RdfGraph) -> int:
    # Every extended graph and the merge are the base plus additions, each
    # set disjoint from the base. Each result's additions are sorted once.
    # The merge's are the runs of the results that run_all kept in it (those
    # not quarantined), merged by one sort (timsort merges sorted runs), with
    # a triple two results share dropped where its copies meet. Each text is
    # written as soon as it is rendered.
    runs = [sorted(result.added) for result in results]
    merged_added = [t for t, _ in groupby(sorted(chain.from_iterable(
        run for run, result in zip(runs, results) if not result.quarantined)))]
    names = [f"xkg-{result.heuristic}.ttl" for result in results] + ["xkg-merged.ttl"]
    texts = serialize_extensions(base, [
        *((result.prefixes, run) for result, run in zip(results, runs)),
        (merged.prefixes, merged_added)])
    for name, text in zip(names, texts):
        _write(out_dir / name, text)
    entries = [_DIAGNOSTICS_ENTRY % (_encode(result.heuristic), len(result.added),
                                     "true" if result.quarantined else "false",
                                     _diagnostics_json(result.diagnostics, "\n    "))
               for result in results]
    _write(out_dir / "diagnostics.json",
           "{\n  " + ",\n  ".join(entries) + "\n}\n" if entries else "{}\n")
    _echo(f"{out_dir / 'xkg-merged.ttl'}\n")
    return EXIT_DIAGNOSTICS if any(result.quarantined for result in results) else EXIT_OK


def cmd_enrich(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args.config, args.force_merge)
    base = _read_graph(args.base)
    backend = _make_backend(config, args.mock)
    results, merged = enrich(base, backend, config, _select_heuristics(args.heuristic))
    return _write_enrichment(_out_dir(args.out), base, results, merged)


def _write_validation(out_dir: Path, report: ValidationReport) -> int:
    # json.dumps writes no raw line end inside a string, so each "\n" it
    # writes starts a line of the layout.
    profile = json.dumps(report.profile.to_dict(), indent=2).replace("\n", "\n  ")
    _write(out_dir / "validation-report.json", _REPORT % (
        _diagnostics_json(report.diagnostics, "\n  "), profile,
        _pairs_json(report.precedence.asserted, "\n    "),
        _pairs_json(report.precedence.inferred, "\n    ")))
    table = _profile_table(report.profile)
    _write(out_dir / "validation-report.txt", table)
    errors = report.errors  # built on each read
    _echo(table + "".join(f"{d.severity} {d.code}: {d.message}\n" for d in errors))
    return EXIT_DIAGNOSTICS if errors else EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args.config)
    graph = _read_graph(args.graph)
    base = _read_graph(args.base) if args.base else None
    report = validate(graph, base, config.require_resources())
    return _write_validation(_out_dir(args.out), report)


def _profile_table(p: validation.GraphProfile) -> str:
    headers = ["Axioms", "WordNet", "PB Roles", "PB Frames", "VN Roles", "D0", "DUL", "OP", "DP"]
    values = [p.axioms, p.wordnet, p.pb_roles, p.pb_frames, p.vn_roles, p.d0, p.dul,
              "-" if p.new_op is None else p.new_op,
              "-" if p.new_dp is None else p.new_dp]
    cells = [str(v) for v in values]
    widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
    return (
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)) + "\n"
        + "  ".join(c.rjust(w) for c, w in zip(cells, widths)) + "\n"
    )


def cmd_agree(args: argparse.Namespace) -> int:
    try:
        matrix = _read_input(args.ratings, agreement_mod.load_ratings)
        report = agreement_mod.build_report(
            matrix, heuristic_order=[spec.name for spec in HEURISTICS])
    except agreement_mod.AgreementError as exc:
        raise CliError(str(exc))
    out_dir = _out_dir(args.out)
    _write_json(out_dir / "agreement-report.json", report.to_dict())
    table = report.format_table()
    _write(out_dir / "agreement-report.txt", table)
    _echo(table)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args.config, args.force_merge)
    source = _read_input(args.text) if args.text else Path(args.image)
    penman = _read_input(args.amr)
    backend = _make_backend(config, args.mock)
    try:
        result = run_pipeline(source, penman, config, backend)
    except BackendError as exc:
        raise CliError(f"description backend failed: {exc}")
    except AmrError as exc:
        raise CliError(f"cannot parse {args.amr}: {exc}")
    out_dir = _out_dir(args.out)
    _write_description(out_dir, result.description)
    _write_base(out_dir, result.base)
    enrich_code = _write_enrichment(out_dir, result.base, result.results, result.merged)
    return max(enrich_code, _write_validation(out_dir, result.report))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="xkg",
        description="Build, enrich, and validate extended knowledge graphs from AMR.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="produce the scene description text")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--text", help="text file passed through unchanged")
    source.add_argument("--image", help="image file sent to the multimodal endpoint")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mock", action="store_true", help="use the canned description")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("base", help="translate a PENMAN file into the base graph")
    p.add_argument("--amr", required=True, help="PENMAN file")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_base)

    p = sub.add_parser("enrich", help="run enrichment heuristics over a base graph")
    p.add_argument("--base", required=True, help="base graph Turtle file")
    p.add_argument("--heuristic", default="all",
                   help="comma-separated heuristic names, or 'all'")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--mock", action="store_true", help="replay canned responses")
    p.add_argument("--force-merge", action="store_true",
                   help="merge additions even from heuristics with ERROR diagnostics")
    p.set_defaults(func=cmd_enrich)

    p = sub.add_parser("validate", help="lints, consistency, precedence, profile")
    p.add_argument("--graph", required=True, help="graph Turtle file")
    p.add_argument("--base", help="base graph for addition statistics")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("agree", help="rater-agreement statistics from a ratings CSV")
    p.add_argument("--ratings", required=True, help="CSV: item_id,heuristic,annotator,score")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_agree)

    p = sub.add_parser("run", help="full pipeline: describe, base, enrich, validate")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--text", help="scene description text file")
    source.add_argument("--image", help="scene image file")
    p.add_argument("--amr", required=True, help="pre-parsed PENMAN file for the text")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--mock", action="store_true",
                   help="use the canned description and replay canned responses")
    p.add_argument("--force-merge", action="store_true",
                   help="merge additions even from heuristics with ERROR diagnostics")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # basicConfig adds a handler only to a root logger without one, and then
    # ignores its level, so the level is set on every call.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (CliError, ConfigError, RdfError, AmrError, TranslateError, EnrichmentError,
            BackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
