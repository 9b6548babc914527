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
argument parser once per process, and runs each command with Python's
cyclic garbage collector paused, restoring it on every way out; the library
functions leave the collector alone.

Exit codes: 0 on success, 1 when a heuristic was quarantined or validation
produced ERROR diagnostics, 2 on configuration or input failures, including
an input file that cannot be read and an output that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import logging
import os
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
    """Write ``text`` to stdout, backslash-escaping what it cannot encode, and
    flush it. Without a stdout, or once its reader has gone, nothing is
    printed, and the command still writes its files and returns its code."""
    stdout = sys.stdout
    if stdout is None:
        return
    encoding = getattr(stdout, "encoding", None) or "utf-8"
    try:
        stdout.write(text.encode(encoding, "backslashreplace").decode(encoding))
        stdout.flush()
    except BrokenPipeError:
        # What is still buffered, and any later write, goes to os.devnull,
        # so the flush at exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout.fileno())
        os.close(devnull)


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
    # set disjoint from the base. The merge's are those of the results that
    # run_all kept, which iterate sorted, merged by one sort (timsort merges
    # sorted runs), with a triple two results share dropped where its copies
    # meet, so the list is the graph's order hint. Each text is written as
    # soon as it is rendered.
    merged_added = [t for t, _ in groupby(sorted(
        [t for result in results if not result.quarantined for t in result.additions]))]
    names = [f"xkg-{result.heuristic}.ttl" for result in results] + ["xkg-merged.ttl"]
    texts = serialize_extensions(base, [*(result.additions for result in results),
                                        RdfGraph.from_list(merged_added, merged.prefixes)])
    for name, text in zip(names, texts):
        _write(out_dir / name, text)
    entries = [_DIAGNOSTICS_ENTRY % (_encode(result.heuristic), len(result.additions),
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
    """The argument parser, built once per process; parsing does not change it.
    An option that several subcommands take is declared once, as a parent."""
    parser = argparse.ArgumentParser(
        prog="xkg",
        description="Build, enrich, and validate extended knowledge graphs from AMR.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(*args, **kwargs) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*args, **kwargs)
        return parent

    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", help="scene description text file, passed through unchanged")
    group.add_argument("--image", help="scene image file, sent to the multimodal endpoint")
    config = shared("--config", help="pipeline config JSON")
    out = shared("--out", required=True, help="output directory")
    mock = shared("--mock", action="store_true",
                  help="use the canned description and responses instead of a live model")
    force_merge = shared("--force-merge", action="store_true",
                         help="merge additions even from heuristics with ERROR diagnostics")

    sub.add_parser("describe", parents=[source, config, out, mock],
                   help="produce the scene description text").set_defaults(func=cmd_describe)

    p = sub.add_parser("base", parents=[config, out],
                       help="translate a PENMAN file into the base graph")
    p.add_argument("--amr", required=True, help="PENMAN file")
    p.set_defaults(func=cmd_base)

    p = sub.add_parser("enrich", parents=[config, out, mock, force_merge],
                       help="run enrichment heuristics over a base graph")
    p.add_argument("--base", required=True, help="base graph Turtle file")
    p.add_argument("--heuristic", default="all",
                   help="comma-separated heuristic names, or 'all'")
    p.set_defaults(func=cmd_enrich)

    p = sub.add_parser("validate", parents=[config, out],
                       help="lints, consistency, precedence, profile")
    p.add_argument("--graph", required=True, help="graph Turtle file")
    p.add_argument("--base", help="base graph for addition statistics")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("agree", parents=[out],
                       help="rater-agreement statistics from a ratings CSV")
    p.add_argument("--ratings", required=True, help="CSV: item_id,heuristic,annotator,score")
    p.set_defaults(func=cmd_agree)

    p = sub.add_parser("run", parents=[source, config, out, mock, force_merge],
                       help="full pipeline: describe, base, enrich, validate")
    p.add_argument("--amr", required=True, help="pre-parsed PENMAN file for the text")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # basicConfig adds a handler only to a root logger without one, and then
    # ignores its level, so the level is set on every call.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(logging.DEBUG if args.verbose else logging.WARNING)
    # Terms and triples are tuples, which the cyclic collector never stops
    # tracking, so each of its passes would walk the graph the command is
    # building. No command leaves cycles that grow with its input, so the
    # collector is paused for the command and put back as it was found.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (CliError, ConfigError, RdfError, AmrError, TranslateError, EnrichmentError,
            BackendError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        if enabled:
            gc.enable()


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
