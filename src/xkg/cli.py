"""Command-line front end for the enrichment pipeline.

Subcommands mirror the pipeline stages: ``describe`` (image or text to a
description file), ``base`` (PENMAN to the translated base graph),
``enrich`` (heuristic additions and merged graph), ``validate`` (lints,
consistency, precedence, profile), ``agree`` (rater statistics), and ``run``
(the whole chain). The pipeline subcommands read their input files, call the
matching stage of :mod:`xkg.pipeline` (``run`` calls ``run_pipeline``) and
write the results. Every stage that would call a live model accepts
``--mock``, making the full pipeline reproducible offline.

Exit codes: 0 on success, 1 when ERROR diagnostics were produced (and
quarantine is engaged), 2 on configuration or input failures, including an
input file that cannot be read.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Optional

from . import agreement as agreement_mod
from . import validation
from .amr import AmrError
from .backends import BackendError, HttpBackend, MockBackend
from .config import ConfigError, PipelineConfig, default_config, load_config
from .enrichment import HEURISTICS, HEURISTIC_BY_NAME, EnrichmentError
from .pipeline import ValidationReport, build_base, describe, enrich, run_pipeline, validate
from .rdf import RdfError, RdfGraph, parse_turtle, serialize_turtle

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_CONFIG = 2


class CliError(Exception):
    """Fatal configuration or input problem (exit code 2)."""


def _load_pipeline_config(path: Optional[str]) -> PipelineConfig:
    return load_config(path) if path else default_config()


def _make_backend(config: PipelineConfig, mock: bool):
    if mock:
        return MockBackend(config.require_resources().mock_dir)
    if not config.backend.endpoint:
        raise CliError("no backend endpoint configured; pass --mock or set backend.endpoint")
    return HttpBackend(config.backend)


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


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
    print(out_dir / "description.txt")


def cmd_describe(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args.config)
    if args.text:
        description = _read_input(args.text)
    else:
        try:
            description = describe(Path(args.image), _make_backend(config, args.mock))
        except BackendError as exc:
            raise CliError(f"description backend failed: {exc}")
    _write_description(Path(args.out), description)
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
    out_dir = Path(args.out)
    _write_base(out_dir, base)
    print(out_dir / "base-graph.ttl")
    return EXIT_OK


def _select_heuristics(selector: str):
    if selector == "all":
        return None
    chosen = []
    for name in selector.split(","):
        name = name.strip()
        if name not in HEURISTIC_BY_NAME:
            raise CliError(f"unknown heuristic {name!r}; known: "
                           + ", ".join(spec.name for spec in HEURISTICS))
        chosen.append(HEURISTIC_BY_NAME[name])
    return chosen


def _write_enrichment(out_dir: Path, results, merged: RdfGraph, force_merge: bool) -> int:
    for result in results:
        _write(out_dir / f"xkg-{result.heuristic}.ttl", serialize_turtle(result.xkg))
    _write(out_dir / "xkg-merged.ttl", serialize_turtle(merged))
    _write_json(out_dir / "diagnostics.json", {
        result.heuristic: {
            "added": len(result.added),
            "quarantined": result.failed and not force_merge,
            "diagnostics": [d.to_dict() for d in result.diagnostics],
        }
        for result in results
    })
    print(out_dir / "xkg-merged.ttl")
    failed = any(result.failed for result in results)
    return EXIT_DIAGNOSTICS if failed and not force_merge else EXIT_OK


def cmd_enrich(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args.config)
    base = _read_graph(args.base)
    backend = _make_backend(config, args.mock)
    force_merge = args.force_merge or config.force_merge
    results, merged = enrich(base, backend, config, _select_heuristics(args.heuristic),
                             force_merge)
    return _write_enrichment(Path(args.out), results, merged, force_merge)


def _write_validation(out_dir: Path, report: ValidationReport) -> int:
    _write_json(out_dir / "validation-report.json", report.to_dict())
    table = _profile_table(report.profile)
    _write(out_dir / "validation-report.txt", table)
    print(table, end="")
    for d in report.errors:
        print(f"{d.severity} {d.code}: {d.message}")
    return EXIT_DIAGNOSTICS if report.errors else EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args.config)
    graph = _read_graph(args.graph)
    base = _read_graph(args.base) if args.base else None
    report = validate(graph, base, config.require_resources())
    return _write_validation(Path(args.out), report)


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
    except agreement_mod.AgreementError as exc:
        raise CliError(str(exc))
    report = agreement_mod.build_report(
        matrix, heuristic_order=[spec.name for spec in HEURISTICS])
    out_dir = Path(args.out)
    _write(out_dir / "agreement-report.json", report.to_json())
    _write(out_dir / "agreement-report.txt", report.format_table())
    print(report.format_table(), end="")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_pipeline_config(args.config)
    source = _read_input(args.text) if args.text else Path(args.image)
    penman = _read_input(args.amr)
    backend = _make_backend(config, args.mock)
    force_merge = args.force_merge or config.force_merge
    try:
        result = run_pipeline(source, penman, config, backend, force_merge)
    except BackendError as exc:
        raise CliError(f"description backend failed: {exc}")
    except AmrError as exc:
        raise CliError(f"cannot parse {args.amr}: {exc}")
    out_dir = Path(args.out)
    _write_description(out_dir, result.description)
    _write_base(out_dir, result.base)
    enrich_code = _write_enrichment(out_dir, result.results, result.merged, force_merge)
    return max(enrich_code, _write_validation(out_dir, result.report))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--mock", action="store_true")
    p.add_argument("--force-merge", action="store_true")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (CliError, ConfigError, RdfError, AmrError, EnrichmentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
