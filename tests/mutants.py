"""Recorded mutants of the package, each of which the tests it names must kill.

    python tests/mutants.py

Run from anywhere; it needs only the standard library and pytest. For each
mutant it copies ``src/`` to a temporary directory, requires the old text to
occur exactly once in the mutant's file, replaces it with the new text and
runs pytest on the mutant's test node ids, from the repository root, with
``PYTHONPATH`` at the copy (after checking that ``xkg`` is imported from
there). A mutant is killed only when pytest exits 1: tests ran and one
failed. Exit 0 means it survived; any other exit (4 or 5: an id that does
not exist, nothing collected) is an error of the runner, not a kill.

It prints one line per mutant and ends with ``{"killed": k, "total": n}``;
it exits 0 only when every mutant is killed. The list only grows, except
that a mutant whose code is gone is removed; a change that adds a check also
adds a mutant that the check kills.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    why: str


_RDF = "tests/test_rdf.py::"
_ENRICHMENT = "tests/test_enrichment.py::"

MUTANTS = [
    Mutant(
        "xkg/validation.py",
        "        if t[0] in base_nodes or t[2] in base_nodes:\n",
        "        if t[0] in base_nodes:\n",
        ("tests/test_validation.py::TestAnchoring::test_base_node_as_object_anchors_its_component",
         "tests/test_validation.py::TestAnchoringReference::test_equals_reference"),
        "anchoring's flood fill starts from subjects only, so a component that meets the "
        "base only in an object floats",
    ),
    Mutant(
        "xkg/validation.py",
        "floating = sorted({t for t in rest if t[0] not in reached})",
        "floating = sorted({t for t in rest if t[2] not in reached})",
        ("tests/test_validation.py::TestAnchoring::test_literal_objects_follow_their_subject",
         "tests/test_validation.py::TestAnchoringReference::test_equals_reference"),
        "the floating filter tests the object, so a literal object floats its anchored subject",
    ),
    Mutant(
        "xkg/cli.py",
        "run for run, result in zip(runs, results) if not result.quarantined",
        "run for run, result in zip(runs, results)",
        ("tests/test_cli.py::TestReportTemplates::test_extension_files_equal_serialize_turtle",),
        "a quarantined result's additions are written into xkg-merged.ttl",
    ),
    Mutant(
        "xkg/cli.py",
        "merged_added = [t for t, _ in groupby(sorted(",
        "merged_added = [t for t in (sorted(",
        ("tests/test_cli.py::TestReportTemplates::test_extension_files_equal_serialize_turtle",),
        "a triple two merged results share is written twice into xkg-merged.ttl",
    ),
    Mutant(
        "xkg/cli.py",
        "    except OSError as exc:\n        raise CliError(f\"cannot write",
        "    except () as exc:\n        raise CliError(f\"cannot write",
        ("tests/test_cli.py::test_unwritable_output_is_input_error",),
        "an output that cannot be written ends the command with a traceback, not exit 2",
    ),
    # The Turtle reader, each against the reference reader and the error table.
    Mutant(
        "xkg/rdf.py",
        'if _kind(label) != _PNAME or not label.endswith(":"):',
        "if _kind(label) != _PNAME:",
        (_RDF + "test_syntax_error_position_and_message",),
        "a @prefix label without its closing ':' is bound",
    ),
    Mutant(
        "xkg/rdf.py",
        r'pos - text.rfind("\n", 0, pos)',
        r'pos - text.rfind("\n", 0, pos) - 1',
        (_RDF + "test_syntax_error_position_and_message",),
        "error columns count from 0",
    ),
    Mutant(
        "xkg/rdf.py",
        'if tokens[i] == "." or tokens[i] == "]":',
        'if tokens[i] == ".":',
        (_RDF + "TestReaderAgreesWithReference::test_generated_documents",),
        "a dangling ';' may not end a '[ ]' node's list",
    ),
    Mutant(
        "xkg/rdf.py",
        r"@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*(?![^\W_]|-)",
        r"@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*",
        (_RDF + "test_syntax_error_position_and_message",),
        "a language tag may stop before letters or a '-', so '@en-' is a tag and a '-'",
    ),
    Mutant(
        "xkg/rdf.py",
        r"(?![A-Za-z0-9_\-]|\.[0-9]))",
        r"(?![A-Za-z0-9_\-]))",
        (_RDF + "test_syntax_error_position_and_message",),
        "an integer may stop before a fraction, so '3.5a' reads as '3', '.' and '5a'",
    ),
    Mutant(
        "xkg/rdf.py",
        r"(?:a|true|false)(?!\.*[A-Za-z0-9_\-:])",
        r"(?:a|true|false)(?![A-Za-z0-9_\-:])",
        (_RDF + "TestReaderAgreesWithReference::test_generated_documents",),
        "a keyword may run into dots and a name, so 'true.x' reads as 'true' and '.x'",
    ),
    Mutant(
        "xkg/rdf.py",
        "return _new(cls, (1, label))",
        "return _new(cls, (3, label))",
        (_RDF + "TestSortOrder::test_triples",),
        "blank nodes sort after literals",
    ),
    Mutant(
        "xkg/rdf.py",
        '"newline in string literal" if c',
        '"unterminated string literal" if c',
        (_RDF + "test_syntax_error_position_and_message",),
        "a newline in a string is reported as an unterminated string",
    ),
    Mutant(
        "xkg/rdf.py",
        "elif (predicate := terms.get(raw)) is None or predicate[0]:",
        "elif (predicate := terms.get(raw)) is None:",
        (_RDF + "TestReaderAgreesWithReference::test_generated_documents",
         _RDF + "TestReaderWithKnownTerms::test_same_as_without_them"),
        "a blank node read before is accepted as a predicate",
    ),
    Mutant(
        "xkg/rdf.py",
        r'"r": "\r"',
        r'"r": "\n"',
        (_RDF + "TestReaderAgreesWithReference::test_generated_documents",),
        "the escape \\r reads as a line feed",
    ),
    Mutant(
        "xkg/rdf.py",
        "if depth == MAX_NESTING:",
        "if depth > MAX_NESTING:",
        (_RDF + "TestParse::test_nesting_limit",),
        "blank nodes nest one level deeper than MAX_NESTING",
    ),
    Mutant(
        "xkg/rdf.py",
        'raise self.error(i - 1, "expected datatype IRI after ^^")',
        'raise self.error(i - 2, "expected datatype IRI after ^^")',
        (_RDF + "test_syntax_error_position_and_message",),
        "a bad datatype is reported at the '^^', not at itself",
    ),
    Mutant(
        "xkg/rdf.py",
        "            self._aliases[label] = ns\n",
        "",
        (_RDF + "TestParse::test_second_label_for_a_bound_namespace",),
        "a second label for a bound namespace is dropped, so its names are undeclared",
    ),
    # The splice of serialize_extensions against serialize_turtle.
    Mutant(
        "xkg/rdf.py",
        "(any(table.namespace(label) != ns for label, ns in base_ns.items())\n                or ",
        "(",
        (_RDF + "TestSerializeExtensions::test_falls_back_where_base_statements_could_change",
         _RDF + "TestSerializeExtensions::test_equals_serialize_turtle"),
        "a table that rebinds or lacks a base label is spliced",
    ),
    Mutant(
        "xkg/rdf.py",
        "\n                or any(label not in base_ns and captures(ns) for label, ns in table.items())",
        "",
        (_RDF + "TestSerializeExtensions::test_falls_back_where_base_statements_could_change",
         _RDF + "TestSerializeExtensions::test_equals_serialize_turtle"),
        "a new label that captures base IRIs is spliced",
    ),
    Mutant(
        "xkg/rdf.py",
        "return ns in iri_namespaces",
        "return False",
        (_RDF + "TestSerializeExtensions::test_falls_back_where_base_statements_could_change",
         _RDF + "TestSerializeExtensions::test_equals_serialize_turtle"),
        "a new namespace ending in '#' or '/' never captures a base IRI",
    ),
    Mutant(
        "xkg/rdf.py",
        "return any(value.startswith(ns) for value in iris)",
        "return False",
        (_RDF + "TestSerializeExtensions::test_falls_back_where_base_statements_could_change",
         _RDF + "TestSerializeExtensions::test_equals_serialize_turtle"),
        "a new unsplit namespace never captures a base IRI",
    ),
    Mutant(
        "xkg/rdf.py",
        "    iris.update(term.datatype.value for term in terms\n"
        "                if isinstance(term, Literal) and term.datatype)\n",
        "",
        (_RDF + "TestSerializeExtensions::test_falls_back_where_base_statements_could_change",
         _RDF + "TestSerializeExtensions::test_equals_serialize_turtle"),
        "a new namespace that captures only a base literal's datatype is spliced",
    ),
    Mutant(
        "xkg/rdf.py",
        "start = i + 1 if s in runs else i",
        "start = i + 1",
        (_RDF + "TestSerializeExtensions::test_falls_back_where_base_statements_could_change",
         _RDF + "TestSerializeExtensions::test_equals_serialize_turtle"),
        "a new subject's statement replaces the base statement after it",
    ),
    Mutant(
        "xkg/rdf.py",
        "nodes, predicates = dict(nodes), dict(predicates)",
        "nodes, predicates = nodes, predicates",
        (_RDF + "TestSerializeExtensions::test_each_graph_renders_its_new_terms_under_its_own_table",),
        "graphs share one table of term texts, so a term keeps the text of the first table",
    ),
    Mutant(
        "xkg/rdf.py",
        "redone = sorted([*added, *chain.from_iterable(",
        "redone = list([*added, *chain.from_iterable(",
        (_RDF + "TestSerializeExtensions::test_falls_back_where_base_statements_could_change",
         _RDF + "TestSerializeExtensions::test_equals_serialize_turtle"),
        "a base subject's additions are written after its base triples, unsorted",
    ),
    # A response read against the base graph's terms.
    Mutant(
        "xkg/rdf.py",
        'if not isinstance(term, Literal) and text != "a"}',
        'if text != "a"}',
        (_RDF + "TestReaderWithKnownTerms::test_only_nodes_and_predicates_by_their_texts",
         _RDF + "TestReaderWithKnownTerms::test_same_as_without_them"),
        "the known terms hold literal texts, so a base literal reads as a subject",
    ),
    Mutant(
        "xkg/rdf.py",
        "self.terms: dict[str, Union[Iri, BlankNode]] = dict(terms)",
        "self.terms: dict[str, Union[Iri, BlankNode]] = terms or {}",
        (_ENRICHMENT + "TestRunAll::test_prefix_conflict_quarantines_the_later_heuristic",
         _RDF + "TestReaderWithKnownTerms::test_same_as_without_them"),
        "parses share the base's known terms, so one response's names leak into the next",
    ),
    Mutant(
        "xkg/rdf.py",
        "        if existing is not None and existing != ns:\n"
        "            raise PrefixConflictError(label, existing, ns)\n",
        "",
        (_ENRICHMENT + "TestRunAll::test_response_rebinding_a_base_label_is_quarantined",),
        "a response may rebind a base label, and its names then mix base terms and its own",
    ),
    Mutant(
        "xkg/enrichment.py",
        "prefixes = extracted.prefixes.declared()",
        "prefixes = extracted.prefixes",
        (_ENRICHMENT + "TestRunHeuristic::test_result_table_is_the_readers_without_its_aliases",),
        "a result's prefix table keeps the reader's aliases",
    ),
    Mutant(
        "xkg/enrichment.py",
        "    except FileNotFoundError:\n        raise MissingTemplateError",
        "    except OSError:\n        raise MissingTemplateError",
        (_ENRICHMENT + "TestAssemblePrompt::test_unreadable_template_is_not_a_missing_one",),
        "a template that cannot be read is reported as missing",
    ),
]


def run(mutant: Mutant, scratch: Path) -> str:
    """``killed``, ``survived`` or ``error: ...`` for one mutant."""
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        return f"error: the old text occurs {found} times in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run([sys.executable, "-c", "import xkg; print(xkg.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True)
    if not where.stdout.strip().startswith(str(src)):
        return f"error: xkg is imported from {where.stdout.strip() or where.stderr.strip()}"
    code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *mutant.tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode
    if code == 1:
        return "killed"
    return "survived" if code == 0 else f"error: pytest exited {code}"


def main() -> int:
    killed = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="xkg-mutant-") as scratch:
            outcome = run(mutant, Path(scratch))
        killed += outcome == "killed"
        print(f"{outcome:<8}  {mutant.file}: {mutant.why}", flush=True)
    print(json.dumps({"killed": killed, "total": len(MUTANTS)}))
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
