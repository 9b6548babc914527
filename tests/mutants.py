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

``WORKERS`` mutants run at once. Each mutant's pytest run has its own
``--basetemp`` and hypothesis database under the mutant's temporary
directory, so mutants and runners on one host share no pytest or hypothesis
directory, and a property starts from no saved example. It prints one line
per mutant, in list order, with its wall seconds (so a mutant that only a
slow or hung test kills stands out), followed for any outcome but
``killed`` by the last lines pytest printed, and ends with ``{"killed": k,
"total": n, "seconds": s}``, where ``s`` is the run's wall time; it exits 0 only when
every mutant is killed. The list only grows, except that a mutant whose code
is gone, or that the code around it has made equivalent, is removed; a change that adds a check also adds a mutant that the
check kills.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
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
_VALIDATION = "tests/test_validation.py::"
_CLI = "tests/test_cli.py::"
_AGREEMENT = "tests/test_agreement.py::"
_PACKAGE = "tests/test_package.py::"
_AMR = "tests/test_amr.py::"
_TRANSLATE = "tests/test_translate.py::"

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
        "[t for result in results if not result.quarantined for t in result.additions]",
        "[t for result in results for t in result.additions]",
        ("tests/test_cli.py::TestReportTemplates::test_extension_files_equal_serialize_turtle",
         "tests/test_cli.py::TestReportTemplates::test_merged_file_holds_what_the_merge_holds"),
        "xkg-merged.ttl is not read from run_all's decision, so a quarantined result's "
        "additions are written into it",
    ),
    Mutant(
        "xkg/cli.py",
        "    except OSError as exc:\n        raise CliError(f\"cannot write {out_dir}",
        "    except () as exc:\n        raise CliError(f\"cannot write {out_dir}",
        ("tests/test_cli.py::test_unwritable_output_is_input_error",),
        "an --out that cannot be created ends the command with a traceback, not exit 2",
    ),
    Mutant(
        "xkg/cli.py",
        "    except OSError as exc:\n        raise CliError(f\"cannot write {path}",
        "    except () as exc:\n        raise CliError(f\"cannot write {path}",
        ("tests/test_cli.py::test_output_file_that_is_a_directory_is_input_error",),
        "an output file that cannot be written ends the command with a traceback, not exit 2",
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
        (_RDF + "TestParse::test_blank_nodes",
         _RDF + "TestReaderAgreesWithReference::test_generated_documents"),
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
        (_RDF + "test_syntax_error_position_and_message",
         _RDF + "TestReaderAgreesWithReference::test_generated_documents"),
        "a keyword may run into dots and a name, so 'true.x' reads as 'true' and '.x'",
    ),
    Mutant(
        "xkg/rdf.py",
        "return _new(cls, (1, label))",
        "return _new(cls, (3, label))",
        (_RDF + "TestSortOrder::test_iris_then_blank_nodes_then_literals",
         _RDF + "TestSortOrder::test_triples"),
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
        (_RDF + "test_syntax_error_position_and_message",
         _RDF + "TestReaderAgreesWithReference::test_generated_documents",
         _RDF + "TestReaderWithKnownTerms::test_same_as_without_them"),
        "a blank node read before is accepted as a predicate",
    ),
    Mutant(
        "xkg/rdf.py",
        r'"r": "\r"',
        r'"r": "\n"',
        (_RDF + "TestParse::test_escapes",
         _RDF + "TestReaderAgreesWithReference::test_generated_documents"),
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
    # The order hint: sorting a sorted graph takes one pass.
    Mutant(
        "xkg/rdf.py",
        "        order.sort()\n        return order\n",
        "        return order\n",
        (_RDF + "TestOrderHint::test_unsorted_document_renders_sorted",
         _VALIDATION + "TestOrderHint::test_same_results_from_every_text"),
        "a read graph renders and iterates its triples in the document's order, unsorted",
    ),
    Mutant(
        "xkg/rdf.py",
        "        if len(graph.triples) == len(triples):\n",
        "        if True:\n",
        (_RDF + "TestOrderHint::test_a_repeated_triple_leaves_the_set_order",
         _VALIDATION + "TestOrderHint::test_same_results_from_every_text"),
        "a document that states a triple twice keeps its order hint, so the triple is "
        "rendered twice",
    ),
    Mutant(
        "xkg/enrichment.py",
        "ordered = [t for t in extracted if t not in base.triples]",
        "ordered = list(extracted)",
        (_ENRICHMENT + "TestRunHeuristic::test_additions_are_sorted_and_hold_no_base_triple",),
        "a response's additions keep the base triples it restates",
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
    # Each distinct text of the validation report built once per call.
    Mutant(
        "xkg/validation.py",
        "        subject = names.get(s)\n"
        "        if subject is None:\n"
        "            subject = names[s] = repr(s)\n"
        "        obj = names.get(o)\n"
        "        if obj is None:\n"
        "            obj = names[o] = repr(o)\n",
        "        subject = names.get(s[1])\n"
        "        if subject is None:\n"
        "            subject = names[s[1]] = repr(s)\n"
        "        obj = names.get(o[1])\n"
        "        if obj is None:\n"
        "            obj = names[o[1]] = repr(o)\n",
        (_VALIDATION + "TestLint::test_fallback_role_names_each_term_by_its_own_repr",
         _VALIDATION + "TestAgreesWithFullScans::test_same_results_as_the_reference"),
        "lint's reprs are keyed by a term's text, so a literal is named as the IRI or blank "
        "node that shares it",
    ),
    Mutant(
        "xkg/cli.py",
        "        start = heads.get((severity, code))\n"
        "        if start is None:\n"
        "            start = heads[severity, code] = ",
        "        start = heads.get(code)\n"
        "        if start is None:\n"
        "            start = heads[code] = ",
        (_CLI + "TestReportTemplates::test_repeated_heads_and_subjects",
         _CLI + "TestReportTemplates::test_diagnostics_equal_json_of_to_dict"),
        "the report's heads are keyed by code alone, so a code's first severity stands for all",
    ),
    Mutant(
        "xkg/cli.py",
        "        subject = subjects.get(s)\n"
        "        if subject is None:\n"
        "            subject = subjects[s] = ",
        "        subject = subjects.get(s and s[1])\n"
        "        if subject is None:\n"
        "            subject = subjects[s and s[1]] = ",
        (_CLI + "TestReportTemplates::test_repeated_heads_and_subjects",
         _CLI + "TestReportTemplates::test_diagnostics_equal_json_of_to_dict"),
        "the report's subject texts are keyed by a term's text, so a blank node and an IRI "
        "with its label share one",
    ),
    Mutant(
        "xkg/enrichment.py",
        "        try:\n"
        "            prefixes = base.prefixes.with_binding(spec.prefix, spec.namespace)\n"
        "        except PrefixConflictError as exc:\n",
        "        prefixes = base.prefixes.with_binding(spec.prefix, spec.namespace)\n"
        "        try:\n"
        "            pass\n"
        "        except PrefixConflictError as exc:\n",
        (_ENRICHMENT + "TestRunAll::test_base_binding_a_heuristic_label_elsewhere_quarantines_it",
         _CLI + "TestEnrich::test_base_binding_a_heuristic_label_elsewhere_quarantines_it"),
        "a base that binds a heuristic's label elsewhere ends the whole enrichment",
    ),
    Mutant(
        "xkg/enrichment.py",
        'f"not run: {exc}"),), "", quarantined=True)',
        'f"not run: {exc}"),), "")',
        (_ENRICHMENT + "TestRunAll::test_base_binding_a_heuristic_label_elsewhere_quarantines_it",),
        "force_merge merges a heuristic that was not run for its base prefix conflict",
    ),
    Mutant(
        "xkg/enrichment.py",
        "        if not r.quarantined:\n            try:\n",
        "        if True:\n            try:\n",
        (_ENRICHMENT + "TestRunAll::test_quarantine_drops_error_results",
         _CLI + "TestReportTemplates::test_merged_file_holds_what_the_merge_holds"),
        "run_all merges a quarantined result's additions",
    ),
    # Validation from one per-predicate index, tuple diagnostics and a bitset
    # closure.
    Mutant(
        "xkg/validation.py",
        "        if severity not in (ERROR, WARN, INFO):\n",
        "        if False:\n",
        (_VALIDATION + "TestDiagnostic::test_unknown_severity_rejected",),
        "a diagnostic takes any severity",
    ),
    Mutant(
        "xkg/validation.py",
        "    undeclared = sorted({iri for iri in chain(index, graph.node_iris)",
        "    undeclared = sorted({iri for iri in chain(index)",
        (_VALIDATION + "TestLint::test_undeclared_prefix_on_nodes_alone",
         _VALIDATION + "TestAgreesWithFullScans::test_same_results_as_the_reference"),
        "an undeclared prefix used only on nodes is not reported",
    ),
    Mutant(
        "xkg/validation.py",
        "            if isinstance(s, Iri):\n                minted.add(s)\n",
        "            minted.add(s)\n",
        (_VALIDATION + "TestDiagnostic::test_lint_builds_only_registered_codes",
         _VALIDATION + "TestAgreesWithFullScans::test_same_results_as_the_reference"),
        "a blank node declared a class is a minted term, and lint fails on its local name",
    ),
    Mutant(
        "xkg/validation.py",
        "    pairs = sorted((min(pair), max(pair)) for pair in disjoint)",
        "    pairs = sorted(tuple(pair) for pair in disjoint if len(pair) == 2)",
        (_VALIDATION + "TestConsistency::test_class_disjoint_with_itself_clashes",),
        "a class disjoint with itself clashes with nothing",
    ),
    Mutant(
        "xkg/validation.py",
        "                        if len(members) > 1 or node in successors[node]:",
        "                        if len(members) > 1:",
        (_VALIDATION + "TestPrecedence::test_self_loop_precedes_itself",
         _VALIDATION + "TestPrecedence::test_cycles_match_reachability_oracle"),
        "a node that precedes itself alone does not reach itself",
    ),
    Mutant(
        "xkg/validation.py",
        "    closure = list(islice(_pairs(nodes, reach), MAX_PRECEDENCE_PAIRS))",
        "    closure = list(islice(_pairs(nodes, reach), MAX_PRECEDENCE_PAIRS - 1))",
        (_VALIDATION + "TestPrecedenceCap::test_long_chain_lists_the_cap_and_warns_with_the_total",),
        "the closure lists one pair fewer than the cap",
    ),
    Mutant(
        "xkg/validation.py",
        "    if total > MAX_PRECEDENCE_PAIRS:",
        "    if total >= MAX_PRECEDENCE_PAIRS:",
        (_VALIDATION + "TestPrecedenceCap::test_at_the_cap_nothing_is_cut",),
        "a closure of exactly the cap is reported as truncated",
    ),
    Mutant(
        "xkg/translate.py",
        "                if (concept, index) not in unmapped:  # warn once per call\n",
        "                if True:\n",
        ("tests/test_translate.py::TestTranslate::"
         "test_missing_roleset_entry_warned_once_however_the_role_is_spelled",
         "tests/test_translate.py::TestTranslate::"
         "test_missing_roleset_entry_warned_once_per_frame_and_index"),
        "a missing roleset entry is warned once per (frame, role) spelling, not once per "
        "frame and index",
    ),
    # The report templates and the config's range checks.
    Mutant(
        "xkg/cli.py",
        '_encode("_:" + s[1] if isinstance(s, BlankNode) else s[1])',
        "_encode(s[1])",
        (_CLI + "TestReportTemplates::test_repeated_heads_and_subjects",
         _CLI + "TestReportTemplates::test_diagnostics_equal_json_of_to_dict"),
        "a blank-node subject is written without its '_:'",
    ),
    Mutant(
        "xkg/cli.py",
        "start + subject + middle + _encode(message) + end",
        "start + subject + middle + '\"' + message + '\"' + end",
        (_CLI + "TestReportTemplates::test_repeated_heads_and_subjects",
         _CLI + "TestReportTemplates::test_diagnostics_equal_json_of_to_dict"),
        "a message is written unescaped",
    ),
    Mutant(
        "xkg/cli.py",
        'template = "[" + inner + "  %s," + inner + "  %s" + inner + "]"',
        'template = "[" + inner + "  %s, %s" + inner + "]"',
        (_CLI + "TestReportTemplates::test_validation_report",
         _CLI + "TestReportTemplates::test_pairs_equal_json_of_values"),
        "a precedence pair is written on one line",
    ),
    Mutant(
        "xkg/cli.py",
        '    if not pairs:\n        return "[]"\n',
        '    if not pairs:\n        return "[" + outer + "]"\n',
        (_CLI + "TestReportTemplates::test_validation_report",),
        "an empty pair list is written over two lines",
    ),
    Mutant(
        "xkg/cli.py",
        'if entries else "{}\\n")',
        'if entries else "{\\n}\\n")',
        (_CLI + "TestReportTemplates::test_diagnostics_file",),
        "diagnostics.json with no results is written over two lines",
    ),
    Mutant(
        "xkg/cli.py",
        "@functools.cache\ndef build_parser()",
        "def build_parser()",
        (_CLI + "test_successive_calls_equal_fresh_processes",),
        "the argument parser is built on every call",
    ),
    Mutant(
        "xkg/config.py",
        "        if not 0 < value < math.inf:\n",
        "        if not 0 < value:\n",
        (_CLI + "test_backend_setting_out_of_range_is_config_error",),
        "an infinite timeout is accepted",
    ),
    Mutant(
        "xkg/config.py",
        "    if backend.retries > MAX_RETRIES:\n",
        "    if backend.retries < 0:\n",
        (_CLI + "test_unbounded_retries_is_config_error",
         _CLI + "test_backend_setting_out_of_range_is_config_error"),
        "retries have no upper limit",
    ),
    Mutant(
        "xkg/config.py",
        "        if not 0 < value < math.inf:\n",
        "        if not 0 <= value < math.inf:\n",
        (_CLI + "test_backend_setting_out_of_range_is_config_error",),
        "a zero timeout, max_concurrent or max_tokens is accepted",
    ),
    # Backend concurrency: a slot per HTTP attempt, capped back-off, logged causes.
    Mutant(
        "xkg/backends.py",
        "                with self._slots:\n",
        "                if True:\n",
        (_ENRICHMENT + "TestRequestsInFlight::test_backoff_holds_no_slot",
         _ENRICHMENT + "TestRequestsInFlight::test_in_flight_reaches_the_cap_and_never_passes_it"),
        "no semaphore, so more than max_concurrent requests are in flight",
    ),
    Mutant(
        "xkg/backends.py",
        "                self._sleep(wait)\n",
        "                with self._slots:\n                    self._sleep(wait)\n",
        (_ENRICHMENT + "TestRequestsInFlight::test_a_request_goes_out_while_another_backs_off",),
        "a retry's back-off holds a slot, so no other request goes out meanwhile",
    ),
    Mutant(
        "xkg/backends.py",
        "delay = min(2 * delay, MAX_BACKOFF_S)",
        "delay = 2 * delay",
        (_ENRICHMENT + "TestHttpBackend::test_backoff_doubles_up_to_a_ceiling",
         _ENRICHMENT + "TestHttpBackend::test_a_thousand_retries_end_in_transport_error"),
        "the back-off doubles without a ceiling",
    ),
    Mutant(
        "xkg/enrichment.py",
        "ThreadPoolExecutor(max_workers=len(specs))",
        "ThreadPoolExecutor(max_workers=max_concurrent)",
        (_ENRICHMENT + "TestRequestsInFlight::test_backoff_holds_no_slot",),
        "run_all's pool has max_concurrent threads, so heuristics in back-off keep others "
        "waiting",
    ),
    Mutant(
        "xkg/backends.py",
        '"attempt %d of %d failed (%s); retrying in %.1fs",\n'
        "                             attempt - 1, attempts, reason, wait)",
        '"attempt %d of %d failed; retrying in %.1fs",\n'
        "                             attempt - 1, attempts, wait)",
        (_ENRICHMENT + "TestHttpBackend::test_retry_logged_with_its_cause",),
        "a retry is logged without the status or exception that caused it",
    ),
    # Agreement statistics, None where a table does not define them.
    Mutant(
        "xkg/agreement.py",
        "    return equal / total if total else None\n",
        "    return equal / total if total else 0.0\n",
        (_AGREEMENT + "TestPercentAgreement::test_no_overlap",),
        "percent agreement without a pair of scores is 0.0, not undefined",
    ),
    Mutant(
        "xkg/agreement.py",
        "        if len(shared) >= 2:\n",
        "        if len(shared) >= 1:\n",
        (_AGREEMENT + "TestKappa::test_pairs_with_few_shared_items_dropped",),
        "kappa is computed for an annotator pair that shares one item",
    ),
    Mutant(
        "xkg/agreement.py",
        "    if not units:\n        return None\n",
        "    if not units:\n        return AlphaResult(1.0, degenerate=True)\n",
        (_AGREEMENT + "TestAlpha::test_requires_pairable_values",),
        "alpha is 1.0 for a table without an item of two scores",
    ),
    Mutant(
        "xkg/agreement.py",
        "        if moments is None:\n            raise NoDataError(heuristic)\n",
        "        if moments is None:\n            continue\n",
        (_AGREEMENT + "TestReportMatchesOracles::test_all_blank_heuristic_raises_no_data",),
        "a heuristic without any score is left out of the report, not an error",
    ),
    Mutant(
        "xkg/agreement.py",
        "mean = _sum(defined) / len(defined) if defined else None",
        "mean = defined[0] if defined else None",
        (_AGREEMENT + "TestKappa::test_matches_confusion_matrix_oracle",),
        "the first pair's kappa stands for the mean",
    ),
    Mutant(
        "xkg/agreement.py",
        "        if values:\n            out[annotator] = sum(values) / len(values)\n",
        "        out[annotator] = sum(values) / len(values) if values else None\n",
        (_AGREEMENT + "TestAnnotatorMeans::test_annotators_without_a_score_are_left_out",),
        "an annotator without a score gets a mean of None",
    ),
    Mutant(
        "xkg/cli.py",
        '        stdout.write(text.encode(encoding, "backslashreplace").decode(encoding))\n',
        "        stdout.write(text)\n",
        (_CLI + "test_stdout_that_cannot_encode_the_output_is_escaped",),
        "stdout is written strictly, so a name its encoding cannot hold raises",
    ),
    Mutant(
        "xkg/translate.py",
        '_typed(role, str, f"role {idx} of {frame!r}")',
        "str(role)",
        (_CLI + "test_bad_resource_file_is_config_error[role-number]",),
        "a numeric role in the roleset file is read as its text",
    ),
    Mutant(
        "xkg/enrichment.py",
        "    except (OSError, UnicodeDecodeError) as exc:\n",
        "    except OSError as exc:\n",
        (_CLI + "test_bad_resource_file_is_config_error[system-template-not-utf8]",),
        "a prompt template that is not UTF-8 ends the command with a traceback",
    ),
    Mutant(
        "xkg/backends.py",
        "    except (OSError, UnicodeDecodeError) as exc:\n",
        "    except OSError as exc:\n",
        (_CLI + "test_bad_resource_file_is_config_error[mock-response-not-utf8]",),
        "a mock response that is not UTF-8 ends the command with a traceback",
    ),
    # The two front doors: package exports and shared CLI options.
    Mutant(
        "xkg/__init__.py",
        '    "pipeline": ("PipelineResult", "run_pipeline"),\n'
        '    "translate": ("AlignmentMap", "LinkTable", "RolesetMap", "align", "link_entities"),\n',
        '    "pipeline": ("PipelineResult", "run_pipeline", "align"),\n'
        '    "translate": ("AlignmentMap", "LinkTable", "RolesetMap", "link_entities"),\n',
        (_PACKAGE + "test_an_export_loads_what_its_module_does",
         _PACKAGE + "test_all_lists_every_export_once"),
        "an export is filed under a module that only imports it, so reading it loads the "
        "whole pipeline",
    ),
    Mutant(
        "xkg/__init__.py",
        "        return getattr(import_module(f\"{__name__}.{module}\"), name)\n",
        "        value = globals()[name] = getattr(import_module(f\"{__name__}.{module}\"), name)\n"
        "        return value\n",
        (_PACKAGE + "test_an_export_follows_its_module",),
        "an export is kept in the package on first use, so a wrapper read then outlives its "
        "removal",
    ),
    Mutant(
        "xkg/cli.py",
        'sub.add_parser("enrich", parents=[config, out, mock, force_merge],',
        'sub.add_parser("enrich", parents=[config, out, mock],',
        (_CLI + "test_parser_surface_is_pinned",),
        "xkg enrich loses the shared --force-merge",
    ),
    Mutant(
        "xkg/enrichment.py",
        "*lint(RdfGraph(additions.triples, prefixes)))",
        "*lint(additions))",
        (_ENRICHMENT + "TestRunAll::test_results_keep_no_lint_index",),
        "each result keeps the per-predicate index and node IRIs that lint built",
    ),
    # Every check that needs no model comes before the first request, and
    # run_all alone decides each quarantine.
    Mutant(
        "xkg/enrichment.py",
        "    templates = []\n"
        "    for spec in specs:\n"
        "        template = _read_template(prompts_dir, spec.prompt_template)\n"
        "        if GRAPH_PLACEHOLDER not in template:\n"
        "            raise MissingPlaceholderError(spec.prompt_template)\n"
        "        templates.append(template)\n"
        "    base_turtle = serialize_turtle(base)\n"
        "    base.terms_by_text  # built once, before the threads read it\n"
        "\n"
        "    def run_one(spec: HeuristicSpec, template: str) -> EnrichmentResult:\n",
        "    templates = [None] * len(specs)\n"
        "    base_turtle = serialize_turtle(base)\n"
        "    base.terms_by_text  # built once, before the threads read it\n"
        "\n"
        "    def run_one(spec: HeuristicSpec, template: str) -> EnrichmentResult:\n"
        "        template = _read_template(prompts_dir, spec.prompt_template)\n"
        "        if GRAPH_PLACEHOLDER not in template:\n"
        "            raise MissingPlaceholderError(spec.prompt_template)\n",
        (_ENRICHMENT + "TestNoRequestBeforeALocalFault::test_bad_last_template",),
        "each heuristic's step reads its own template, so a bad last template is found after "
        "the other requests went out",
    ),
    Mutant(
        "xkg/enrichment.py",
        "            r = r._replace(quarantined=True)\n",
        "            r._replace(quarantined=True)\n",
        (_ENRICHMENT + "TestRunAll::test_quarantine_drops_error_results",),
        "the quarantined copy of a failed result is thrown away, so the result is merged "
        "unquarantined",
    ),
    Mutant(
        "xkg/pipeline.py",
        "    base = build_base(penman, resources)\n    description = describe(source, backend)\n",
        "    description = describe(source, backend)\n    base = build_base(penman, resources)\n",
        (_ENRICHMENT + "TestNoRequestBeforeALocalFault::test_two_graph_penman_sends_no_image",),
        "run_pipeline describes the image before it builds the base, so a bad PENMAN file "
        "still sends the image",
    ),
    Mutant(
        "xkg/agreement.py",
        "ratings CSV line {reader.line_num}",
        "ratings CSV line {reader.line_num - 1}",
        (_AGREEMENT + "TestLoadRatings::test_csv_error_names_the_line_dict_reader_named",),
        "a CSV reader error names the line before the one the reader failed on",
    ),
    Mutant(
        "xkg/backends.py",
        "                raise TransportError(f\"HTTP {status}: {getattr(response, 'text', '')[:200]}\")\n",
        "                last_error = TransportError(f\"HTTP {status}\")\n                continue\n",
        (_ENRICHMENT + "TestHttpBackend::test_client_error_is_raised_at_once",),
        "a 4xx answer other than 401/403 is retried",
    ),
    # The PENMAN reader's one split, and translate's per-concept and
    # per-predicate resolution.
    Mutant(
        "xkg/amr.py",
        "        starts = [m.start(group) - 1 for m",
        "        starts = [m.start(group) for m",
        (_AMR + "TestPenmanFile::test_error_offsets_count_in_the_stripped_document",),
        "an error offset counts the newline the reader splits after, one past the character",
    ),
    Mutant(
        "xkg/amr.py",
        r'''  | ([()/]|[^ \t\n()/]+|\Z))"""''',
        r'''  | ([()/]|"[^"]*"|[^ \t\n()/"]+|[^ \t\n()/]+|\Z))"""''',
        (_AMR + "TestPenmanFile::test_a_quote_inside_a_word_opens_no_string",),
        "a quote inside a word ends the word and opens a string",
    ),
    Mutant(
        "xkg/amr.py",
        "        if depth > MAX_NESTING:\n",
        "        if depth >= MAX_NESTING:\n",
        (_AMR + "TestParse::test_nesting_limit",),
        "a graph nested exactly MAX_NESTING deep is rejected",
    ),
    Mutant(
        "xkg/amr.py",
        '            if role.endswith("-of") and target.__class__ is str:\n',
        '            if role.endswith("-of"):\n',
        (_AMR + "TestParse::test_an_inverse_role_to_a_constant_is_kept",),
        "an -of role to a constant is inverted, so the constant becomes an edge source",
    ),
    Mutant(
        "xkg/translate.py",
        "        predicate = predicates.get(key)\n        if predicate is None:\n"
        "            predicate = predicates[key] = role_predicate(*key)\n",
        "        predicate = predicates.get(role)\n        if predicate is None:\n"
        "            predicate = predicates[role] = role_predicate(*key)\n",
        (_TRANSLATE + "TestTranslate::test_a_core_role_maps_through_its_own_frame",),
        "the predicate cache is keyed by the role alone, so a core role maps through the "
        "first frame that used it",
    ),
    Mutant(
        "xkg/translate.py",
        "            if _IRI_FORBIDDEN.search(concept):  # such as '<' or '\"'\n",
        "            if False:\n",
        (_TRANSLATE + "TestTranslate::test_a_concept_no_iri_can_hold_is_rejected",),
        "a concept is not checked, so an IRI no Turtle writer can render is built",
    ),
    # Kept views, one index per predicate read, and nothing read or dropped
    # without a name.
    Mutant(
        "xkg/rdf.py",
        "    @cached_property\n    def by_predicate(self)",
        "    @property\n    def by_predicate(self)",
        (_RDF + "TestGraphIndexes::test_by_predicate_and_node_iris_match_full_scans",
         "tests/test_records.py::test_rdf_graph_caches_are_not_fields"),
        "the per-predicate index is built again on every read",
    ),
    Mutant(
        "xkg/translate.py",
        "    for s, _, o in graph.by_predicate.get(RDFS_LABEL, ()):\n",
        "    for s, _, o in graph.by_predicate.get(RDF_TYPE, ()):\n",
        (_TRANSLATE + "TestLinkEntities::test_label_match_adds_same_as",),
        "entity linking reads the rdf:type bucket for labels, so no label is matched",
    ),
    Mutant(
        "xkg/amr.py",
        '            if role.replace("-of", "") == ":":',
        "            if False:",
        (_AMR + "TestParse::test_a_role_needs_a_name",),
        "a role with no name is read again, and translates to dul:associatedWith",
    ),
    Mutant(
        "xkg/translate.py",
        '                logger.warning("edge %s %s into name node %s has no object, dropped",\n'
        "                               source_var, role, target_var)\n",
        "",
        (_TRANSLATE + "TestTranslate::test_an_edge_into_a_name_node_is_dropped_with_a_warning",),
        "an edge into a name node is dropped in silence",
    ),
    Mutant(
        "xkg/translate.py",
        "        if isinstance(target_var, AmrConstant):\n",
        "        key = (concepts[source_var], role)\n"
        "        if key not in predicates:\n"
        "            predicates[key] = role_predicate(*key)\n"
        "        if isinstance(target_var, AmrConstant):\n",
        (_TRANSLATE + "TestTranslate::test_an_edge_into_a_name_node_is_dropped_with_a_warning",),
        "the predicate is resolved before the object, so an edge that is dropped still warns "
        "of its role, and the next edge with that role does not",
    ),
    Mutant(
        "xkg/rdf.py",
        "        if form.match(text, pos):\n",
        "        if False:\n",
        (_RDF + "test_syntax_error_position_and_message",),
        "a double or an escaped or percent-encoded local name is refused with a message that "
        "names no form",
    ),
    # Commands run with the cyclic collector paused, and leave no cycle that
    # grows with their input.
    Mutant(
        "xkg/cli.py",
        "    finally:\n        if enabled:\n            gc.enable()\n",
        "",
        (_CLI + "test_main_pauses_the_collector_and_puts_it_back",),
        "main leaves the collector disabled after a command, so the caller's process never "
        "collects a cycle again",
    ),
    Mutant(
        "xkg/amr.py",
        "    try:\n        root, i = parse_node(i, 1)\n    finally:\n",
        "    root, i = parse_node(i, 1)\n    if False:\n",
        (_CLI + "test_a_paused_command_leaves_no_garbage_that_grows_with_its_input",),
        "parse_node keeps reaching itself through its closure, so every AMR read is cyclic "
        "garbage that a paused collector never frees",
    ),
    Mutant(
        "xkg/amr.py",
        '            if role.replace("-of", "") == ":":',
        '            if role == ":" or role == ":-of":',
        (_AMR + "TestParse::test_a_role_needs_a_name",
         _AMR + "test_reads_what_the_character_reader_read"),
        "':-of-of' is read as the unnamed role ':-of' and translates to dul:associatedWith",
    ),
    Mutant(
        "xkg/rdf.py",
        "        pos -= 1  # a double that starts with '.'",
        "        pass  # a double that starts with '.'",
        (_RDF + "test_syntax_error_position_and_message",),
        "a double that starts with '.' is reported at its first digit, one column late",
    ),
    # One merge per run: run_all merges the kept results once, the writer
    # reads its decision, and an extension is an additions graph.
    Mutant(
        "xkg/enrichment.py",
        "RdfGraph(base.triples.union(*kept), table)",
        "RdfGraph(base.triples.union(*kept[1:]), table)",
        (_CLI + "TestReportTemplates::test_extension_files_equal_serialize_turtle",
         _CLI + "TestReportTemplates::test_merge_equals_rdf_merge_of_the_kept_results"),
        "the merged graph leaves out the first kept result's additions",
    ),
    Mutant(
        "xkg/enrichment.py",
        "results, kept, table = [], [], base.prefixes.declared()",
        "results, kept, table = [], [], base.prefixes",
        (_CLI + "TestReportTemplates::test_a_run_that_keeps_nothing_leaves_the_base_alias_out",),
        "a run that keeps no result gives the merged table the base's alias, which rdf.merge "
        "drops",
    ),
    Mutant(
        "xkg/rdf.py",
        "        table, added = extension.prefixes, extension._sorted()\n",
        "        table, added = base.prefixes, extension._sorted()\n",
        (_RDF + "TestSerializeExtensions::test_each_graph_renders_its_new_terms_under_its_own_table",
         _RDF + "TestSerializeExtensions::test_equals_serialize_turtle"),
        "an extension is rendered under the base's prefix table instead of its own",
    ),
    Mutant(
        "xkg/agreement.py",
        "for h in dict.fromkeys(heuristic_order or ())",
        "for h in heuristic_order or ()",
        (_AGREEMENT + "TestReport::test_a_heuristic_named_twice_in_the_order_has_one_row",),
        "a heuristic that the order names twice gets two rows",
    ),
    # The one reader of the scene image, and a stdout whose reader has gone.
    Mutant(
        "xkg/pipeline.py",
        "        if not S_ISREG(status.st_mode):\n"
        '            raise BackendError(f"cannot read image {source}: not a regular file")\n',
        "",
        (_CLI + "TestDescribe::test_image_that_is_a_directory_is_input_error_and_sends_nothing"
         "[mock]",
         _CLI + "TestDescribe::test_image_that_is_a_directory_is_input_error_and_sends_nothing"
         "[live]",
         _CLI + "TestDescribe::test_image_that_is_a_fifo_is_input_error_and_blocks_nothing[mock]"),
        "describe opens an image that is not a regular file, so a FIFO blocks the command",
    ),
    Mutant(
        "xkg/pipeline.py",
        '".jpg": "image/jpeg"',
        '".jpg": "image/jpg"',
        (_ENRICHMENT + "TestHttpBackend::test_each_image_format_is_posted_as_a_data_url[jpg]",),
        "a .jpg image is posted as image/jpg, a type no registry names",
    ),
    Mutant(
        "xkg/cli.py",
        "    except BrokenPipeError:\n",
        "    except BrokenPipeError:\n        raise\n",
        (_CLI + "test_a_stdout_gone_at_its_flush_is_pointed_at_devnull",
         _CLI + "test_a_closed_stdout_changes_neither_the_files_nor_the_exit_code[buffered]"),
        "a stdout whose reader has gone ends the command with a traceback, before its files",
    ),
    Mutant(
        "xkg/cli.py",
        "    if stdout is None:\n        return\n",
        "",
        (_CLI + "test_a_closed_stdout_changes_neither_the_files_nor_the_exit_code[buffered]",),
        "a command run without a stdout fails at its first printed line",
    ),
    Mutant(
        "xkg/cli.py",
        "        stdout.flush()\n",
        "",
        (_CLI + "test_a_stdout_gone_at_its_flush_is_pointed_at_devnull",),
        "output left in the buffer meets the gone reader at exit, which changes the exit code",
    ),
]


#: How many of the last lines of pytest's output a mutant not killed shows.
TAIL_LINES = 20
#: How many mutants run at once, each in its own pytest process.
WORKERS = 2


def run(mutant: Mutant, scratch: Path) -> tuple[str, list[str]]:
    """``killed``, ``survived`` or ``error: ...`` for one mutant, and the last
    ``TAIL_LINES`` lines that pytest printed, if it ran."""
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        return f"error: the old text occurs {found} times in {mutant.file}", []
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
           "HYPOTHESIS_STORAGE_DIRECTORY": str(scratch / "hypothesis")}
    where = subprocess.run([sys.executable, "-c", "import xkg; print(xkg.__file__)"],
                           cwd=ROOT, env=env, capture_output=True, text=True)
    if not where.stdout.strip().startswith(str(src)):
        return f"error: xkg is imported from {where.stdout.strip() or where.stderr.strip()}", []
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "--basetemp", str(scratch / "pytest"), *mutant.tests],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, errors="replace")
    tail = done.stdout.splitlines()[-TAIL_LINES:]
    if done.returncode == 1:
        return "killed", tail
    return "survived" if done.returncode == 0 else f"error: pytest exited {done.returncode}", tail


def run_in_scratch(mutant: Mutant) -> tuple[str, list[str], float]:
    """``run`` in a temporary directory of its own, removed afterwards, and
    its wall time in seconds."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="xkg-mutant-") as scratch:
        outcome, tail = run(mutant, Path(scratch))
    return outcome, tail, time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    killed = 0
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for mutant, (outcome, tail, seconds) in zip(MUTANTS, pool.map(run_in_scratch, MUTANTS)):
            killed += outcome == "killed"
            print(f"{outcome:<8} {seconds:5.1f}s  {mutant.file}: {mutant.why}", flush=True)
            if outcome != "killed":
                print("".join(f"    | {line}\n" for line in tail), end="", flush=True)
    print(json.dumps({"killed": killed, "total": len(MUTANTS),
                      "seconds": round(time.perf_counter() - start, 1)}))
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
