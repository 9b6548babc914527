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
