"""The package namespace: each export is the object its home module holds,
read on use, and importing one stage loads no other stage."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xkg

SRC = str(Path(xkg.__file__).resolve().parents[1])

#: Each module and the names the package exports from it, in ``__all__``'s order.
HOMES = {
    "amr": ["AmrEdge", "AmrGraph", "AmrNode", "parse_penman"],
    "enrichment": ["HEURISTICS", "EnrichmentResult", "HeuristicSpec", "assemble_prompt",
                   "extract_turtle", "run_all", "run_heuristic"],
    "rdf": ["BlankNode", "Iri", "Literal", "PrefixTable", "RdfGraph", "Triple", "merge",
            "parse_turtle", "serialize_extensions", "serialize_turtle"],
    "pipeline": ["PipelineResult", "run_pipeline"],
    "translate": ["AlignmentMap", "LinkTable", "RolesetMap", "align", "link_entities"],
    "validation": ["Diagnostic", "GraphProfile", "MiniOntology", "check_anchoring",
                   "check_consistency", "infer_precedence", "lint", "profile"],
}
#: Submodules that resolve as attributes after a bare ``import xkg``.
SUBMODULES = ["amr", "backends", "config", "enrichment", "pipeline", "rdf", "records",
              "translate", "validation"]

#: Prints the package modules loaded so far, as a JSON list.
LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
          "if m == 'xkg' or m.startswith('xkg.'))))")


def fresh(code: str, *args: str) -> str:
    """The stdout of ``code`` in a new interpreter without ``site``, so only
    the package's own imports load modules, with ``json`` and ``sys``
    imported first."""
    done = subprocess.run([sys.executable, "-S", "-c", "import json, sys\n" + code, *args],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_all_lists_every_export_once():
    assert xkg.__all__ == [name for names in HOMES.values() for name in names] + ["__version__"]
    assert "translate" not in xkg.__all__


@pytest.mark.parametrize("module, loaded", [
    ("xkg", ["xkg"]),
    ("xkg.rdf", ["xkg", "xkg.rdf", "xkg.records"]),
    ("xkg.agreement", ["xkg", "xkg.agreement", "xkg.records"]),
])
def test_import_loads_only_its_stage(module, loaded):
    assert json.loads(fresh(f"import {module}\n{LOADED}")) == loaded


@pytest.mark.parametrize("home", list(HOMES))
def test_an_export_loads_what_its_module_does(home):
    """Reading a module's exports from the package loads the modules that
    importing it loads, and no more, so no export is filed under a module
    that only imports it."""
    by_export = fresh("import xkg\nfor name in sys.argv[1:]:\n    getattr(xkg, name)\n"
                      + LOADED, *HOMES[home])
    by_import = fresh(f"import xkg.{home}\n{LOADED}")
    assert json.loads(by_export) == json.loads(by_import)


@pytest.mark.parametrize("first", ["xkg", "xkg.cli", "xkg.translate"])
def test_every_export_is_its_home_modules_object(first):
    """Whatever is imported first, and again once ``xkg.cli`` has imported
    every stage."""
    code = f"""
import importlib
import {first}
import xkg
homes = json.loads(sys.argv[1])

def wrong():
    return [name for home, names in homes.items() for name in names
            if getattr(xkg, name) is not getattr(importlib.import_module("xkg." + home), name)]

before = wrong()
import xkg.cli
star = {{}}
exec("from xkg import *", star)
print(json.dumps([before, wrong(), sorted(set(star) - {{"__builtins__"}}),
                  type(xkg.translate).__name__]))
"""
    before, after, star, translate = json.loads(fresh(code, json.dumps(HOMES)))
    assert before == after == []
    assert star == sorted(xkg.__all__)
    assert translate == "module"


def test_an_export_follows_its_module(monkeypatch):
    """A patch of the home module shows through the package while it is in
    place, and is gone with it; the package keeps no export."""
    import xkg.rdf

    original = xkg.rdf.parse_turtle

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(xkg.rdf, "parse_turtle", wrapper)
    assert xkg.parse_turtle is wrapper
    monkeypatch.undo()
    assert xkg.parse_turtle is original
    assert "parse_turtle" not in vars(xkg)


def test_submodules_resolve_after_a_bare_import():
    code = "import xkg\nprint(json.dumps([type(getattr(xkg, m)).__name__ for m in sys.argv[1:]]))"
    assert json.loads(fresh(code, *SUBMODULES)) == ["module"] * len(SUBMODULES)


def test_translate_is_the_module_and_its_function_is_inside():
    import xkg.translate

    assert type(xkg.translate).__name__ == "module"
    assert xkg.translate.translate.__module__ == "xkg.translate"


def test_unknown_name_raises_attribute_error():
    for name in ("no_such_name", "_no_such_name", "translate_"):
        with pytest.raises(AttributeError, match=f"'xkg' has no attribute '{name}'"):
            getattr(xkg, name)
    assert not hasattr(xkg, "__wrapped__")


def test_a_submodule_missing_a_dependency_names_the_dependency(monkeypatch):
    def import_module(name):
        raise ModuleNotFoundError("No module named 'requests'", name="requests")

    monkeypatch.setattr(xkg, "import_module", import_module)
    with pytest.raises(ModuleNotFoundError, match="'requests'"):
        xkg.plugin  # a submodule that imports requests


def test_from_import_of_exports():
    from xkg import run_pipeline, serialize_turtle
    from xkg.pipeline import run_pipeline as home_run_pipeline
    from xkg.rdf import serialize_turtle as home_serialize_turtle

    assert (run_pipeline, serialize_turtle) == (home_run_pipeline, home_serialize_turtle)
    assert "run_pipeline" in dir(xkg) and "merge" in dir(xkg)
