"""Every public function and method of the package has a caller in the program.

Code that only tests call is moved into the tests or deleted.  This test
lists each public function and method of ``src/queryemb`` (properties and
dunders aside) whose name no module of the package loads, and which the
benchmark's tracer (``perfbench/tracing.TARGETS``) does not wrap, and holds
that list to an allowlist that gives one reason per entry.

A name counts as loaded when any module of the package reads it as a name
or an attribute, whoever owns it, so the list errs towards missing a
test-only method that shares its name with a used one.
"""

import ast
import importlib
from pathlib import Path

import queryemb

SRC = Path(queryemb.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"

ALLOWED = {
    "queryemb.genmodel.mixture_probs":
        "the bit-for-bit reference that tests hold theory._mixtures to",
}


def _public_definitions() -> dict[str, str]:
    """Qualified name -> bare name of every public function and method."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = f"queryemb.{path.stem}"
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                found[f"{module}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not any(
                        getattr(d, "id", None) == "property" for d in item.decorator_list
                    ):
                        found[f"{module}.{node.name}.{item.name}"] = item.name
    return {k: name for k, name in found.items() if not name.startswith("_")}


def _loaded_names() -> set[str]:
    """Every name or attribute that some module of the package reads."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _traced(monkeypatch) -> set[str]:
    """The qualified names of the definitions TARGETS wraps, wherever it looks them up."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    objects = (tracing._get(owner, attr) for owner, attr, *_ in tracing.TARGETS)
    return {f"{obj.__module__}.{obj.__qualname__}" for obj in objects}


def test_public_api_without_a_program_caller_is_allowlisted(monkeypatch):
    loaded, traced = _loaded_names(), _traced(monkeypatch)
    uncalled = sorted(
        qualified for qualified, name in _public_definitions().items()
        if name not in loaded and qualified not in traced
    )
    assert uncalled == sorted(ALLOWED)
    assert all(ALLOWED.values())


def test_scan_sees_functions_methods_and_properties():
    defs = _public_definitions()
    assert defs["queryemb.evaluation.evaluate"] == "evaluate"
    assert defs["queryemb.baseline.TrigramHashStore.encode"] == "encode"
    assert "queryemb.core.QueryTable.width" not in defs  # a property
    assert not any(name.startswith("_") for name in defs.values())
    assert {"evaluate", "encode", "inverse_cdf_rows"} <= _loaded_names()
