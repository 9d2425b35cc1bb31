"""Modules of the package share only public names, and its exports resolve."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pfta

SRC = Path(pfta.__file__).parent
# `from .x import a, b` or `from .x import (\n a,\n b,\n)`
_RELATIVE_IMPORT = re.compile(r"^from \.\w* import (\([^)]*\)|.*)$", re.MULTILINE)


def _imported_names(text: str) -> list[str]:
    names = []
    for match in _RELATIVE_IMPORT.finditer(text):
        for item in match.group(1).strip("()").split(","):
            if item.strip():
                names.append(item.split()[0])
    return names


def test_the_import_scan_sees_parenthesised_and_aliased_names():
    text = "from .a import x, _y as z\nfrom .b import (\n    P,\n    _q,\n)\n"
    assert _imported_names(text) == ["x", "_y", "P", "_q"]


def test_no_module_imports_another_modules_private_name():
    private = {
        path.name: [n for n in _imported_names(path.read_text()) if n.startswith("_")]
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in private.items() if found} == {}


def test_every_exported_name_resolves():
    missing = [name for name in pfta.__all__ if not hasattr(pfta, name)]
    assert missing == []


def _package_modules_imported(text: str) -> set[str]:
    """Modules of the package that a source imports, by short name."""
    paths = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            paths += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("pfta." if node.level else "") + (node.module or "")
            paths += [f"{module.rstrip('.')}.{a.name}" for a in node.names]
    return {p.split(".")[1] for p in paths if p.startswith("pfta.")}


def test_the_module_scan_sees_every_import_form():
    text = "from .a import x\nfrom . import b\nfrom pfta.c import y\nimport pfta.d\nimport numpy\n"
    assert _package_modules_imported(text) == {"a", "b", "c", "d"}


def test_the_oracle_shares_no_code_with_what_it_checks():
    # the reference must reach its numbers without the translation, the
    # search or the measures built on them
    imported = _package_modules_imported((SRC / "oracle.py").read_text())
    assert imported & {"compile", "engine", "measures", "pha"} == set()


def test_theories_import_nothing_of_the_package_but_its_errors():
    # theories and their text format live in `pha`; every procedure that
    # grounds them lives in `engine`
    assert _package_modules_imported((SRC / "pha.py").read_text()) == {"errors"}


def _names_imported_from(text: str, module: str) -> set[str]:
    """Names a source imports from one module of the package."""
    return {
        alias.name
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"pfta.{module}")
        for alias in node.names
    }


def test_the_scan_sees_names_imported_from_a_module():
    text = "from .model import a, b as c\nfrom pfta.model import d\nfrom .dsl import e\n"
    assert _names_imported_from(text, "model") == {"a", "b", "d"}


def test_only_the_model_checks_a_model():
    # a PftModel checks itself when built, so no analysis validates it again
    for name in ("compile", "oracle", "measures", "engine", "cli"):
        imported = _names_imported_from((SRC / f"{name}.py").read_text(), "model")
        assert {n for n in imported if "valid" in n or "violation" in n} == set(), name
    assert {"validate", "require_valid"} & set(pfta.__all__) == set()


def _definitions_holding(text: str, matches) -> set[str]:
    """Names of the top-level definitions of a source with a node that `matches`."""
    return {
        getattr(top, "name", "<module>")
        for top in ast.parse(text).body
        for node in ast.walk(top)
        if matches(node)
    }


def _calls(name: str):
    return lambda node: (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                         and node.func.id == name)


def _reads(attr: str):
    return lambda node: isinstance(node, ast.Attribute) and node.attr == attr


def test_the_definition_scan_sees_nested_and_module_level_uses():
    text = ("class A:\n    def f(self):\n        return g(self.x)\n"
            "def h():\n    def inner():\n        return g()\n    return inner\n"
            "y = g(z.x)\n")
    assert _definitions_holding(text, _calls("g")) == {"A", "h", "<module>"}
    assert _definitions_holding(text, _reads("x")) == {"A", "<module>"}


def test_only_top_event_records_an_exact_evaluation():
    # unreliability, curves, posteriors and the oracle report all read one recording
    text = (SRC / "measures.py").read_text()
    assert _definitions_holding(text, _calls("ExactEvaluator")) == {"top_event"}


def test_unreliability_has_one_routine():
    # `system_unreliability` is the one-point curve, and only the curve searches
    text = (SRC / "measures.py").read_text()
    assert _definitions_holding(text, _calls("unreliability_curve")) == {"system_unreliability"}
    assert _definitions_holding(text, _calls("probability")) == {"unreliability_curve"}


def test_the_cli_reaches_unreliability_through_the_curve_alone():
    assert "system_unreliability" not in _names_imported_from(
        (SRC / "cli.py").read_text(), "measures")


def test_only_the_atom_table_reads_its_stored_expansions():
    # every other procedure grounds an atom through `AtomTable.expand`
    text = (SRC / "engine.py").read_text()
    assert _definitions_holding(text, _reads("expansions")) == {"AtomTable"}
