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
