"""Modules of the package share only public names and use every name they
import, its exports resolve, every source parses as Python 3.10, and numpy
is loaded only when the oracle enumerates."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pfta

SRC = Path(pfta.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
MODEL = str(Path(__file__).parent / "data" / "multiprocessor.pft")
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


def test_the_translations_and_the_oracle_expand_gates_through_one_rule():
    # a gate's input instances are listed by `input_instances` alone
    for name in ("compile", "oracle"):
        imported = _names_imported_from((SRC / f"{name}.py").read_text(), "model")
        assert "input_instances" in imported and "instantiate" not in imported, name


def _unused_imports(text: str) -> list[str]:
    """Names a source imports but never reads, as a name or an attribute
    base, and does not list in its `__all__`; `from __future__` is exempt."""
    tree = ast.parse(text)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_unused_import_scan_sees_every_use():
    text = ("from __future__ import annotations\n"
            "import os, os.path as osp\n"
            "import json.decoder\n"
            "from .a import b, c as d, e, f, g\n"
            "def h(x: e) -> None:\n    import numpy as np\n    return d(x) + f.y\n"
            "__all__ = ['g']\n")
    assert _unused_imports(text) == ["os", "osp", "json", "b", "np"]


def test_no_module_imports_a_name_it_does_not_use():
    unused = {path.name: _unused_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}


def test_every_source_parses_as_python_3_10():
    """`pyproject.toml` admits Python 3.10, so no source may use later
    grammar.  `feature_version` is best-effort: it rejects most newer syntax
    (such as `except*`), but does not check library APIs or every feature."""
    tops = ("src", "tests", "bench")
    paths = [path for top in tops for path in sorted((ROOT / top).rglob("*.py"))]
    assert {path.relative_to(ROOT).parts[0] for path in paths} == set(tops)
    failed = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failed == []


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
    # nothing in `measures` wraps the curve, and only the curve searches
    text = (SRC / "measures.py").read_text()
    assert _definitions_holding(text, _calls("unreliability_curve")) == set()
    assert _definitions_holding(text, _calls("probability")) == {"unreliability_curve"}


def test_only_the_atom_table_reads_its_stored_expansions():
    # every other procedure grounds an atom through `AtomTable.expand`
    text = (SRC / "engine.py").read_text()
    assert _definitions_holding(text, _reads("expansions")) == {"AtomTable"}


def test_only_the_atom_table_walks_the_atoms():
    # every other procedure reads `AtomTable.order`, which refuses a cycle
    text = (SRC / "engine.py").read_text()
    assert _definitions_holding(text, _calls("postorder")) == {"AtomTable"}


def test_compile_alone_writes_and_reads_event_atoms():
    # `compile.event_atom` builds every atom outside `pha` and `ground_events`
    # reads hypotheses back, so `measures` passes atoms on without spelling one
    built = {path.name: _definitions_holding(path.read_text(), _calls("Atom"))
             for path in sorted(SRC.glob("*.py")) if path.name != "pha.py"}
    assert {name: found for name, found in built.items() if found} == {"compile.py": {"event_atom"}}
    text = (SRC / "measures.py").read_text()
    assert _names_imported_from(text, "pha") & {"Atom"} == set()
    assert _names_imported_from(text, "compile") & {"predicate_name"} == set()
    assert _definitions_holding(text, _reads("pred")) == set()
    defined = {getattr(top, "name", None) for top in ast.parse(text).body}
    assert defined & {"top_atom", "_class_names"} == set()
    assert "_direct_atom" not in (SRC / "compile.py").read_text()


def _numpy_imports(text: str) -> list[tuple[str, int]]:
    """(place, line) of each numpy import of a source.  The place is
    `function` in a function body, `type-checking` in a module-level
    `if TYPE_CHECKING:` block, and `module` anywhere else: what runs on import."""
    found = []

    def is_numpy(name: str | None) -> bool:
        return name is not None and name.split(".")[0] == "numpy"

    def imports_numpy(node: ast.AST) -> bool:
        if isinstance(node, ast.Import):
            return any(is_numpy(a.name) for a in node.names)
        return isinstance(node, ast.ImportFrom) and not node.level and is_numpy(node.module)

    def type_checking(test: ast.expr) -> bool:
        return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"

    def visit(nodes, place: str) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, "function")
            elif place == "module" and isinstance(node, ast.If) and type_checking(node.test):
                visit(node.body, "type-checking")
                visit(node.orelse, place)
            else:
                if imports_numpy(node):
                    found.append((place, node.lineno))
                visit(ast.iter_child_nodes(node), place)

    visit(ast.parse(text).body, "module")
    return found


def test_the_numpy_scan_sees_every_place_of_an_import():
    text = ("import numpy\n"
            "from numpy import x\n"
            "import os, numpy.linalg as la\n"
            "import numpyish\n"
            "from .numpy import y\n"
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n    import numpy as np\nelse:\n    import numpy\n"
            "if x:\n    from numpy import z\n"
            "class C:\n    import numpy\n    def f(self):\n        import numpy\n"
            "def g():\n    def h():\n        from numpy.random import r\n"
            "try:\n    import numpy\nexcept ImportError:\n    pass\n")
    assert _numpy_imports(text) == [
        ("module", 1), ("module", 2), ("module", 3), ("type-checking", 8), ("module", 10),
        ("module", 12), ("module", 14), ("function", 16), ("function", 19), ("module", 21),
    ]


def test_only_the_oracles_functions_import_numpy():
    # every command but `oracle`, and `import pfta`, run without loading it
    places = {path.name: {place for place, _ in _numpy_imports(path.read_text())}
              for path in sorted(SRC.glob("*.py"))}
    assert {name for name, found in places.items() if "module" in found} == set()
    assert {name for name, found in places.items() if found} == {"oracle.py"}


def _numpy_loaded_after(*argv: str) -> tuple[int | None, bool]:
    """Exit code of `pfta.cli.main(argv)`, None for none, and whether numpy
    is loaded afterwards, in a fresh interpreter."""
    script = ("import sys\n"
              "import pfta, pfta.cli\n"
              "code = pfta.cli.main(sys.argv[1:]) if sys.argv[1:] else None\n"
              "print(code, 'numpy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, loaded = done.stdout.splitlines()[-1].split()
    return None if code == "None" else int(code), loaded == "True"


@pytest.mark.parametrize("argv", [
    (),
    ("validate", MODEL),
    ("compile", MODEL, "--stage", "2", "--time", "10000"),
    ("mcs", MODEL, "--time", "10000", "--posterior"),
    ("unrel", MODEL, "--time", "10000"),
    ("curve", MODEL, "--from", "0", "--to", "10000", "--step", "5000"),
    ("posterior", MODEL, "--time", "10000"),
], ids=lambda argv: argv[0] if argv else "import")
def test_no_command_but_the_oracle_loads_numpy(argv):
    assert _numpy_loaded_after(*argv) == (0 if argv else None, False)


def test_the_oracle_loads_numpy():
    assert _numpy_loaded_after("oracle", MODEL, "--time", "10000") == (0, True)
