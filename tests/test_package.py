"""Package hygiene.

Every public name of the package is reached by a command or by the
benchmark harness; code that only tests use belongs in ``tests/``.

* A public function or class defined at the top level of a ``shacalc``
  module must be referenced somewhere in the package outside its own
  definition, or in ``bench/*.py``, or be the console script.  An export
  from ``shacalc/__init__.py`` is not a use.
* A public method or property of a package class must be read as an
  attribute somewhere in the package outside its own body, or in
  ``bench/*.py`` (the harness is an outside caller).  Attributes are
  matched by name, not by type, so a read of any attribute of that name
  counts.

The lattice format stays inside ``intlinalg``: no other module of the
package imports one of its underscore names.
"""

import ast
from collections import Counter
from pathlib import Path
from textwrap import dedent

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shacalc"
BENCH = ROOT / "bench"
# the console script named in pyproject.toml's [project.scripts]
CONSOLE_SCRIPT = "cli.main"


def _names_used(node) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _attributes_read(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _modules(directory: Path) -> list[tuple[str, ast.Module]]:
    """(stem, tree) of each module of ``directory`` but ``__init__.py``."""
    return [
        (path.stem, ast.parse(path.read_text()))
        for path in sorted(directory.glob("*.py"))
        if path.name != "__init__.py"
    ]


def unreached_definitions(package: Path = PACKAGE, bench: Path = BENCH) -> list[str]:
    top_level = [(module, node) for module, tree in _modules(package) for node in tree.body]
    outside = set().union(*(_names_used(tree) for _, tree in _modules(bench)))
    uses = [_names_used(node) for _, node in top_level]
    # in how many top-level statements of the package each name occurs
    occurrences = Counter(name for used in uses for name in used)
    unreached = []
    for (module, node), used in zip(top_level, uses):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if name.startswith("_") or name in outside or f"{module}.{name}" == CONSOLE_SCRIPT:
            continue
        if occurrences[name] == (name in used):
            unreached.append(f"{module}.{name}")
    return unreached


def unreached_methods(package: Path = PACKAGE, bench: Path = BENCH) -> list[str]:
    """``module.Class.name`` for each public method or property of a
    package class that nothing reads as an attribute, outside its own
    body, in the package or in ``bench/*.py``."""
    modules = _modules(package)
    reads = sum((_attributes_read(tree) for _, tree in modules + _modules(bench)), Counter())
    unreached = []
    for module, tree in modules:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                if reads[node.name] == _attributes_read(node)[node.name]:
                    unreached.append(f"{module}.{cls.name}.{node.name}")
    return unreached


def test_every_public_definition_is_reached():
    assert unreached_definitions() == []


def test_every_public_method_is_reached():
    assert unreached_methods() == []


def test_checks_catch_what_no_command_reaches(tmp_path):
    """On a small tree: a method read only inside its own body and a
    function reached only by an ``__init__`` export are flagged; a method
    that only a bench file calls is not."""
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text("from .mod import Box, exported\n")
    (package / "mod.py").write_text(dedent("""\
        def exported():
            return 1

        class Box:
            def countdown(self, n):
                return self.countdown(n - 1) if n else 0

            def benched(self):
                return 2
        """))
    (bench / "run.py").write_text("import mod\n\nmod.Box().benched()\n")
    assert unreached_definitions(package, bench) == ["mod.exported"]
    assert unreached_methods(package, bench) == ["mod.Box.countdown"]


def intlinalg_private_imports() -> list[str]:
    """``module: name`` for each underscore name that a package module
    other than ``intlinalg`` imports from ``intlinalg``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "intlinalg":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("intlinalg", "shacalc.intlinalg"):
                found.extend(f"{path.stem}: {a.name}" for a in node.names if a.name.startswith("_"))
    return found


def test_lattice_format_stays_in_intlinalg():
    assert intlinalg_private_imports() == []
