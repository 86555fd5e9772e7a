"""Package hygiene.

Every public name of the package is reached by a command or by the
benchmark harness; code that only tests use belongs in ``tests/``.

* A public function or class defined at the top level of a ``shacalc``
  module must be referenced somewhere in the package outside its own
  definition, or in ``bench/*.py``, or be the console script.  An export
  from ``shacalc/__init__.py`` is not a use.
* A public method of a package class must be called, ``x.name(...)``,
  and a public property read without a call, ``x.name``, somewhere in the
  package outside its own body, or in ``bench/*.py`` (the harness is an
  outside caller).  Attributes are matched by name, not by type, so a
  call of any method of that name counts; but a read of a plain
  attribute of the same name does not reach a method.

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


def _attribute_uses(node) -> tuple[Counter, Counter]:
    """(calls, reads): per attribute name, how often it is called,
    ``x.name(...)``, and how often it is read without a call."""
    called = {id(sub.func) for sub in ast.walk(node) if isinstance(sub, ast.Call)}
    calls, reads = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            (calls if id(sub) in called else reads)[sub.attr] += 1
    return calls, reads


def _is_property(node: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id in ("property", "cached_property")
        for d in node.decorator_list
    )


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
    """``module.Class.name`` for each public method of a package class that
    nothing calls, and each public property that nothing reads without a
    call, outside its own body, in the package or in ``bench/*.py``."""
    modules = _modules(package)
    uses = [_attribute_uses(tree) for _, tree in modules + _modules(bench)]
    unreached = []
    for module, tree in modules:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                    continue
                kind = int(_is_property(node))  # index into (calls, reads)
                if sum(u[kind][node.name] for u in uses) == _attribute_uses(node)[kind][node.name]:
                    unreached.append(f"{module}.{cls.name}.{node.name}")
    return unreached


def test_every_public_definition_is_reached():
    assert unreached_definitions() == []


def test_every_public_method_is_reached():
    assert unreached_methods() == []


def test_checks_catch_what_no_command_reaches(tmp_path):
    """On a small tree: a method called only inside its own body, a method
    whose name is read only as another class's attribute, and a function
    reached only by an ``__init__`` export are flagged; a method that only
    a bench file calls, and a property read without a call, are not."""
    package, bench = tmp_path / "pkg", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "__init__.py").write_text("from .mod import Box, exported\n")
    (package / "mod.py").write_text(dedent("""\
        def exported():
            return Crate().width + Box().depth

        class Crate:
            def __init__(self):
                self.width = 3

        class Box:
            def countdown(self, n):
                return self.countdown(n - 1) if n else 0

            def benched(self):
                return 2

            def width(self):
                return 1

            @property
            def depth(self):
                return 4
        """))
    (bench / "run.py").write_text("import mod\n\nmod.Box().benched()\n")
    assert unreached_definitions(package, bench) == ["mod.exported"]
    assert unreached_methods(package, bench) == ["mod.Box.countdown", "mod.Box.width"]


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
