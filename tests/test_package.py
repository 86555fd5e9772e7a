"""Package hygiene.

Every public top-level function or class is reached: a public name
defined at the top level of a ``shacalc`` module must be referenced
somewhere in the package (outside its own definition), be exported by
``shacalc/__init__.py``, or be the console script.  Code that only tests
use belongs in ``tests/``.

The lattice format stays inside ``intlinalg``: no other module of the
package imports one of its underscore names.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shacalc"
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


def unreached_definitions() -> list[str]:
    top_level = [
        (path.stem, node)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.parse(path.read_text()).body
    ]
    exported = {
        alias.asname or alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    uses = [_names_used(node) for _, node in top_level]
    # in how many top-level statements of the package each name occurs
    occurrences = Counter(name for used in uses for name in used)
    unreached = []
    for (module, node), used in zip(top_level, uses):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = node.name
        if name.startswith("_") or name in exported or f"{module}.{name}" == CONSOLE_SCRIPT:
            continue
        if occurrences[name] == (name in used):
            unreached.append(f"{module}.{name}")
    return unreached


def test_every_public_definition_is_reached():
    assert unreached_definitions() == []


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
