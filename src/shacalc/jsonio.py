"""Problem-file parsing and report serialization (schema version 1).

Matrices travel as arrays of arrays of decimal integer strings so that
arbitrary-precision entries survive any JSON parser; plain JSON integers
are also accepted on input.  Subgroups are given as lists of generator
words like "s0*s1" ("e" is the identity).  See docs/schema.md for the
full schema.
"""

from __future__ import annotations

from typing import Any, Sequence

from .abelian import PresentedAbelianGroup
from .arith import CocharacterDatum, HomSpaceDatum, IsogenyDatum
from .cohomology import TwoTermComplex
from .errors import InputError, StructuralError
from .gmodules import (
    GModule,
    GModuleHom,
    PermutationModule,
    augmentation_ideal,
    augmentation_quotient,
    permutation_module,
    regular_module,
    sign_module,
    trivial_module,
)
from .groups import FiniteGroup, Subgroup, from_permutations
from .intlinalg import IntMatrix, hermite_rows
from .sha import LocalDatum

SCHEMA_VERSION = 1


def _is_decimal(s: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also accepts "²", which ``int``
    rejects."""
    return s.isascii() and s.isdigit()


def _parse_int(value: Any, path: str) -> int:
    if isinstance(value, bool):
        raise InputError(f"expected an integer, got {value!r}", path=path)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        s = value.strip()
        if _is_decimal(s[1:] if s[:1] in ("+", "-") else s):
            return int(s)
    raise InputError(f"expected a decimal integer, got {value!r}", path=path)


def _generator_index(name: Any, group: FiniteGroup, path: str) -> int:
    """k for a generator name "sk" of the group."""
    if not (isinstance(name, str) and name.startswith("s") and _is_decimal(name[1:])):
        raise InputError(f"unknown generator {name!r}", path=path)
    k = int(name[1:])
    if k >= len(group.generators):
        raise InputError(
            f"generator s{k} does not exist (group has {len(group.generators)})",
            path=path,
        )
    return k


def parse_matrix(value: Any, path: str, *, cols: int | None = None) -> IntMatrix:
    if not isinstance(value, list):
        raise InputError("expected an array of arrays", path=path)
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise InputError("expected an array of integers", path=f"{path}[{i}]")
        parsed = [_parse_int(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)]
        if width is None:
            width = len(parsed)
        elif len(parsed) != width:
            raise InputError(
                f"ragged matrix: row {i} has {len(parsed)} entries, expected {width}",
                path=f"{path}[{i}]",
            )
        rows.append(parsed)
    if width is None:
        if cols is None:
            raise InputError("empty matrix needs a known column count", path=path)
        width = cols
    try:
        return IntMatrix(rows, cols=width)
    except StructuralError as exc:
        raise InputError(str(exc), path=path) from exc


def serialize_matrix(m: IntMatrix) -> list[list[str]]:
    return [[str(v) for v in row] for row in m.rows]


def parse_group(spec: Any, path: str = "$.group") -> FiniteGroup:
    if not isinstance(spec, dict) or "permutation_generators" not in spec:
        raise InputError("group needs a permutation_generators array", path=path)
    gens_raw = spec["permutation_generators"]
    if not isinstance(gens_raw, list):
        raise InputError("permutation_generators must be an array", path=path)
    gens = []
    for i, g in enumerate(gens_raw):
        if not isinstance(g, list):
            raise InputError(
                "each generator is an array of images of 0..n-1",
                path=f"{path}.permutation_generators[{i}]",
            )
        gens.append([_parse_int(v, f"{path}.permutation_generators[{i}][{j}]") for j, v in enumerate(g)])
    try:
        return from_permutations(gens)
    except StructuralError as exc:
        raise InputError(str(exc), path=f"{path}.permutation_generators") from exc


def parse_word(word: Any, group: FiniteGroup, path: str) -> int:
    """Generator words like "s0*s1"; "e" (or "") is the identity."""
    if not isinstance(word, str):
        raise InputError(f"subgroup words are strings, got {word!r}", path=path)
    w = word.strip()
    if w in ("", "e", "1"):
        return 0
    elt = 0
    for letter in w.split("*"):
        k = _generator_index(letter.strip(), group, path)
        elt = group.mul(elt, group.generators[k])
    return elt


def parse_subgroup(words: Any, group: FiniteGroup, path: str) -> Subgroup:
    if not isinstance(words, list):
        raise InputError("a subgroup is an array of generator words", path=path)
    elements = [parse_word(w, group, f"{path}[{i}]") for i, w in enumerate(words)]
    return group.generated_subgroup(elements or [0])


_BUILTINS = ("regular", "trivial", "sign", "coset", "augmentation_ideal", "augmentation_quotient")


def parse_module(spec: Any, group: FiniteGroup, path: str) -> GModule:
    if not isinstance(spec, dict):
        raise InputError("a module is an object", path=path)
    if "builtin" in spec:
        kind = spec["builtin"]
        if kind == "regular":
            return regular_module(group)
        if kind == "trivial":
            rank = _parse_int(spec.get("rank", 1), f"{path}.rank")
            return trivial_module(group, rank)
        if kind == "sign":
            negating = spec.get("negating", [])
            if not isinstance(negating, list):
                raise InputError("sign module: negating is an array of generator names", path=f"{path}.negating")
            idx = [_generator_index(name, group, f"{path}.negating[{i}]") for i, name in enumerate(negating)]
            try:
                return sign_module(group, idx)
            except StructuralError as exc:
                raise InputError(str(exc), path=path) from exc
        if kind == "coset":
            sub = parse_subgroup(spec.get("subgroup", []), group, f"{path}.subgroup")
            return permutation_module(group, sub)
        if kind == "augmentation_ideal":
            return augmentation_ideal(group)
        if kind == "augmentation_quotient":
            return augmentation_quotient(group)
        raise InputError(
            f"unknown builtin {kind!r} (choose from {', '.join(_BUILTINS)})",
            path=f"{path}.builtin",
        )
    if "rank" not in spec:
        raise InputError("a module needs rank or builtin", path=path)
    rank = _parse_int(spec["rank"], f"{path}.rank")
    relations = parse_matrix(spec.get("relations", []), f"{path}.relations", cols=rank)
    action_spec = spec.get("action", {})
    if not isinstance(action_spec, dict):
        raise InputError("action is an object keyed by generator names", path=f"{path}.action")
    matrices = []
    for k in range(len(group.generators)):
        key = f"s{k}"
        if key not in action_spec:
            raise InputError(f"missing action for generator {key}", path=f"{path}.action")
        matrices.append(parse_matrix(action_spec[key], f"{path}.action.{key}", cols=rank))
    try:
        return GModule(group, PresentedAbelianGroup(rank, relations.rows), matrices)
    except StructuralError as exc:
        raise InputError(str(exc), path=path) from exc


class ProblemFile:
    """Parsed problem file: the group, named modules, the local datum and
    optional complex data for the obstruction commands."""

    def __init__(self, raw: Any):
        if not isinstance(raw, dict):
            raise InputError("the problem file is a JSON object")
        if raw.get("schema") != SCHEMA_VERSION:
            raise InputError(
                f"schema field must be {SCHEMA_VERSION}", path="$.schema"
            )
        if "group" not in raw:
            raise InputError("missing group section", path="$.group")
        self.group = parse_group(raw["group"])
        self.modules: dict[str, GModule] = {}
        modules_raw = raw.get("modules", {})
        if not isinstance(modules_raw, dict):
            raise InputError("modules is an object of named specs", path="$.modules")
        for name in sorted(modules_raw):
            self.modules[name] = parse_module(
                modules_raw[name], self.group, f"$.modules.{name}"
            )
        self.datum, self.default_excluded = self._parse_datum(raw.get("local_datum"))
        self._raw = raw

    def _parse_datum(self, spec: Any):
        if spec is None:
            return LocalDatum(self.group), frozenset()
        if not isinstance(spec, dict):
            raise InputError("local_datum is an object", path="$.local_datum")
        places = []
        for i, p in enumerate(spec.get("special_places", [])):
            if not isinstance(p, dict) or "name" not in p:
                raise InputError(
                    "each place needs name and decomposition",
                    path=f"$.local_datum.special_places[{i}]",
                )
            sub = parse_subgroup(
                p.get("decomposition", []),
                self.group,
                f"$.local_datum.special_places[{i}].decomposition",
            )
            places.append((str(p["name"]), sub))
        excluded_raw = spec.get("S", [])
        if not isinstance(excluded_raw, list):
            raise InputError("S is an array of place names", path="$.local_datum.S")
        excluded = frozenset(str(n) for n in excluded_raw)
        unknown = excluded - {name for name, _ in places}
        if unknown:
            raise InputError(
                f"S names undeclared places {sorted(unknown)}",
                path="$.local_datum.S",
            )
        try:
            return LocalDatum(self.group, tuple(places)), excluded
        except StructuralError as exc:
            raise InputError(str(exc), path="$.local_datum") from exc

    def module(self, name: str) -> GModule:
        if name not in self.modules:
            raise InputError(
                f"module {name!r} is not defined (have {sorted(self.modules)})",
                path=f"$.modules.{name}",
            )
        return self.modules[name]

    def homspace(self) -> HomSpaceDatum:
        spec = self._raw.get("homspace")
        if spec is None:
            raise InputError("missing homspace section", path="$.homspace")
        g_hat = self.module(str(spec.get("G_hat", "")))
        if not isinstance(g_hat, PermutationModule):
            raise InputError(
                "G_hat must be a permutation module (builtin regular or coset)",
                path="$.homspace.G_hat",
            )
        h_hat = self.module(str(spec.get("H_hat", "")))
        res_matrix = parse_matrix(spec.get("res"), "$.homspace.res", cols=g_hat.rank)
        try:
            res = GModuleHom(g_hat, h_hat, res_matrix)
            return HomSpaceDatum(datum=self.datum, G_hat=g_hat, H_hat=h_hat, res=res)
        except StructuralError as exc:
            raise InputError(str(exc), path="$.homspace") from exc

    def cochar(self) -> CocharacterDatum:
        spec = self._raw.get("cochar")
        if spec is None:
            raise InputError("missing cochar section", path="$.cochar")
        x_star = self.module(str(spec.get("X_star", "")))
        mat = parse_matrix(spec.get("coroot_inclusion", []), "$.cochar.coroot_inclusion", cols=0)
        if mat.ncols == 0:
            mat = IntMatrix.zeros(x_star.rank, 0)
        try:
            src = GModule(
                self.group,
                PresentedAbelianGroup(mat.ncols),
                _coroot_actions(x_star, mat),
                _trusted=True,
            )
            incl = GModuleHom(src, x_star, mat)
            return CocharacterDatum(X_star=x_star, coroot_inclusion=incl)
        except StructuralError as exc:
            raise InputError(str(exc), path="$.cochar") from exc

    def isogeny(self) -> IsogenyDatum:
        spec = self._raw.get("isogeny")
        if spec is None:
            raise InputError("missing isogeny section", path="$.isogeny")
        source = self.module(str(spec.get("source", "")))
        target = self.module(str(spec.get("target", "")))
        mat = parse_matrix(spec.get("map"), "$.isogeny.map", cols=source.rank)
        try:
            return IsogenyDatum(TwoTermComplex(GModuleHom(source, target, mat)))
        except StructuralError as exc:
            raise InputError(str(exc), path="$.isogeny") from exc


def _coroot_actions(x_star: GModule, incl: IntMatrix) -> list[IntMatrix]:
    """Action matrices of the coroot lattice inside X_star: the sublattice
    must be stable under each generator, with unique integer coordinates.

    Both come from one Hermite form of [incl^T | I], whose rows are
    (incl c, c) for c running over Z^n.  The columns are independent when
    no row vanishes on its first part.  Then a vector (v, 0) reduces to
    (0, -c) exactly when v = incl c, and otherwise keeps a nonzero first
    part."""
    rows, n = incl.nrows, incl.ncols
    if not n:
        return [IntMatrix([], cols=0) for _ in x_star.group.generators]
    aug = hermite_rows(
        [list(incl.col(j)) + [1 if k == j else 0 for k in range(n)] for j in range(n)],
        rows + n,
    )
    if not all(any(row[:rows]) for row in aug):
        raise StructuralError("coroot inclusion columns are dependent")
    actions = []
    for a in x_star.action:
        mat_cols = []
        for j in range(n):
            rest = aug.reduce(list(a.matvec(incl.col(j))) + [0] * n)
            if any(rest[:rows]):
                raise StructuralError("coroot lattice is not stable under the action")
            mat_cols.append([-c for c in rest[rows:]])
        actions.append(IntMatrix.from_cols(mat_cols, rows=n))
    return actions


def representatives_json(
    reps: Sequence[Sequence[int]], degree: int, order: int, module_rank: int
) -> list[dict[str, list[str]]]:
    """Cocycles as maps from element-index tuples to coordinate vectors;
    zero blocks are omitted."""
    out = []
    for rep in reps:
        entry: dict[str, list[str]] = {}
        blocks = order**degree
        for b in range(blocks):
            vec = rep[b * module_rank : (b + 1) * module_rank]
            if any(vec):
                if degree == 0:
                    key = ""
                else:
                    digits = []
                    r = b
                    for k in range(degree):
                        p = order ** (degree - 1 - k)
                        digits.append(str(r // p))
                        r %= p
                    key = ",".join(digits)
                entry[key] = [str(v) for v in vec]
        out.append(entry)
    return out
