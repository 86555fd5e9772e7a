"""Sha functors over an abstract local datum, and their machine checks.

The model
---------

A "number-field situation" for modules split by a fixed finite Galois
extension is modeled by a :class:`LocalDatum`: the finite group (the
Galois group of the splitting extension), a finite list of *special
places* carrying arbitrary decomposition subgroups, and an implicit,
always-on Chebotarev backdrop: every cyclic subgroup occurs as the
decomposition group of infinitely many places.

Consequences built into the computation:

* excluding a finite set of places never removes a cyclic condition,
  since each cyclic subgroup is the decomposition group of infinitely
  many places; so for a finite excluded set S,

      Sha^i_S  =  ker[ H^i -> prod over cyclic C of H^i(C) ]
                  intersect  ker[ restrictions to retained special places ],

* Sha^i_omega (classes dying at all but finitely many places) equals the
  kernel of restriction to the cyclic subgroups alone,
* non-cyclic decomposition groups can occur only at the finitely many
  special places, which are explicit input.

Whether a given abstract datum is realizable by an actual extension of
number fields is a number-theoretic question deliberately left outside
this tool; every statement verified here is a statement about the model.

Reduced coordinates
-------------------

A Sha group is the kernel of the stacked conditions (below) on the
reduced view of the ambient value (see :mod:`shacalc.abelian`), so its
value, its lattice and its quotients live on the kept generators only.
Those are generators in the ambient's own coordinates, of Z^i in T^i of
the relation complex (see :mod:`shacalc.cohomology`).  Each value
generator gets one cochain, the ambient's bar cocycle W_i(z) of that
class, and the cochain-level recheck (every cochain restricts to zero on
every restricted subgroup, below) runs on those cochains whenever a
group is built.  The printed representatives are built on first access
only: the Hermite basis, in the coordinates of the Hermite basis of
Z^i_bar, of the cocycles whose classes lie in the Sha group, times that
basis.  Those cocycles, with the bar boundaries that W_i(Z^i) does not
reach (B^2_bar in degree 2, and the relation rows R of every block), are
solved on Z^i_bar, which is built then.  The recheck runs again on the
representatives.  A quotient takes no second kernel: the smaller Sha
lattice holds the ambient relations, so it alone is solved on the
bigger one's basis.  Two ambients are equal when their degrees, values,
value lattices, groups (table and words) and coefficients (both terms
and f) are, since those fix W_i.

Which restrictions are computed
-------------------------------

Conjugation by h in G acts trivially on HH^*(G, K) (Brown, Cohomology of
Groups, III.8), so the restrictions to hHh^-1 and to H have the same
kernel; and for K <= H the restriction to K factors through the one to
H, so ker res_H lies in ker res_K.  A Sha group is therefore the
intersection of the kernels over the imposed subgroups that are maximal
up to conjugacy.  An imposed subgroup with a conjugate inside another
imposed subgroup is not restricted to; of two conjugate ones, the first
in imposed order is.  ``imposed`` still names every imposed place.

An ambient whose reduced view has no generators is the zero group, and
so is every Sha group inside it: computing one restricts nothing.  Its
printed representatives (coboundaries) are still rechecked, against
conditions built when they are.  The condition of each subgroup on one
ambient is built on first use and shared by the groups over it.

How a condition is imposed
--------------------------

Each restricted subgroup H gives ``columns`` (one sparse column per kept
ambient generator, on ``width`` rows) and ``lattice_rows`` on the same
rows, such that a reduced class lies in ker res_H iff its image under
the columns lies in the lattice.  The Sha lattice is one preimage of all
conditions stacked at offsets.  Its value is presented modulo the
relations of the reduced ambient; one that escapes the Sha lattice would
make a condition ill-defined on classes, an internal error.

At H = G restriction is an isomorphism: unit columns and the lattice of
the reduced ambient's relations.  At a proper H, in either degree i, the
condition lives on T^i of the relation complex T_H of H as a standalone
group (see :mod:`shacalc.cohomology`), built on its bar complex, which is
read off the ambient's through the embedding.  There V_H induces the
inverse of W on HH^i(H) and sends cocycles to cocycles, so a cocycle c
of G restricts to a coboundary on H iff V_H(c|_H) lies in
B^i(T_H) = im D^{i-1}_H + R.  The columns are V_H of the kept ambient
cocycles W_i(z), read only at the bar coordinates of H that V_H reads
(tuples ending in a generator of H, and C^0(B)); no cochain of G is
built.  The lattice is the Hermite basis of B^i(T_H), at width
dim T^i(H): k_H rk_A + rk_B in degree 1, and rk_A + rk_B in degree 2 for
H cyclic on one generator.

The recheck is the definition on bar cochains: c|_H lies in
bar D^{i-1}(H) + R, whose Hermite basis is built on first use; at H = G
that is c itself.  It shares no code with W, V or the relation complex.

So the Sha lattice is the kernel of the restriction maps to the H on
the reduced ambient value, and its Hermite basis, its value, its
cochains and ``quotient_by`` are those of that kernel.  No command builds
a restriction map; ``tests/helpers.restriction_kernel`` takes the kernel
that way, and the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .abelian import AbHom, PresentedAbelianGroup, class_on_basis, is_isomorphism, present_quotient
from .cohomology import (
    DEFAULT_COCHAIN_CAP,
    CohomologyGroup,
    TwoTermComplex,
    _evaluate,
    _module_complex,
    _RelationComplex,
    _TotalComplex,
    hypercohomology,
)
from .errors import InternalError, StructuralError
from .gmodules import GModule, PermutationModule, faithful_image
from .groups import FiniteGroup, Subgroup, cyclic_subgroups
from .intlinalg import IntMatrix, Lattice, hermite_rows, preimage_kernel


@dataclass(frozen=True)
class LocalDatum:
    """Acting group plus named special places with their decomposition
    subgroups, over the implicit Chebotarev backdrop."""

    group: FiniteGroup
    special_places: tuple[tuple[str, Subgroup], ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.special_places]
        if len(set(names)) != len(names):
            raise StructuralError("special place names must be unique")
        for name, sub in self.special_places:
            if sub.parent is not self.group:
                raise StructuralError(
                    f"decomposition group of {name!r} lives in a different group"
                )

    @property
    def place_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.special_places)


@dataclass(frozen=True)
class PlaceSelection:
    """The finite set S of excluded places (a subset of the special place
    names; excluding backdrop places is a no-op by construction)."""

    excluded: frozenset[str] = frozenset()

    @classmethod
    def of(cls, *names: str) -> "PlaceSelection":
        return cls(frozenset(names))


EMPTY_SELECTION = PlaceSelection()


@dataclass
class ShaGroup:
    """Kernel of the imposed restrictions inside a cohomology group.

    ``value`` is presented on the Hermite basis ``_basis`` of the kernel
    lattice in the reduced ambient value ``ambient.group_value.reduced().group``:
    generator j is the reduced ambient class ``_basis.rows[j]``, and
    ``class_of`` takes coordinates on that same reduced ambient.
    ``cochains[j]`` is a cocycle for generator j of ``value``.

    ``representatives`` are the canonical Hermite basis, in the
    coordinates of the ambient representatives, of the cocycles whose
    classes lie in this group, times the ambient representatives (see
    ``CohomologyGroup.preimage_representatives``).  On every generator of
    the ambient value V that lattice is spanned by the unit relation rows
    of V and the section of the reduced kernel basis."""

    ambient: CohomologyGroup
    value: PresentedAbelianGroup
    cochains: tuple[tuple[int, ...], ...]
    imposed: tuple[str, ...]
    _basis: Lattice  # the kernel on the reduced ambient value
    _restricted: tuple[tuple[str, Subgroup], ...]  # the imposed places maximal up to conjugacy
    _condition_of: _Conditions  # shared by the groups over this ambient

    @property
    def _conditions(self) -> tuple[_Condition, ...]:
        """One per restricted class (``_restricted``), not one per imposed
        place; on a zero ambient they are built only when asked for."""
        return tuple(self._condition_of[sub] for _, sub in self._restricted)

    def class_of(self, ambient_coords: Sequence[int]) -> tuple[int, ...]:
        """Coordinates in this subgroup of an ambient class, given on the
        reduced ambient, known to lie in it (raises otherwise)."""
        return class_on_basis(self.value, self._basis, ambient_coords)

    def quotient_by(self, smaller: "ShaGroup") -> PresentedAbelianGroup:
        """This group modulo a smaller one over an equal ambient (Sha_S / Sha_empty)."""
        mine, theirs = self.ambient, smaller.ambient
        if mine is not theirs and _ambient_data(mine) != _ambient_data(theirs):
            raise StructuralError("the two Sha groups lie in different ambient groups")
        basis, rows = self._basis, smaller._basis.sparse_rows()
        if not all(basis.contains(row) for row in rows):
            raise StructuralError("the smaller Sha group does not lie in this one")
        return present_quotient(basis, rows)

    @cached_property
    def representatives(self) -> tuple[tuple[int, ...], ...]:
        red = self.ambient.group_value.reduced()
        sections = [{k: v for k, v in zip(red.kept, b) if v} for b in self._basis]
        reps = self.ambient.preimage_representatives(list(red.unit_rows) + sections)
        _recheck(reps, [name for name, _ in self._restricted], self._conditions)
        return reps

    def __str__(self) -> str:
        return str(self.value)


def _ambient_data(ambient: CohomologyGroup) -> tuple:
    """What fixes an ambient's classes and their cocycles: the degree, the
    value and its lattice, the group's table and words, and both terms of
    the coefficients with f."""
    f, g = ambient.coefficients.f, ambient.group
    terms = [(m.underlying, m.action) for m in (f.source, f.target)]
    return (ambient.degree, ambient.group_value, ambient.lattice, g.table, g.element_words, f.matrix, terms)


class _Condition:
    """The condition at one restricted subgroup H: ``columns``, one sparse
    column per kept ambient generator, on ``width`` rows, and
    ``lattice_rows`` (see the module docstring); and :meth:`kills`, the
    recheck by the definition on the bar complex ``bar`` of H, whose
    coordinates lie at ``selection`` in the ambient's."""

    columns: list[dict[int, int]]
    lattice_rows: list[dict[int, int]]
    width: int

    def __init__(self, bar: _TotalComplex, degree: int, selection: Sequence[int]):
        self._bar, self._degree, self._selection = bar, degree, selection

    @cached_property
    def _coboundaries(self) -> Lattice:
        """bar D^{i-1}(H) + R, built on first use."""
        t, i = self._bar, self._degree
        return hermite_rows(t.diff_cols(i - 1) + t.relation_cols(i), t.dim(i))

    def kills(self, cochain: Sequence[int]) -> bool:
        """Whether a cocycle c of G restricts to a coboundary on H: c|_H
        lies in bar D^{i-1}(H) + R."""
        return self._coboundaries.contains({k: cochain[s] for k, s in enumerate(self._selection) if cochain[s]})


class _WholeGroup(_Condition):
    """The condition at H = G: restriction to G is an isomorphism, so the
    class itself is 0 in the reduced ambient."""

    def __init__(self, ambient: CohomologyGroup):
        t, i = ambient._cochains, ambient.degree
        super().__init__(t, i, range(t.dim(i)))
        red = ambient.group_value.reduced().group
        self.width = red.generator_count
        self.columns = [{r: 1} for r in range(self.width)]
        self.lattice_rows = red.relation_lattice.sparse_rows()


class _Evaluation(_Condition):
    """The condition at a proper subgroup H, on T^i of its relation complex
    (see the module docstring): ``columns`` are V_H of the kept ambient
    cocycles at the bar coordinates of H, and ``lattice_rows`` the Hermite
    basis of im D^{i-1}_H + R."""

    def __init__(self, ambient: CohomologyGroup, sub: Subgroup):
        h_group, embed = sub.as_group()
        i, parent = ambient.degree, ambient._cochains
        t = parent.on(h_group, embed)
        super().__init__(t, i, parent.selection(i, embed))
        rel = _RelationComplex(t)
        self.width = rel.dim(i)
        self.lattice_rows = hermite_rows(rel.diff_cols(i - 1) + rel.relation_cols(i), self.width).sparse_rows()
        # V_H reads the bar cochain of H at ``read`` alone, and W_i of the
        # ambient gives it there
        forms = rel.value_forms(i)
        read = sorted({u for form in forms for u in form})
        at = [self._selection[u] for u in read]
        rows = ambient.lattice.sparse_rows()
        self.columns = []
        for k in ambient.group_value.reduced().kept:
            restricted = {read[p]: v for p, v in ambient._read(rows[k], at).items()}
            self.columns.append(_evaluate(forms, restricted, range(self.width)))


class _Conditions(dict):
    """The conditions on one ambient group, keyed by subgroup, each built
    on first lookup: the zero class for the whole group, else the relation
    complex of the subgroup."""

    def __init__(self, ambient: CohomologyGroup):
        super().__init__()
        self.ambient = ambient

    def __missing__(self, sub: Subgroup) -> _Condition:
        if sub.order == self.ambient.group.order:
            cond: _Condition = _WholeGroup(self.ambient)
        else:
            cond = _Evaluation(self.ambient, sub)
        self[sub] = cond
        return cond


_Places = list[tuple[str, Subgroup]]


def _imposed_subgroups(datum: LocalDatum, selection: PlaceSelection) -> tuple[_Places, _Places]:
    """The imposed places, named as printed, and those of them restricted
    to: the ones with no conjugate inside another imposed subgroup, and of
    conjugate ones the first."""
    unknown = selection.excluded - set(datum.place_names)
    if unknown:
        raise StructuralError(f"excluded places {sorted(unknown)} are not declared")
    out: list[tuple[str, Subgroup]] = []
    seen: set[tuple[int, ...]] = set()
    for sub in cyclic_subgroups(datum.group, up_to_conjugacy=True):
        if sub.order == 1:
            continue  # restrictions to the trivial subgroup are vacuous in degree >= 1
        out.append((f"cyclic{sub.members}", sub))
        seen.add(sub.members)
    for name, sub in sorted(datum.special_places, key=lambda p: p[0]):
        if name in selection.excluded:
            continue
        if sub.members in seen:
            continue  # identical condition already imposed
        out.append((name, sub))
        seen.add(sub.members)
    restricted = [
        (name, sub)
        for i, (name, sub) in enumerate(out)
        if not any(
            (j < i or sub.order < other.order) and sub.conjugate_lies_in(other)
            for j, (_, other) in enumerate(out)
            if j != i
        )
    ]
    return out, restricted


def _sha_groups(
    datum: LocalDatum,
    complex_: TwoTermComplex,
    degree: int,
    selections: Sequence[PlaceSelection],
    cochain_cap: int,
) -> list[ShaGroup]:
    """One Sha group per selection inside HH^degree of the complex (a module M
    is M -> 0): the ambient group is computed once, and the condition of
    each distinct subgroup that some selection restricts to is built once."""
    ambient = hypercohomology(datum.group, complex_, degree, cochain_cap=cochain_cap)
    plans = [_imposed_subgroups(datum, selection) for selection in selections]
    conditions = _Conditions(ambient)
    return [_kernel(ambient, imposed, restricted, conditions) for imposed, restricted in plans]


def _kernel(
    ambient: CohomologyGroup,
    imposed: _Places,
    restricted: _Places,
    conditions: _Conditions,
) -> ShaGroup:
    """The kernel of the conditions at the ``restricted`` places on the
    reduced view of ``ambient``, one preimage of their stacked columns and
    lattices; ``imposed`` names every imposed place.  On a zero reduced
    ambient nothing is restricted."""
    red = ambient.group_value.reduced()
    computed = [conditions[sub] for _, sub in restricted] if red.kept else []
    columns: list[dict[int, int]] = [{} for _ in red.kept]
    lattice_rows: list[dict[int, int]] = []
    offset = 0
    for cond in computed:
        for col, own in zip(columns, cond.columns):
            col.update((offset + r, v) for r, v in own.items())
        lattice_rows += ({offset + r: v for r, v in row.items()} for row in cond.lattice_rows)
        offset += cond.width
    basis = preimage_kernel(columns, offset, lattice_rows)
    value = present_quotient(basis, red.group.relation_lattice.sparse_rows())
    cochains = tuple(ambient.cochain(red.section(b)) for b in basis)
    _recheck(cochains, [name for name, _ in restricted], computed)
    return ShaGroup(
        ambient=ambient,
        value=value,
        cochains=cochains,
        imposed=tuple(name for name, _ in imposed),
        _basis=basis,
        _restricted=tuple(restricted),
        _condition_of=conditions,
    )


def _recheck(
    cochains: Sequence[Sequence[int]], imposed: Sequence[str], conditions: Sequence[_Condition]
) -> None:
    """Every cochain must restrict to zero on every restricted subgroup,
    re-checked at the cochain level."""
    for index, rep in enumerate(cochains):
        for name, cond in zip(imposed, conditions):
            if not cond.kills(rep):
                raise InternalError(
                    "internal check failed: a Sha representative survives a restriction",
                    certificate={
                        "kind": "sha-recheck",
                        "imposed": name,
                        "representative": index,
                        "cocycle": [str(v) for v in rep],
                    },
                )


def _checked_module(datum: LocalDatum, module: GModule, degree: int) -> TwoTermComplex:
    if degree not in (1, 2):
        raise StructuralError("Sha is computed in degrees 1 and 2 only")
    if module.group is not datum.group:
        raise StructuralError("module is not over the datum's group")
    return _module_complex(module)


def _checked_complex(datum: LocalDatum, complex_: TwoTermComplex, degree: int) -> TwoTermComplex:
    if degree != 2:
        raise StructuralError("two-term Sha is exposed in degree 2")
    if complex_.group is not datum.group:
        raise StructuralError("complex is not over the datum's group")
    return complex_


def sha(
    datum: LocalDatum,
    module: GModule,
    degree: int,
    selection: PlaceSelection = EMPTY_SELECTION,
    *,
    cochain_cap: int = DEFAULT_COCHAIN_CAP,
) -> ShaGroup:
    """Sha^degree_S: classes of H^degree killed by restriction to every
    cyclic subgroup (the Chebotarev backdrop) and to the decomposition
    group of every retained special place."""
    complex_ = _checked_module(datum, module, degree)
    return _sha_groups(datum, complex_, degree, [selection], cochain_cap)[0]


def sha_omega(
    datum: LocalDatum,
    module: GModule,
    degree: int,
    *,
    cochain_cap: int = DEFAULT_COCHAIN_CAP,
) -> ShaGroup:
    """Sha^degree_omega = union over finite S; in the model, the kernel of
    the cyclic restrictions alone."""
    omega = PlaceSelection.of(*datum.place_names)
    return sha(datum, module, degree, omega, cochain_cap=cochain_cap)


def sha_two_term(
    datum: LocalDatum,
    complex_: TwoTermComplex,
    degree: int,
    selection: PlaceSelection = EMPTY_SELECTION,
    *,
    cochain_cap: int = DEFAULT_COCHAIN_CAP,
) -> ShaGroup:
    """Sha^degree_S of a two-term complex: the same kernel, inside
    hypercohomology, with restrictions on the total complex."""
    complex_ = _checked_complex(datum, complex_, degree)
    return _sha_groups(datum, complex_, degree, [selection], cochain_cap)[0]


# ---------------------------------------------------------------------------
# Machine verification
# ---------------------------------------------------------------------------


def verify_annihilation(
    datum: LocalDatum,
    module: GModule,
    *,
    cochain_cap: int = DEFAULT_COCHAIN_CAP,
) -> dict:
    """Check that multiplication by n/e kills Sha^1_omega, where n and e
    are the order and exponent of the faithful image of the acting group,
    and that Sha^1_omega vanishes outright when that image is metacyclic
    (exponent equal to order).  Returns an instance report; a failure
    certificate means an implementation bug, never an expected outcome."""
    n, e = faithful_image(module)
    metacyclic = n == e
    sh = sha_omega(datum, module, 1, cochain_cap=cochain_cap)
    report = {
        "order": n,
        "exponent": e,
        "metacyclic": metacyclic,
        "sha_omega": str(sh.value),
        "ok": True,
    }
    multiplier = n // e
    for j in range(sh.value.generator_count):
        coords = [0] * sh.value.generator_count
        coords[j] = multiplier
        if not sh.value.contains_relation(coords):
            report["ok"] = False
            report["certificate"] = {
                "kind": "annihilation",
                "generator": j,
                "multiplier": multiplier,
                "cocycle": [str(v) for v in sh.cochains[j]],
            }
            return report
    if metacyclic and not sh.value.is_trivial():
        report["ok"] = False
        report["certificate"] = {
            "kind": "metacyclic-vanishing",
            "sha_omega": str(sh.value),
            "cocycles": [[str(v) for v in r] for r in sh.cochains],
        }
    return report


def verify_shift_isomorphism(
    datum: LocalDatum,
    complex_: TwoTermComplex,
    selection: PlaceSelection = EMPTY_SELECTION,
    *,
    cochain_cap: int = DEFAULT_COCHAIN_CAP,
) -> dict:
    """For a complex P -> L with P a permutation module, check that the
    natural map Sha^1_S(L) -> Sha^2_S(P -> L), sending a 1-cocycle c to
    the total 2-cochain (0, c), is a bijection, and that Sha^2_S(P)
    vanishes (the ingredient that makes the shift work)."""
    P = complex_.degree0
    if not isinstance(P, PermutationModule):
        raise StructuralError("the degree-0 term must be a permutation module")
    L = complex_.degree1
    sh1 = sha(datum, L, 1, selection, cochain_cap=cochain_cap)
    sh2 = sha_two_term(datum, complex_, 2, selection, cochain_cap=cochain_cap)
    report = {
        "sha1_L": str(sh1.value),
        "sha2_complex": str(sh2.value),
        "ok": True,
    }
    a_dim = datum.group.order**2 * P.rank
    red2 = sh2.ambient.group_value.reduced()
    cols = []
    for j, rep in enumerate(sh1.cochains):
        total = [0] * a_dim + list(rep)
        try:
            ambient_coords = red2.project(sh2.ambient.class_coords(total))
            cols.append(list(sh2.class_of(ambient_coords)))
        except StructuralError:
            report["ok"] = False
            report["certificate"] = {
                "kind": "image-escapes",
                "generator": j,
                "cocycle": [str(v) for v in rep],
            }
            return report
    try:
        hom = AbHom(
            sh1.value,
            sh2.value,
            IntMatrix.from_cols(cols, rows=sh2.value.generator_count),
        )
    except StructuralError:
        report["ok"] = False
        report["certificate"] = {"kind": "not-well-defined"}
        return report
    if not is_isomorphism(hom):
        report["ok"] = False
        report["certificate"] = {
            "kind": "not-bijective",
            "matrix": [[str(v) for v in r] for r in hom.matrix.rows],
        }
        return report
    sh2_P = sha(datum, P, 2, selection, cochain_cap=cochain_cap)
    report["sha2_P"] = str(sh2_P.value)
    if not sh2_P.value.is_trivial():
        report["ok"] = False
        report["certificate"] = {
            "kind": "permutation-sha2-nonzero",
            "value": str(sh2_P.value),
        }
    return report
