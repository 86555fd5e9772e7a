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

A Sha group is the kernel of the stacked reduced restriction maps on the
reduced view of the ambient value (see :mod:`shacalc.abelian`), so its
value, inclusion and quotients live on the kept generators only.  Each
value generator gets one cochain, and the cochain-level recheck (every
cochain restricts to zero on every restricted subgroup, below) runs on
those cochains whenever a group is built.  The printed representatives,
the Hermite basis of the Sha lattice on every ambient generator, are
built on first access only, which only the ``sha`` command makes; the
recheck runs again on them then.

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
restrictions computed when they are built.  The restrictions of one
ambient are computed on first use and shared by the groups over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .abelian import (
    AbHom,
    PresentedAbelianGroup,
    Subquotient,
    is_isomorphism,
    stack_homs,
    subquotient,
    trivial_group,
)
from .cohomology import (
    DEFAULT_COCHAIN_CAP,
    CohomologyGroup,
    Restriction,
    TwoTermComplex,
    _module_complex,
    hypercohomology,
    restriction,
)
from .errors import InternalError, StructuralError
from .gmodules import GModule, PermutationModule, faithful_quotient
from .groups import FiniteGroup, Subgroup, cyclic_subgroups, exponent, is_metacyclic
from .intlinalg import IntMatrix, hermite_rows


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

    ``inclusion`` maps ``value`` into the reduced ambient value
    ``ambient.group_value.reduced().group``, and ``class_of`` takes
    coordinates on that same reduced ambient; both come from the kernel
    :class:`~shacalc.abelian.Subquotient` the group is built from.
    ``cochains[j]`` is a cocycle for generator j of ``value``.

    ``representatives`` are the canonical Hermite basis of the Sha lattice
    on every generator of the ambient value V, times the ambient
    representatives.  That lattice is spanned by the unit relation rows of
    V and the section of the reduced kernel basis, so the basis is the one
    a kernel taken on every generator of V gives."""

    ambient: CohomologyGroup
    value: PresentedAbelianGroup
    inclusion: AbHom
    cochains: tuple[tuple[int, ...], ...]
    imposed: tuple[str, ...]
    _subquotient: Subquotient  # the kernel on the reduced ambient value
    _constraint: AbHom  # stacked reduced restrictions on the reduced ambient value
    _restricted: tuple[tuple[str, Subgroup], ...]  # the imposed places maximal up to conjugacy
    _restrict: _Restrictions  # shared by the groups over this ambient

    @property
    def _restrictions(self) -> tuple[Restriction, ...]:
        """One per restricted class (``_restricted``), not one per imposed
        place; on a zero ambient they are computed only when asked for."""
        return tuple(self._restrict[sub] for _, sub in self._restricted)

    def class_of(self, ambient_coords: Sequence[int]) -> tuple[int, ...]:
        """Coordinates in this subgroup of an ambient class, given on the
        reduced ambient, known to lie in it (raises otherwise)."""
        return self._subquotient.class_of(ambient_coords)

    def quotient_by(self, smaller: "ShaGroup") -> PresentedAbelianGroup:
        """This group modulo a smaller one over the same ambient (Sha_S / Sha_empty)."""
        return subquotient(self._constraint, smaller.inclusion).group

    @cached_property
    def representatives(self) -> tuple[tuple[int, ...], ...]:
        red = self.ambient.group_value.reduced()
        lattice = list(red.unit_rows) + [red.section(b) for b in self._subquotient.basis]
        basis = hermite_rows(lattice, self.ambient.group_value.generator_count)
        reps = tuple(_combine(self.ambient, b) for b in basis)
        _recheck(reps, [name for name, _ in self._restricted], self._restrictions)
        return reps

    def __str__(self) -> str:
        return str(self.value)


class _Restrictions(dict):
    """Restrictions of one ambient group, keyed by subgroup, each computed
    on first lookup."""

    def __init__(self, ambient: CohomologyGroup, cochain_cap: int):
        super().__init__()
        self.ambient = ambient
        self.cochain_cap = cochain_cap

    def __missing__(self, sub: Subgroup) -> Restriction:
        res = self[sub] = restriction(self.ambient, sub, cochain_cap=self.cochain_cap)
        return res


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
    is M -> 0): the ambient group is computed once, and restricted once to
    each distinct subgroup that some selection restricts to."""
    ambient = hypercohomology(datum.group, complex_, degree, cochain_cap=cochain_cap)
    plans = [_imposed_subgroups(datum, selection) for selection in selections]
    restrictions = _Restrictions(ambient, cochain_cap)
    return [_kernel(ambient, imposed, restricted, restrictions) for imposed, restricted in plans]


def _kernel(
    ambient: CohomologyGroup,
    imposed: _Places,
    restricted: _Places,
    restrictions: _Restrictions,
) -> ShaGroup:
    """The kernel of the restrictions to the ``restricted`` places on the
    reduced view of ``ambient``; ``imposed`` names every imposed place.  On
    a zero reduced ambient nothing is restricted."""
    red = ambient.group_value.reduced()
    computed = [restrictions[sub] for _, sub in restricted] if red.kept else []
    if computed:
        constraint = stack_homs([res.reduced_map for res in computed])
    else:
        constraint = AbHom.zero(red.group, trivial_group())
    sq = subquotient(constraint, AbHom.zero(trivial_group(), red.group))
    cochains = tuple(_combine(ambient, red.section(b)) for b in sq.basis)
    _recheck(cochains, [name for name, _ in restricted], computed)
    return ShaGroup(
        ambient=ambient,
        value=sq.group,
        inclusion=sq.inclusion(),
        cochains=cochains,
        imposed=tuple(name for name, _ in imposed),
        _subquotient=sq,
        _constraint=constraint,
        _restricted=tuple(restricted),
        _restrict=restrictions,
    )


def _combine(ambient: CohomologyGroup, coords: Sequence[int]) -> tuple[int, ...]:
    """The cochain sum of coords[t] * ambient.representatives[t]."""
    acc = [0] * (len(ambient.representatives[0]) if ambient.representatives else 0)
    for c, rep in zip(coords, ambient.representatives):
        if c:
            for k, v in enumerate(rep):
                acc[k] += c * v
    return tuple(acc)


def _recheck(
    cochains: Sequence[Sequence[int]], imposed: Sequence[str], restrictions: Sequence[Restriction]
) -> None:
    """Every cochain must restrict to zero on every restricted subgroup,
    re-checked at the cochain level."""
    for index, rep in enumerate(cochains):
        for name, res in zip(imposed, restrictions):
            picked = [rep[s] for s in res.cochain_selection]
            if any(res.target.class_coords(picked)):
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


def sha_quotient(
    datum: LocalDatum,
    module: GModule,
    degree: int,
    selection: PlaceSelection = EMPTY_SELECTION,
    *,
    cochain_cap: int = DEFAULT_COCHAIN_CAP,
) -> PresentedAbelianGroup:
    """Sha^degree_S / Sha^degree_(empty set), through their inclusions
    into H^degree."""
    complex_ = _checked_module(datum, module, degree)
    big, small = _sha_groups(datum, complex_, degree, [selection, EMPTY_SELECTION], cochain_cap)
    return big.quotient_by(small)


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


def sha_two_term_quotient(
    datum: LocalDatum,
    complex_: TwoTermComplex,
    degree: int = 2,
    selection: PlaceSelection = EMPTY_SELECTION,
    *,
    cochain_cap: int = DEFAULT_COCHAIN_CAP,
) -> PresentedAbelianGroup:
    complex_ = _checked_complex(datum, complex_, degree)
    big, small = _sha_groups(datum, complex_, degree, [selection, EMPTY_SELECTION], cochain_cap)
    return big.quotient_by(small)


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
    quotient_group, _ = faithful_quotient(module)
    n = quotient_group.order
    e = exponent(quotient_group)
    metacyclic = is_metacyclic(quotient_group)
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
