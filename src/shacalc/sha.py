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

A Sha group is the kernel of the stacked conditions (below), maps on the
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
conditions built when they are.  The condition of each subgroup on one
ambient is built on first use and shared by the groups over it.

How a condition is imposed
--------------------------

Each restricted subgroup H gives a map on the reduced ambient value whose
kernel is ker res_H; the Sha group is the kernel of these maps stacked.
Which map is picked by the degree, and by whether H is all of G:

* H = G: restriction to G is an isomorphism, so the map is the identity
  and the condition kills everything, in every degree.  The recheck asks
  that the class of the cochain be 0.
* degree 1: evaluation at the generators t_1..t_k of H
  (``Subgroup.minimal_generators``).  No cohomology of H is computed.
  Write T^1 = C^1(A) + C^0(B) with D^0 m = (dm, f(m)) (a module M is
  M -> 0), ev_H(a, b) = (a(t_1), ..., a(t_k), b) in Z^(k rkA + rkB), and
  let Lambda_H be spanned by ((t_1 - 1) m_j, ..., (t_k - 1) m_j, f(m_j))
  for each basis vector m_j of A, the relation rows of A in each of the k
  blocks, and the relation rows of B in the B block.  Then [(a, b)] lies
  in ker res_H iff ev_H(a, b) lies in Lambda_H.  Given m with
  ev_H((a, b) - D^0 m) in the relation rows, a|_H - dm is a 1-cocycle on
  H that vanishes mod R_A on the generators; since c(xt) = c(x) + x c(t)
  and the generators of a finite H generate it as a monoid, it vanishes
  on all of H (the degree-1 case of the kernel-route lemma in
  :mod:`shacalc.cohomology`; Holt, J. Symbolic Comput. 1, 1985).  So the
  map sends the reduced ambient to P_H = Z^(k rkA + rkB) / Lambda_H,
  which contains HH^1(H, K|_H) through ev_H, and has the same kernel.
  The recheck finds m from the Hermite form of [Lambda_H rows | tags],
  the row of m_j tagged e_j, and checks a(h) - (h m - m) in R_A for
  every h in H and b - f(m) in R_B: the definition of a coboundary on
  all of H, so it does not rely on the lemma.
* degree 2: :func:`shacalc.cohomology.restriction`, whose target
  HH^2(H, K|_H) is computed on a standalone copy of H; the recheck solves
  the restricted cochain's class there.

Whichever map is used, the Sha lattice is the same set, so its Hermite
basis, its value, its cochains and ``quotient_by`` are too.
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
    TwoTermComplex,
    _module_complex,
    hypercohomology,
    restriction,
)
from .errors import InternalError, StructuralError
from .gmodules import GModule, PermutationModule, faithful_quotient
from .groups import FiniteGroup, Subgroup, cyclic_subgroups, exponent, is_metacyclic
from .intlinalg import IntMatrix, Lattice, hermite_rows


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
    _constraint: AbHom  # the stacked conditions on the reduced ambient value
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
        _recheck(reps, [name for name, _ in self._restricted], self._conditions)
        return reps

    def __str__(self) -> str:
        return str(self.value)


class _WholeGroup:
    """The condition at H = G: restriction to G is an isomorphism."""

    def __init__(self, ambient: CohomologyGroup):
        self.ambient = ambient
        self.reduced_map = AbHom.identity(ambient.group_value.reduced().group)

    def kills(self, cochain: Sequence[int]) -> bool:
        return not any(self.ambient.class_coords(cochain))


class _Evaluation:
    """The degree-1 condition at a proper subgroup H, by evaluation at its
    generators (see the module docstring): ``reduced_map`` sends the
    reduced ambient value to the reduced view of P_H."""

    def __init__(self, ambient: CohomologyGroup, sub: Subgroup):
        complex_ = ambient.coefficients
        self.a, self.b, self.f = complex_.degree0, complex_.degree1, complex_.f.matrix
        self.members = sub.members
        self.gens = sub.minimal_generators()
        ra, rb = self.a.rank, self.b.rank
        self.a_dim = ambient.group.order * ra
        self.width = len(self.gens) * ra + rb
        # Lambda_H: D^0 m_j read at the generators, for each basis vector
        # m_j of A, then the relation rows of A in each generator block and
        # those of B in the B block
        rows = []
        for j in range(ra):
            row: list[int] = []
            for t in self.gens:
                row.extend(v - (r == j) for r, v in enumerate(self.a.element_matrix(t).col(j)))
            rows.append(row + list(self.f.col(j)))
        blocks = [(i * ra, rel) for i in range(len(self.gens)) for rel in self.a.underlying.relation_rows]
        blocks += [(len(self.gens) * ra, rel) for rel in self.b.underlying.relation_rows]
        for offset, rel in blocks:
            row = [0] * self.width
            row[offset : offset + len(rel)] = rel
            rows.append(row)
        self.rows = rows
        red_src = ambient.group_value.reduced()
        red_tgt = PresentedAbelianGroup(self.width, rows).reduced()
        cols = [red_tgt.project(self.evaluate(ambient.representatives[k])) for k in red_src.kept]
        self.reduced_map = AbHom(
            red_src.group, red_tgt.group, IntMatrix.from_cols(cols, rows=red_tgt.group.generator_count)
        )

    def evaluate(self, cochain: Sequence[int]) -> list[int]:
        """ev_H: the values at the generators, then the C^0(B) part."""
        ra = self.a.rank
        out: list[int] = []
        for t in self.gens:
            out.extend(cochain[t * ra : (t + 1) * ra])
        return out + list(cochain[self.a_dim :])

    @cached_property
    def _tagged(self) -> Lattice:
        """The Hermite form of [Lambda_H rows | tags]: the row of m_j tagged
        e_j, the relation rows tagged 0."""
        ra = self.a.rank
        tags = [[int(k == j) for k in range(ra)] for j in range(ra)]
        tags += [[0] * ra] * (len(self.rows) - ra)
        return hermite_rows([row + tag for row, tag in zip(self.rows, tags)], self.width + ra)

    def kills(self, cochain: Sequence[int]) -> bool:
        """Whether a cocycle (a, b) restricts to a coboundary on H, by the
        definition: some m has a(h) - (h m - m) in R_A for every h in H
        and b - f(m) in R_B.  The m is read off the tagged form: reducing
        (ev_H(a, b) | 0) leaves (0 | -m) when ev_H(a, b) = ev_H(D^0 m) mod
        the relation rows."""
        ra = self.a.rank
        left = self._tagged.reduce(self.evaluate(cochain) + [0] * ra)
        if any(left[: self.width]):
            return False
        m = [-v for v in left[self.width :]]
        for h in self.members:
            hm = self.a.element_matrix(h).matvec(m)
            value = cochain[h * ra : (h + 1) * ra]
            if not self.a.underlying.contains_relation([v - x + y for v, x, y in zip(value, hm, m)]):
                return False
        fm = self.f.matvec(m)
        b = cochain[self.a_dim :]
        return self.b.underlying.contains_relation([v - x for v, x in zip(b, fm)])


class _Restricted:
    """The condition at H by :func:`shacalc.cohomology.restriction`."""

    def __init__(self, ambient: CohomologyGroup, sub: Subgroup, cochain_cap: int):
        self.restriction = restriction(ambient, sub, cochain_cap=cochain_cap)
        self.reduced_map = self.restriction.reduced_map

    def kills(self, cochain: Sequence[int]) -> bool:
        res = self.restriction
        return not any(res.target.class_coords([cochain[s] for s in res.cochain_selection]))


_Condition = _WholeGroup | _Evaluation | _Restricted


class _Conditions(dict):
    """The conditions on one ambient group, keyed by subgroup, each built
    on first lookup: the identity for the whole group, else evaluation at
    generators in degree 1 and restriction in degree 2."""

    def __init__(self, ambient: CohomologyGroup, cochain_cap: int):
        super().__init__()
        self.ambient = ambient
        self.cochain_cap = cochain_cap

    def __missing__(self, sub: Subgroup) -> _Condition:
        ambient = self.ambient
        if sub.order == ambient.group.order:
            cond: _Condition = _WholeGroup(ambient)
        elif ambient.degree == 1:
            cond = _Evaluation(ambient, sub)
        else:
            cond = _Restricted(ambient, sub, self.cochain_cap)
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
    conditions = _Conditions(ambient, cochain_cap)
    return [_kernel(ambient, imposed, restricted, conditions) for imposed, restricted in plans]


def _kernel(
    ambient: CohomologyGroup,
    imposed: _Places,
    restricted: _Places,
    conditions: _Conditions,
) -> ShaGroup:
    """The kernel of the conditions at the ``restricted`` places on the
    reduced view of ``ambient``; ``imposed`` names every imposed place.  On
    a zero reduced ambient nothing is restricted."""
    red = ambient.group_value.reduced()
    computed = [conditions[sub] for _, sub in restricted] if red.kept else []
    zero = trivial_group()
    if computed:
        constraint = stack_homs([cond.reduced_map for cond in computed])
    else:
        constraint = AbHom.zero(red.group, zero)
    sq = subquotient(constraint, AbHom.zero(zero, red.group))
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
        _condition_of=conditions,
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
