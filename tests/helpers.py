"""Shared fixtures-in-spirit: a catalog of small groups, a full subgroup
enumeration (the library itself deliberately ships no subgroup lattice;
tests build it by closure), and constructions that only tests use: small
abelian groups and their order, the edges off the breadth-first tree
(the reference for ``FiniteGroup.off_tree_edges``), sparse composition,
map congruence, the long exact sequence of a two-term complex, the zero,
identity and composite homomorphisms, the general subquotient ker/im,
the restriction of a module and of a computed group to a subgroup (the
reference for the Sha conditions), the cocycle of each generator of a
computed value, the bar d^i in every degree (``FullCochains``, the bar
d^2 the package no longer builds), the value on the bar routes (on the
Hermite basis of Z^i in C^i, the reference for every value,
representative and class solve on the relation complex, with the check
``assert_matches_bar_route``), the groups of the bench ladder, the full
cocycle test of a cochain (with ``sparse_apply``), the inclusion and
the quotient of Sha groups, a restriction's class map on every
generator of its source value (composed from the reduced map, or
eager), the Sha kernels built from
those restrictions and stacked class maps (eager, on every generator of
the ambient value, and on its reduced view), the column-order echelon
kernel that ``sparse_kernel`` must reproduce, the checked rows of the bar
kernel route cut out of the full differential (with the lemma that
they suffice, in ``kernel_route_cocycles``), that route's Z^i, the
mod-p left kernel over every row and the saturation that eliminated with
it, the checked faithful image, the dense Hermite form, and the dense
lattice solve and reduction.  The subquotient, the restrictions, the
cocycle test and the last eight are the references for what the package
now builds or solves directly.  Spies on ``Lattice`` show when a lattice
is reduced or solved on."""

from __future__ import annotations

import contextlib
import copy
import math
from dataclasses import dataclass
from typing import Sequence

import pytest

from shacalc.abelian import (
    AbHom,
    PresentedAbelianGroup,
    class_on_basis,
    invariant_factors,
    is_isomorphism,
    present_quotient,
)
from shacalc.cohomology import (
    DEFAULT_COCHAIN_CAP,
    CohomologyGroup,
    TwoTermComplex,
    _Cochains,
    _hyper_torsion_bound,
    _TotalComplex,
    cohomology,
    hypercohomology,
)
from shacalc.errors import StructuralError
from shacalc.gmodules import GModule, GModuleHom, PermutationModule
from shacalc.groups import FiniteGroup, Subgroup, _group_from_tokens, _prime_factors, from_permutations
from shacalc.intlinalg import (
    IntMatrix,
    Lattice,
    _hermite_from_echelon,
    _sparse_insert,
    hermite_rows,
    preimage_kernel,
    sparse_from_matrix,
    xgcd,
)
from shacalc.sha import EMPTY_SELECTION, LocalDatum, PlaceSelection, ShaGroup, _sha_groups


# the groups of the bench ladder, as permutations
LADDER = {
    "V4": [[1, 0, 2, 3], [0, 1, 3, 2]],
    "D4": [[1, 2, 3, 0], [0, 3, 2, 1]],
    "Q8": [[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]],
    "A4": [[1, 2, 0, 3], [1, 0, 3, 2]],
    "D6": [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]],
    "S4": [[1, 2, 3, 0], [1, 0, 2, 3]],
}
LADDER_GROUPS = {name: from_permutations(perms) for name, perms in LADDER.items()}


def cyclic(n: int) -> FiniteGroup:
    return from_permutations([[(i + 1) % n for i in range(n)]])


def catalog() -> dict[str, FiniteGroup]:
    return {
        "Z2": cyclic(2),
        "Z3": cyclic(3),
        "Z4": cyclic(4),
        "Z6": cyclic(6),
        "Z8": cyclic(8),
        "Z12": cyclic(12),
        "V4": from_permutations([[1, 0, 2, 3], [0, 1, 3, 2]]),
        "S3": from_permutations([[1, 0, 2], [1, 2, 0]]),
        "D4": from_permutations([[1, 2, 3, 0], [0, 3, 2, 1]]),
        "Q8": from_permutations([[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]]),
        "Z2xZ4": from_permutations([[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]]),
        "Z2^3": from_permutations(
            [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]]
        ),
        "A4": from_permutations([[1, 2, 0, 3], [1, 0, 3, 2]]),
    }


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, by closure saturation (fine for order <= 64)."""
    found = {(0,): g.trivial_subgroup()}
    frontier = [g.trivial_subgroup()]
    while frontier:
        nxt = []
        for sub in frontier:
            for e in range(1, g.order):
                if e in sub.members:
                    continue
                bigger = g.generated_subgroup(list(sub.members) + [e])
                if bigger.members not in found:
                    found[bigger.members] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return [found[k] for k in sorted(found, key=lambda m: (len(m), m))]


def free_group(rank: int) -> PresentedAbelianGroup:
    return PresentedAbelianGroup(rank)


def cyclic_group(n: int) -> PresentedAbelianGroup:
    return PresentedAbelianGroup(1, [[n]])


def torsion_module(g: FiniteGroup, n: int) -> GModule:
    """Z/n with the trivial action."""
    return GModule(g, cyclic_group(n), [IntMatrix([[1]]) for _ in g.generators])


def group_order(group: PresentedAbelianGroup) -> int | None:
    """The order of a presented group, read off its invariant factors;
    None when it is infinite."""
    free, torsion = group.invariant_factors()
    return None if free else math.prod(torsion)


def off_tree_edges(group: FiniteGroup) -> list[tuple[int, int]]:
    """The edges (e, l) off the breadth-first tree: those where the stored
    word of e s_l is not the word of e followed by l, recomputed on each
    call."""
    gens, words, table = group.generators, group.element_words, group.table
    return [
        (e, l)
        for e in range(group.order)
        for l, s in enumerate(gens)
        if words[table[e][s]] != words[e] + (l,)
    ]


def word_product(m: GModule, e: int) -> IntMatrix:
    """The product of the generator matrices along the stored word of e,
    one letter at a time from the identity, with dense row arithmetic and
    the validating constructor: the reference for ``element_matrix``."""
    n = m.rank
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in m.group.element_words[e]:
        a = m.action[k].rows
        rows = [[sum(r[t] * a[t][j] for t in range(n)) for j in range(n)] for r in rows]
    return IntMatrix(rows, cols=n)


def trivial_group() -> PresentedAbelianGroup:
    return PresentedAbelianGroup(0)


def zero_hom(source: PresentedAbelianGroup, target: PresentedAbelianGroup) -> AbHom:
    return AbHom(source, target, IntMatrix.zeros(target.generator_count, source.generator_count))


def identity_hom(group: PresentedAbelianGroup) -> AbHom:
    return AbHom(group, group, IntMatrix.identity(group.generator_count))


def compose(outer: AbHom, inner: AbHom) -> AbHom:
    """outer after inner."""
    if inner.target != outer.source:
        raise StructuralError("homs are not composable")
    return AbHom(inner.source, outer.target, outer.matrix.mul(inner.matrix))


def is_zero_hom(h: AbHom) -> bool:
    return all(h.target.contains_relation(h.matrix.col(j)) for j in range(h.matrix.ncols))


@dataclass(frozen=True)
class Subquotient:
    """ker/im presented on the Hermite ``basis`` of the kernel lattice:
    generator j of ``group`` is the ambient vector ``basis.rows[j]``, and
    ``class_of`` sends an ambient vector lying in the kernel back to its
    class coordinates."""

    group: PresentedAbelianGroup
    ambient: PresentedAbelianGroup
    basis: Lattice

    def class_of(self, ambient_vec: Sequence[int]) -> tuple[int, ...]:
        return class_on_basis(self.group, self.basis, ambient_vec)

    def inclusion(self) -> AbHom:
        lift = IntMatrix.from_cols(self.basis.rows, rows=self.ambient.generator_count)
        return AbHom(self.group, self.ambient, lift)


def subquotient(kernel_of: AbHom, image_of: AbHom) -> Subquotient:
    """ker(kernel_of) / im(image_of) inside the presented source group.

    Requires image_of.target == kernel_of.source and kernel_of o image_of
    to be the zero map of presented groups; rejects anything else."""
    if image_of.target != kernel_of.source:
        raise StructuralError(
            "subquotient needs image_of.target equal to kernel_of.source"
        )
    if not is_zero_hom(compose(kernel_of, image_of)):
        raise StructuralError("maps do not form a complex: composite is nonzero")
    ambient = kernel_of.source
    target = kernel_of.target
    basis = preimage_kernel(
        sparse_from_matrix(kernel_of.matrix),
        target.generator_count,
        target.relation_lattice.sparse_rows(),
    )
    # the composite is zero, so every image vector lies in the kernel
    group = present_quotient(
        basis, sparse_from_matrix(image_of.matrix) + ambient.relation_lattice.sparse_rows()
    )
    return Subquotient(group=group, ambient=ambient, basis=basis)


def restrict(m: GModule, h: Subgroup) -> GModule:
    """Same underlying group, action restricted to a subgroup (which
    becomes the acting group, via its own canonical enumeration)."""
    if h.parent is not m.group:
        raise StructuralError("subgroup does not belong to the module's group")
    h_group, embed = h.as_group()
    action = [m.element_matrix(embed[s]) for s in h_group.generators]
    if isinstance(m, PermutationModule):
        perms = [m.basis_action[embed[s]] for s in h_group.generators]
        return PermutationModule(h_group, m.rank, perms)
    return GModule(h_group, m.underlying, action, _trusted=True)


@dataclass(frozen=True)
class Restriction:
    """The induced map on cohomology together with the restricted group.

    ``reduced_map`` is the class map on the reduced views of the source
    and target values."""

    reduced_map: AbHom
    target: CohomologyGroup
    cochain_selection: tuple[int, ...]  # target coord -> source coord


def restriction(
    cg: CohomologyGroup, h: Subgroup, *, cochain_cap: int = DEFAULT_COCHAIN_CAP
) -> Restriction:
    """Restriction HH^i(g, A -> B) -> HH^i(h, A|_h -> B|_h) along the
    inclusion of a subgroup: the cochains of both terms of the total
    complex are restricted to tuples from the subgroup.  For a module M,
    the complex M -> 0, this is H^i(g, M) -> H^i(h, M|_h).  It works in
    reduced coordinates: it restricts only the cocycles of the kept
    generators, one class solve each, and projects their classes onto the
    kept generators of the target."""
    complex_ = cg.coefficients
    if h.parent is not cg.group:
        raise StructuralError("subgroup does not belong to the acting group")
    h_group, embed = h.as_group()
    a_sub = restrict(complex_.degree0, h)
    b_sub = restrict(complex_.degree1, h)
    sub_complex = TwoTermComplex(GModuleHom(a_sub, b_sub, complex_.f.matrix))
    target = hypercohomology(h_group, sub_complex, cg.degree, cochain_cap=cochain_cap)
    sel = cg._cochains.selection(cg.degree, embed)
    # only the kept generators' cocycles are restricted, one solve each
    red_src, red_tgt = cg.group_value.reduced(), target.group_value.reduced()
    cols = [
        red_tgt.project(target.class_coords([generator_cochain(cg, k)[s] for s in sel]))
        for k in red_src.kept
    ]
    hom = AbHom(
        red_src.group,
        red_tgt.group,
        IntMatrix.from_cols(cols, rows=red_tgt.group.generator_count),
    )
    return Restriction(reduced_map=hom, target=target, cochain_selection=sel)


def generator_cochain(cg: CohomologyGroup, j: int) -> tuple[int, ...]:
    """The cocycle of generator j of the value of ``cg``."""
    coords = [0] * cg.group_value.generator_count
    coords[j] = 1
    return cg.cochain(coords)


def generator_cochains(cg: CohomologyGroup) -> list[tuple[int, ...]]:
    """The cocycle of each generator of the value of ``cg``."""
    return [generator_cochain(cg, j) for j in range(cg.group_value.generator_count)]


class FullCochains(_Cochains):
    """Bar cochains with d^i in every degree, the middle contractions
    included: the reference bar d^2, which the package no longer builds.
    It reads each element's action from ``module.element_matrix``, on
    columns of its own, so it shares no conversion with the builders it
    checks."""

    def action_columns(self) -> list[list[dict[int, int]]]:
        """For each element x, column j of its matrix as {row: entry}."""
        out = []
        for x in range(self.group.order):
            rows = self.module.element_matrix(x).rows
            out.append([{r: row[j] for r, row in enumerate(rows) if row[j]} for j in range(self.gm)])
        return out

    def diff_cols(self, i: int) -> list[dict[int, int]]:
        """Columns of d^i : C^i -> C^{i+1} in every degree."""
        order, gm = self.group.order, self.gm
        table, inverse = self.group.table, self.group.inverse
        # strides of the slots of a target (i+1)-tuple
        stride = [order ** (i - k) for k in range(i + 1)]
        final_sign = -1 if (i + 1) % 2 else 1
        action = self.action_columns()
        cols: list[dict[int, int]] = []

        for ti in range(order**i):
            t = [ti // stride[k + 1] % order for k in range(i)]
            # (row, x) for the leading term, target (x, t_1..t_i), value
            # A(x) e_j, and (sign, rows) for the contractions, value sign * e_j
            lead = [(x * stride[0] + ti, x) for x in range(order)]
            contractions = []
            # contractions k < i: targets s with s_k s_{k+1} = t_k (so
            # s_{k+1} = a^-1 t_k) and the rest of t kept
            for k in range(1, i):
                head = sum(t[idx] * stride[idx] for idx in range(k - 1))
                tail = sum(t[idx] * stride[idx + 1] for idx in range(k, i))
                contractions.append((-1 if k % 2 else 1, [
                    head + a * stride[k - 1] + table[inverse[a]][t[k - 1]] * stride[k] + tail
                    for a in range(order)
                ]))
            if i >= 1:
                # the last contraction: target (t_1..t_{i-1}, t_i b^-1, b)
                prefix = ti - t[-1]
                contractions.append((-1 if i % 2 else 1, [
                    (prefix + table[t[-1]][inverse[b]]) * order + b for b in range(order)
                ]))
            # the final term, target (t_1..t_i, x), and the contractions sit
            # on the same rows for every j: sum them once
            unit_sum = dict.fromkeys(range(ti * order, (ti + 1) * order), final_sign)
            for sign, rows in contractions:
                for row in rows:
                    w = unit_sum.get(row, 0) + sign
                    if w:
                        unit_sum[row] = w
                    else:
                        del unit_sum[row]
            for j in range(gm):
                col = {row * gm + j: v for row, v in unit_sum.items()}
                for row, x in lead:
                    base = row * gm
                    for r, v in action[x][j].items():
                        w = col.get(base + r, 0) + v
                        if w:
                            col[base + r] = w
                        else:
                            del col[base + r]
                cols.append(col)
        return cols



def full_complex(t):
    """The bar total complex ``t``, or the cochain term ``t``, with
    :class:`FullCochains` terms, whose ``diff_cols`` gives d^n in every
    degree."""
    out = copy.copy(t)
    if isinstance(t, _Cochains):
        out.__class__ = FullCochains
    else:
        out.ca, out.cb = full_complex(t.ca), full_complex(t.cb)
    return out


@dataclass
class BarGroup:
    """A value presented on the Hermite basis of Z^i in bar coordinates,
    with one relator per generator of B^i solved on it: the cochain map is
    the identity, and a class solve is a solve on Z^i."""

    degree: int
    group: FiniteGroup
    coefficients: TwoTermComplex
    group_value: PresentedAbelianGroup
    lattice: Lattice
    _cochains: _TotalComplex

    def cochain(self, coords: Sequence[int]) -> tuple[int, ...]:
        rows = self.lattice.rows
        return tuple(sum(c * row[k] for c, row in zip(coords, rows)) for k in range(self.lattice.width))

    def class_coords(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.lattice.width:
            raise StructuralError("vector length does not match the cochain rank")
        return class_on_basis(self.group_value, self.lattice, vec)

    @property
    def representatives(self) -> tuple[tuple[int, ...], ...]:
        return self.lattice.rows


def bar_route(cg: CohomologyGroup) -> BarGroup:
    """``cg`` on the bar routes the package took before it computed on the
    relation complex: the value presented on the Hermite basis of Z^i in
    the bar T^i, with one relator per generator of B^i.  Z^i is the
    saturation of B^i, the image of d^{i-1} and the relation rows, at the
    primes of the torsion bound (``full_elimination_saturation``) when there
    is one, else the preimage under d^i of the relation rows, on the
    checked rows of C^{i+1} (``kernel_route_cocycles``).  The reference for
    every value, representative and class solve."""
    t, d = full_complex(cg._cochains), cg.degree
    boundaries = (t.diff_cols(d - 1) if d else []) + t.relation_cols(d)
    bound = _hyper_torsion_bound(cg.coefficients, d)
    if bound is None:
        cocycles = kernel_route_cocycles(t, d)
    else:
        primes = sorted(_prime_factors(bound))
        cocycles, _ = full_elimination_saturation(boundaries, t.dim(d), primes)
    return BarGroup(d, cg.group, cg.coefficients, present_quotient(cocycles, boundaries), cocycles, t)


def assert_matches_bar_route(h: CohomologyGroup) -> BarGroup:
    """A value on the relation complex against the bar-route reference
    ``bar_route``, presented on Z^i: the same representatives and invariant
    factors, and class coordinates that make the map from the reference
    value, generator j to the class of representative j, an isomorphism,
    inverse to the map that sends each generator to the reference class of
    its cocycle.  Returns the reference."""
    ref = bar_route(h)
    assert h.representatives == ref.representatives
    assert invariant_factors(h.group_value) == invariant_factors(ref.group_value)
    value, bar = h.group_value, ref.group_value
    forward = AbHom(bar, value, IntMatrix.from_cols(
        [h.class_coords(rep) for rep in ref.representatives], rows=value.generator_count))
    back = AbHom(value, bar, IntMatrix.from_cols(
        [ref.class_coords(generator_cochain(h, j)) for j in range(value.generator_count)],
        rows=bar.generator_count))
    assert is_isomorphism(forward)
    assert congruent(compose(back, forward), identity_hom(bar))
    return ref


def dense(col: dict[int, int], dim: int) -> list[int]:
    """A sparse vector written out with ``dim`` coordinates."""
    vec = [0] * dim
    for k, v in col.items():
        vec[k] = v
    return vec


def is_cocycle(cg: CohomologyGroup, vec: Sequence[int]) -> bool:
    """Whether a cochain is a cocycle of ``cg``, on the full bar d^i,
    which the package does not build, so this check is independent of
    it."""
    cochains = cg._cochains
    if len(vec) != cochains.dim(cg.degree):
        raise StructuralError(
            f"cochain of length {len(vec)}, expected {cochains.dim(cg.degree)}"
        )
    img = dense(sparse_apply(full_complex(cochains).diff_cols(cg.degree), vec), cochains.dim(cg.degree + 1))
    return cochains.block_contains(cg.degree + 1, img)


def sparse_apply(columns: Sequence[dict[int, int]], vec: Sequence[int]) -> dict[int, int]:
    """A @ vec for A given by sparse columns."""
    acc: dict[int, int] = {}
    for j, x in enumerate(vec):
        if x:
            for i, v in columns[j].items():
                w = acc.get(i, 0) + x * v
                if w:
                    acc[i] = w
                else:
                    del acc[i]
    return acc


def congruent(a: AbHom, b: AbHom) -> bool:
    """Equality as maps of presented groups."""
    if a.source != b.source or a.target != b.target:
        return False
    for j in range(a.matrix.ncols):
        diff = [x - y for x, y in zip(a.matrix.col(j), b.matrix.col(j))]
        if not a.target.contains_relation(diff):
            return False
    return True


def echelon_kernel(
    columns: Sequence[dict[int, int]], nrows: int
) -> tuple[tuple[int, ...], ...]:
    """Canonical Hermite basis of {x : sum x_j * col_j = 0}, by one gcd
    echelon of [A^T | I]: the row [col_j | e_j] of each column goes in, in
    the order given, and the rows whose A^T-part vanishes carry the kernel
    in their identity part.  No unit elimination, no reordering: the
    reference for ``sparse_kernel``."""
    n = len(columns)
    pivots: dict[int, dict[int, int]] = {}
    for j, col in enumerate(columns):
        row = dict(col)
        row[nrows + j] = 1
        _sparse_insert(pivots, row)
    kernel = {
        key - nrows: {k - nrows: v for k, v in row.items()}
        for key, row in pivots.items()
        if key >= nrows
    }
    return _hermite_from_echelon(kernel, n)


def sparse_compose(
    outer: Sequence[dict[int, int]], inner: Sequence[dict[int, int]]
) -> list[dict[int, int]]:
    """Columns of A @ B where outer gives A's columns and inner gives B's."""
    out = []
    for col in inner:
        acc: dict[int, int] = {}
        for j, x in col.items():
            for i, v in outer[j].items():
                w = acc.get(i, 0) + x * v
                if w:
                    acc[i] = w
                else:
                    del acc[i]
        out.append(acc)
    return out


def _class_map(
    src: CohomologyGroup, tgt: CohomologyGroup, cocycles: list[Sequence[int]]
) -> AbHom:
    """The map of values sending generator j of ``src`` to the class of
    ``cocycles[j]``, a cocycle of ``tgt``."""
    cols = [list(tgt.class_coords(c)) for c in cocycles]
    return AbHom(
        src.group_value,
        tgt.group_value,
        IntMatrix.from_cols(cols, rows=tgt.group_value.generator_count),
    )


@dataclass(frozen=True)
class LesSegment:
    """H^{i-1}(A) -> H^{i-1}(B) -> HH^i(A->B) -> H^i(A) -> H^i(B) with the
    connecting maps realized on representatives."""

    ha_prev: CohomologyGroup
    hb_prev: CohomologyGroup
    hyper: CohomologyGroup
    ha: CohomologyGroup
    hb: CohomologyGroup
    from_a_prev: AbHom
    from_b_prev: AbHom
    to_a: AbHom
    to_b: AbHom


def les_segment(group: FiniteGroup, complex_: TwoTermComplex, degree: int) -> LesSegment:
    assert degree in (1, 2), "the exposed segment needs degree 1 or 2"
    a, b = complex_.degree0, complex_.degree1
    i = degree
    ha_prev = cohomology(group, a, i - 1)
    hb_prev = cohomology(group, b, i - 1)
    hyper = hypercohomology(group, complex_, i)
    ha = cohomology(group, a, i)
    hb = cohomology(group, b, i)
    f_cols = sparse_from_matrix(complex_.f.matrix)
    gm_a = a.rank

    def f_pointwise(vec: Sequence[int], blocks: int) -> list[int]:
        out = [0] * (blocks * b.rank)
        for block in range(blocks):
            for j in range(gm_a):
                v = vec[block * gm_a + j]
                if v:
                    for r, w in f_cols[j].items():
                        out[block * b.rank + r] += v * w
        return out

    order = group.order

    def induced_f(src: CohomologyGroup, tgt: CohomologyGroup, deg: int) -> AbHom:
        return _class_map(src, tgt, [f_pointwise(rep, order**deg) for rep in generator_cochains(src)])

    a_dim_hyper = order**i * gm_a
    from_b_prev = _class_map(
        hb_prev, hyper, [[0] * a_dim_hyper + list(rep) for rep in generator_cochains(hb_prev)]
    )
    to_a = _class_map(hyper, ha, [rep[:a_dim_hyper] for rep in generator_cochains(hyper)])
    return LesSegment(
        ha_prev=ha_prev,
        hb_prev=hb_prev,
        hyper=hyper,
        ha=ha,
        hb=hb,
        from_a_prev=induced_f(ha_prev, hb_prev, i - 1),
        from_b_prev=from_b_prev,
        to_a=to_a,
        to_b=induced_f(ha, hb, i),
    )


def eager_restriction_map(source: CohomologyGroup, res: Restriction) -> AbHom:
    """The class map of ``res``, a restriction of ``source``, on every
    generator of the source value: the cocycle of each generator is
    restricted and solved for."""
    sel = res.cochain_selection
    return _class_map(source, res.target, [[rep[s] for s in sel] for rep in generator_cochains(source)])


def full_restriction_map(source: CohomologyGroup, res: Restriction) -> AbHom:
    """``res.reduced_map`` on every generator of the source value: pi of
    the source, the reduced map, then the section of the target, each image
    reduced to its canonical coset representative.  No class is solved."""
    src, tgt = source.group_value, res.target.group_value
    red_src, red_tgt = src.reduced(), tgt.reduced()
    cols = [
        tgt.reduce_element(red_tgt.section(res.reduced_map.matrix.matvec(red_src.project(unit))))
        for unit in IntMatrix.identity(src.generator_count).rows
    ]
    return AbHom(src, tgt, IntMatrix.from_cols(cols, rows=tgt.generator_count))


def stack_homs(homs: Sequence[AbHom]) -> AbHom:
    """Combine homs with a common source into one hom to the direct sum."""
    if not homs:
        raise StructuralError("cannot stack zero homomorphisms")
    source = homs[0].source
    for h in homs:
        if h.source != source:
            raise StructuralError("stacked homs must share their source")
    target, _ = PresentedAbelianGroup.direct_sum([h.target for h in homs])
    rows: list[tuple[int, ...]] = []
    for h in homs:
        rows.extend(h.matrix.rows)
    return AbHom(source, target, IntMatrix(rows, cols=source.generator_count))


@dataclass(frozen=True)
class EagerSha:
    """A Sha group taken on every generator of the ambient value."""

    value: PresentedAbelianGroup
    representatives: tuple[tuple[int, ...], ...]
    inclusion: AbHom
    constraint: AbHom

    def quotient_by(self, smaller: "EagerSha") -> PresentedAbelianGroup:
        return subquotient(self.constraint, smaller.inclusion).group


def eager_kernel(ambient: CohomologyGroup, subgroups: Sequence[Subgroup]) -> EagerSha:
    """The kernel of the eager class maps of the public restrictions to
    ``subgroups`` on the ambient value, with one representative per kernel
    basis vector.  It is taken on the bar-route value (``bar_route``), whose
    generators are the ambient representatives."""
    ambient = bar_route(ambient)
    value_group = ambient.group_value
    if subgroups:
        constraint = stack_homs(
            [eager_restriction_map(ambient, restriction(ambient, sub)) for sub in subgroups]
        )
    else:
        constraint = zero_hom(value_group, trivial_group())
    sq = subquotient(constraint, zero_hom(trivial_group(), value_group))
    return EagerSha(
        value=sq.group,
        representatives=tuple(ambient.cochain(coords) for coords in sq.basis),
        inclusion=sq.inclusion(),
        constraint=constraint,
    )


@dataclass(frozen=True)
class RestrictedSha:
    """A Sha group taken on the reduced view of the ambient value, as the
    kernel of the stacked reduced maps of public restrictions: ``kernel``
    is its subquotient and ``cochains[j]`` the cocycle of its generator j."""

    kernel: Subquotient
    cochains: tuple[tuple[int, ...], ...]
    constraint: AbHom

    def quotient_by(self, smaller: "RestrictedSha") -> PresentedAbelianGroup:
        return subquotient(self.constraint, smaller.kernel.inclusion()).group


def restriction_kernel(ambient: CohomologyGroup, subgroups: Sequence[Subgroup]) -> RestrictedSha:
    """The kernel of ``restriction(ambient, sub).reduced_map`` over
    ``subgroups`` on the reduced ambient value; nothing is restricted on a
    zero reduced ambient."""
    red = ambient.group_value.reduced()
    maps = [restriction(ambient, sub).reduced_map for sub in subgroups] if red.kept else []
    constraint = stack_homs(maps) if maps else zero_hom(red.group, trivial_group())
    sq = subquotient(constraint, zero_hom(trivial_group(), red.group))
    cochains = tuple(ambient.cochain(red.section(b)) for b in sq.basis)
    return RestrictedSha(kernel=sq, cochains=cochains, constraint=constraint)


def sha_inclusion(group: ShaGroup) -> AbHom:
    """The inclusion of a Sha group's value into the reduced ambient value,
    on the kernel basis the group holds."""
    red = group.ambient.group_value.reduced().group
    return Subquotient(group=group.value, ambient=red, basis=group._basis).inclusion()


def quotient_by_empty(
    datum: LocalDatum, complex_: TwoTermComplex, degree: int, selection: PlaceSelection
) -> PresentedAbelianGroup:
    """Sha_S / Sha_empty inside HH^degree of the complex (a module M is
    M -> 0), as ``brauer`` and ``pi1`` take it: both groups over one
    ambient, then ``quotient_by``."""
    big, small = _sha_groups(
        datum, complex_, degree, [selection, EMPTY_SELECTION], DEFAULT_COCHAIN_CAP
    )
    return big.quotient_by(small)


def checked_coords(cochains, i: int) -> list[int]:
    """The coordinates of C^i (a ``_Cochains``) or T^i (a ``_TotalComplex``)
    on which the kernel route checks that a coboundary lies in the relation
    rows: all of C^0, and for i >= 1 the tuples whose last entry is a
    listed generator (the one tuple, for the trivial group); for the total
    complex those of C^i(A), then those of C^{i-1}(B)."""
    if hasattr(cochains, "ca"):
        coords = checked_coords(cochains.ca, i)
        if i >= 1:
            a_dim = cochains.ca.dim(i)
            coords += [a_dim + k for k in checked_coords(cochains.cb, i - 1)]
        return coords
    gm = cochains.gm
    if i == 0:
        return list(range(gm))
    order = cochains.group.order
    last = sorted(set(cochains.group.generators)) or [0]
    return [
        (head * order + s) * gm + j
        for head in range(order ** (i - 1))
        for s in last
        for j in range(gm)
    ]


def kernel_route_cocycles(t, degree: int = 1) -> Lattice:
    """Z^i of the bar total complex ``t`` by the kernel route the package
    took before it computed on the relation complex: the preimage under
    d^i of the relation rows, both cut out of the full d^i to the checked
    rows of T^{i+1} (``checked_coords``).  The reference for the kernel
    form.

    The checked rows suffice by this lemma: if delta in C^m(G, M), m >= 1,
    has d delta = 0 in M and vanishes on every tuple ending in a listed
    generator, then delta = 0.  At (g_1,...,g_m, s) every term of d delta
    ends in s except (-1)^m [delta(g_1,...,g_m s) - delta(g_1,...,g_m)],
    so delta(h, x s) = delta(h, x) for all x; then
    delta(h, e) = delta(h, s) = 0, and delta vanishes everywhere since the
    generators generate G as a monoid.  It applies to delta = d^i x read
    in M, since d o d = 0 modulo the relation rows.  For the total
    complex, the lemma kills the C^m(A) part first; then D delta = 0 gives
    d delta_B = f(delta_A) = 0, which kills the C^{m-1}(B) part when
    m >= 2; all of C^0(B) is checked.  The trivial group has no
    generators; its one tuple is checked."""
    t = full_complex(t)
    rows = {k: r for r, k in enumerate(checked_coords(t, degree + 1))}
    relations = [col for col in on_rows(t.relation_cols(degree + 1), rows) if col]
    return preimage_kernel(on_rows(t.diff_cols(degree), rows), len(rows), relations)


def left_kernel_mod(rows: Sequence[dict[int, int]], p: int) -> list[dict[int, int]]:
    """Basis of {x in F_p^m : sum x_k * rows[k] = 0 mod p}, each x as a
    {k: x_k} dict with entries in [0, p), by a mod-p echelon over every
    row: the elimination ``sparse_saturation`` ran before it reduced only
    the rows whose pivot p divides."""

    def sub(row: dict[int, int], other: dict[int, int], q: int) -> dict[int, int]:
        out = dict(row)
        for k, v in other.items():
            out[k] = out.get(k, 0) - q * v
        return {k: v % p for k, v in out.items() if v % p}

    pivots: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    kernel = []
    for k, row in enumerate(rows):
        r = {c: v % p for c, v in row.items() if v % p}
        combo = {k: 1}
        while r:
            c = min(r)
            if c not in pivots:
                inv = pow(r[c], -1, p)
                pivots[c] = (
                    {i: v * inv % p for i, v in r.items()},
                    {i: v * inv % p for i, v in combo.items()},
                )
                break
            prow, pcombo = pivots[c]
            q = r[c]
            r, combo = sub(r, prow, q), sub(combo, pcombo, q)
        else:
            kernel.append(combo)
    return kernel


def full_elimination_saturation(
    rows: Sequence[dict[int, int]], width: int, primes: Sequence[int]
) -> tuple[Lattice, int]:
    """``sparse_saturation`` as it was before it inserted last-first and
    eliminated only deficient rows: the rows go into the gcd echelon in
    the order given, and every round at p reduces every echelon row mod p
    (``left_kernel_mod``).  The reference for the lattice and the index."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        _sparse_insert(pivots, dict(row))
    index = 1
    for p in primes:
        while True:
            ech = [pivots[c] for c in sorted(pivots)]
            kernel = left_kernel_mod(ech, p)
            if not kernel:
                break
            index *= p ** len(kernel)
            for combo in kernel:
                acc: dict[int, int] = {}
                for k, x in combo.items():
                    for c, v in ech[k].items():
                        acc[c] = acc.get(c, 0) + x * v
                _sparse_insert(pivots, {c: v // p for c, v in acc.items() if v})
    return _hermite_from_echelon(pivots, width), index


def checked_faithful_quotient(m: GModule) -> FiniteGroup:
    """The faithful image of the acting group built as a group, the
    reference for ``faithful_image``: the action kernel found column by
    column, cosets named by their least element, and the breadth-first
    closure of the generators' cosets passed to the checking constructor."""
    g, und = m.group, m.underlying
    kernel = []
    for e in range(g.order):
        cols = [list(c) for c in m.element_matrix(e).transpose().rows]
        for j, col in enumerate(cols):
            col[j] -= 1
        if all(und.contains_relation(col) for col in cols):
            kernel.append(e)

    def coset_rep(e: int) -> int:
        return min(g.mul(e, k) for k in kernel)

    tokens: list[int] = []
    for s in g.generators:
        if coset_rep(s) and coset_rep(s) not in tokens:
            tokens.append(coset_rep(s))
    q, _ = _group_from_tokens(0, tokens, lambda a, b: coset_rep(g.mul(a, b)), g.order + 1)
    return q


def on_rows(cols: list[dict[int, int]], rows: dict[int, int]) -> list[dict[int, int]]:
    """The columns cut down to the rows in ``rows``, renumbered by it."""
    return [{rows[k]: v for k, v in col.items() if k in rows} for col in cols]


def dense_lattice_solve(
    basis: Sequence[Sequence[int]], vec: Sequence[int]
) -> tuple[int, ...] | None:
    """Coefficients c with vec = sum c_i * basis_i, or None, on dense rows
    of an echelon basis with strictly increasing pivots."""
    work = list(vec)
    coeffs = []
    prev = -1
    for row in basis:
        # pivots strictly increase, so each search starts past the last one
        lead = next((k for k in range(prev + 1, len(row)) if row[k]), None)
        if lead is None:
            coeffs.append(0)
            continue
        prev = lead
        q, r = divmod(work[lead], row[lead])
        if r:
            return None
        if q:
            for k in range(lead, len(work)):
                work[k] -= q * row[k]
        coeffs.append(q)
    if any(work):
        return None
    return tuple(coeffs)


def dense_lattice_reduce(basis: Sequence[Sequence[int]], vec: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative of ``vec`` modulo the row lattice, on dense
    rows: at each pivot column the result lies in [0, pivot)."""
    work = list(vec)
    prev = -1
    for row in basis:
        lead = next((k for k in range(prev + 1, len(row)) if row[k]), None)
        if lead is None:
            continue
        prev = lead
        q = work[lead] // row[lead]
        if q:
            for k in range(lead, len(work)):
                work[k] -= q * row[k]
    return tuple(work)


def _dense_echelon_insert(pivots: dict[int, list[int]], row: list[int]) -> None:
    """Insert ``row`` into a dense echelon keyed by leading column,
    combining with existing rows by gcd steps.  Mutates ``pivots`` and
    ``row``."""
    width = len(row)
    lead = 0
    while True:
        while lead < width and row[lead] == 0:
            lead += 1
        if lead == width:
            return  # dependent row, reduced away
        if lead not in pivots:
            if row[lead] < 0:
                for k in range(lead, width):
                    row[k] = -row[k]
            pivots[lead] = row
            return
        p = pivots[lead]
        a, b = p[lead], row[lead]
        if b % a == 0:
            q = b // a
            for k in range(lead, width):
                row[k] -= q * p[k]
        else:
            g, x, y = xgcd(a, b)
            ag, bg = a // g, b // g
            for k in range(lead, width):
                pk, rk = p[k], row[k]
                p[k] = x * pk + y * rk
                row[k] = -bg * pk + ag * rk
        # after either step row[lead] == 0; continue scanning right


def dense_hermite_rows(rows: Sequence[Sequence[int]], width: int) -> tuple[tuple[int, ...], ...]:
    """Canonical Hermite rows of the lattice spanned by ``rows``, by a gcd
    echelon on dense rows and a dense reduction above the pivots: the
    reference for ``hermite_rows``."""
    pivots: dict[int, list[int]] = {}
    for r in rows:
        assert len(r) == width
        _dense_echelon_insert(pivots, list(r))
    order = sorted(pivots)
    ech = [pivots[c] for c in order]
    # reduce entries above each pivot into [0, pivot), left to right: the
    # rows subtracted at column c are zero left of c, so the columns
    # already reduced stay reduced
    for idx, c in enumerate(order):
        prow = ech[idx]
        pv = prow[c]
        for above in range(idx):
            q = ech[above][c] // pv
            if q:
                arow = ech[above]
                for k in range(c, width):
                    arow[k] -= q * prow[k]
    return tuple(tuple(r) for r in ech)


@contextlib.contextmanager
def lattice_reads():
    """Spies on ``Lattice``: yields two lists, the lattices whose echelon
    was reduced above its pivots and the lattices solved on, inside the
    block and in call order."""
    reduced: list[Lattice] = []
    solved: list[Lattice] = []
    reduce_real, solve_real = Lattice._reduce_above_pivots, Lattice.solve

    def reduce_spy(self):
        reduced.append(self)
        return reduce_real(self)

    def solve_spy(self, vec):
        solved.append(self)
        return solve_real(self, vec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Lattice, "_reduce_above_pivots", reduce_spy)
        mp.setattr(Lattice, "solve", solve_spy)
        yield reduced, solved


def held_rows(lattice: Lattice) -> tuple[tuple[int, ...], ...]:
    """The rows a lattice holds, densely, as they stand: before its
    canonical basis is first read, the echelon it came out of."""
    return tuple(tuple(row.get(k, 0) for k in range(lattice.width)) for _, row in lattice._index)
