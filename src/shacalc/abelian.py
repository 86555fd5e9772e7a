"""Finitely generated abelian groups presented by integer relation matrices.

A group is the cokernel of its relation matrix: elements are integer
coordinate vectors on the generators, equal when they differ by an integer
combination of the relator rows.  This is the universal value type for
every cohomology group computed by the package; the canonical answer
format everywhere is the invariant-factor decomposition
Z^r + Z/d_1 + ... + Z/d_k with d_1 | d_2 | ... .

Reduced view.  Relations are kept in canonical Hermite form, where every
entry above a pivot lies in [0, pivot).  So a column c that is the pivot
of a row r_c with pivot 1 is zero in every other row: the rows above are
reduced into [0, 1), the rows below are zero left of their pivot.  Hence a
unit row is zero on every other unit-pivot column, and a non-unit row is
zero on all of them.  Let K be the other columns, the kept generators.
Then G is isomorphic to Z^K / (the non-unit rows read on K), by

    pi(x) = x|K - sum over unit rows r_c of x_c * r_c|K,   section e_k -> e_k:

pi sends r_c to 0 and a non-unit row to its restriction, the section
sends the reduced relators to relators, pi o section is the identity, and
x - section(pi(x)) = sum x_c * r_c is a relation.  No Smith transform is
needed; the reduced generators are a subset of the original ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InternalError, StructuralError
from .intlinalg import (
    IntMatrix,
    hermite_rows,
    lattice_contains,
    lattice_reduce,
    lattice_solve,
    preimage_kernel,
    smith_normal_form,
    sparse_from_matrix,
)


@dataclass(frozen=True)
class ReducedView:
    """A group on its kept generators (see the module docstring): ``group``
    is Z^K / (the non-unit relation rows read on K), ``kept`` lists K in
    increasing order, and ``unit_rows`` are the relation rows with pivot 1,
    whose pivots ``unit_pivots`` are the generators left out."""

    group: "PresentedAbelianGroup"
    kept: tuple[int, ...]
    unit_pivots: tuple[int, ...]
    unit_rows: tuple[tuple[int, ...], ...]

    def project(self, vec: Sequence[int]) -> tuple[int, ...]:
        """pi: coordinates on every generator to coordinates on K.  On a
        canonical coset representative, which is zero on every unit pivot,
        this is the restriction to K."""
        out = [vec[k] for k in self.kept]
        for c, row in zip(self.unit_pivots, self.unit_rows):
            x = vec[c]
            if x:
                for t, k in enumerate(self.kept):
                    if row[k]:
                        out[t] -= x * row[k]
        return tuple(out)

    def section(self, vec: Sequence[int]) -> tuple[int, ...]:
        """e_k -> e_k: coordinates on K to coordinates on every generator."""
        out = [0] * (len(self.kept) + len(self.unit_pivots))
        for k, v in zip(self.kept, vec):
            out[k] = v
        return tuple(out)


class PresentedAbelianGroup:
    """Z^n modulo the row lattice of a relation matrix.

    Relations are normalized to canonical Hermite form at construction,
    which keeps presentations small and makes equality structural.  The
    zero group prints as "0".
    """

    __slots__ = ("generator_count", "relation_rows", "_inv", "_reduced")

    def __init__(self, generator_count: int, relations: Iterable[Sequence[int]] = ()):
        if generator_count < 0:
            raise StructuralError("generator count must be nonnegative")
        self.generator_count = generator_count
        if isinstance(relations, IntMatrix):
            if relations.ncols != generator_count:
                raise StructuralError(
                    f"relation matrix has {relations.ncols} columns, expected {generator_count}"
                )
            rows = relations.rows
        else:
            rows = tuple(tuple(r) for r in relations)
            for r in rows:
                if len(r) != generator_count:
                    raise StructuralError("relator length does not match generator count")
        self.relation_rows = hermite_rows(rows, generator_count)
        self._inv: tuple[int, tuple[int, ...]] | None = None
        self._reduced: ReducedView | None = None

    # -- structure ------------------------------------------------------

    @property
    def relations(self) -> IntMatrix:
        return IntMatrix(self.relation_rows, cols=self.generator_count)

    def reduced(self) -> ReducedView:
        """The same group on its kept generators, computed once."""
        if self._reduced is None:
            pivots, units, rest = [], [], []
            for row in self.relation_rows:
                lead = next(k for k, v in enumerate(row) if v)
                if row[lead] == 1:
                    pivots.append(lead)
                    units.append(row)
                else:
                    rest.append(row)
            left_out = set(pivots)
            kept = tuple(k for k in range(self.generator_count) if k not in left_out)
            group = self
            if pivots:
                group = PresentedAbelianGroup(len(kept), [[r[k] for k in kept] for r in rest])
            self._reduced = ReducedView(group, kept, tuple(pivots), tuple(units))
        return self._reduced

    def invariant_factors(self) -> tuple[int, tuple[int, ...]]:
        """(free_rank, torsion) with each torsion entry > 1 dividing the next."""
        if self._inv is None:
            # the Smith form runs on the reduced view
            red = self.reduced().group
            diag = smith_normal_form(red.relations).diagonal if red.relation_rows else ()
            rank = sum(1 for d in diag if d)
            torsion = tuple(d for d in diag if d > 1)
            self._inv = (red.generator_count - rank, torsion)
        return self._inv

    @property
    def free_rank(self) -> int:
        return self.invariant_factors()[0]

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.invariant_factors()[1]

    def is_trivial(self) -> bool:
        free, tors = self.invariant_factors()
        return free == 0 and not tors

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        free, tors = self.invariant_factors()
        if free:
            return None
        n = 1
        for d in tors:
            n *= d
        return n

    # -- element handling ------------------------------------------------

    def contains_relation(self, vec: Sequence[int]) -> bool:
        """Whether a coordinate vector is zero in the group."""
        return lattice_contains(self.relation_rows, vec)

    def reduce_element(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical coset representative of an element."""
        return lattice_reduce(self.relation_rows, vec)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.generator_count

    # -- combinators -------------------------------------------------------

    @staticmethod
    def direct_sum(groups: Sequence["PresentedAbelianGroup"]) -> tuple["PresentedAbelianGroup", tuple[int, ...]]:
        """Direct sum with block relations; also returns generator offsets."""
        offsets = []
        total = 0
        rows: list[list[int]] = []
        for g in groups:
            offsets.append(total)
            total += g.generator_count
        for off, g in zip(offsets, groups):
            for r in g.relation_rows:
                row = [0] * total
                row[off : off + g.generator_count] = list(r)
                rows.append(row)
        return PresentedAbelianGroup(total, rows), tuple(offsets)

    # -- formatting ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PresentedAbelianGroup)
            and self.generator_count == other.generator_count
            and self.relation_rows == other.relation_rows
        )

    def __hash__(self) -> int:
        return hash((self.generator_count, self.relation_rows))

    def __str__(self) -> str:
        free, tors = self.invariant_factors()
        parts = []
        if free == 1:
            parts.append("Z")
        elif free > 1:
            parts.append(f"Z^{free}")
        parts.extend(f"Z/{d}" for d in tors)
        return " x ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"PresentedAbelianGroup({self})"


def trivial_group() -> PresentedAbelianGroup:
    return PresentedAbelianGroup(0)


def invariant_factors(g: PresentedAbelianGroup) -> tuple[int, tuple[int, ...]]:
    """Isomorphism invariants of a presented group: (free rank, torsion)."""
    return g.invariant_factors()


class AbHom:
    """Homomorphism of presented abelian groups, given by a matrix on
    generators.  Construction verifies well-definedness: every relator of
    the source must map into the relation lattice of the target."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: PresentedAbelianGroup, target: PresentedAbelianGroup, matrix: IntMatrix):
        if matrix.ncols != source.generator_count or matrix.nrows != target.generator_count:
            raise StructuralError(
                f"hom matrix is {matrix.nrows}x{matrix.ncols}, expected "
                f"{target.generator_count}x{source.generator_count}"
            )
        for r in source.relation_rows:
            if not target.contains_relation(matrix.matvec(r)):
                raise StructuralError(
                    "matrix does not preserve relations: image of a relator "
                    "is nonzero in the target"
                )
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def zero(cls, source: PresentedAbelianGroup, target: PresentedAbelianGroup) -> "AbHom":
        return cls(source, target, IntMatrix.zeros(target.generator_count, source.generator_count))

    @classmethod
    def identity(cls, group: PresentedAbelianGroup) -> "AbHom":
        return cls(group, group, IntMatrix.identity(group.generator_count))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        return self.matrix.matvec(vec)

    def compose(self, inner: "AbHom") -> "AbHom":
        """self after inner."""
        if inner.target != self.source:
            raise StructuralError("homs are not composable")
        return AbHom(inner.source, self.target, self.matrix.mul(inner.matrix))

    def is_zero(self) -> bool:
        return all(
            self.target.contains_relation(self.matrix.col(j))
            for j in range(self.matrix.ncols)
        )

    def __repr__(self) -> str:
        return f"AbHom({self.source} -> {self.target})"


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
class Subquotient:
    """ker/im together with its section: ``lift`` carries each generator of
    ``group`` to an explicit coordinate vector in the ambient group, and
    ``class_of`` sends an ambient vector lying in the kernel back to its
    class coordinates."""

    group: PresentedAbelianGroup
    ambient: PresentedAbelianGroup
    lift: IntMatrix  # ambient_gens x result_gens
    basis_rows: tuple[tuple[int, ...], ...]  # Hermite basis of the kernel lattice

    def class_of(self, ambient_vec: Sequence[int]) -> tuple[int, ...]:
        coeffs = lattice_solve(self.basis_rows, ambient_vec)
        if coeffs is None:
            raise StructuralError("vector does not lie in the kernel lattice")
        return self.group.reduce_element(coeffs)

    def inclusion(self) -> AbHom:
        return AbHom(self.group, self.ambient, self.lift)


def subquotient(kernel_of: AbHom, image_of: AbHom) -> Subquotient:
    """ker(kernel_of) / im(image_of) inside the presented source group.

    Requires image_of.target == kernel_of.source and kernel_of o image_of
    to be the zero map of presented groups; rejects anything else."""
    if image_of.target != kernel_of.source:
        raise StructuralError(
            "subquotient needs image_of.target equal to kernel_of.source"
        )
    if not kernel_of.compose(image_of).is_zero():
        raise StructuralError("maps do not form a complex: composite is nonzero")
    ambient = kernel_of.source
    cols = sparse_from_matrix(kernel_of.matrix)
    basis = preimage_kernel(cols, kernel_of.target.generator_count, kernel_of.target.relation_rows)
    relators: list[tuple[int, ...]] = []
    for vecs in (
        [image_of.matrix.col(j) for j in range(image_of.matrix.ncols)],
        list(ambient.relation_rows),
    ):
        for v in vecs:
            coeffs = lattice_solve(basis, v)
            if coeffs is None:  # the composite is zero, so this is a defect
                raise InternalError("image vector escapes the kernel lattice")
            relators.append(coeffs)
    group = PresentedAbelianGroup(len(basis), relators)
    lift = IntMatrix.from_cols([list(b) for b in basis], rows=ambient.generator_count)
    return Subquotient(group=group, ambient=ambient, lift=lift, basis_rows=basis)


def is_isomorphism(h: AbHom) -> bool:
    """Whether a homomorphism of presented groups is bijective: trivial
    cokernel and trivial kernel (for finitely generated abelian groups the
    two together force an isomorphism)."""
    cokernel = PresentedAbelianGroup(
        h.target.generator_count,
        list(h.target.relation_rows)
        + [h.matrix.col(j) for j in range(h.matrix.ncols)],
    )
    if not cokernel.is_trivial():
        return False
    kernel = subquotient(h, AbHom.zero(trivial_group(), h.source)).group
    return kernel.is_trivial()
