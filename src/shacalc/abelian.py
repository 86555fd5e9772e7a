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
    Lattice,
    hermite_rows,
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
    which keeps presentations small and makes equality structural; the
    group holds them as the :class:`Lattice` ``relation_lattice``.  The
    zero group prints as "0".
    """

    __slots__ = ("generator_count", "relation_lattice", "_inv", "_reduced")

    def __init__(self, generator_count: int, relations: Iterable[Sequence[int] | dict[int, int]] = ()):
        if generator_count < 0:
            raise StructuralError("generator count must be nonnegative")
        self.generator_count = generator_count
        if isinstance(relations, IntMatrix):
            if relations.ncols != generator_count:
                raise StructuralError(
                    f"relation matrix has {relations.ncols} columns, expected {generator_count}"
                )
            relations = relations.rows
        self.relation_lattice = hermite_rows(relations, generator_count)
        self._inv: tuple[int, tuple[int, ...]] | None = None
        self._reduced: ReducedView | None = None

    # -- structure ------------------------------------------------------

    @property
    def relation_rows(self) -> tuple[tuple[int, ...], ...]:
        return self.relation_lattice.rows

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
        return self.relation_lattice.contains(vec)

    def reduce_element(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical coset representative of an element."""
        return self.relation_lattice.reduce(vec)

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


def present_quotient(basis: Lattice, vectors: Iterable[dict[int, int]]) -> PresentedAbelianGroup:
    """The lattice of ``basis`` modulo the lattice spanned by the sparse
    ``vectors``, presented on the basis rows: each vector, solved on the
    basis, is one relator.  The caller has made sure that every vector lies
    in the lattice, so one that escapes it is an internal error."""
    relators = []
    for vec in vectors:
        coeffs = basis.solve(vec)
        if coeffs is None:
            raise InternalError("image vector escapes the kernel lattice")
        relators.append(coeffs)
    return PresentedAbelianGroup(len(basis), relators)


def class_on_basis(
    value: PresentedAbelianGroup, basis: Lattice, vec: Sequence[int]
) -> tuple[int, ...]:
    """The canonical coordinates in ``value``, a quotient presented on
    ``basis`` by :func:`present_quotient`, of a vector of the lattice; a
    vector outside it raises :class:`StructuralError`."""
    coeffs = basis.solve(vec)
    if coeffs is None:
        raise StructuralError("vector does not lie in the lattice of the presentation")
    return value.reduce_element(coeffs)


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
    if not kernel_of.compose(image_of).is_zero():
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
