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
    as sparse rows not to be modified, whose pivots ``unit_pivots`` are the
    generators left out."""

    group: "PresentedAbelianGroup"
    kept: tuple[int, ...]
    unit_pivots: tuple[int, ...]
    unit_rows: tuple[dict[int, int], ...]

    def project(self, vec: Sequence[int]) -> tuple[int, ...]:
        """pi: coordinates on every generator to coordinates on K.  On a
        canonical coset representative, which is zero on every unit pivot,
        this is the restriction to K."""
        position = {k: t for t, k in enumerate(self.kept)}
        out = [vec[k] for k in self.kept]
        for c, row in zip(self.unit_pivots, self.unit_rows):
            x = vec[c]
            if x:
                # a unit row is zero on every other unit pivot
                for k, v in row.items():
                    if k != c:
                        out[position[k]] -= x * v
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
            for row in self.relation_lattice.sparse_rows():
                lead = min(row)
                if row[lead] == 1:
                    pivots.append(lead)
                    units.append(row)
                else:
                    rest.append(row)
            left_out = set(pivots)
            kept = tuple(k for k in range(self.generator_count) if k not in left_out)
            group = self
            if pivots:
                # a non-unit row is zero on every unit pivot
                position = {k: t for t, k in enumerate(kept)}
                group = PresentedAbelianGroup(
                    len(kept), [{position[k]: v for k, v in r.items()} for r in rest]
                )
            self._reduced = ReducedView(group, kept, tuple(pivots), tuple(units))
        return self._reduced

    def invariant_factors(self) -> tuple[int, tuple[int, ...]]:
        """(free_rank, torsion) with each torsion entry > 1 dividing the next."""
        if self._inv is None:
            # the Smith form runs on the reduced view
            red = self.reduced().group
            diag = smith_normal_form(red.relations).diagonal if len(red.relation_lattice) else ()
            rank = sum(1 for d in diag if d)
            torsion = tuple(d for d in diag if d > 1)
            self._inv = (red.generator_count - rank, torsion)
        return self._inv

    def is_trivial(self) -> bool:
        free, tors = self.invariant_factors()
        return free == 0 and not tors

    # -- element handling ------------------------------------------------

    def contains_relation(self, vec: Sequence[int]) -> bool:
        """Whether a coordinate vector is zero in the group."""
        return self.relation_lattice.contains(vec)

    def reduce_element(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical coset representative of an element."""
        return self.relation_lattice.reduce(vec)

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
        return factors_text(*self.invariant_factors())

    def __repr__(self) -> str:
        return f"PresentedAbelianGroup({self})"


def invariant_factors(g: PresentedAbelianGroup) -> tuple[int, tuple[int, ...]]:
    """Isomorphism invariants of a presented group: (free rank, torsion)."""
    return g.invariant_factors()


def factors_text(free_rank: int, torsion: Sequence[int]) -> str:
    """Invariant factors as text, "Z^r x Z/d_1 x ...", or "0"."""
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append(f"Z^{free_rank}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " x ".join(parts) if parts else "0"


def factors_json(free_rank: int, torsion: Sequence[int]) -> dict:
    """Invariant factors as reported in JSON."""
    return {"free_rank": free_rank, "torsion": list(torsion)}


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

    def __repr__(self) -> str:
        return f"AbHom({self.source} -> {self.target})"


def present_quotient(basis: Lattice, vectors: Iterable[dict[int, int]]) -> PresentedAbelianGroup:
    """The lattice of ``basis`` modulo the lattice spanned by the sparse
    ``vectors``, presented on the basis rows: each vector, solved on the
    basis, is one relator.  The caller has made sure that every vector lies
    in the lattice, so one that escapes it is an internal error.

    The relators go into the echelon last-first, as ``sparse_saturation``
    gives it its rows.  On the relators of D^0 of the relation complex,
    which all meet the first basis row and of which the first ones also
    fill the columns just right of it, that cuts the gcd steps: the
    echelon of H^1(S4, I_G) runs about four times as fast as in the given
    order.  The Hermite form depends only on the lattice, so the order
    changes the work, not the group."""
    relators = []
    for vec in vectors:
        coeffs = basis.solve(vec)
        if coeffs is None:
            raise InternalError("image vector escapes the kernel lattice")
        relators.append(coeffs)
    return PresentedAbelianGroup(len(basis), relators[::-1])


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
    # ker h: the preimage of the target's relations, modulo the source's
    kernel = preimage_kernel(
        sparse_from_matrix(h.matrix),
        h.target.generator_count,
        h.target.relation_lattice.sparse_rows(),
    )
    return present_quotient(kernel, h.source.relation_lattice.sparse_rows()).is_trivial()
