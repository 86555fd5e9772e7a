"""Presented abelian groups, homomorphisms, subquotients."""

import sys

import pytest

from shacalc.abelian import AbHom, PresentedAbelianGroup, invariant_factors, is_isomorphism
from shacalc.arith import dual_complex
from shacalc.cohomology import _module_complex, cohomology, hypercohomology
from shacalc.errors import InternalError, StructuralError
from shacalc.gmodules import augmentation_ideal, augmentation_quotient, trivial_module
from shacalc.intlinalg import IntMatrix, Lattice, hermite_rows
from shacalc.prng import SplitMix64
from shacalc.suites import random_module

from helpers import (
    LADDER_GROUPS,
    catalog,
    compose,
    cyclic_group,
    free_group,
    group_order,
    identity_hom,
    is_zero_hom,
    subquotient,
    trivial_group,
    zero_hom,
)
from oracles import box_subquotient_invariants


class TestPresentedGroup:
    def test_invariant_factors_basic(self):
        assert invariant_factors(cyclic_group(2)) == (0, (2,))
        assert invariant_factors(free_group(2)) == (2, ())
        g = PresentedAbelianGroup(2, [[2, 4], [6, 8]])
        assert invariant_factors(g) == (0, (2, 4))

    def test_zero_group_prints_0(self):
        z = PresentedAbelianGroup(0)
        assert str(z) == "0" and z.is_trivial()
        killed = PresentedAbelianGroup(2, [[1, 0], [0, 1]])
        assert str(killed) == "0" and killed.is_trivial()

    @pytest.mark.parametrize("group", [
        PresentedAbelianGroup(0),  # the zero group
        PresentedAbelianGroup(2),  # a free group
        PresentedAbelianGroup(2, [[2, 1]]),
    ])
    def test_element_of_wrong_length_rejected(self, group):
        """The relation lattice carries its width, so a vector of another
        length is rejected even when there are no relations; without
        relations, (0, 0, 0) used to count as a relation of Z^2 and (5,)
        reduced to (5,) in the zero group."""
        for vec in ([5], [0, 0, 0]):
            if len(vec) == group.generator_count:
                continue
            with pytest.raises(StructuralError):
                group.contains_relation(vec)
            with pytest.raises(StructuralError):
                group.reduce_element(vec)

    def test_str_formats(self):
        assert str(PresentedAbelianGroup(3, [[2, 0, 0]])) == "Z^2 x Z/2"
        assert str(free_group(1)) == "Z"

    def test_presentation_independence_randomized(self):
        """Unimodular generator changes and redundant relators never change
        the invariant factors."""
        rng = SplitMix64(11)
        for _ in range(40):
            n = rng.randint(1, 4)
            rel = [
                [rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 3))
            ]
            g = PresentedAbelianGroup(n, rel)
            # random unimodular change of basis: product of elementary ops
            u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.randint(-2, 2)
                    for k in range(n):
                        u[i][k] += c * u[j][k]
            changed = [list(IntMatrix(u).matvec(r)) for r in rel]
            # redundant relators: sums of existing ones
            if len(rel) >= 2:
                changed.append([a + b for a, b in zip(changed[0], changed[1])])
            g2 = PresentedAbelianGroup(n, changed)
            assert g.invariant_factors() == g2.invariant_factors()

    def test_element_reduction(self):
        g = PresentedAbelianGroup(1, [[5]])
        assert g.reduce_element((12,)) == (2,)
        assert g.contains_relation((10,))
        assert not g.contains_relation((3,))

    def test_order(self):
        assert group_order(PresentedAbelianGroup(1, [[6]])) == 6
        assert group_order(free_group(1)) is None
        assert group_order(trivial_group()) == 1


class TestReducedView:
    def test_same_as_dense_scan(self):
        """The reduced view, read off the sparse relation rows, against the
        dense one it replaced: leads found by scanning the dense rows, the
        rest read on the kept columns, and pi on every generator."""
        rng = SplitMix64(7)
        for _ in range(60):
            n = rng.randint(1, 5)
            rel = [[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(n)] for _ in range(rng.randint(0, 5))]
            g = PresentedAbelianGroup(n, rel)
            pivots, units, rest = [], [], []
            for row in g.relation_rows:
                lead = next(k for k, v in enumerate(row) if v)
                (units if row[lead] == 1 else rest).append(row)
                if row[lead] == 1:
                    pivots.append(lead)
            kept = tuple(k for k in range(n) if k not in pivots)
            red = g.reduced()
            assert red.kept == kept and red.unit_pivots == tuple(pivots)
            assert [tuple(row.get(k, 0) for k in range(n)) for row in red.unit_rows] == units
            if pivots:
                want = PresentedAbelianGroup(len(kept), [[r[k] for k in kept] for r in rest])
                assert red.group == want
            else:
                assert red.group is g
            for vec in IntMatrix.identity(n).rows + ((3,) * n,):
                out = [vec[k] for k in kept]
                for c, row in zip(pivots, units):
                    for t, k in enumerate(kept):
                        out[t] -= vec[c] * row[k]
                assert red.project(vec) == tuple(out)

    @pytest.mark.parametrize("n", [1, 49, 529])
    def test_unit_rows_cost_no_scan(self, n, monkeypatch):
        """The zero value on n unit rows: neither the reduction above the
        pivots nor the reduced view reads a dense row or looks up a pivot,
        so the invariant factors cost O(n)."""
        lookups = []

        class Row(dict):
            def get(self, *args):
                lookups.append(args)
                return super().get(*args)

        dense_reads = []
        rows = Lattice.rows
        monkeypatch.setattr(Lattice, "rows", property(lambda lat: dense_reads.append(lat) or rows.fget(lat)))
        g = PresentedAbelianGroup(n, [{k: 1} for k in range(n)])
        lat = g.relation_lattice
        lat._index = [(c, Row(row)) for c, row in lat._index]
        assert g.invariant_factors() == (0, ())
        assert lookups == [] and dense_reads == []
        assert g.reduced().kept == () and g.reduced().unit_pivots == tuple(range(n))


class TestAbHom:
    def test_well_definedness_enforced(self):
        z2 = cyclic_group(2)
        z = free_group(1)
        # Z/2 -> Z cannot send the generator to 1
        with pytest.raises(StructuralError):
            AbHom(z2, z, IntMatrix([[1]]))
        # Z -> Z/2 always fine
        AbHom(z, z2, IntMatrix([[1]]))

    def test_compose_and_zero(self):
        z = free_group(1)
        dbl = AbHom(z, z, IntMatrix([[2]]))
        four = compose(dbl, dbl)
        assert four.matrix.at(0, 0) == 4
        z2 = cyclic_group(2)
        to_z2 = AbHom(z, z2, IntMatrix([[1]]))
        assert is_zero_hom(compose(to_z2, dbl))


class TestSubquotient:
    def test_z_mod_3(self):
        z = free_group(1)
        ker_all = zero_hom(z, trivial_group())
        times3 = AbHom(z, z, IntMatrix([[3]]))
        sq = subquotient(ker_all, times3)
        assert invariant_factors(sq.group) == (0, (3,))

    def test_identity_kills_everything(self):
        z = free_group(1)
        sq = subquotient(identity_hom(z), zero_hom(trivial_group(), z))
        assert sq.group.is_trivial()

    def test_sum_kernel_mod_antidiagonal(self):
        z2 = free_group(2)
        z = free_group(1)
        ker = AbHom(z2, z, IntMatrix([[1, 1]]))
        img = AbHom(z, z2, IntMatrix([[2], [-2]]))
        sq = subquotient(ker, img)
        assert invariant_factors(sq.group) == (0, (2,))

    def test_rejects_non_composable(self):
        z = free_group(1)
        z2 = free_group(2)
        with pytest.raises(StructuralError):
            subquotient(identity_hom(z), zero_hom(trivial_group(), z2))

    def test_rejects_non_complex(self):
        z = free_group(1)
        with pytest.raises(StructuralError):
            subquotient(identity_hom(z), identity_hom(z))

    def test_escaping_image_is_an_internal_error(self, monkeypatch):
        """An image vector outside the kernel lattice contradicts the
        composite-is-zero check, so it is a defect, not bad input."""
        module = sys.modules["helpers"]
        real = module.present_quotient
        # the image vectors are presented on a kernel lattice that is too small
        monkeypatch.setattr(module, "present_quotient",
                            lambda basis, vectors: real(hermite_rows([], basis.width), vectors))
        z2 = free_group(2)
        z = free_group(1)
        ker = AbHom(z2, z, IntMatrix([[1, 1]]))
        img = AbHom(z, z2, IntMatrix([[2], [-2]]))
        with pytest.raises(InternalError, match="escapes the kernel lattice"):
            subquotient(ker, img)

    def test_section_lifts_classes(self):
        z2 = free_group(2)
        z = free_group(1)
        ker = AbHom(z2, z, IntMatrix([[1, 1]]))
        img = AbHom(z, z2, IntMatrix([[2], [-2]]))
        sq = subquotient(ker, img)
        lift = sq.basis.rows[0]
        # the lift is an explicit ambient element of the kernel
        assert sum(lift) == 0
        assert sq.class_of(lift) == (1,)

    def test_zero_kernel_rejects_wrong_length(self):
        """ker(id) on Z^2 is zero, yet its basis keeps width 2: (0, 0, 0)
        used to get the class ()."""
        z2 = free_group(2)
        sq = subquotient(identity_hom(z2), zero_hom(trivial_group(), z2))
        assert sq.class_of([0, 0]) == ()
        with pytest.raises(StructuralError):
            sq.class_of([0, 0, 0])
        with pytest.raises(StructuralError):
            sq.class_of([1, 0])

    def test_agrees_with_box_enumeration_oracle(self):
        """Naive oracle on finite boxes of order <= 64: enumerate the
        quotient and compare invariant factors."""
        rng = SplitMix64(5)
        cases = 0
        while cases < 25:
            modulus = rng.choice([2, 3, 4])
            dim = rng.randint(1, 3)
            if modulus**dim > 64:
                continue
            ambient = PresentedAbelianGroup(
                dim,
                [[modulus if j == i else 0 for j in range(dim)] for i in range(dim)],
            )
            k_rows = rng.randint(1, 2)
            kmat = [
                [rng.randint(0, modulus - 1) for _ in range(dim)] for _ in range(k_rows)
            ]
            target = PresentedAbelianGroup(
                k_rows,
                [
                    [modulus if j == i else 0 for j in range(k_rows)]
                    for i in range(k_rows)
                ],
            )
            ker_hom = AbHom(ambient, target, IntMatrix(kmat, cols=dim))
            # image generators: random elements of the kernel, found by scan
            from itertools import product as iproduct

            ker_elems = [
                x
                for x in iproduct(range(modulus), repeat=dim)
                if all(
                    sum(kmat[i][j] * x[j] for j in range(dim)) % modulus == 0
                    for i in range(k_rows)
                )
            ]
            n_gens = rng.randint(0, 2)
            gens = [rng.choice(ker_elems) for _ in range(n_gens)]
            src = free_group(n_gens)
            img_hom = AbHom(
                src, ambient, IntMatrix.from_cols([list(g) for g in gens], rows=dim)
            )
            sq = subquotient(ker_hom, img_hom)
            free, torsion = sq.group.invariant_factors()
            assert free == 0
            expected = box_subquotient_invariants(modulus, dim, kmat, modulus, gens)
            assert tuple(torsion) == expected, (kmat, gens, torsion, expected)
            cases += 1


class TestIsIsomorphism:
    def test_positive(self):
        z6 = cyclic_group(6)
        assert is_isomorphism(AbHom(z6, z6, IntMatrix([[5]])))

    def test_negative(self):
        z6 = cyclic_group(6)
        assert not is_isomorphism(AbHom(z6, z6, IntMatrix([[2]])))
        assert not is_isomorphism(AbHom(z6, z6, IntMatrix([[0]])))

    @pytest.mark.parametrize("source, target, rows, bijective", [
        # a swap of Z + Z/2 onto Z/2 + Z
        (PresentedAbelianGroup(2, [[0, 2]]), PresentedAbelianGroup(2, [[2, 0]]), [[0, 1], [1, 0]], True),
        # Z --2--> Z: injective, not onto
        (free_group(1), free_group(1), [[2]], False),
        # Z -> Z/2: onto, not injective
        (free_group(1), cyclic_group(2), [[1]], False),
        # a non-diagonal unimodular map of Z/2 + Z/4: a -> a + 2b, b -> a + b
        (PresentedAbelianGroup(2, [[2, 0], [0, 4]]), PresentedAbelianGroup(2, [[2, 0], [0, 4]]),
         [[1, 1], [2, 1]], True),
        # the zero group
        (PresentedAbelianGroup(0), PresentedAbelianGroup(0), [], True),
    ], ids=["swap", "doubling", "onto-z2", "unimodular", "zero-group"])
    def test_agrees_with_subquotient(self, source, target, rows, bijective):
        """The kernel and cokernel taken as subquotients, ker h / 0 and
        target / im h, are both trivial exactly when ``is_isomorphism``
        says so."""
        h = AbHom(source, target, IntMatrix(rows, cols=source.generator_count))
        kernel = subquotient(h, zero_hom(trivial_group(), source)).group
        cokernel = subquotient(zero_hom(target, trivial_group()), h).group
        assert (kernel.is_trivial() and cokernel.is_trivial()) == bijective
        assert is_isomorphism(h) == bijective


def value_relators(h):
    """The relators of a computed value, in the order ``present_quotient``
    solves them: each boundary D^{i-1} and relation row of T^i on the
    basis of Z^i."""
    rel, d = h._complex, h.degree
    return [h.lattice.solve(v) for v in (rel.diff_cols(d - 1) if d else []) + rel.relation_cols(d)]


def shuffled(rows, seed):
    """A Fisher-Yates shuffle of ``rows`` drawn from SplitMix64(seed)."""
    rows, rng = list(rows), SplitMix64(seed)
    for k in range(len(rows) - 1, 0, -1):
        j = rng.randrange(k + 1)
        rows[k], rows[j] = rows[j], rows[k]
    return rows


class TestRelatorOrder:
    """The relation lattice of a presentation depends on its relators, not
    on their order, so ``present_quotient`` may give them to the echelon
    last-first: the given order, the reverse and a seeded shuffle give one
    Hermite form, which is the value's own."""

    def assert_order_free(self, h, seed):
        rows = value_relators(h)
        n = h.group_value.generator_count
        want = h.group_value.relation_lattice
        for order in (rows, rows[::-1], shuffled(rows, seed)):
            assert PresentedAbelianGroup(n, order).relation_lattice == want

    def test_ladder_values(self):
        for g in LADDER_GROUPS.values():
            complexes = (
                _module_complex(trivial_module(g, 1)),
                _module_complex(augmentation_ideal(g)),
                dual_complex(augmentation_quotient(g), [[1] + [0] * (g.order - 1)]),
            )
            for seed, (complex_, degree) in enumerate((c, d) for c in complexes for d in (1, 2)):
                self.assert_order_free(hypercohomology(g, complex_, degree), seed)

    def test_random_modules(self):
        rng = SplitMix64(28)
        for name in ("Z4", "V4", "S3", "D4", "Q8"):
            g = catalog()[name]
            for _ in range(4):
                m = random_module(g, rng, max_rank=3, max_torsion_relators=2)
                for degree in (0, 1, 2):
                    self.assert_order_free(cohomology(g, m, degree), rng.next_u64())
