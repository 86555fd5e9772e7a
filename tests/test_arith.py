"""Lattice-level homogeneous-space computations."""

import pytest

from shacalc.abelian import PresentedAbelianGroup, invariant_factors
from shacalc.arith import (
    CocharacterDatum,
    HomSpaceDatum,
    VERDICT_NONZERO,
    VERDICT_VANISHES,
    brauer_obstruction_groups,
    dual_complex,
    ext0_with_data,
    fundamental_group,
    pi1_obstruction_groups,
    quasi_trivial_cover,
)
from shacalc.cohomology import TwoTermComplex, hypercohomology
from shacalc.errors import StructuralError
from shacalc.gmodules import (
    GModule,
    GModuleHom,
    augmentation_ideal,
    regular_module,
    sign_module,
    trivial_module,
    zero_module,
)
from shacalc.intlinalg import IntMatrix
from shacalc.sha import LocalDatum, PlaceSelection, sha_omega, sha_two_term

from helpers import catalog

GROUPS = catalog()


def toral_datum(x_star):
    return CocharacterDatum(X_star=x_star, coroots=IntMatrix.zeros(x_star.rank, 0))


def scaled_datum(x_star, scale):
    n = x_star.rank
    coroots = IntMatrix([[scale if i == j else 0 for j in range(n)] for i in range(n)])
    return CocharacterDatum(X_star=x_star, coroots=coroots)


class TestFundamentalGroup:
    def test_simply_connected(self):
        triv = GROUPS["Z2"]
        x = trivial_module(triv, 1)
        d = scaled_datum(x, 1)
        assert fundamental_group(d).underlying.is_trivial()

    def test_adjoint_rank_one(self):
        x = trivial_module(GROUPS["Z2"], 1)
        d = scaled_datum(x, 2)
        m = fundamental_group(d)
        assert invariant_factors(m.underlying) == (0, (2,))

    def test_torus(self):
        x = sign_module(GROUPS["Z2"], [0])
        m = fundamental_group(toral_datum(x))
        assert invariant_factors(m.underlying) == (1, ())
        assert m.element_matrix(1).rows == ((-1,),)

    def test_rejects_non_injective_coroots(self):
        x = trivial_module(GROUPS["Z2"], 1)
        with pytest.raises(StructuralError):
            CocharacterDatum(X_star=x, coroots=IntMatrix([[0]]))


class TestCorootActions:
    """Coroot lattices spanned by the columns of a matrix in X_star = Z^2
    with the swap action of Z/2: the datum accepts independent columns
    whose span the swap maps into itself, and nothing else."""

    @staticmethod
    def datum(cols, rows=2):
        g = GROUPS["Z2"]
        x = GModule(g, PresentedAbelianGroup(2), [IntMatrix([[0, 1], [1, 0]])])
        return CocharacterDatum(X_star=x, coroots=IntMatrix.from_cols(cols, rows=rows))

    def test_stable_spans_accepted(self):
        """The fundamental group X_star / span has the index of the span."""
        for cols, pi1 in [
            ([[1, 1], [1, -1]], (0, (2,))),
            ([[3, 1], [1, 3]], (0, (8,))),
            ([[0, 1], [1, 0]], (0, ())),
        ]:
            assert invariant_factors(fundamental_group(self.datum(cols)).underlying) == pi1

    @pytest.mark.parametrize("cols", [
        [[1, 0]],  # swapped to (0, 1), off the sublattice
        [[2, 0], [0, 1]],  # (1, 0) is half of a column
        [[1, 1], [2, 2]],  # dependent columns
    ])
    def test_rejected(self, cols):
        with pytest.raises(StructuralError):
            self.datum(cols)

    def test_checked_modulo_the_relations(self):
        """X_star = Z^2 / <(1, -1)> over Z2, Z-free of rank 1: the coroot
        (1, -1) is zero in X_star and the two unit columns are dependent
        there; (2, 0), twice the generator, spans a coroot lattice of
        index 2."""
        g = GROUPS["Z2"]
        x = GModule(g, PresentedAbelianGroup(2, [[1, -1]]), [IntMatrix.identity(2)])
        for cols in ([[1, -1]], [[1, 0], [0, 1]]):
            with pytest.raises(StructuralError, match="dependent"):
                CocharacterDatum(X_star=x, coroots=IntMatrix.from_cols(cols, rows=2))
        d = CocharacterDatum(X_star=x, coroots=IntMatrix.from_cols([[2, 0]], rows=2))
        assert invariant_factors(fundamental_group(d).underlying) == (0, (2,))

    def test_row_count_named(self):
        """One row per generator of X_star: three rows for a rank-2
        X_star is rejected with both numbers, before any column is read."""
        with pytest.raises(StructuralError, match=r"one row per generator of X_star \(2\), got 3"):
            self.datum([[1, 1, 0]], rows=3)


class TestDualComplex:
    def test_trivial_module(self):
        g = GROUPS["Z2"]
        md = dual_complex(trivial_module(g, 1))
        assert md.degree0.rank == 1 and md.degree1.rank == 0

    def test_sign_module(self):
        g = GROUPS["Z2"]
        md = dual_complex(sign_module(g, [0]))
        assert md.degree0.rank == 2 and md.degree1.rank == 1
        assert all(a == IntMatrix.identity(1) for a in md.degree1.action)

    def test_torsion_module(self):
        g = GROUPS["Z2"]
        m = GModule(g, PresentedAbelianGroup(1, [[2]]), [IntMatrix([[1]])])
        md = dual_complex(m)
        # cover Z -> Z/2 dualizes to multiplication by 2
        assert md.degree0.rank == 1 and md.degree1.rank == 1
        assert md.f.matrix.rows == ((2,),)

    def test_resolution_independence(self):
        g = GROUPS["V4"]
        ig = augmentation_ideal(g)
        datum = LocalDatum(g)
        md1 = dual_complex(ig)
        md2 = dual_complex(
            ig, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        )
        a = sha_two_term(datum, md1, 2)
        b = sha_two_term(datum, md2, 2)
        assert invariant_factors(a.value) == invariant_factors(b.value)
        ha = hypercohomology(g, md1, 2)
        hb = hypercohomology(g, md2, 2)
        assert invariant_factors(ha.group_value) == invariant_factors(hb.group_value)


class TestBrauer:
    def _homspace(self, g, h_hat, v):
        reg = regular_module(g)
        cols = [list(h_hat.element_matrix(s).matvec(v)) for s in range(g.order)]
        res = GModuleHom(reg, h_hat, IntMatrix.from_cols(cols, rows=h_hat.rank))
        return HomSpaceDatum(datum=LocalDatum(g), res=res)

    def test_rejects_non_permutation_g_hat(self):
        """A G_hat that is no permutation module is bad input, caught by
        the datum, not a failed route cross-check."""
        g = GROUPS["V4"]
        ig = augmentation_ideal(g)
        with pytest.raises(StructuralError, match="permutation module"):
            HomSpaceDatum(datum=LocalDatum(g), res=GModuleHom(ig, ig, IntMatrix.identity(ig.rank)))

    def test_zero_characters(self):
        g = GROUPS["V4"]
        datum = self._homspace(g, zero_module(g), [])
        groups = brauer_obstruction_groups(datum)
        assert groups.B_S.is_trivial()
        assert groups.B_S_quotient.is_trivial()
        assert groups.B_omega.is_trivial()

    def test_biquadratic_obstruction_survives(self):
        g = GROUPS["V4"]
        datum = self._homspace(g, augmentation_ideal(g), [1, 0, 0])
        groups = brauer_obstruction_groups(datum)
        assert invariant_factors(groups.B_omega) == (0, (2,))
        assert groups.cross_check["omega"]["routes_agree"]

    def test_metacyclic_vanishes(self):
        g = GROUPS["S3"]
        datum = self._homspace(g, augmentation_ideal(g), [1, 0, 0, 0, 0])
        groups = brauer_obstruction_groups(datum)
        assert groups.B_omega.is_trivial()


class TestPi1Obstructions:
    def test_section_two_example(self):
        """The rank-one twisted fundamental group over its quadratic
        splitting extension: every degree-2 obstruction group vanishes."""
        g = GROUPS["Z2"]
        m = sign_module(g, [0])
        result = pi1_obstruction_groups(m, LocalDatum(g))
        assert result.Sh2_omega.is_trivial()
        assert result.verdicts["Sh2_omega"] == VERDICT_VANISHES
        assert result.verdicts["metacyclic_splitting_group"] is True

    def test_zero_module(self):
        g = GROUPS["V4"]
        result = pi1_obstruction_groups(zero_module(g), LocalDatum(g))
        assert result.Sh2_omega.is_trivial()
        assert result.Sh2_S_quotient.is_trivial()

    def test_biquadratic_pi1_obstruction(self):
        """A fundamental group with non-metacyclic faithful image whose
        dual complex has surviving omega group: the augmentation ideal's
        dual over the Klein four-group (value pinned by the degree-1 shift
        to the dual of the cover kernel)."""
        g = GROUPS["V4"]
        ig = augmentation_ideal(g)
        result = pi1_obstruction_groups(ig, LocalDatum(g))
        md = dual_complex(ig)
        shifted = sha_omega(LocalDatum(g), md.degree1, 1)
        assert invariant_factors(result.Sh2_omega) == invariant_factors(shifted.value)
        if not result.Sh2_omega.is_trivial():
            assert result.verdicts["Sh2_omega"] == VERDICT_NONZERO

    def test_all_cyclic_quotient_vanishes(self):
        g = GROUPS["V4"]
        ig = augmentation_ideal(g)
        datum = LocalDatum(g, (("w", g.generated_subgroup([1])),))
        result = pi1_obstruction_groups(ig, datum, PlaceSelection.of("w"))
        assert result.Sh2_S_quotient.is_trivial()


class TestExt0:
    def test_finite_kernel(self):
        g = GROUPS["Z2"]
        m = GModule(g, PresentedAbelianGroup(1, [[2]]), [IntMatrix([[1]])])
        f = TwoTermComplex(GModuleHom(zero_module(g), m, IntMatrix.zeros(1, 0)))
        e = ext0_with_data(f).module
        assert invariant_factors(e.underlying) == (0, (2,))
        assert e.acts_trivially(1)

    def test_identity_isogeny(self):
        g = GROUPS["Z2"]
        m = sign_module(g, [0])
        f = TwoTermComplex(GModuleHom(m, m, IntMatrix.identity(1)))
        assert ext0_with_data(f).module.underlying.is_trivial()

    def test_norm_torus_cover(self):
        """Rank-two permutation module onto the sign module: the kernel
        character module is infinite cyclic with trivial action (the
        kernel torus is split)."""
        g = GROUPS["Z2"]
        reg = regular_module(g)
        sgn = sign_module(g, [0])
        f = GModuleHom(reg, sgn, IntMatrix([[1, -1]]))
        e = ext0_with_data(TwoTermComplex(f)).module
        assert invariant_factors(e.underlying) == (1, ())
        assert e.action_kernel() == [0, 1]

    def test_torsion_kernel_rejected(self):
        g = GROUPS["Z2"]
        m2 = GModule(g, PresentedAbelianGroup(1, [[2]]), [IntMatrix([[1]])])
        z = zero_module(g)
        f = TwoTermComplex(GModuleHom(m2, z, IntMatrix.zeros(0, 1)))
        with pytest.raises(StructuralError):
            ext0_with_data(f)

    def test_quasi_isomorphism_invariants(self):
        """The free replacement has the kernel and cokernel of the input."""
        g = GROUPS["V4"]
        reg = regular_module(g)
        ig = augmentation_ideal(g)
        v = [1, 0, 0]
        cols = [list(ig.element_matrix(s).matvec(v)) for s in range(g.order)]
        f = GModuleHom(reg, ig, IntMatrix.from_cols(cols, rows=3))
        data = ext0_with_data(TwoTermComplex(f))
        from shacalc.abelian import AbHom
        from helpers import subquotient, trivial_group, zero_hom

        phi_hom = AbHom(
            data.x_prime.underlying,
            PresentedAbelianGroup(data.cover_rank),
            data.phi,
        )
        f_hom = f.abhom
        ker_phi = subquotient(phi_hom, zero_hom(trivial_group(), phi_hom.source))
        ker_f = subquotient(f_hom, zero_hom(trivial_group(), f_hom.source))
        assert invariant_factors(ker_phi.group) == invariant_factors(ker_f.group)
        cok_phi = PresentedAbelianGroup(
            data.cover_rank, [data.phi.col(j) for j in range(data.phi.ncols)]
        )
        cok_f = PresentedAbelianGroup(
            ig.rank,
            list(ig.underlying.relation_rows)
            + [f.matrix.col(j) for j in range(f.matrix.ncols)],
        )
        assert invariant_factors(cok_phi) == invariant_factors(cok_f)


class TestCover:
    def test_adjoint_rank_one(self):
        x = trivial_module(GROUPS["Z2"], 1)
        result = quasi_trivial_cover(scaled_datum(x, 2))
        assert result.report["splitting_field_acts_trivially"]
        assert invariant_factors(result.H_char.underlying) == (1, ())

    def test_simply_connected(self):
        x = trivial_module(GROUPS["Z2"], 1)
        result = quasi_trivial_cover(scaled_datum(x, 1))
        assert result.H_char.underlying.is_trivial()
        assert result.Q_cochar.rank == 0 or result.report["splitting_field_acts_trivially"]

    def test_twisted_torus(self):
        x = sign_module(GROUPS["Z2"], [0])
        result = quasi_trivial_cover(toral_datum(x))
        assert result.Q_cochar.rank == 2
        assert result.report["splitting_field_acts_trivially"]
        assert invariant_factors(result.H_char.underlying) == (1, ())
        # the kernel torus is split: everything acts trivially
        assert result.H_char.action_kernel() == [0, 1]

    def test_non_faithful_fundamental_group(self):
        """The splitting check is non-vacuous when the fundamental group
        has an action kernel."""
        v4 = GROUPS["V4"]
        x = sign_module(v4, [1])
        result = quasi_trivial_cover(toral_datum(x))
        assert result.report["splitting_field_acts_trivially"]
        assert 1 in fundamental_group(toral_datum(x)).action_kernel()
