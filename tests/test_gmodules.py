"""G-modules: constructors, validation, duals, restriction, covers."""

import pytest

from shacalc.abelian import PresentedAbelianGroup, invariant_factors
from shacalc.arith import dual_complex
from shacalc.errors import StructuralError
from shacalc.gmodules import (
    GModule,
    GModuleHom,
    PermutationModule,
    augmentation_ideal,
    augmentation_quotient,
    direct_sum,
    dual_module,
    faithful_image,
    free_basis_presentation,
    permutation_cover,
    permutation_module,
    regular_module,
    sign_module,
    trivial_module,
    zero_module,
)
from shacalc.groups import FiniteGroup, exponent, is_metacyclic
from shacalc.intlinalg import IntMatrix
from shacalc.prng import SplitMix64
from shacalc.suites import builtin_groups, random_module

from helpers import catalog, checked_faithful_quotient, restrict, subquotient, word_product

GROUPS = catalog()


class TestConstructorsAndValidation:
    def test_sign_module_needs_consistency(self):
        z3 = GROUPS["Z3"]
        with pytest.raises(StructuralError):
            sign_module(z3, [0])  # -1 has order 2, generator has order 3

    def test_sign_module_over_z2(self):
        m = sign_module(GROUPS["Z2"], [0])
        assert m.element_matrix(1).rows == ((-1,),)

    def test_action_must_preserve_relations(self):
        z2 = GROUPS["Z2"]
        # Z/4 with the generator acting by multiplication by 2: not invertible
        with pytest.raises(StructuralError):
            GModule(z2, PresentedAbelianGroup(1, [[4]]), [IntMatrix([[2]])])

    def test_torsion_action_mod_relations(self):
        z2 = GROUPS["Z2"]
        # acting by 3 on Z/4 is an involution mod 4: 3*3 = 9 = 1
        m = GModule(z2, PresentedAbelianGroup(1, [[4]]), [IntMatrix([[3]])])
        assert m.rank == 1

    def test_random_perturbations_rejected(self):
        """Well-definedness checks are complete: knocking an action matrix
        off the relation lattice must fail construction."""
        rng = SplitMix64(17)
        z2 = GROUPS["Z2"]
        base = PresentedAbelianGroup(2, [[3, 0]])  # Z/3 + Z
        good = GModule(z2, base, [IntMatrix([[2, 0], [0, 1]])])  # -1 on Z/3
        rejected = 0
        attempts = 0
        while rejected < 15 and attempts < 300:
            attempts += 1
            rows = [list(r) for r in good.action[0].rows]
            i, j = rng.randrange(2), rng.randrange(2)
            delta = rng.choice([1, 2, -1])
            rows[i][j] += delta
            try:
                GModule(z2, base, [IntMatrix(rows)])
            except StructuralError:
                rejected += 1
        assert rejected == 15  # plenty of perturbations fail

    def test_zero_module(self):
        m = zero_module(GROUPS["S3"])
        assert m.rank == 0


def accepts(g, und, action) -> bool:
    try:
        GModule(g, und, action)
    except StructuralError:
        return False
    return True


# (group name, words that are not prefix-closed, candidate actions with
# whether they define a module)
NOT_PREFIX_CLOSED = [
    ("V4", [(), (0,), (0, 1, 0), (1, 0)], [
        (PresentedAbelianGroup(1), [[[-1]], [[1]]], True),
        (PresentedAbelianGroup(2), [[[0, 1], [1, 0]], [[-1, 0], [0, 1]]], False),
        (PresentedAbelianGroup(2), [[[0, 1], [1, 0]], [[-1, 0], [0, -1]]], True),
        (PresentedAbelianGroup(2), [[[1, 1], [0, 1]], [[1, 0], [0, 1]]], False),
        (PresentedAbelianGroup(1, [[4]]), [[[3]], [[3]]], True),
        (PresentedAbelianGroup(1, [[4]]), [[[2]], [[1]]], False),
    ]),
    ("Z4", [(), (0,) * 5, (0, 0), (0, 0, 0)], [
        (PresentedAbelianGroup(2), [[[0, -1], [1, 0]]], True),
        (PresentedAbelianGroup(2), [[[0, 1], [1, 0]]], True),
        (PresentedAbelianGroup(2), [[[1, 1], [0, 1]]], False),
        (PresentedAbelianGroup(1, [[5]]), [[[2]]], True),
        (PresentedAbelianGroup(1, [[7]]), [[[2]]], False),
    ]),
]


class TestGroupLawCheck:
    def test_noncommuting_involutions_rejected(self):
        """Each matrix is an involution, so every edge of the search tree
        agrees; only the edge b*a = ab off the tree sees that they do not
        commute."""
        v4 = GROUPS["V4"]
        swap, flip = IntMatrix([[0, 1], [1, 0]]), IntMatrix([[-1, 0], [0, 1]])
        assert swap.mul(swap) == flip.mul(flip) == IntMatrix.identity(2)
        assert swap.mul(flip) != flip.mul(swap)
        with pytest.raises(StructuralError, match="group law"):
            GModule(v4, PresentedAbelianGroup(2), [swap, flip])

    def test_noncommuting_basis_involutions_rejected(self):
        with pytest.raises(StructuralError, match="group law"):
            PermutationModule(GROUPS["V4"], 3, [(1, 0, 2), (0, 2, 1)])
        PermutationModule(GROUPS["V4"], 4, [(1, 0, 2, 3), (0, 1, 3, 2)])

    @pytest.mark.parametrize("name,words,cases", NOT_PREFIX_CLOSED, ids=["V4", "Z4"])
    def test_words_not_prefix_closed(self, name, words, cases):
        g = GROUPS[name]
        other = FiniteGroup(g.table, g.generators, words)  # the words are checked
        assert any(w[:-1] not in words for w in words if w)
        for und, action, valid in cases:
            action = [IntMatrix(a) for a in action]
            assert accepts(g, und, action) is valid
            assert accepts(other, und, action) is valid
            m = GModule(other, und, action, _trusted=True)
            for e in range(other.order):
                assert m.element_matrix(e) == word_product(m, e)

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_element_matrix_is_the_word_product(self, name):
        g = GROUPS[name]
        jd = dual_complex(augmentation_quotient(g), [[1] + [0] * (g.order - 1)])
        n = g.order
        threes = [[3 if i == j else 0 for j in range(n)] for i in range(n)]
        mod3 = GModule(g, PresentedAbelianGroup(n, threes), regular_module(g).action)
        for m in (trivial_module(g, 1), augmentation_ideal(g), jd.degree0, jd.degree1, mod3):
            # last element first, so that one call computes its prefixes
            for e in reversed(range(n)):
                assert m.element_matrix(e) == word_product(m, e)

    def test_validation_costs_one_product_per_edge(self, monkeypatch):
        """At most |G| k products: one per element off the identity, one per
        edge off the tree."""
        calls = []
        mul = IntMatrix.mul

        def spy(self, other):
            calls.append(1)
            return mul(self, other)

        for name in ("Z6", "V4", "S3", "D4", "Q8", "Z2^3", "A4"):
            g = GROUPS[name]
            for m in (regular_module(g), augmentation_ideal(g), dual_module(augmentation_ideal(g))):
                monkeypatch.setattr(IntMatrix, "mul", spy)
                calls.clear()
                GModule(g, m.underlying, m.action)
                monkeypatch.setattr(IntMatrix, "mul", mul)
                assert 0 < len(calls) <= g.order * len(g.generators)


class TestPermutationModules:
    def test_coset_module_ranks(self):
        g = GROUPS["S3"]
        assert permutation_module(g, g.full_subgroup()).rank == 1
        assert permutation_module(g, g.trivial_subgroup()).rank == 6
        reflection = g.generated_subgroup([1])  # order 2
        assert permutation_module(g, reflection).rank == 3

    def test_action_is_left_translation(self):
        g = GROUPS["D4"]
        reg = regular_module(g)
        for e in range(g.order):
            perm = reg.basis_action[e]
            for b in range(g.order):
                assert perm[b] == g.mul(e, b)

    def test_trivial_quotient_module(self):
        g = GROUPS["S3"]
        m = permutation_module(g, g.full_subgroup())
        assert all(a == IntMatrix.identity(1) for a in m.action)


class TestAugmentation:
    def test_ideal_rank(self):
        g = GROUPS["V4"]
        assert augmentation_ideal(g).rank == 3

    def test_quotient_invariants(self):
        g = GROUPS["V4"]
        q = augmentation_quotient(g)
        assert invariant_factors(q.underlying) == (3, ())

    def test_ideal_plus_norm_is_regular_rationally(self):
        g = GROUPS["S3"]
        ig = augmentation_ideal(g)
        assert invariant_factors(ig.underlying) == (5, ())


class TestDual:
    def test_dual_of_regular_is_permutation(self):
        g = GROUPS["S3"]
        d = dual_module(regular_module(g))
        assert isinstance(d, PermutationModule)
        assert d.rank == 6

    def test_dual_of_sign_is_sign(self):
        m = sign_module(GROUPS["Z2"], [0])
        d = dual_module(m)
        assert d.element_matrix(1).rows == ((-1,),)

    def test_dual_of_trivial(self):
        d = dual_module(trivial_module(GROUPS["S3"], 2))
        assert d.rank == 2
        assert all(a == IntMatrix.identity(2) for a in d.action)

    def test_torsion_rejected_with_factors_named(self):
        g = GROUPS["Z2"]
        m = GModule(g, PresentedAbelianGroup(1, [[4]]), [IntMatrix([[3]])])
        with pytest.raises(StructuralError) as exc:
            dual_module(m)
        assert "4" in str(exc.value)

    def test_double_dual_is_identity_on_free_presentations(self):
        rng = SplitMix64(23)
        for name in ("Z2", "V4", "S3"):
            g = GROUPS[name]
            for m in (regular_module(g), augmentation_ideal(g)):
                dd = dual_module(dual_module(m))
                assert invariant_factors(dd.underlying) == invariant_factors(
                    m.underlying
                )
                for e in range(g.order):
                    tr_m = sum(
                        m.element_matrix(e).at(i, i) for i in range(m.rank)
                    )
                    tr_dd = sum(
                        dd.element_matrix(e).at(i, i) for i in range(dd.rank)
                    )
                    assert tr_m == tr_dd


class TestRestrict:
    def test_restrict_regular_to_trivial(self):
        g = GROUPS["V4"]
        m = restrict(regular_module(g), g.trivial_subgroup())
        assert m.group.order == 1 and m.rank == 4

    def test_restrict_to_full_group_keeps_action(self):
        g = GROUPS["S3"]
        m = augmentation_ideal(g)
        r = restrict(m, g.full_subgroup())
        assert r.group.order == g.order
        # element-for-element the matrices agree after re-enumeration
        sub, embed = g.full_subgroup().as_group()
        for e in range(sub.order):
            assert r.element_matrix(e) == m.element_matrix(embed[e])

    def test_diagonal_of_double_sign_is_trivial(self):
        v4 = GROUPS["V4"]
        m = sign_module(v4, [0, 1])  # both generators act by -1
        diag = v4.generated_subgroup([v4.mul(v4.generators[0], v4.generators[1])])
        r = restrict(m, diag)
        assert all(a == IntMatrix.identity(1) for a in r.action)


class TestFaithfulQuotient:
    def test_trivial_module_collapses(self):
        assert faithful_image(trivial_module(GROUPS["S3"], 2)) == (1, 1)

    def test_faithful_module_unchanged(self):
        assert faithful_image(augmentation_ideal(GROUPS["S3"])) == (6, 6)

    def test_partial_kernel(self):
        v4 = GROUPS["V4"]
        m = sign_module(v4, [1])  # only the second generator acts
        assert faithful_image(m) == (2, 2)

    def test_built_as_the_checked_construction(self):
        """The order and exponent, and whether they agree (metacyclicity),
        are those of the faithful image built as a group through the
        checking constructor, on modules over every catalog group and on
        the draws of ``test_module_stream_is_pinned``."""
        mods = []
        for g in GROUPS.values():
            n = g.order
            threes = [[3 if i == j else 0 for j in range(n)] for i in range(n)]
            # 5 acts as 1 on Z/4 only modulo the relation
            fives = GModule(g, PresentedAbelianGroup(1, [[4]]), [IntMatrix([[5]])] * len(g.generators))
            assert faithful_image(fives) == (1, 1)
            mods += [trivial_module(g, 1), regular_module(g), augmentation_ideal(g), fives,
                     GModule(g, PresentedAbelianGroup(n, threes), regular_module(g).action)]
            mods += [sign_module(g, [k]) for k in range(len(g.generators))
                     if accepts(g, PresentedAbelianGroup(1), [IntMatrix([[-1 if j == k else 1]])
                                                          for j in range(len(g.generators))])]
        builtin = builtin_groups()
        for name in sorted(builtin):
            rng = SplitMix64(2010)
            mods += [random_module(builtin[name], rng) for _ in range(40)]
        for m in mods:
            order, exp = faithful_image(m)
            want = checked_faithful_quotient(m)
            assert (order, exp, order == exp) == (want.order, exponent(want), is_metacyclic(want))


class TestPermutationCover:
    def test_trivial_module(self):
        g = GROUPS["Z2"]
        res = permutation_cover(trivial_module(g, 1))
        assert res.P.rank == 1 and res.L.rank == 0

    def test_sign_module(self):
        g = GROUPS["Z2"]
        res = permutation_cover(sign_module(g, [0]))
        assert res.P.rank == 2
        assert res.L.rank == 1
        assert all(a == IntMatrix.identity(1) for a in res.L.action)
        assert res.proj.matrix.rows == ((1, -1),)

    def test_torsion_module(self):
        g = GROUPS["Z2"]
        m = GModule(g, PresentedAbelianGroup(1, [[2]]), [IntMatrix([[1]])])
        res = permutation_cover(m)
        assert res.P.rank == 1
        assert res.L.rank == 1
        assert res.incl.matrix.rows == ((2,),)

    def test_exactness_invariants(self):
        rng = SplitMix64(31)
        for name in ("Z2", "V4", "S3", "Z4"):
            g = GROUPS[name]
            mods = [
                augmentation_ideal(g),
                augmentation_quotient(g),
                sign_module(g, [0]) if name in ("Z2", "V4") else trivial_module(g, 2),
            ]
            for m in mods:
                res = permutation_cover(m)
                # composite P <- L -> M vanishes
                comp = res.proj.matrix.mul(res.incl.matrix)
                for j in range(comp.ncols):
                    assert m.underlying.contains_relation(comp.col(j))
                # L is Z-free by construction
                assert invariant_factors(res.L.underlying)[1] == ()
                # exactness at P: ker(proj)/im(incl) is trivial
                sq = subquotient(res.proj.abhom, res.incl.abhom)
                assert sq.group.is_trivial()

    def test_custom_generating_set(self):
        g = GROUPS["V4"]
        m = augmentation_ideal(g)
        doubled = [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [1, 1, 0],
        ]
        res = permutation_cover(m, doubled)
        assert res.P.rank >= permutation_cover(m).P.rank

    def test_rejects_non_generating_set(self):
        g = GROUPS["V4"]
        m = augmentation_ideal(g)
        with pytest.raises(StructuralError):
            permutation_cover(m, [[2, 0, 0]])


class TestFreeBasisPresentation:
    def test_redundant_presentation(self):
        g = GROUPS["Z2"]
        # Z presented on two generators with x0 + x1 = 0; swap action
        m = GModule(
            g,
            PresentedAbelianGroup(2, [[1, 1]]),
            [IntMatrix([[0, 1], [1, 0]])],
        )
        free_mod, proj, lift = free_basis_presentation(m)
        assert free_mod.rank == 1
        assert proj.mul(lift) == IntMatrix.identity(1)
        # the generator swap becomes -1 on the free basis
        assert free_mod.element_matrix(1).rows == ((-1,),)


class TestGModuleHom:
    def test_equivariance_enforced(self):
        g = GROUPS["Z2"]
        m = sign_module(g, [0])
        t = trivial_module(g, 1)
        with pytest.raises(StructuralError):
            GModuleHom(m, t, IntMatrix([[1]]))
        GModuleHom(m, t, IntMatrix([[0]]))

    def test_direct_sum_blocks(self):
        g = GROUPS["Z2"]
        s = direct_sum([sign_module(g, [0]), trivial_module(g, 1)])
        assert s.rank == 2
        assert s.element_matrix(1).rows == ((-1, 0), (0, 1))
