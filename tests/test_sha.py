"""Sha functors over local data, checked against brute-force enumeration."""

import gc
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shacalc.abelian import AbHom, invariant_factors
from shacalc.cohomology import (
    DEFAULT_COCHAIN_CAP,
    CohomologyGroup,
    TwoTermComplex,
    _module_complex,
    cohomology,
    hypercohomology,
)
from shacalc.arith import dual_complex
from shacalc.errors import InternalError, StructuralError
from shacalc.gmodules import (
    GModule,
    GModuleHom,
    augmentation_ideal,
    augmentation_quotient,
    permutation_cover,
    permutation_module,
    direct_sum,
    regular_module,
    sign_module,
    trivial_module,
)
from shacalc.groups import FiniteGroup, cyclic_subgroups, from_permutations
from shacalc.intlinalg import IntMatrix, unimodular_inverse
from shacalc.abelian import PresentedAbelianGroup
from shacalc.prng import SplitMix64
from shacalc.sha import (
    EMPTY_SELECTION,
    LocalDatum,
    PlaceSelection,
    _imposed_subgroups,
    _kernel,
    _Conditions,
    _Evaluation,
    _WholeGroup,
    _recheck,
    _sha_groups,
    sha,
    sha_omega,
    sha_two_term,
    verify_annihilation,
    verify_shift_isomorphism,
)

from shacalc.suites import (
    ANNIHILATION_GROUP_NAMES,
    builtin_groups,
    random_datum,
    random_equivariant_map,
    random_free_module,
    random_module,
    random_permutation_module,
    random_selection,
    run_suite,
)

from helpers import (
    all_subgroups,
    bar_route,
    catalog,
    eager_kernel,
    eager_restriction_map,
    full_restriction_map,
    group_order,
    quotient_by_empty,
    restriction,
    restriction_kernel,
    sha_inclusion,
    torsion_module,
)
from oracles import h1_and_sha_by_enumeration, rational_fixed_space_is_zero

# the module, which the package's ``sha`` function shadows as an attribute
sha_module = sys.modules["shacalc.sha"]
GROUPS = catalog()
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def plain_datum(name):
    return LocalDatum(GROUPS[name])


class TestShaBasics:
    def test_trivial_action_module_vanishes(self):
        """A homomorphism from the group to a constant module that dies on
        every cyclic subgroup dies on every element."""
        rng = SplitMix64(3)
        for name in ("Z2", "V4", "S3", "Z2xZ4", "A4"):
            datum = plain_datum(name)
            g = GROUPS[name]
            for rank in (1, 2, 4):
                m = trivial_module(g, rank)
                for selection in (PlaceSelection(), None):
                    sh = sha(datum, m, 1)
                    assert sh.value.is_trivial(), name

    def test_permutation_module_vanishes(self):
        for name in ("V4", "S3"):
            g = GROUPS[name]
            datum = plain_datum(name)
            for sub in (g.trivial_subgroup(), g.generated_subgroup([1])):
                m = permutation_module(g, sub)
                assert sha(datum, m, 1).value.is_trivial()

    def test_biquadratic_witness(self):
        g = GROUPS["V4"]
        datum = plain_datum("V4")
        ig = augmentation_ideal(g)
        h1 = cohomology(g, ig, 1)
        sh = sha_omega(datum, ig, 1)
        assert invariant_factors(h1.group_value) == (0, (4,))
        assert invariant_factors(sh.value) == (0, (2,))

    def test_cyclic_group_sha_always_vanishes(self):
        """The group itself is one of the cyclic conditions."""
        g = GROUPS["Z4"]
        datum = plain_datum("Z4")
        m = sign_module(g, [0])
        assert sha_omega(datum, m, 1).value.is_trivial()

    def test_degree_validation(self):
        g = GROUPS["Z2"]
        with pytest.raises(StructuralError):
            sha(plain_datum("Z2"), trivial_module(g, 1), 0)

    def test_unknown_excluded_place_rejected(self):
        g = GROUPS["Z2"]
        with pytest.raises(StructuralError):
            sha(plain_datum("Z2"), trivial_module(g, 1), 1, PlaceSelection.of("nope"))


class TestBruteForceOracle:
    def test_biquadratic_full_brute_force(self):
        """Independent path: no shared normal-form code.  H^1 is the fixed
        subgroup of M/4M (the fixed lattice vanishes rationally), Sha is
        cut out by integer image-membership for each cyclic restriction."""
        g = GROUPS["V4"]
        ig = augmentation_ideal(g)
        gen_actions = [[list(r) for r in a.rows] for a in ig.action]
        all_actions = [
            [list(r) for r in ig.element_matrix(e).rows] for e in range(g.order)
        ]
        assert rational_fixed_space_is_zero(gen_actions, 3)
        h1, sh = h1_and_sha_by_enumeration(4, gen_actions, all_actions, [1, 2, 3])
        assert h1 == (4,)
        assert sh == (2,)
        # and the main path agrees
        datum = plain_datum("V4")
        assert invariant_factors(cohomology(g, ig, 1).group_value) == (0, h1)
        assert invariant_factors(sha_omega(datum, ig, 1).value) == (0, sh)

    def test_oracle_on_second_module(self):
        """Same oracle on the regular-module quotient (norm-one style
        module) over V4: both paths must agree without prearranged
        values."""
        g = GROUPS["V4"]
        # dual of the augmentation ideal: another Z-free rank-3 module
        from shacalc.gmodules import dual_module

        m = dual_module(augmentation_ideal(g))
        gen_actions = [[list(r) for r in a.rows] for a in m.action]
        all_actions = [
            [list(r) for r in m.element_matrix(e).rows] for e in range(g.order)
        ]
        assert rational_fixed_space_is_zero(gen_actions, 3)
        h1, sh = h1_and_sha_by_enumeration(4, gen_actions, all_actions, [1, 2, 3])
        datum = plain_datum("V4")
        assert invariant_factors(cohomology(g, m, 1).group_value) == (0, h1)
        assert invariant_factors(sha_omega(datum, m, 1).value) == (0, sh)

    @pytest.mark.parametrize("name", ["Z2xZ4", "D4", "Q8", "Z6"])
    def test_every_cyclic_subgroup_imposed(self, name):
        """The oracle is given every element as a cyclic generator, so it
        imposes every cyclic subgroup; Sha^1_omega restricts only to the
        maximal classes up to conjugacy, and these groups have classes that
        are not maximal.  The modules are I_{G/H} for every H of index 2, 3
        or 4 and the sums of two index-2 ones: Z-free, rank <= 3, with zero
        rational fixed space."""
        g = GROUPS[name]
        datum = plain_datum(name)
        ideals = [
            coset_augmentation_ideal(g, h)
            for h in all_subgroups(g)
            if g.order // h.order in (2, 3, 4)
        ]
        signs = [m for m in ideals if m.rank == 1]
        modules = ideals + [direct_sum([a, b]) for i, a in enumerate(signs) for b in signs[i + 1:]]
        assert any(m.rank == 3 for m in modules) or name == "Z6"
        nonzero = 0
        for m in modules:
            gen_actions = [[list(r) for r in a.rows] for a in m.action]
            all_actions = [[list(r) for r in m.element_matrix(e).rows] for e in range(g.order)]
            assert rational_fixed_space_is_zero(gen_actions, m.rank)
            h1, sh = h1_and_sha_by_enumeration(g.order, gen_actions, all_actions, list(range(g.order)))
            assert invariant_factors(cohomology(g, m, 1).group_value) == (0, h1)
            assert invariant_factors(sha_omega(datum, m, 1).value) == (0, sh)
            nonzero += bool(sh)
        if name != "Z6":  # a cyclic group has Sha^1_omega = 0
            assert nonzero


def coset_augmentation_ideal(g, h):
    """I_{G/H}, the kernel of the coefficient sum on Z[G/H], on the basis
    e_i - e_0 of the cosets i >= 1."""
    pm = permutation_module(g, h)
    n = pm.rank - 1

    def image(p, i):
        out = [0] * n
        for coset, sign in ((p[i], 1), (p[0], -1)):
            if coset:
                out[coset - 1] += sign
        return out

    perms = [pm.basis_action[s] for s in g.generators]
    action = [IntMatrix.from_cols([image(p, i) for i in range(1, n + 1)], rows=n) for p in perms]
    return GModule(g, PresentedAbelianGroup(n), action)


class TestSpecialPlaces:
    def test_retaining_full_group_kills_sha(self):
        g = GROUPS["V4"]
        ig = augmentation_ideal(g)
        datum = LocalDatum(g, (("v_ram", g.full_subgroup()),))
        assert sha(datum, ig, 1).value.is_trivial()
        sh_s = sha(datum, ig, 1, PlaceSelection.of("v_ram"))
        assert invariant_factors(sh_s.value) == (0, (2,))
        q = quotient_by_empty(datum, _module_complex(ig), 1, PlaceSelection.of("v_ram"))
        assert invariant_factors(q) == (0, (2,))

    def test_cyclic_places_never_matter(self):
        """Adding (or excluding) places with cyclic decomposition groups
        does not change Sha."""
        g = GROUPS["V4"]
        ig = augmentation_ideal(g)
        cyclic_places = tuple(
            (f"v{i}", g.generated_subgroup([i])) for i in (1, 2, 3)
        )
        datum = LocalDatum(g, cyclic_places)
        base = invariant_factors(sha(datum, ig, 1).value)
        for excl in (
            PlaceSelection(),
            PlaceSelection.of("v1"),
            PlaceSelection.of("v1", "v2", "v3"),
        ):
            assert invariant_factors(sha(datum, ig, 1, excl).value) == base
            assert quotient_by_empty(datum, _module_complex(ig), 1, excl).is_trivial()

    def test_monotonicity(self):
        """Sha_S grows with S: the kernel lattice for a larger excluded
        set contains the smaller one."""
        g = GROUPS["V4"]
        ig = augmentation_ideal(g)
        datum = LocalDatum(
            g,
            (
                ("v_full", g.full_subgroup()),
                ("v_c", g.generated_subgroup([1])),
            ),
        )
        small = sha(datum, ig, 1)
        mid = sha(datum, ig, 1, PlaceSelection.of("v_c"))
        big = sha(datum, ig, 1, PlaceSelection.of("v_c", "v_full"))
        omega = sha_omega(datum, ig, 1)

        def order(x):
            return group_order(x.value)

        assert order(small) <= order(mid) <= order(big)
        assert order(big) == order(omega)
        # inclusion as subgroups: every representative of the smaller group
        # is a member of the bigger kernel lattice
        inclusion = sha_inclusion(small).matrix
        for rep_coords in range(small.value.generator_count):
            amb = inclusion.col(rep_coords)
            big.class_of(amb)  # raises if not contained

    def test_conjugacy_reduction_is_sound(self):
        """Imposing all cyclic subgroups gives the same Sha as one
        representative per conjugacy class."""
        from shacalc.groups import cyclic_subgroups

        for name in ("S3", "D4"):
            g = GROUPS[name]
            ig = augmentation_ideal(g)
            datum = LocalDatum(g)
            reduced = sha_omega(datum, ig, 1)
            # impose every cyclic subgroup via explicit special places
            places = tuple(
                (f"c{i}", sub)
                for i, sub in enumerate(cyclic_subgroups(g))
                if sub.order > 1
            )
            datum_all = LocalDatum(g, places)
            full = sha(datum_all, ig, 1)  # nothing excluded: all conditions
            assert invariant_factors(full.value) == invariant_factors(reduced.value)


class TestAnnihilation:
    def test_biquadratic(self):
        g = GROUPS["V4"]
        rep = verify_annihilation(plain_datum("V4"), augmentation_ideal(g))
        assert rep["ok"] and rep["order"] == 4 and rep["exponent"] == 2
        assert rep["sha_omega"] == "Z/2"

    def test_metacyclic_groups_vanish(self):
        for name in ("S3", "Z6", "Z8"):
            g = GROUPS[name]
            for m in (augmentation_ideal(g), regular_module(g)):
                rep = verify_annihilation(plain_datum(name), m)
                assert rep["ok"]
                assert rep["sha_omega"] == "0"

    def test_non_faithful_module_uses_quotient_exponent(self):
        v4 = GROUPS["V4"]
        m = sign_module(v4, [1])  # faithful image Z/2, metacyclic
        rep = verify_annihilation(plain_datum("V4"), m)
        assert rep["ok"] and rep["metacyclic"] and rep["order"] == 2


class TestTwoTermSha:
    def test_cone_of_identity(self):
        g = GROUPS["V4"]
        m = augmentation_ideal(g)
        c = TwoTermComplex(GModuleHom(m, m, IntMatrix.identity(m.rank)))
        assert sha_two_term(plain_datum("V4"), c, 2).value.is_trivial()

    def test_shift_matches_degree_one(self):
        """Sha^2(0 -> L) carries the same group as Sha^1(L)."""
        g = GROUPS["V4"]
        l = augmentation_ideal(g)
        z = GModule(
            g,
            PresentedAbelianGroup(0),
            [IntMatrix([], cols=0) for _ in g.generators],
            _trusted=True,
        )
        c = TwoTermComplex(GModuleHom(z, l, IntMatrix.zeros(l.rank, 0)))
        datum = plain_datum("V4")
        two = sha_two_term(datum, c, 2)
        one = sha(datum, l, 1)
        assert invariant_factors(two.value) == invariant_factors(one.value)

    def test_shift_isomorphism_biquadratic(self):
        g = GROUPS["V4"]
        ig = augmentation_ideal(g)
        res = permutation_cover(ig)
        c = TwoTermComplex(GModuleHom(res.P, ig, res.proj.matrix))
        report = verify_shift_isomorphism(plain_datum("V4"), c)
        assert report["ok"], report
        assert report["sha1_L"] == "Z/2" and report["sha2_complex"] == "Z/2"

    def test_shift_isomorphism_with_special_places(self):
        g = GROUPS["V4"]
        ig = augmentation_ideal(g)
        res = permutation_cover(ig)
        c = TwoTermComplex(GModuleHom(res.P, ig, res.proj.matrix))
        datum = LocalDatum(g, (("w", g.full_subgroup()),))
        for selection in (PlaceSelection(), PlaceSelection.of("w")):
            report = verify_shift_isomorphism(datum, c, selection)
            assert report["ok"], report

    def test_trivial_complex(self):
        g = GROUPS["Z2"]
        p = permutation_module(g, g.full_subgroup())
        z = GModule(
            g,
            PresentedAbelianGroup(0),
            [IntMatrix([], cols=0) for _ in g.generators],
            _trusted=True,
        )
        c = TwoTermComplex(GModuleHom(p, z, IntMatrix.zeros(0, 1)))
        report = verify_shift_isomorphism(plain_datum("Z2"), c)
        assert report["ok"]
        assert report["sha1_L"] == "0" and report["sha2_complex"] == "0"

    def test_requires_permutation_degree_zero(self):
        g = GROUPS["Z2"]
        s = sign_module(g, [0])
        c = TwoTermComplex(GModuleHom(s, s, IntMatrix.identity(1)))
        with pytest.raises(StructuralError):
            verify_shift_isomorphism(plain_datum("Z2"), c)


class TestSharedAmbient:
    """Groups that share one ambient group and its restrictions are the
    groups that separate ``sha``/``sha_two_term`` calls compute, down to
    the order of the stacked restrictions."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["V4", "S3", "D4", "A4"]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_random_homspace_data(self, name, seed):
        g = GROUPS[name]
        rng = SplitMix64(seed)
        # kept small: the degree-2 Sha of each datum is computed four times
        g_hat = random_permutation_module(g, rng, max_rank=3 if g.order > 6 else 4)
        h_hat = random_module(g, rng, max_rank=2)
        complex_ = TwoTermComplex(random_equivariant_map(g_hat, h_hat, rng))
        datum = random_datum(g, rng)
        selections = [
            random_selection(datum, rng),
            PlaceSelection.of(*datum.place_names),
            EMPTY_SELECTION,
        ]
        for coefficients, degree, alone in (
            (complex_, 2, lambda sel: sha_two_term(datum, complex_, 2, sel)),
            (_module_complex(h_hat), 1, lambda sel: sha(datum, h_hat, 1, sel)),
        ):
            shared = _sha_groups(datum, coefficients, degree, selections, DEFAULT_COCHAIN_CAP)
            assert len(shared) == len(selections)
            for group, selection in zip(shared, selections):
                want = alone(selection)
                assert group.value.generator_count == want.value.generator_count
                assert group.value.relation_rows == want.value.relation_rows
                assert group.representatives == want.representatives
                assert group.imposed == want.imposed
                assert sha_inclusion(group).matrix == sha_inclusion(want).matrix
                assert group._basis == want._basis
            assert_same_as_every_imposed(datum, selections, shared)

    @staticmethod
    def places(g):
        """The whole group; a cyclic subgroup that is not the representative
        of its conjugacy class, else one inside a larger cyclic subgroup,
        else any; and a non-cyclic proper subgroup where there is one."""
        reps = {sub.members for sub in cyclic_subgroups(g, up_to_conjugacy=True)}
        cyclic = [sub for sub in cyclic_subgroups(g) if sub.order > 1]
        conjugate = [sub for sub in cyclic if sub.members not in reps]
        smaller = [sub for sub in cyclic if any(sub.order < big.order and sub.conjugate_lies_in(big)
                                               for big in cyclic)]
        places = [("v", g.full_subgroup()), ("w", (conjugate or smaller or cyclic)[0])]
        others = [sub for sub in all_subgroups(g) if sub.order < g.order and not sub.is_cyclic()]
        if others:
            places.append(("u", others[0]))
        return tuple(places)

    @pytest.mark.parametrize("name", ANNIHILATION_GROUP_NAMES)
    def test_annihilation_groups(self, name):
        """Z has H^1 = 0, a zero ambient; I_G takes the saturation form,
        Z/4 the kernel form, and Z in degree 2 is Hom(G, Q/Z)."""
        g = GROUPS[name]
        datum = LocalDatum(g, self.places(g))
        selections = [PlaceSelection.of("v"), PlaceSelection.of("w"),
                      PlaceSelection.of(*datum.place_names), EMPTY_SELECTION]
        for m, degree in ((trivial_module(g, 1), 1), (augmentation_ideal(g), 1),
                          (torsion_module(g, 4), 1), (trivial_module(g, 1), 2)):
            shared = _sha_groups(datum, _module_complex(m), degree, selections, DEFAULT_COCHAIN_CAP)
            # the whole group alone (named after its cyclic class in Z6)
            assert [sub for _, sub in shared[-1]._restricted] == [g.full_subgroup()]
            assert_same_as_every_imposed(datum, selections, shared)


def restricted_subgroups(group):
    """The subgroups a Sha group restricts to."""
    return [sub for _, sub in group._restricted]


def class_or_none(group, ambient_coords):
    try:
        return group.class_of(ambient_coords)
    except StructuralError:
        return None


def assert_same_as_every_imposed(datum, selections, shared):
    """``shared`` are the groups of ``_sha_groups`` over ``selections``, the
    last one the empty set.  Each equals the kernel of one restriction per
    imposed subgroup, as built before only the maximal classes were
    restricted to.  Reading that kernel's representatives rechecks them
    against every imposed subgroup, the ones left out included; the
    cochains of ``shared`` are rechecked against them here too."""
    ambient = shared[0].ambient
    conditions = _Conditions(ambient)
    red = ambient.group_value.reduced()
    every = []
    for selection, group in zip(selections, shared):
        imposed, restricted = _imposed_subgroups(datum, selection)
        want = _kernel(ambient, imposed, imposed, conditions)
        every.append(want)
        assert group.imposed == want.imposed
        assert group._restricted == tuple(restricted)
        assert invariant_factors(group.value) == invariant_factors(want.value)
        assert group.representatives == want.representatives
        for k in range(red.group.generator_count):
            coords = [0] * red.group.generator_count
            coords[k] = 1
            assert class_or_none(group, coords) == class_or_none(want, coords)
        inclusion = sha_inclusion(group).matrix
        for j in range(group.value.generator_count):
            coords = inclusion.col(j)
            assert group.class_of(coords) == want.class_of(coords)
        names = [name for name, _ in imposed]
        _recheck(group.cochains, names, [conditions[sub] for _, sub in imposed])
    for group, want in zip(shared, every):
        assert invariant_factors(group.quotient_by(shared[-1])) == invariant_factors(
            want.quotient_by(every[-1])
        )


class TestReducedCoordinates:
    """Restrictions and Sha kernels on the reduced view of the ambient
    value against the eager oracle in ``helpers``, which works on every
    generator: the same full class maps, printed representatives, values
    and quotients."""

    @staticmethod
    def assert_matches_eager(shared):
        """``shared`` are groups over one ambient, the last one over the
        empty set."""
        eager = [eager_kernel(group.ambient, restricted_subgroups(group)) for group in shared]
        for group, want in zip(shared, eager):
            for sub in restricted_subgroups(group):
                res = restriction(group.ambient, sub)
                full = full_restriction_map(group.ambient, res)
                assert full.matrix == eager_restriction_map(group.ambient, res).matrix
            assert group.representatives == want.representatives
            assert invariant_factors(group.value) == invariant_factors(want.value)
        assert invariant_factors(shared[0].quotient_by(shared[-1])) == invariant_factors(
            eager[0].quotient_by(eager[-1])
        )

    def test_ladder_groups(self):
        """Z and I_G take the saturation form, Z/4 the kernel form.  On
        A4 and D6 the degree-2 eager kernels of I_G and Z/4 (121 and 144
        generators) take 2-4 s each, so there only Z is taken in degree 2."""
        groups = {name: GROUPS[name] for name in ("V4", "D4", "Q8", "A4")}
        groups["D6"] = from_permutations([[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]])
        for name, g in groups.items():
            datum = LocalDatum(g, (("v", g.full_subgroup()),))
            selections = [PlaceSelection.of("v"), EMPTY_SELECTION]
            degrees = (1,) if name in ("A4", "D6") else (1, 2)
            for m, ds in (
                (trivial_module(g, 1), (1, 2)),
                (augmentation_ideal(g), degrees),
                (torsion_module(g, 4), degrees),
            ):
                for degree in ds:
                    shared = _sha_groups(
                        datum, _module_complex(m), degree, selections, DEFAULT_COCHAIN_CAP
                    )
                    self.assert_matches_eager(shared)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["V4", "S3", "D4", "A4"]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_shared_ambient_data(self, name, seed):
        """The data of ``TestSharedAmbient``."""
        g = GROUPS[name]
        rng = SplitMix64(seed)
        g_hat = random_permutation_module(g, rng, max_rank=3 if g.order > 6 else 4)
        h_hat = random_module(g, rng, max_rank=2)
        complex_ = TwoTermComplex(random_equivariant_map(g_hat, h_hat, rng))
        datum = random_datum(g, rng)
        selections = [
            random_selection(datum, rng),
            PlaceSelection.of(*datum.place_names),
            EMPTY_SELECTION,
        ]
        for coefficients, degree in ((complex_, 2), (_module_complex(h_hat), 1)):
            shared = _sha_groups(datum, coefficients, degree, selections, DEFAULT_COCHAIN_CAP)
            self.assert_matches_eager(shared)


class TestGeneratorEvaluation:
    """Sha groups, whose conditions read cocycles on the checked rows of
    each restricted subgroup, against the kernels built from public
    restrictions in ``helpers``: the same value, Sha lattice, cochains,
    inclusion, printed representatives and quotients, in degrees 1 and 2."""

    @staticmethod
    def assert_same_as_restrictions(shared):
        """``shared`` are groups over one ambient, the last one over the
        empty set.  The condition at the trivial subgroup, which no datum
        restricts to, is compared too."""
        ambient = shared[0].ambient
        want = [restriction_kernel(ambient, restricted_subgroups(group)) for group in shared]
        for group, kernel in zip(shared, want):
            if ambient.group_value.reduced().kept:
                for (_, sub), cond in zip(group._restricted, group._conditions):
                    whole = sub.order == ambient.group.order
                    assert isinstance(cond, _WholeGroup if whole else _Evaluation)
            assert group.value == kernel.kernel.group
            assert group._basis == kernel.kernel.basis
            assert group.cochains == kernel.cochains
            assert sha_inclusion(group).matrix == kernel.kernel.inclusion().matrix
            if ambient.degree == 1:
                eager = eager_kernel(ambient, restricted_subgroups(group))
                assert group.representatives == eager.representatives
            else:
                # reading them rechecks them; the eager kernels of degree-2
                # ambients with hundreds of generators take seconds each.
                # The cocycles of the group hold B^i, so they span a
                # sublattice of full rank in Z^i
                assert len(group.representatives) == len(ambient.representatives)
        for group, kernel in zip(shared, want):
            assert group.quotient_by(shared[-1]) == kernel.quotient_by(want[-1])
        trivial = [("t", ambient.group.trivial_subgroup())]
        group = _kernel(ambient, trivial, trivial, shared[0]._condition_of)
        kernel = restriction_kernel(ambient, [sub for _, sub in trivial])
        assert group.value == kernel.kernel.group
        assert group._basis == kernel.kernel.basis
        assert group.cochains == kernel.cochains

    @staticmethod
    def selections(datum):
        """Each special place excluded alone, every one, and none."""
        return ([PlaceSelection.of(name) for name in datum.place_names]
                + [PlaceSelection.of(*datum.place_names), EMPTY_SELECTION])

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["V4", "S3", "D4", "Q8", "A4", "Z2xZ4", "Z6"]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_random_modules(self, name, seed):
        """Modules with up to two torsion relators, and Z-free ones, over
        the whole group, a cyclic place and a non-cyclic one, in degrees 1
        and 2."""
        g = GROUPS[name]
        rng = SplitMix64(seed)
        datum = LocalDatum(g, TestSharedAmbient.places(g))
        cases = [(random_module(g, rng, max_rank=3), 1), (random_free_module(g, rng, max_rank=3), 1)]
        cases += [(random_module(g, rng, max_rank=2), 2), (random_free_module(g, rng, max_rank=2), 2)]
        for m, degree in cases:
            shared = _sha_groups(datum, _module_complex(m), degree, self.selections(datum), DEFAULT_COCHAIN_CAP)
            self.assert_same_as_restrictions(shared)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["Z4", "V4", "S3", "D4", "Q8", "A4", "Z2xZ4"]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_degree_one_torsion_modules(self, name, seed):
        """Degree-1 modules with torsion, whose values are kept in the
        coordinates of the values at the generators: the conditions read
        the walk's linear forms, the cochains are the walked cocycles, and
        the printed representatives are those of the bar-route reference.
        ``test_ladder_groups`` has Z/4."""
        g = GROUPS[name]
        rng = SplitMix64(seed)
        datum = LocalDatum(g, TestSharedAmbient.places(g))
        m = random_module(g, rng, max_rank=3, max_torsion_relators=2)
        assume(not m.is_z_free())
        shared = _sha_groups(datum, _module_complex(m), 1, self.selections(datum), DEFAULT_COCHAIN_CAP)
        assert shared[0].ambient.lattice.width == len(g.generators) * m.rank
        self.assert_same_as_restrictions(shared)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["V4", "S3", "D4", "Q8"]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_two_term_complexes(self, name, seed):
        """HH^1 and HH^2 of P -> H with P a permutation module, where T^i
        has a C^{i-1}(B) part, over a random datum and the places above."""
        g = GROUPS[name]
        rng = SplitMix64(seed)
        g_hat = random_permutation_module(g, rng, max_rank=4)
        h_hat = random_module(g, rng, max_rank=2)
        complex_ = TwoTermComplex(random_equivariant_map(g_hat, h_hat, rng))
        for datum in (random_datum(g, rng), LocalDatum(g, TestSharedAmbient.places(g))):
            for degree in (1, 2):
                shared = _sha_groups(datum, complex_, degree, self.selections(datum), DEFAULT_COCHAIN_CAP)
                self.assert_same_as_restrictions(shared)

    def test_ladder_groups(self):
        """Z, I_G, Z/4 and J^D over the ladder groups in degrees 1 and 2,
        and P -> I_G, whose HH^2 over D4 has 406 generators, in degree 2 on
        V4 only and in degree 1 on the groups of order 4 and 8."""
        groups = {name: GROUPS[name] for name in ("V4", "D4", "Q8", "A4")}
        groups["D6"] = from_permutations([[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]])
        for g in groups.values():
            datum = LocalDatum(g, TestSharedAmbient.places(g))
            ig = augmentation_ideal(g)
            cover = permutation_cover(ig)
            z = _module_complex(trivial_module(g, 1))
            others = (
                _module_complex(ig),
                _module_complex(torsion_module(g, 4)),
                dual_complex(augmentation_quotient(g), [[1] + [0] * (g.order - 1)]),
            )
            cases = [(c, d) for c in (z,) + others for d in (1, 2)]
            if g.order <= 8:
                cover_degrees = (1, 2) if g.order == 4 else (1,)
                cases += [(TwoTermComplex(GModuleHom(cover.P, ig, cover.proj.matrix)), d) for d in cover_degrees]
            for complex_, degree in cases:
                shared = _sha_groups(datum, complex_, degree, self.selections(datum), DEFAULT_COCHAIN_CAP)
                self.assert_same_as_restrictions(shared)

    @pytest.mark.parametrize("name", ["D4", "A4"])
    def test_non_cyclic_and_trivial_places_in_degree_two(self, name):
        """Degree 2 at a special place whose decomposition group is V4, not
        cyclic, and at one whose group is trivial, on the modules Z/4 and
        J_G and on the complexes Z[G] -> J_G and Z -> Z/4: the group of
        every selection, and the group restricted to the trivial place
        alone, against ``helpers.restriction_kernel``.  The V4 place is no
        formality: on J_G the group is Z/2 where it is excluded, and 0 where
        it is imposed."""
        g = GROUPS[name]
        v4 = next(sub for sub in all_subgroups(g) if sub.order == 4 and not sub.is_cyclic())
        datum = LocalDatum(g, (("t", g.trivial_subgroup()), ("u", v4)))
        j = augmentation_quotient(g)
        cases = (
            _module_complex(torsion_module(g, 4)),
            _module_complex(j),
            TwoTermComplex(GModuleHom(regular_module(g), j, IntMatrix.identity(g.order))),
            TwoTermComplex(GModuleHom(trivial_module(g, 1), torsion_module(g, 4), IntMatrix([[2]]))),
        )
        for complex_ in cases:
            shared = _sha_groups(datum, complex_, 2, self.selections(datum), DEFAULT_COCHAIN_CAP)
            assert ("u", v4) in shared[-1]._restricted
            self.assert_same_as_restrictions(shared)
            if complex_.degree0 is j:
                # excluded: t, u, both, none
                assert [group_order(group.value) for group in shared] == [1, 2, 2, 1]

    def test_recheck_checks_every_element(self):
        """A cochain that is a coboundary at the generator of H = <r> in D4
        but not at r^2 is no coboundary on H: the recheck evaluates it on
        all of H, not only where the condition does."""
        g = GROUPS["D4"]
        m = torsion_module(g, 4)
        ambient = cohomology(g, m, 1)
        r = next(e for e in range(g.order) if g.element_order(e) == 4)
        sub = g.generated_subgroup([r])
        cond = _Conditions(ambient)[sub]
        # T^1 of H = <r>, one generator: k_H rk_A + rk_B = 1 + 0
        assert isinstance(cond, _Evaluation)
        assert sub.as_group()[0].generators == (1,) and cond.width == 1
        cochain = [0] * g.order
        cochain[g.mul(r, r)] = 1
        assert not cond.kills(cochain)
        with pytest.raises(InternalError) as err:
            _recheck([cochain], ["w"], [cond])
        assert err.value.certificate["kind"] == "sha-recheck"
        assert err.value.certificate["imposed"] == "w"
        # a coboundary and the zero cochain pass
        assert cond.kills([0] * g.order)
        for rep in ambient.representatives:
            restricted_class = restriction(ambient, sub).target.class_coords(
                [rep[e] for e in sub.as_group()[1]]
            )
            assert cond.kills(rep) == (not any(restricted_class))

    def test_degree_two_recheck_checks_every_tuple(self):
        """A 2-cochain supported on (r, r^2) in H = <r> in D4 is zero on
        every tuple that ends in r, the only ones V_H reads, but it is no
        cocycle, so the recheck, which reads every tuple of H, rejects it."""
        g = GROUPS["D4"]
        ambient = cohomology(g, torsion_module(g, 4), 2)
        r = next(e for e in range(g.order) if g.element_order(e) == 4)
        sub = g.generated_subgroup([r])
        cond = _Conditions(ambient)[sub]
        # T^2 of H = <r>, cyclic on one generator: rk_A + rk_B = 1 + 0
        assert isinstance(cond, _Evaluation)
        assert sub.as_group()[0].generators == (1,) and cond.width == 1
        cochain = [0] * g.order**2
        cochain[r * g.order + g.mul(r, r)] = 1
        assert not cond.kills(cochain)
        assert cond.kills([0] * g.order**2)
        res = restriction(ambient, sub)
        for rep in ambient.representatives:
            restricted_class = res.target.class_coords([rep[s] for s in res.cochain_selection])
            assert cond.kills(rep) == (not any(restricted_class))

    def test_whole_group_recheck(self):
        """At H = G the condition is the identity, and the recheck asks for
        the zero class."""
        g = GROUPS["V4"]
        ambient = cohomology(g, augmentation_ideal(g), 1)
        cond = _Conditions(ambient)[g.full_subgroup()]
        assert isinstance(cond, _WholeGroup)
        assert [cond.kills(rep) for rep in ambient.representatives] == [
            not any(ambient.class_coords(rep)) for rep in ambient.representatives
        ]
        assert not all(cond.kills(rep) for rep in ambient.representatives)


class TestQuotientBy:
    """``quotient_by`` takes a smaller group over an equal ambient, and
    rejects any other as bad input."""

    @staticmethod
    def datum():
        g = GROUPS["V4"]
        return LocalDatum(g, (("v_full", g.full_subgroup()), ("v_c", g.generated_subgroup([1]))))

    @staticmethod
    def conjugated(m, u):
        """The module m on the basis given by the columns of u^-1."""
        inverse = unimodular_inverse(u)
        return GModule(m.group, m.underlying, [u.mul(a).mul(inverse) for a in m.action])

    def test_other_ambient_rejected(self):
        """An ambient with another value, or with the same value on another
        cocycle lattice, is rejected."""
        datum = self.datum()
        ig = augmentation_ideal(datum.group)
        big = sha(datum, ig, 1, PlaceSelection.of("v_c", "v_full"))
        rebased = self.conjugated(ig, IntMatrix([[-1, -1, 0], [-1, 0, -1], [-1, -1, -1]]))
        sheared = self.conjugated(ig, IntMatrix([[1, 0, 0], [0, 1, -1], [0, 1, 0]]))
        for m, same_value in ((rebased, False), (sheared, True)):
            other = sha(datum, m, 1)
            assert (other.ambient.group_value == big.ambient.group_value) == same_value
            assert other.ambient.representatives != big.ambient.representatives
            with pytest.raises(StructuralError, match="different ambient"):
                big.quotient_by(other)

    def test_other_unit_rows_rejected(self):
        """H^1(Z4, Z[Z4]) on another basis of Z[Z4], two basis vectors
        swapped: the same value on the same value lattice in T^1 of the
        relation complex, but another action, so another cocycle lattice
        Z^1 in bar cochains."""
        g = GROUPS["Z4"]
        datum = LocalDatum(g)
        reg = regular_module(g)
        u = IntMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        mine, other = sha(datum, reg, 1), sha(datum, self.conjugated(reg, u), 1)
        assert other.ambient.group_value == mine.ambient.group_value
        assert other.ambient.lattice == mine.ambient.lattice
        assert other.ambient.representatives != mine.ambient.representatives
        with pytest.raises(StructuralError, match="different ambient"):
            mine.quotient_by(other)

    def test_group_not_contained_rejected(self):
        """Sha_empty = 0 lies in Sha_S = Z/2, not the other way round."""
        datum = self.datum()
        ig = augmentation_ideal(datum.group)
        small = sha(datum, ig, 1)
        big = sha(datum, ig, 1, PlaceSelection.of("v_c", "v_full"))
        assert small.value.is_trivial() and group_order(big.value) == 2
        with pytest.raises(StructuralError, match="does not lie in this one"):
            small.quotient_by(big)

    def test_separate_calls_on_equal_data(self):
        """Groups from two ``sha`` calls, each computing its own ambient,
        give the quotient that one ``_sha_groups`` call gives."""
        datum = self.datum()
        ig = augmentation_ideal(datum.group)
        selection = PlaceSelection.of("v_c", "v_full")
        big, small = sha(datum, ig, 1, selection), sha(datum, ig, 1)
        assert big.ambient is not small.ambient
        quotient = big.quotient_by(small)
        assert quotient == quotient_by_empty(datum, _module_complex(ig), 1, selection)
        assert group_order(quotient) == 2


class TestSolveCounts:
    """Class-coordinate solves, counted by a spy on
    ``CohomologyGroup.class_coords``, condition rechecks, counted by a spy
    on ``_Evaluation.kills``, and Sha preimages and homs, counted by spies
    on ``sha.preimage_kernel`` and ``AbHom.__init__``."""

    @staticmethod
    def solves(compute):
        """``compute()`` and the (group, cocycle) of each solve it made."""
        calls = []
        real = CohomologyGroup.class_coords

        def spy(self, vec):
            calls.append((self, tuple(vec)))
            return real(self, vec)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CohomologyGroup, "class_coords", spy)
            result = compute()
        return result, calls

    @classmethod
    def rechecks(cls, compute):
        """``compute()``, the (condition id, cochain) of each recheck it made,
        and the solves it made."""
        kills = []
        real = _Evaluation.kills

        def spy(self, cochain):
            kills.append((id(self), tuple(cochain)))
            return real(self, cochain)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Evaluation, "kills", spy)
            result, calls = cls.solves(compute)
        return result, kills, calls

    @staticmethod
    def biquadratic_omega():
        g = GROUPS["V4"]
        return sha_omega(plain_datum("V4"), augmentation_ideal(g), 1)

    @staticmethod
    def biquadratic_two_term():
        """Sha^2 of P -> I_G over V4, which is Z/2."""
        g = GROUPS["V4"]
        ig = augmentation_ideal(g)
        cover = permutation_cover(ig)
        complex_ = TwoTermComplex(GModuleHom(cover.P, ig, cover.proj.matrix))
        return sha_two_term(plain_datum("V4"), complex_, 2)

    def test_restriction_solves_once_per_kept_generator(self):
        """On values with generators that the reduced view leaves out:
        H^1(V4, I_G) and H^2(V4, Z/4) in the coordinates of Z^i
        (``bar_route``)."""
        g = GROUPS["V4"]
        sub = g.generated_subgroup([1])
        for m, degree in ((augmentation_ideal(g), 1), (torsion_module(g, 4), 2)):
            h = bar_route(cohomology(g, m, degree))
            kept = h.group_value.reduced().kept
            assert len(kept) < h.group_value.generator_count
            res, calls = self.solves(lambda: restriction(h, sub))
            assert len(calls) == len(kept)
            assert all(group is res.target for group, _ in calls)
            _, calls = self.solves(lambda: full_restriction_map(h, res))
            assert calls == []

    def test_recheck_covers_every_generator_cochain(self):
        """Degree 2 solves no class, neither to build the group nor to
        recheck it, and rechecks each cochain once per condition."""
        group, kills, calls = self.rechecks(self.biquadratic_two_term)
        assert group.cochains and len(group.cochains) == group.value.generator_count
        conditions = group._conditions
        assert conditions and all(isinstance(c, _Evaluation) for c in conditions)
        assert calls == []
        assert kills == [(id(c), v) for v in group.cochains for c in conditions]

    def test_printed_representatives_rechecked_once(self):
        group = self.biquadratic_two_term()
        reps, kills, calls = self.rechecks(lambda: group.representatives)
        assert len(reps) > len(group.cochains)
        assert calls == []
        assert kills == [(id(c), v) for v in reps for c in group._conditions]
        _, kills, calls = self.rechecks(lambda: group.representatives)
        assert kills == [] and calls == []

    @staticmethod
    def counted(compute):
        """``compute()`` and its count of ``sha.preimage_kernel`` calls and
        of ``AbHom`` constructions."""
        counts = {"preimage": 0, "hom": 0}
        real_preimage, real_init = sha_module.preimage_kernel, AbHom.__init__

        def preimage(*args):
            counts["preimage"] += 1
            return real_preimage(*args)

        def init(self, *args):
            counts["hom"] += 1
            real_init(self, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sha_module, "preimage_kernel", preimage)
            mp.setattr(AbHom, "__init__", init)
            result = compute()
        return result, counts

    def test_one_preimage_per_group_and_no_hom(self):
        """Sha^1_omega(V4, I_G) and the degree-2 group of P -> I_G, each
        with the group over the empty set (restricted to V4 itself) beside
        it: one preimage per group, no hom, and no preimage for
        ``quotient_by``; the inclusion, built from the basis the group
        holds, takes one hom and no preimage.  The coefficient complexes
        are built first, since an equivariant map holds a checked hom."""
        g = GROUPS["V4"]
        ig = augmentation_ideal(g)
        cover = permutation_cover(ig)
        datum = LocalDatum(g, (("v", g.full_subgroup()),))
        selections = [PlaceSelection.of("v"), EMPTY_SELECTION]
        for complex_, degree in (
            (_module_complex(ig), 1),
            (TwoTermComplex(GModuleHom(cover.P, ig, cover.proj.matrix)), 2),
        ):
            groups, counts = self.counted(
                lambda: _sha_groups(datum, complex_, degree, selections, DEFAULT_COCHAIN_CAP)
            )
            assert counts == {"preimage": len(selections), "hom": 0}
            assert [type(c) for c in groups[1]._conditions] == [_WholeGroup]
            quotient, counts = self.counted(lambda: groups[0].quotient_by(groups[1]))
            assert counts == {"preimage": 0, "hom": 0}
            assert group_order(quotient) == 2
            _, counts = self.counted(lambda: sha_inclusion(groups[0]))
            assert counts == {"preimage": 0, "hom": 1}

    def test_degree_one_solves_no_class(self):
        """Degree 1 solves no class either: the recheck runs once per
        cochain and condition, then once per printed representative."""
        group, kills, calls = self.rechecks(self.biquadratic_omega)
        assert calls == []
        conditions = group._conditions
        assert conditions and all(isinstance(c, _Evaluation) for c in conditions)
        assert group.cochains
        assert kills == [(id(c), v) for v in group.cochains for c in conditions]
        reps, kills, calls = self.rechecks(lambda: group.representatives)
        assert calls == []
        assert kills == [(id(c), v) for v in reps for c in conditions]


class TestGroupPlans:
    """The cyclic classes a group holds, and the standalone group a
    subgroup holds, live and die with those objects."""

    def test_no_group_outlives_its_request(self):
        """Twenty ``sha`` requests, each parsing its problem afresh, leave
        no more groups alive than one does, and print the same bytes."""
        from shacalc.cli import main

        argv = ["sha", str(PROBLEMS / "biquadratic_ramified.json"), "--module", "I",
                "--degree", "1", "--S", "", "--no-timing"]
        expected = (PROBLEMS / "expected" / "biquadratic-ramified-sha-empty.json").read_text()

        def live_groups():
            gc.collect()
            return sum(isinstance(obj, FiniteGroup) for obj in gc.get_objects())

        def request():
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(argv) == 0
            assert out.getvalue() == expected

        request()
        before = live_groups()
        for _ in range(20):
            request()
        assert live_groups() <= before

    def test_suite_on_reused_groups(self):
        """A suite run on groups that already hold their cyclic classes and
        standalone subgroups reports what it reports on fresh ones."""
        reused = builtin_groups()
        first = [r.to_json() for r in run_suite("s13", 5, 14, reused)]
        assert all(g._cyclic_classes is not None for g in reused.values())
        again = [r.to_json() for r in run_suite("s13", 5, 14, reused)]
        fresh = [r.to_json() for r in run_suite("s13", 5, 14, builtin_groups())]
        assert json.dumps(again) == json.dumps(first) == json.dumps(fresh)
