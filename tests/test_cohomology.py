"""Cohomology and hypercohomology against independent oracles."""

import hashlib
import math
import sys

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shacalc.abelian import AbHom, invariant_factors, is_isomorphism, present_quotient
from shacalc.arith import (
    HomSpaceDatum,
    brauer_obstruction_groups,
    dual_complex,
    pi1_obstruction_groups,
)
from shacalc.cohomology import (
    TwoTermComplex,
    _Cochains,
    _TotalComplex,
    _module_complex,
    cohomology,
    hypercohomology,
)
from shacalc.errors import ResourceError, StructuralError
from shacalc.gmodules import (
    GModule,
    GModuleHom,
    augmentation_ideal,
    augmentation_quotient,
    permutation_cover,
    permutation_module,
    regular_module,
    sign_module,
    trivial_module,
    zero_module,
)
from shacalc.groups import FiniteGroup, from_permutations
from shacalc.intlinalg import (
    IntMatrix,
    Lattice,
    hermite_rows,
    preimage_kernel,
    sparse_from_matrix,
    sparse_kernel,
)
from shacalc.abelian import PresentedAbelianGroup
from shacalc.prng import SplitMix64
from shacalc.sha import (
    EMPTY_SELECTION,
    LocalDatum,
    PlaceSelection,
    _imposed_subgroups,
    sha,
    sha_omega,
    sha_two_term,
)
from shacalc.suites import random_equivariant_map, random_module, random_subgroup

from helpers import (
    all_subgroups,
    bar_route,
    catalog,
    checked_coords,
    compose,
    congruent,
    cyclic,
    dense,
    echelon_kernel,
    full_restriction_map,
    generator_cochain,
    group_order,
    identity_hom,
    kernel_route_cocycles,
    is_cocycle,
    is_zero_hom,
    lattice_reads,
    les_segment,
    on_rows,
    quotient_by_empty,
    restrict,
    restriction,
    sparse_compose,
    subquotient,
    torsion_module,
)
from oracles import abelianization_invariants, cyclic_cohomology_invariants, exponent

GROUPS = catalog()


class TestLowDegrees:
    def test_h1_trivial_coefficients_vanishes(self):
        # no nonzero homomorphism from a finite group to Z
        for name in ("Z2", "Z4", "S3", "V4"):
            g = GROUPS[name]
            assert cohomology(g, trivial_module(g, 1), 1).group_value.is_trivial()

    def test_h1_sign(self):
        g = GROUPS["Z2"]
        h = cohomology(g, sign_module(g, [0]), 1)
        assert invariant_factors(h.group_value) == (0, (2,))

    def test_h1_sign_against_enumeration(self):
        """Brute-force 1-cocycle enumeration confirms the sign value."""
        from oracles import h1_and_sha_by_enumeration

        h1, sh = h1_and_sha_by_enumeration(2, [[[-1]]], [[[1]], [[-1]]], [1])
        assert h1 == (2,)
        assert sh == ()  # the group itself is a cyclic condition

    def test_h0_is_fixed_points(self):
        """Degree zero agrees with fixed points computed by solving
        (s - 1)x = 0 directly from the generator matrices."""
        rng = SplitMix64(41)
        for name in ("Z2", "V4", "S3", "Z4"):
            g = GROUPS[name]
            for m in (
                regular_module(g),
                augmentation_ideal(g),
                trivial_module(g, 2),
            ):
                h0 = cohomology(g, m, 0)
                cols = []
                n = m.rank
                stacked_rows = []
                for a in m.action:
                    for i in range(n):
                        row = [a.at(i, j) - (1 if i == j else 0) for j in range(n)]
                        stacked_rows.append(row)
                mat = IntMatrix(stacked_rows, cols=n) if stacked_rows else IntMatrix([], cols=n)
                basis = preimage_kernel(
                    sparse_from_matrix(mat),
                    mat.nrows,
                    [
                        r + (0,) * (mat.nrows - n) if False else r
                        for r in []
                    ],
                )
                fixed = PresentedAbelianGroup(
                    len(basis), []
                )
                # quotient by module relations expressed in the fixed basis
                relators = []
                for rel in m.underlying.relation_rows:
                    coeffs = basis.solve(rel)
                    if coeffs is not None:
                        relators.append(coeffs)
                fixed = PresentedAbelianGroup(len(basis), relators)
                assert invariant_factors(h0.group_value) == invariant_factors(fixed)

    def test_h2_cyclic_oracle(self):
        """H^2(Z/n, Z) = Z/n against the periodic-resolution oracle."""
        for n in range(2, 13):
            g = cyclic(n)
            h1 = cohomology(g, trivial_module(g, 1), 1)
            h2 = cohomology(g, trivial_module(g, 1), 2)
            assert h1.group_value.is_trivial()
            assert invariant_factors(h2.group_value) == (0, (n,))
            assert cyclic_cohomology_invariants([[1]], n, 1) == ()
            assert cyclic_cohomology_invariants([[1]], n, 2) == (n,)

    def test_cyclic_oracle_on_twisted_modules(self):
        """Periodic resolution agrees with bar cochains on free modules
        with genuine action."""
        cases = [
            (2, [[-1]]),  # sign over Z/2
            (2, [[0, 1], [1, 0]]),  # swap over Z/2
            (4, [[0, -1], [1, 0]]),  # rotation of order 4
            (3, [[0, -1], [1, -1]]),  # order-3 matrix
        ]
        for order, mat in cases:
            g = cyclic(order)
            m = GModule(
                g, PresentedAbelianGroup(len(mat)), [IntMatrix(mat)]
            )
            for degree in (1, 2):
                ours = invariant_factors(cohomology(g, m, degree).group_value)
                torsion = cyclic_cohomology_invariants(mat, order, degree)
                assert ours == (0, tuple(torsion)), (order, mat, degree)

    def test_biquadratic_h1(self):
        g = GROUPS["V4"]
        h = cohomology(g, augmentation_ideal(g), 1)
        assert invariant_factors(h.group_value) == (0, (4,))

    def test_representatives_are_cocycles_with_correct_classes(self):
        s3, v4 = GROUPS["S3"], GROUPS["V4"]
        jd, torsion = j_dual(v4), torsion_module(s3, 4)
        cases, routes = computed_by(lambda: [
            cohomology(s3, augmentation_ideal(s3), 1),
            # Z-free coefficients in degree 2, and J^D in degree 1, take the
            # saturation route, which never builds d^i; torsion coefficients
            # take the generator route in degree 1, which builds no d^1, and
            # the kernel route in degree 2, which checks only some rows of d^2
            cohomology(v4, trivial_module(v4, 1), 2),
            hypercohomology(v4, jd, 1),
            cohomology(s3, torsion, 1),
            cohomology(s3, torsion, 2),
        ])
        assert routes == ["saturation"] * 3 + ["generators", "kernel"]
        for h in cases:
            assert h.representatives
            for rep in h.representatives:
                assert is_cocycle(h, rep)
                h.class_coords(rep)
            for j in range(h.group_value.generator_count):
                cochain = generator_cochain(h, j)
                assert is_cocycle(h, cochain)
                expected = [0] * h.group_value.generator_count
                expected[j] = 1
                assert list(h.class_coords(cochain)) == list(h.group_value.reduce_element(expected))
            no_cocycle = [1] + [0] * (len(h.representatives[0]) - 1)
            assert not is_cocycle(h, no_cocycle)
            with pytest.raises(StructuralError):
                h.class_coords(no_cocycle)


    def test_wrong_length_rejected(self):
        """S3 H^1(I_G) has cochains of length 30.  A short one used to make
        ``class_coords`` raise IndexError and ``helpers.is_cocycle`` return
        False."""
        g = GROUPS["S3"]
        h = cohomology(g, augmentation_ideal(g), 1)
        assert len(h.representatives[0]) == 30
        for vec in ([1, 2], [0] * 31):
            with pytest.raises(StructuralError):
                h.class_coords(vec)
            with pytest.raises(StructuralError):
                is_cocycle(h, vec)


def j_dual(g):
    """J^D: the dual complex of the augmentation quotient, covered from e_1."""
    return dual_complex(augmentation_quotient(g), [[1] + [0] * (g.order - 1)])


def kernel_route(h, cochains=None):
    """The value and Hermite basis of the kernel route, on every row of
    d^i, on the cochains of ``h`` (or on ``cochains``), whatever route
    computed ``h``."""
    c, d = cochains or h._cochains, h.degree
    basis = preimage_kernel(c.diff_cols(d), c.dim(d + 1), c.relation_cols(d + 1))
    boundaries = (c.diff_cols(d - 1) if d else []) + c.relation_cols(d)
    return present_quotient(basis, boundaries), basis


ROUTES = {
    "sparse_saturation": "saturation",
    "_generator_values": "generators",
    "preimage_kernel": "kernel",
}


def computed_by(compute, outputs=None):
    """``compute()`` and the routes, in call order, by which the cohomology
    module computed the cocycle lattices on the way, read from spies on
    its bindings of the route functions; their results go to ``outputs``
    when a list is given.  A call made inside a route, as the generator
    route's ``preimage_kernel``, is part of that route and not counted."""
    module = sys.modules["shacalc.cohomology"]
    taken = []
    inside = []
    with pytest.MonkeyPatch.context() as mp:
        for name, route in ROUTES.items():
            real = getattr(module, name)

            def spy(*args, _real=real, _route=route):
                if inside:
                    return _real(*args)
                taken.append(_route)
                inside.append(_route)
                try:
                    out = _real(*args)
                finally:
                    inside.pop()
                if outputs is not None:
                    outputs.append(out)
                return out

            mp.setattr(module, name, spy)
        result = compute()
    return result, taken


def public_computations(compute):
    """``compute()`` and the names of the public computations,
    ``cohomology`` and ``hypercohomology``, that it called, through any
    binding of them in the package or in ``helpers``, whose reference
    restriction computes its target.  A tracer that wraps each public
    function counts one computation per such call."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for real in (cohomology, hypercohomology):

            def spy(*args, _real=real, **kwargs):
                calls.append(_real.__name__)
                return _real(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name in ("shacalc", "helpers") or name.startswith("shacalc."):
                    for attr, value in list(vars(module).items()):
                        if value is real:
                            mp.setattr(module, attr, spy)
        result = compute()
    return result, calls


def route_of(compute):
    """The one route by which ``compute()`` computed its cocycle lattice."""
    _, taken = computed_by(compute)
    assert len(taken) == 1, taken
    return taken[0]


def assert_same_as_full_kernel(h):
    """``h`` has the Hermite basis and the relators of the kernel route
    run on every row of d^i: as its own value, or, for a value in generator
    coordinates, as the value of the bar-route reference it matches."""
    value, basis = kernel_route(h)
    assert basis.rows == h.representatives
    if h._walk is not None:
        assert_matches_bar_route(h)
    assert value.relation_rows == bar_route(h).group_value.relation_rows


def assert_matches_bar_route(h):
    """A value in generator coordinates against the bar-route reference
    ``helpers.bar_route``: the same representatives and invariant factors,
    and class coordinates that make the map from the reference value,
    generator j to the class of representative j, an isomorphism, inverse
    to the map that sends each generator to the reference class of its
    cocycle."""
    ref = bar_route(h)
    assert ref.lattice.rows == kernel_route_cocycles(h._cochains).rows
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


def assert_routes_agree(compute):
    """The saturation route, with the kernel route's basis and relators,
    and a value whose order is the index [Z^i : B^i] of the saturation."""
    outputs = []
    h, taken = computed_by(compute, outputs)
    assert taken == ["saturation"], "expected the saturation route"
    ((_, index),) = outputs
    assert group_order(h.group_value) == index
    assert_same_as_full_kernel(h)


LADDER = {
    "V4": [[1, 0, 2, 3], [0, 1, 3, 2]],
    "D4": [[1, 2, 3, 0], [0, 3, 2, 1]],
    "Q8": [[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]],
    "A4": [[1, 2, 0, 3], [1, 0, 3, 2]],
    "D6": [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]],
    "S4": [[1, 2, 3, 0], [1, 0, 2, 3]],
}
LADDER_GROUPS = {name: from_permutations(perms) for name, perms in LADDER.items()}


class TestRouteEquivalence:
    """The saturation route against the kernel route: the same Hermite
    basis, so the same representatives, and the same relators."""

    # the ladder cases (G x {Z, I_G, J^D} x {1, 2}) that take under 1 s on
    # the kernel route
    CASES = (
        [(name, coef, d) for name in ("V4", "D4", "Q8") for coef in ("Z", "I_G", "J^D")
         for d in (1, 2) if not (name != "V4" and coef == "I_G" and d == 2)]
        + [(name, coef, d) for name in ("A4", "D6") for coef, d in
           (("Z", 1), ("Z", 2), ("I_G", 1), ("J^D", 1))]
        + [("S4", "Z", 1)]
    )

    @pytest.mark.parametrize("name,coef,degree", CASES)
    def test_ladder(self, name, coef, degree):
        g = LADDER_GROUPS[name]
        if coef == "J^D":
            c = j_dual(g)
            assert_routes_agree(lambda: hypercohomology(g, c, degree))
        else:
            m = trivial_module(g, 1) if coef == "Z" else augmentation_ideal(g)
            assert_routes_agree(lambda: cohomology(g, m, degree))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["Z2", "Z3", "Z4", "V4", "S3", "D4"]),
        seed=st.integers(0, 2**63 - 1),
        degree=st.sampled_from([1, 2]),
    )
    def test_random_relation_free_modules(self, name, seed, degree):
        g = GROUPS[name]
        m = random_module(g, SplitMix64(seed), max_rank=4, max_torsion_relators=0)
        assert m.is_z_free()
        assert_routes_agree(lambda: cohomology(g, m, degree))

    def test_complex_with_finite_cokernel(self):
        """HH^1(Z/2, Z --3--> Z) = coker(3 on H^0) = Z/3: the prime 3
        comes from exp HH^1(1, K) = 3, not from the group order."""
        for name in ("Z2", "S3"):
            g = GROUPS[name]
            triv = trivial_module(g, 1)
            c = TwoTermComplex(GModuleHom(triv, triv, IntMatrix([[3]])))
            h = hypercohomology(g, c, 1)
            assert invariant_factors(h.group_value) == (0, (3,))
            assert_routes_agree(lambda: hypercohomology(g, c, 1))

    def test_torsion_and_degree_zero_keep_the_kernel_route(self):
        """Degree 0 and torsion in degree 2 keep the kernel route; a module
        with torsion takes the generator route in degree 1."""
        g = GROUPS["Z2"]
        torsion = GModule(g, PresentedAbelianGroup(1, [[4]]), [IntMatrix([[3]])])
        aug = augmentation_ideal(g)
        assert route_of(lambda: cohomology(g, torsion, 1)) == "generators"
        assert route_of(lambda: cohomology(g, torsion, 2)) == "kernel"
        assert route_of(lambda: cohomology(g, aug, 0)) == "kernel"
        # coker(Z[g] -> Z, x -> 0) = Z is infinite: HH^1 keeps the kernel route
        reg, triv = regular_module(g), trivial_module(g, 1)
        c = TwoTermComplex(GModuleHom(reg, triv, IntMatrix.zeros(1, 2)))
        assert route_of(lambda: hypercohomology(g, c, 1)) == "kernel"
        assert route_of(lambda: hypercohomology(g, c, 2)) == "saturation"


class TestZeroValue:
    def test_zero_value_solves_nothing_and_reduces_on_read(self):
        """H^2(D4, I_G) = 0 comes from the saturation index alone: no
        boundary is solved, and Z^2 is not reduced above its pivots until
        its rows are read, which reduces it once, to the same rows as
        before.  The value's own relation rows are unit rows, with nothing
        above a pivot to reduce."""
        g = LADDER_GROUPS["D4"]
        m = augmentation_ideal(g)
        with lattice_reads() as (reduced, solved):
            h = cohomology(g, m, 2)
            assert h.group_value.invariant_factors() == (0, ())
            assert solved == []
            assert all(len(row) == 1 for lat in reduced for row in lat.sparse_rows())
            assert not any(lat is h.lattice for lat in reduced)
            before = len(reduced)
            reps = h.representatives
            assert len(reduced) == before + 1 and reduced[-1] is h.lattice
            h.representatives
            assert len(reduced) == before + 1 and solved == []
        assert len(reps) == h.group_value.generator_count == 49
        assert hashlib.sha256(repr(reps).encode()).hexdigest() == (
            "0fd6ace5d18b13a6c4ab8b617010439311c188d8c3224befb16526845aa69c6a"
        )


class TestClosedForms:
    """Values read off the multiplication table alone."""

    def test_h2_augmentation_ideal_vanishes(self):
        """H^2(G, I_G) = H^1(G, Z) = 0, on the saturation route."""
        for name in ("A4", "D6", "S4"):
            g = LADDER_GROUPS[name]
            h, routes = computed_by(lambda: cohomology(g, augmentation_ideal(g), 2))
            assert routes == ["saturation"], name
            assert h.group_value.is_trivial(), name

    def test_h2_trivial_is_abelianization(self):
        """H^2(G, Z) = Hom(G^ab, Q/Z), which is isomorphic to G^ab."""
        for name, g in list(LADDER_GROUPS.items()) + [("Z2xZ4", GROUPS["Z2xZ4"])]:
            want = abelianization_invariants([list(r) for r in g.table])
            assert invariant_factors(cohomology(g, trivial_module(g, 1), 2).group_value) == (0, want), name

    # the Schur multipliers M(G) = H_2(G, Z), as invariant factors
    SCHUR = {"V4": (2,), "D4": (2,), "Q8": (), "A4": (2,), "D6": (2,), "S3": (), "S4": (2,)}

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("name", list(SCHUR))
    def test_h2_cyclic_coefficients(self, name, n):
        """H^2(G, Z/n) = Hom(M(G), Z/n) + Ext(G^ab, Z/n) by the universal
        coefficient theorem; each cyclic factor Z/m of either gives
        Z/gcd(m, n).  Z/n has torsion, so this is the kernel route."""
        g = LADDER_GROUPS.get(name) or GROUPS[name]
        ab = abelianization_invariants([list(r) for r in g.table])
        orders = [math.gcd(m, n) for m in self.SCHUR[name] + ab]
        want = tuple(sorted(d for d in orders if d > 1))
        h, routes = computed_by(lambda: cohomology(g, torsion_module(g, n), 2))
        assert routes == ["kernel"]
        assert invariant_factors(h.group_value) == (0, want), name

    def test_h1_augmentation_ideal_is_cyclic_of_order(self):
        """H^1(G, I_G) = H^0(G, Z)/N = Z/|G|, past order 24 too, at the
        default cap: S4 x Z2 and A5, whose C^2 ranks 108 288 and 212 400
        are over it, though the saturation route never builds C^2."""
        groups = [(name, LADDER_GROUPS[name]) for name in ("A4", "D6", "S4")] + [
            ("S4xZ2", from_permutations([[1, 2, 3, 0, 4, 5], [1, 0, 2, 3, 4, 5], [0, 1, 2, 3, 5, 4]])),
            ("A5", from_permutations([[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]])),
        ]
        for name, g in groups:
            h, routes = computed_by(lambda: cohomology(g, augmentation_ideal(g), 1))
            assert routes == ["saturation"], name
            assert invariant_factors(h.group_value) == (0, (g.order,)), name

    def test_sha_omega_augmentation_ideal(self):
        """Sha^1_omega(G, I_G) = Z/(|G|/exp G), the sharp case of the
        annihilation statement."""
        for name in ("V4", "D4", "Q8", "A4", "D6", "S4"):
            g = LADDER_GROUPS[name]
            quotient = g.order // exponent([list(r) for r in g.table])
            sh = sha_omega(LocalDatum(g), augmentation_ideal(g), 1)
            assert invariant_factors(sh.value) == (0, (quotient,) if quotient > 1 else ()), name

    # groups whose |G|/exp G is not 2, and what Sha^1_omega(G, I_G) is there
    BEYOND_Z2 = {
        "Z2^3": ([[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]], 4),
        "Z3xZ3": ([[1, 2, 0, 3, 4, 5], [0, 1, 2, 4, 5, 3]], 3),
        "Z2xZ2xZ4": ([[1, 0, 2, 3, 4, 5, 6, 7], [0, 1, 3, 2, 4, 5, 6, 7],
                      [0, 1, 2, 3, 5, 6, 7, 4]], 4),
        "Q8xZ2": ([[1, 2, 3, 0, 5, 6, 7, 4, 8, 9], [4, 7, 6, 5, 2, 1, 0, 3, 8, 9],
                   [0, 1, 2, 3, 4, 5, 6, 7, 9, 8]], 4),
    }

    @pytest.mark.parametrize("name", sorted(BEYOND_Z2))
    def test_sha_omega_augmentation_ideal_beyond_z2(self, name):
        """The same closed form where it is not Z/2."""
        perms, want = self.BEYOND_Z2[name]
        g = from_permutations(perms)
        assert g.order // exponent([list(r) for r in g.table]) == want
        sh = sha_omega(LocalDatum(g), augmentation_ideal(g), 1)
        assert invariant_factors(sh.value) == (0, (want,))

    def test_regular_module_is_acyclic(self):
        """H^i(G, Z[G]) = 0 for i >= 1 (Shapiro's lemma for the trivial
        subgroup)."""
        for name in ("D4", "Q8", "A4", "D6"):
            g = LADDER_GROUPS[name]
            for i in (1, 2):
                assert cohomology(g, regular_module(g), i).group_value.is_trivial(), (name, i)


class TestKernelInputs:
    """The unit-eliminating ``sparse_kernel`` against the column-order
    echelon on the real [d^i | relations] inputs that the kernel route
    builds from the total complex, and ``preimage_kernel``, which tags
    the d^i unknowns alone, against the d^i part of that echelon."""

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("name", ["V4", "D4", "Q8", "A4"])
    def test_matches_column_order_echelon(self, name, n, monkeypatch):
        g = GROUPS[name]
        module = sys.modules["shacalc.cohomology"]
        real = module.preimage_kernel
        seen = []
        monkeypatch.setattr(module, "preimage_kernel", lambda *args: seen.append(args) or real(*args))
        for degree in (0, 1, 2):
            cohomology(g, torsion_module(g, n), degree)
        assert len(seen) == 3
        for kernel_cols, nrows, lattice_rows in seen:
            columns = list(kernel_cols) + list(lattice_rows)
            out = sparse_kernel(columns, nrows)
            full = echelon_kernel(columns, nrows)
            assert out == full
            assert hermite_rows(out, len(columns)) == out
            w = len(kernel_cols)
            want = hermite_rows([r[:w] for r in full.rows], w)
            assert preimage_kernel(kernel_cols, nrows, lattice_rows) == want


class TestCheckedRows:
    """The kernel route checks the cocycle condition only on the tuples
    that end in a listed generator, and the generator route of a module in
    degree 1 builds no row of d^1.  Each must give exactly what the kernel
    route gives on every row of d^i: the same Hermite basis, so the same
    representatives, and the same relators."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["Z2", "Z4", "V4", "S3", "D4"]),
        seed=st.integers(0, 2**63 - 1),
        degree=st.sampled_from([0, 1, 2]),
    )
    def test_random_torsion_modules(self, name, seed, degree):
        g = GROUPS[name]
        # the full d^2 of D4 has 512 rows per rank: rank 1 keeps it quick
        max_rank = 1 if (name, degree) == ("D4", 2) else 3
        m = random_module(g, SplitMix64(seed), max_rank=max_rank, max_torsion_relators=2)
        assume(degree == 0 or not m.is_z_free())
        h, routes = computed_by(lambda: cohomology(g, m, degree))
        assert routes == ["generators" if degree == 1 else "kernel"]
        assert_same_as_full_kernel(h)

    def test_redundant_generators(self):
        """Extra generators (a repeat, the identity, a product) only add
        checked rows."""
        s3 = from_permutations([[1, 0, 2], [1, 2, 0], [1, 0, 2], [0, 1, 2], [0, 2, 1]])
        assert len(s3.generators) == 5 and s3.order == 6
        m = torsion_module(s3, 4)
        for degree in (0, 1, 2):
            h, routes = computed_by(lambda: cohomology(s3, m, degree))
            assert routes == ["generators" if degree == 1 else "kernel"]
            assert_same_as_full_kernel(h)

    def test_trivial_group(self):
        """No generators: the single tuple of each degree is checked."""
        g, _ = GROUPS["S3"].trivial_subgroup().as_group()
        assert g.generators == () and g.order == 1
        m = GModule(g, PresentedAbelianGroup(2, [[2, 0], [0, 6]]), [])
        c = TwoTermComplex(GModuleHom(trivial_module(g, 1), m, IntMatrix([[1], [3]])))
        for degree, want in ((0, (2, 6)), (1, ()), (2, ())):
            h = cohomology(g, m, degree)
            assert invariant_factors(h.group_value) == (0, want)
            assert_same_as_full_kernel(h)
            assert_same_as_full_kernel(hypercohomology(g, c, degree))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["Z2", "Z4", "V4", "S3", "D4"]),
        seed=st.integers(0, 2**63 - 1),
        degree=st.sampled_from([0, 1, 2]),
    )
    def test_random_torsion_complexes(self, name, seed, degree):
        """A permutation module mapped to a module with torsion, the shape
        of the complexes ``brauer`` builds."""
        g = GROUPS[name]
        rng = SplitMix64(seed)
        a = permutation_module(g, random_subgroup(g, rng))
        b = random_module(g, rng, max_rank=2 if name == "D4" else 3, max_torsion_relators=2)
        assume(not b.is_z_free())
        c = TwoTermComplex(random_equivariant_map(a, b, rng))
        h, routes = computed_by(lambda: hypercohomology(g, c, degree))
        assert routes == ["kernel"]
        assert_same_as_full_kernel(h)

    def test_a4_brauer_shape(self):
        """Z[A4/V4] (Z-free, rank 3) -> Z/6 (rank 1, one relator)."""
        a4 = LADDER_GROUPS["A4"]
        v4 = next(sub for sub in all_subgroups(a4) if len(sub.members) == 4)
        a = permutation_module(a4, v4)
        assert a.rank == 3
        c = TwoTermComplex(GModuleHom(a, torsion_module(a4, 6), IntMatrix([[2, 2, 2]])))
        for degree in (0, 1, 2):
            h, routes = computed_by(lambda: hypercohomology(a4, c, degree))
            assert routes == ["kernel"]
            assert_same_as_full_kernel(h)


def assert_generator_route(g, m):
    """H^1(g, m), for m with torsion, by the generator route alone, against
    the bar-route reference."""
    h, routes = computed_by(lambda: cohomology(g, m, 1))
    assert routes == ["generators"]
    assert_matches_bar_route(h)
    return h


class TestGeneratorRoute:
    """Z^1 of a module with torsion from the values at the generators,
    against the kernel route of ``helpers.kernel_route_cocycles``."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(GROUPS)), seed=st.integers(0, 2**63 - 1))
    def test_random_torsion_modules(self, name, seed):
        g = GROUPS[name]
        m = random_module(g, SplitMix64(seed), max_rank=3, max_torsion_relators=2)
        assume(not m.is_z_free())
        assert_generator_route(g, m)

    @pytest.mark.parametrize("name", sorted(GROUPS))
    def test_trivial_torsion(self, name):
        g = GROUPS[name]
        h = assert_generator_route(g, torsion_module(g, 4))
        # H^1(G, Z/4) = Hom(G, Z/4)
        assert group_order(h.group_value) == math.prod(
            math.gcd(n, 4) for n in abelianization_invariants(g.table)
        )

    def test_edges_computed_once_per_group(self, monkeypatch):
        """Module validation and every generator-route call read the one
        tuple of edges off the tree that the group holds."""
        read = []
        real = FiniteGroup.off_tree_edges

        def spy(self):
            edges = real(self)
            read.append((self, edges))
            return edges

        monkeypatch.setattr(FiniteGroup, "off_tree_edges", spy)
        g = from_permutations([[1, 0, 2, 3], [1, 2, 3, 0]])
        rng = SplitMix64(3)
        mods = [torsion_module(g, 4)] + [
            random_module(g, rng, max_rank=3, max_torsion_relators=2) for _ in range(6)
        ]
        validated = len(read)
        assert validated >= len(mods)
        torsion = [m for m in mods if not m.is_z_free()]
        assert len(torsion) > 1
        for m in torsion:
            for _ in range(2):
                assert computed_by(lambda: cohomology(g, m, 1))[1] == ["generators"]
        assert len(read) - validated >= 2 * len(torsion)
        assert all(group is g and edges is read[0][1] for group, edges in read)

    def test_trivial_group(self):
        """No generators, no unknowns: Z^1 is the relation rows R."""
        g, _ = GROUPS["S3"].trivial_subgroup().as_group()
        m = GModule(g, PresentedAbelianGroup(2, [[2, 4], [0, 6]]), [])
        h = assert_generator_route(g, m)
        assert h.representatives == hermite_rows([[2, 4], [0, 6]], 2).rows
        assert h.group_value.is_trivial()

    def test_redundant_generators(self):
        """A repeated generator and the identity as a generator: the edges
        they label are all off the tree, and force v_l = v_k and v_l in R."""
        s3 = from_permutations([[1, 0, 2], [1, 2, 0], [1, 0, 2], [0, 1, 2], [0, 2, 1]])
        rng = SplitMix64(11)
        for m in [torsion_module(s3, 4)] + [
            random_module(s3, rng, max_rank=3, max_torsion_relators=2) for _ in range(12)
        ]:
            if not m.is_z_free():
                assert_generator_route(s3, m)

    @pytest.mark.parametrize("name,words,n,a", [
        ("V4", [(), (0,), (0, 1, 0), (1, 0)], 4, 3),
        ("Z4", [(), (0,) * 5, (0, 0), (0, 0, 0)], 5, 2),
    ], ids=["V4", "Z4"])
    def test_words_not_prefix_closed(self, name, words, n, a):
        """Stored words whose prefixes are not all stored: the walk takes
        several letters from a stored prefix, through elements whose own
        words differ, and the edges it crosses are off the tree.  Each
        generator acts on Z/n by a."""
        g = GROUPS[name]
        other = FiniteGroup(g.table, g.generators, words)
        rng = SplitMix64(5)
        scalar = GModule(other, PresentedAbelianGroup(1, [[n]]), [IntMatrix([[a]])] * len(g.generators))
        mods = [torsion_module(other, 4), scalar]
        mods += [random_module(other, rng, max_rank=3, max_torsion_relators=2) for _ in range(12)]
        for m in mods:
            if not m.is_z_free():
                assert_generator_route(other, m)

    def test_group_law_modulo_relations(self):
        """Actions that satisfy the group law only modulo the relations:
        3^2 = 9, 5^2 = 25 and 7^2 = 49 act as 1 on Z/8, and 2^4 = 16 acts
        as 1 on Z/5."""
        cases = [
            (GROUPS["V4"], 8, [3, 5]),
            (GROUPS["D4"], 8, [3, 5]),
            (GROUPS["Z4"], 5, [2]),
            (GROUPS["S3"], 8, [7, 1]),
        ]
        mods = [
            GModule(g, PresentedAbelianGroup(1, [[n]]), [IntMatrix([[a]]) for a in scalars])
            for g, n, scalars in cases
        ]
        # the same on Z/4 + Z/8, with a generator mixing the summands
        mods.append(GModule(GROUPS["V4"], PresentedAbelianGroup(2, [[4, 0], [0, 8]]),
                            [IntMatrix([[1, 0], [4, 3]]), IntMatrix([[3, 0], [0, 5]])]))
        for m in mods:
            g = m.group
            assert any(
                m.element_matrix(e).mul(m.action[l]) != m.element_matrix(g.table[e][s])
                for e in range(g.order) for l, s in enumerate(g.generators)
            )
            assert_generator_route(g, m)

    def test_value_builds_no_lattice_wider_than_the_values(self, monkeypatch):
        """The value and its invariant factors build no lattice wider than
        k * rk, the values at the generators; the first read of the
        representatives builds Z^1 in C^1, one lattice of width |G| * rk,
        and a second read builds nothing."""
        widths = []
        real = Lattice.__init__

        def spy(self, width, index):
            widths.append(width)
            real(self, width, index)

        rng = SplitMix64(3)
        for name in ("Z2", "Z6", "V4", "S3", "D4", "Q8", "A4", "Z2^3"):
            g = GROUPS[name]
            mods = [torsion_module(g, 4)] + [
                random_module(g, rng, max_rank=3, max_torsion_relators=2) for _ in range(4)
            ]
            for m in mods:
                if m.is_z_free():
                    continue
                with monkeypatch.context() as mp:
                    mp.setattr(Lattice, "__init__", spy)
                    widths.clear()
                    h = cohomology(g, m, 1)
                    h.group_value.invariant_factors()
                    assert widths and max(widths) <= len(g.generators) * m.rank
                    assert h.lattice.width == len(g.generators) * m.rank
                    widths.clear()
                    reps = h.representatives
                    assert widths == [g.order * m.rank]
                    assert h.representatives is reps and widths == [g.order * m.rank]

    def test_one_kernel_over_the_generator_values(self, monkeypatch):
        """One ``preimage_kernel`` call, on k * rk unknowns and one block of
        rk rows per edge off the breadth-first tree."""
        module = sys.modules["shacalc.cohomology"]
        real = module.preimage_kernel
        seen = []
        monkeypatch.setattr(module, "preimage_kernel", lambda *args: seen.append(args) or real(*args))
        for name in ("Z2", "V4", "S3", "D4", "Q8", "A4"):
            g = GROUPS[name]
            words = g.element_words
            off_tree = sum(
                words[g.table[e][s]] != words[e] + (l,)
                for e in range(g.order) for l, s in enumerate(g.generators)
            )
            z4_plus_z = GModule(g, PresentedAbelianGroup(2, [[4, 0]]),
                                [IntMatrix.identity(2)] * len(g.generators))
            for mod in (torsion_module(g, 6), z4_plus_z):
                seen.clear()
                cohomology(g, mod, 1)
                assert len(seen) == 1
                columns, nrows, _ = seen[0]
                assert len(columns) == len(g.generators) * mod.rank
                assert nrows == off_tree * mod.rank


def assert_builds_the_checked_rows(t, degree):
    """The kernel-route system of the total complex ``t`` in ``degree``,
    built on the checked rows only, is the full d^degree and the full
    relation columns of T^{degree+1} cut down to those rows, entry for
    entry; so is each of its two cochain terms.  With every element as
    ``last`` the builders give the full system."""
    g = t.ca.group
    last = sorted(set(g.generators)) or [0]
    everything = list(range(g.order))
    for c, d in ((t, degree), (t.ca, degree), (t.cb, degree - 1)):
        if d < 0:
            continue
        rows = {k: r for r, k in enumerate(checked_coords(c, d + 1))}
        assert c.dim(d + 1, last) == len(rows)
        assert c.diff_cols(d, last) == on_rows(c.diff_cols(d), rows)
        assert c.relation_cols(d + 1, last) == [
            col for col in on_rows(c.relation_cols(d + 1), rows) if col
        ]
        assert c.dim(d + 1, everything) == c.dim(d + 1)
        assert c.diff_cols(d, everything) == c.diff_cols(d)
        assert c.relation_cols(d + 1, everything) == c.relation_cols(d + 1)


class TestBuiltRows:
    """One builder gives both the full d^i and the checked rows that the
    kernel route uses, and the rows it builds are the rows that cutting the
    full d^i down keeps (``helpers.checked_coords`` and ``on_rows``, the
    reference)."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["Z2", "Z4", "V4", "S3", "D4"]),
        seed=st.integers(0, 2**63 - 1),
        degree=st.sampled_from([0, 1, 2]),
    )
    def test_random_torsion_modules(self, name, seed, degree):
        g = GROUPS[name]
        max_rank = 1 if (name, degree) == ("D4", 2) else 3
        m = random_module(g, SplitMix64(seed), max_rank=max_rank, max_torsion_relators=2)
        assume(not m.is_z_free())
        assert_builds_the_checked_rows(_TotalComplex(g, TwoTermComplex(
            GModuleHom(m, zero_module(g), IntMatrix.zeros(0, m.rank)))), degree)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["Z2", "Z4", "V4", "S3", "D4"]),
        seed=st.integers(0, 2**63 - 1),
        degree=st.sampled_from([0, 1, 2]),
    )
    def test_random_torsion_complexes(self, name, seed, degree):
        g = GROUPS[name]
        rng = SplitMix64(seed)
        a = permutation_module(g, random_subgroup(g, rng))
        b = random_module(g, rng, max_rank=2 if name == "D4" else 3, max_torsion_relators=2)
        assume(not b.is_z_free())
        c = TwoTermComplex(random_equivariant_map(a, b, rng))
        assert_builds_the_checked_rows(_TotalComplex(g, c), degree)

    def test_trivial_group_and_redundant_generators(self):
        trivial, _ = GROUPS["S3"].trivial_subgroup().as_group()
        s3 = from_permutations([[1, 0, 2], [1, 2, 0], [1, 0, 2], [0, 1, 2], [0, 2, 1]])
        for g in (trivial, s3):
            m = torsion_module(g, 4)
            c = TwoTermComplex(GModuleHom(trivial_module(g, 1), m, IntMatrix([[2]])))
            for degree in (0, 1, 2):
                assert_builds_the_checked_rows(_TotalComplex(g, c), degree)

    def test_columns_off_the_generators_are_short(self):
        """A column of d^1 whose tuple does not end in S has 2|S| entries:
        the last contraction and the final term, one per generator."""
        g = GROUPS["S3"]
        last = sorted(set(g.generators))
        assert 0 not in last
        c = _Cochains(g, torsion_module(g, 4))
        cols = c.diff_cols(1, last)
        for t in range(g.order):
            if t not in last:
                assert len(cols[t]) == 2 * len(last)

    @pytest.mark.parametrize("name", ["V4", "S3", "D4"])
    def test_kernel_route_builds_no_full_differential(self, name, monkeypatch):
        """The kernel route asks for d^i on the checked rows only; the
        full d^{i-1} that spans B^i is still built.  The generator route,
        in degree 1, builds d^0 and the relation rows of C^1 on the k rows
        of the generators alone, D0 + R^k, and nothing of size |G| rk."""
        g = GROUPS[name]
        last = sorted(set(g.generators))
        everything = list(range(g.order))
        built = {"diff_cols": [], "relation_cols": []}
        for method, calls in built.items():

            def spy(self, i, last=None, _real=getattr(_Cochains, method), _calls=calls):
                if self.gm:  # the B term of M -> 0 has no rows
                    _calls.append((i, everything if last is None else list(last)))
                return _real(self, i, last)

            monkeypatch.setattr(_Cochains, method, spy)
        for degree in (0, 1, 2):
            for calls in built.values():
                calls.clear()
            _, routes = computed_by(lambda: cohomology(g, torsion_module(g, 4), degree))
            if degree == 1:
                # the generator route: its value lives in M^k
                assert routes == ["generators"]
                gens = list(g.generators)
                assert built == {"diff_cols": [(0, gens)], "relation_cols": [(1, gens)]}
                continue
            assert routes == ["kernel"]
            assert (degree, everything) not in built["diff_cols"]
            assert built["diff_cols"] == [(degree - 1, everything)] * (degree > 0) + [(degree, last)]


class TestComplexSegment:
    """Degrees 0..3 of the cochain and total complexes: d o d lands in the
    relation rows, and vanishes exactly on Z-free coefficients.  The
    kernel route's checked rows rest on this."""

    def assert_square_zero(self, cochains, exact):
        for i in (0, 1):
            composite = sparse_compose(cochains.diff_cols(i + 1), cochains.diff_cols(i))
            assert len(composite) == cochains.dim(i)
            for col in composite:
                assert not col if exact else cochains.block_contains(i + 2, dense(col, cochains.dim(i + 2)))

    def test_d_squared_zero_exactly_free(self):
        rng = SplitMix64(5)
        for name in ("V4", "S3"):
            g = GROUPS[name]
            self.assert_square_zero(_Cochains(g, augmentation_ideal(g)), exact=True)
            f = random_equivariant_map(regular_module(g), augmentation_ideal(g), rng)
            self.assert_square_zero(_TotalComplex(g, TwoTermComplex(f)), exact=True)

    def test_torsion_module_segment(self):
        g = GROUPS["Z2"]
        m = GModule(g, PresentedAbelianGroup(1, [[4]]), [IntMatrix([[3]])])
        c = _Cochains(g, m)
        self.assert_square_zero(c, exact=False)
        # d o d lands in the relations, but is not zero on the nose
        assert any(sparse_compose(c.diff_cols(1), c.diff_cols(0)))
        rng = SplitMix64(7)
        for name in ("V4", "S3"):
            g = GROUPS[name]
            f = random_equivariant_map(regular_module(g), torsion_module(g, 4), rng)
            self.assert_square_zero(_TotalComplex(g, TwoTermComplex(f)), exact=False)

    def test_degree_zero_is_module(self):
        for m in (augmentation_ideal(GROUPS["Z2"]), torsion_module(GROUPS["Z2"], 4)):
            c = _Cochains(m.group, m)
            assert c.dim(0) == m.rank
            rows = [tuple(dense(col, c.dim(0))) for col in c.relation_cols(0)]
            assert rows == list(m.underlying.relation_rows)


class TestBudget:
    def test_generator_route_capped_by_its_relator_rows(self):
        """The generator route is held to the cap by the rows it
        eliminates, rk per edge off the breadth-first tree, not by the rank
        of C^2; it reports that number."""
        g = GROUPS["S3"]
        m = torsion_module(g, 4)
        words = g.element_words
        rows = m.rank * sum(
            words[g.table[e][s]] != words[e] + (l,)
            for e in range(g.order) for l, s in enumerate(g.generators)
        )
        assert group_order(cohomology(g, m, 1, cochain_cap=rows).group_value) == 2
        with pytest.raises(ResourceError) as exc:
            cohomology(g, m, 1, cochain_cap=rows - 1)
        assert exc.value.dimension == rows

    def test_generator_route_under_default_cap(self):
        """H^1(S4 x Z2, (Z/4)^9) = Hom((Z/2)^2, Z/4)^9, whose C^2 has rank
        48^2 * 9 = 20736, over the default cap."""
        g = from_permutations([[1, 2, 3, 0, 4, 5], [1, 0, 2, 3, 4, 5], [0, 1, 2, 3, 5, 4]])
        assert g.order == 48
        m = GModule(g, PresentedAbelianGroup(9, [[4 * (i == j) for j in range(9)] for i in range(9)]),
                    [IntMatrix.identity(9)] * len(g.generators))
        assert _TotalComplex(g, _module_complex(m)).dim(2) == 20736
        assert invariant_factors(cohomology(g, m, 1).group_value) == (0, (2,) * 18)

    def test_saturation_route_capped_by_the_rank_it_saturates_in(self):
        """The saturation route is held to the cap by the rank of T^i, in
        which it saturates B^i, not by the rank of C^2: H^1(S3, I_G)
        saturates in rank 6 * 5 = 30 and reports that number, though C^2
        has rank 180."""
        g = GROUPS["S3"]
        m = augmentation_ideal(g)
        assert group_order(cohomology(g, m, 1, cochain_cap=30).group_value) == 6
        with pytest.raises(ResourceError) as exc:
            cohomology(g, m, 1, cochain_cap=29)
        assert exc.value.dimension == 30

    def test_cap_enforced(self):
        g = GROUPS["Q8"]
        with pytest.raises(ResourceError) as exc:
            cohomology(g, regular_module(g), 2, cochain_cap=100)
        assert exc.value.dimension == 8 * 8 * 8

    def test_cap_in_hyper(self):
        g = GROUPS["Q8"]
        reg = regular_module(g)
        c = TwoTermComplex(GModuleHom(reg, reg, IntMatrix.identity(8)))
        with pytest.raises(ResourceError):
            hypercohomology(g, c, 2, cochain_cap=100)


class TestShapiro:
    def test_shapiro_small(self):
        """H^i(g, Z[g/h]) has the invariant factors of H^i(h, Z)."""
        for name in ("Z2", "Z4", "V4", "Z6", "S3"):
            g = GROUPS[name]
            for h in all_subgroups(g):
                sub, _ = h.as_group()
                coset = permutation_module(g, h)
                triv = trivial_module(sub, 1)
                for i in (1, 2):
                    left = invariant_factors(cohomology(g, coset, i).group_value)
                    right = invariant_factors(cohomology(sub, triv, i).group_value)
                    assert left == right, (name, h.members, i)

    def test_shapiro_order_sixteen_degree_one(self):
        """Order-16 groups fit the budget in degree one (degree two at
        this order is exactly the budget wall the cap exists for)."""
        z16 = from_permutations([[(i + 1) % 16 for i in range(16)]])
        z2z8 = from_permutations(
            [[1, 0] + list(range(2, 10)), [0, 1] + [(i - 1) % 8 + 2 for i in range(2, 10)]]
        )
        for g in (z16, z2z8):
            for h in all_subgroups(g):
                sub, _ = h.as_group()
                left = invariant_factors(
                    cohomology(g, permutation_module(g, h), 1).group_value
                )
                right = invariant_factors(
                    cohomology(sub, trivial_module(sub, 1), 1).group_value
                )
                assert left == right, (g.order, h.members)


class TestRestriction:
    def test_restriction_to_full_group_is_identity(self):
        g = GROUPS["V4"]
        h = cohomology(g, augmentation_ideal(g), 1)
        res = restriction(h, g.full_subgroup())
        assert invariant_factors(res.target.group_value) == invariant_factors(
            h.group_value
        )
        from shacalc.abelian import is_isomorphism

        assert is_isomorphism(res.reduced_map)

    def test_restriction_to_trivial_subgroup_is_zero(self):
        g = GROUPS["V4"]
        h = cohomology(g, augmentation_ideal(g), 1)
        res = restriction(h, g.trivial_subgroup())
        assert is_zero_hom(res.reduced_map)

    def test_biquadratic_restrictions_land_in_z2(self):
        g = GROUPS["V4"]
        h = cohomology(g, augmentation_ideal(g), 1)
        for e in (1, 2, 3):
            sub = g.generated_subgroup([e])
            res = restriction(h, sub)
            assert invariant_factors(res.target.group_value) == (0, (2,))

    def test_degree_zero(self):
        """In degree 0 restriction is the inclusion of fixed points M^G in
        M^H, for a module and for a complex A -> B, whose T^0 = C^0(A) has
        no B part.  With Z-free A and no image in degree 0, each class is
        its one cocycle, so every representative must come back unchanged."""
        g = GROUPS["V4"]
        sub = g.generated_subgroup([1])
        reg, z = regular_module(g), trivial_module(g, 1)
        to_zero = TwoTermComplex(GModuleHom(z, zero_module(g), IntMatrix.zeros(0, 1)))
        zero_map = TwoTermComplex(GModuleHom(reg, z, IntMatrix.zeros(1, g.order)))
        cases = [
            (cohomology(g, reg, 0), (2, ())),
            (hypercohomology(g, to_zero, 0), (1, ())),
            (hypercohomology(g, zero_map, 0), (2, ())),
        ]
        for h, target_value in cases:
            res = restriction(h, sub)
            assert invariant_factors(res.target.group_value) == target_value
            assert res.cochain_selection == tuple(range(len(h.representatives[0])))
            for j, rep in enumerate(h.representatives):
                coords = full_restriction_map(h, res).matrix.col(j)
                back = [
                    sum(c * r[k] for c, r in zip(coords, res.target.representatives))
                    for k in range(len(rep))
                ]
                assert back == list(rep)


class TestModuleAsComplex:
    def test_same_as_the_module_cochains(self):
        """H^i(G, M), computed as HH^i(G, M -> 0), has the representatives
        and relators of the kernel route run on the cochains C^i(M) of the
        module alone, with every row of d^i; a value in generator
        coordinates has them through the bar-route reference it matches."""
        for name, degrees in (("Z2", (0, 1, 2)), ("V4", (0, 1, 2)), ("S3", (0, 1, 2)),
                              ("D4", (0, 1)), ("Q8", (0, 1))):
            g = GROUPS[name]
            for m in (trivial_module(g, 1), augmentation_ideal(g), torsion_module(g, 4)):
                c = _Cochains(g, m)
                for d in degrees:
                    h = cohomology(g, m, d)
                    value, basis = kernel_route(h, c)
                    assert basis.rows == h.representatives, (name, m, d)
                    if h._walk is not None:
                        assert_matches_bar_route(h)
                    assert value.relation_rows == bar_route(h).group_value.relation_rows


class TestPublicComputations:
    """Each public entry point enters exactly one public computation per
    group it computes, so counting calls by public name counts each
    computation once, wherever the call came from."""

    def test_cohomology(self):
        g = GROUPS["S3"]
        for m, degree in ((augmentation_ideal(g), 1), (torsion_module(g, 4), 0)):
            # called through the package's binding, which the spies replace
            package = sys.modules["shacalc.cohomology"]
            _, calls = public_computations(lambda: package.cohomology(g, m, degree))
            assert calls == ["cohomology"]

    def test_restriction(self):
        g = GROUPS["V4"]
        sub = g.generated_subgroup([1])
        for h in (cohomology(g, augmentation_ideal(g), 1), hypercohomology(g, j_dual(g), 2)):
            _, calls = public_computations(lambda: restriction(h, sub))
            assert len(calls) == 1

    @staticmethod
    def maximal_classes(datum, selection):
        """Members of the imposed subgroups that a Sha group restricts to,
        by brute force over conjugate member sets: those with no conjugate
        inside another imposed subgroup, except inside a conjugate of
        themselves imposed later."""
        g = datum.group
        imposed = [sub for _, sub in _imposed_subgroups(datum, selection)[0]]

        def inside(a, b):
            return any(
                {g.conjugate(x, m) for m in a.members} <= set(b.members) for x in range(g.order)
            )

        return {
            a.members
            for i, a in enumerate(imposed)
            if all(
                not inside(a, b) or (inside(b, a) and i < j)
                for j, b in enumerate(imposed)
                if j != i
            )
        }

    def test_sha(self):
        g = GROUPS["S3"]
        datum = LocalDatum(g, (("v", g.full_subgroup()),))
        omega = PlaceSelection.of("v")
        # no condition computes cohomology, in either degree: H^2(S3, Z/4) is
        # Z/2, restricted to the classes of order 2 and 3 when v is excluded
        for compute in (
            lambda: sha(datum, augmentation_ideal(g), 1),
            lambda: sha_omega(datum, augmentation_ideal(g), 1),
            lambda: sha_two_term(datum, j_dual(g), 2),
            lambda: sha(datum, torsion_module(g, 4), 2),
            lambda: sha_omega(datum, torsion_module(g, 4), 2),
        ):
            result, calls = public_computations(compute)
            assert result.imposed
            assert len(calls) == 1
        # v contains every cyclic subgroup, so it alone is restricted to
        assert self.maximal_classes(datum, EMPTY_SELECTION) == {g.full_subgroup().members}
        assert len(self.maximal_classes(datum, omega)) == 2

    @staticmethod
    def shared_datum():
        """S3 with a non-cyclic place v, excluded by S, and a cyclic place w
        whose subgroup is not the cyclic representative of its class, so
        that S, omega and the empty set impose different lists."""
        g = GROUPS["S3"]
        cyclic = [sub for sub in all_subgroups(g) if sub.order == 2]
        datum = LocalDatum(g, (("v", g.full_subgroup()), ("w", cyclic[-1])))
        return datum, PlaceSelection.of("v"), PlaceSelection.of("v", "w")

    def test_sha_quotients_share_the_ambient(self):
        """One ambient computation, in every degree, whatever S and the
        empty set restrict to."""
        datum, S, _ = self.shared_datum()
        g = datum.group
        # the classes of order 2 and 3, and v; w is conjugate to the first
        assert len(self.maximal_classes(datum, S) | self.maximal_classes(datum, EMPTY_SELECTION)) == 3
        for compute in (
            lambda: quotient_by_empty(datum, _module_complex(augmentation_ideal(g)), 1, S),
            lambda: quotient_by_empty(datum, j_dual(g), 2, S),
            lambda: quotient_by_empty(datum, _module_complex(torsion_module(g, 4)), 2, S),
        ):
            _, calls = public_computations(compute)
            assert len(calls) == 1

    def test_brauer_and_pi1_share_the_ambient(self):
        datum, S, omega = self.shared_datum()
        g = datum.group
        reg, ig = regular_module(g), augmentation_ideal(g)
        cols = [list(ig.element_matrix(e).matvec([1, 0, 0, 0, 0])) for e in range(g.order)]
        res = GModuleHom(reg, ig, IntMatrix.from_cols(cols, rows=ig.rank))
        h = HomSpaceDatum(datum=datum, G_hat=reg, H_hat=ig, res=res)
        # the complex, over S and omega, and H_hat, over S, omega and the
        # empty set: one computation each
        _, calls = public_computations(lambda: brauer_obstruction_groups(h, S))
        assert len(calls) == 2
        sign = sign_module(g, [0])
        _, calls = public_computations(lambda: pi1_obstruction_groups(sign, datum, S))
        assert len(calls) == 1


class TestHyper:
    def test_cone_of_identity_vanishes(self):
        g = GROUPS["S3"]
        m = augmentation_ideal(g)
        c = TwoTermComplex(GModuleHom(m, m, IntMatrix.identity(m.rank)))
        for i in (0, 1, 2):
            assert hypercohomology(g, c, i).group_value.is_trivial()

    def test_shift_of_single_module(self):
        """HH^i(0 -> B) = H^(i-1)(g, B)."""
        g = GROUPS["V4"]
        b = augmentation_ideal(g)
        z = GModule(g, PresentedAbelianGroup(0), [IntMatrix([], cols=0) for _ in g.generators], _trusted=True)
        c = TwoTermComplex(GModuleHom(z, b, IntMatrix.zeros(b.rank, 0)))
        for i in (1, 2):
            hh = hypercohomology(g, c, i)
            hi = cohomology(g, b, i - 1)
            assert invariant_factors(hh.group_value) == invariant_factors(
                hi.group_value
            )

    def test_section2_resolution_hyper(self):
        """The dual of the rank-two cover of the sign module has vanishing
        HH^2, matching the long-exact-sequence bookkeeping."""
        g = GROUPS["Z2"]
        res = permutation_cover(sign_module(g, [0]))
        from shacalc.gmodules import dual_module

        p_dual = dual_module(res.P)
        l_dual = dual_module(res.L)
        c = TwoTermComplex(GModuleHom(p_dual, l_dual, res.incl.matrix.transpose()))
        hh2 = hypercohomology(g, c, 2)
        assert hh2.group_value.is_trivial()

    def test_les_exactness_randomized(self):
        """ker = im at the three middle nodes of
        H^{i-1}(A) -> H^{i-1}(B) -> HH^i -> H^i(A) -> H^i(B)."""
        rng = SplitMix64(47)
        for name in ("Z2", "V4", "S3"):
            g = GROUPS[name]
            a = regular_module(g)
            for target, mat in [
                (augmentation_ideal(g), None),
                (trivial_module(g, 1), None),
            ]:
                # an equivariant map Z[g] -> T is determined by the image of
                # the identity basis vector
                v = [rng.randint(-2, 2) for _ in range(target.rank)]
                cols = [list(target.element_matrix(s).matvec(v)) for s in range(g.order)]
                f = GModuleHom(a, target, IntMatrix.from_cols(cols, rows=target.rank))
                c = TwoTermComplex(f)
                for i in (1, 2):
                    les = les_segment(g, c, i)
                    assert subquotient(les.from_b_prev, les.from_a_prev).group.is_trivial()
                    assert subquotient(les.to_a, les.from_b_prev).group.is_trivial()
                    assert subquotient(les.to_b, les.to_a).group.is_trivial()

    def test_restriction_commutes_with_les(self):
        g = GROUPS["V4"]
        a = regular_module(g)
        b = augmentation_ideal(g)
        v = [1, 0, 0]
        cols = [list(b.element_matrix(s).matvec(v)) for s in range(g.order)]
        f = GModuleHom(a, b, IntMatrix.from_cols(cols, rows=3))
        c = TwoTermComplex(f)
        les = les_segment(g, c, 2)
        sub = g.generated_subgroup([1])
        res_hyper = restriction(les.hyper, sub)
        res_b = restriction(les.hb_prev, sub)
        # build the subgroup-side LES to compare the two composite paths
        h_group, _ = sub.as_group()
        a_sub = restrict(a, sub)
        b_sub = restrict(b, sub)
        c_sub = TwoTermComplex(GModuleHom(a_sub, b_sub, f.matrix))
        les_sub = les_segment(h_group, c_sub, 2)
        # H^1(B) -> HH^2 -> restrict == H^1(B) -> restrict -> HH^2
        left = compose(full_restriction_map(les.hyper, res_hyper), les.from_b_prev)
        # identify the two constructions of the subgroup-side groups: they
        # are built by the same deterministic pipeline, so coordinates match
        right = compose(les_sub.from_b_prev, full_restriction_map(les.hb_prev, res_b))
        assert congruent(left, right)
