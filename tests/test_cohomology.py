"""Cohomology and hypercohomology against independent oracles."""

import hashlib
import math
import sys
import time
from pathlib import Path

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shacalc.abelian import invariant_factors, present_quotient
from shacalc.arith import (
    HomSpaceDatum,
    brauer_obstruction_groups,
    dual_complex,
    pi1_obstruction_groups,
)
from shacalc.cohomology import (
    TwoTermComplex,
    _Cochains,
    _RelationComplex,
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
from shacalc.suites import random_equivariant_map, random_module, random_subgroup, route_equivalence_suite

from helpers import (
    LADDER_GROUPS,
    all_subgroups,
    assert_matches_bar_route,
    bar_route,
    catalog,
    checked_coords,
    compose,
    congruent,
    cyclic,
    dense,
    echelon_kernel,
    full_complex,
    full_restriction_map,
    generator_cochain,
    group_order,
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
            # saturation form, torsion coefficients the kernel form; neither
            # builds a bar differential
            cohomology(v4, trivial_module(v4, 1), 2),
            hypercohomology(v4, jd, 1),
            cohomology(s3, torsion, 1),
            cohomology(s3, torsion, 2),
        ])
        assert routes == ["saturation"] * 3 + ["kernel", "kernel"]
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


def sl23():
    """SL(2, 3) acting on the 8 nonzero vectors of F_3^2, generated by the
    two elementary matrices."""
    vectors = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]

    def perm(m):
        return [vectors.index(((m[0][0] * a + m[0][1] * b) % 3, (m[1][0] * a + m[1][1] * b) % 3))
                for a, b in vectors]

    return from_permutations([perm([[1, 1], [0, 1]]), perm([[1, 0], [1, 1]])])


def j_dual(g):
    """J^D: the dual complex of the augmentation quotient, covered from e_1."""
    return dual_complex(augmentation_quotient(g), [[1] + [0] * (g.order - 1)])


def kernel_route(h, cochains=None):
    """The value and Hermite basis of the bar kernel route, on every row of
    d^i, on the cochains of ``h`` (or on ``cochains``), whatever form
    computed ``h``."""
    c, d = full_complex(cochains or h._cochains), h.degree
    basis = preimage_kernel(c.diff_cols(d), c.dim(d + 1), c.relation_cols(d + 1))
    boundaries = (c.diff_cols(d - 1) if d else []) + c.relation_cols(d)
    return present_quotient(basis, boundaries), basis


ROUTES = {
    "sparse_saturation": "saturation",
    "preimage_kernel": "kernel",
}


def computed_by(compute, outputs=None):
    """``compute()`` and the forms, in call order, by which the cohomology
    module computed the cocycle lattices on the way, read from spies on
    its bindings of the form functions; their results go to ``outputs``
    when a list is given.  A call made inside a form is part of it and not
    counted."""
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
    """The one form by which ``compute()`` computed its cocycle lattice."""
    _, taken = computed_by(compute)
    assert len(taken) == 1, taken
    return taken[0]


def assert_same_as_full_kernel(h):
    """``h`` has the Hermite basis of the bar kernel route run on every row
    of d^i, and its value matches the bar-route reference, which has the
    relators of that kernel route."""
    value, basis = kernel_route(h)
    assert basis.rows == h.representatives
    ref = assert_matches_bar_route(h)
    assert value.relation_rows == ref.group_value.relation_rows


def assert_routes_agree(compute):
    """The saturation form, with the bar kernel route's basis and
    relators, and a value whose order is the index [Z^i : B^i] of the
    saturation."""
    outputs = []
    h, taken = computed_by(compute, outputs)
    assert taken == ["saturation"], "expected the saturation form"
    ((_, index),) = outputs
    assert group_order(h.group_value) == index
    assert_same_as_full_kernel(h)


class TestRouteEquivalence:
    """The saturation form against the bar kernel route: the same Hermite
    basis, so the same representatives, and the same relators."""

    # the ladder cases (G x {Z, I_G, J^D} x {1, 2}) that take under 1 s on
    # the bar kernel route
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

    @pytest.mark.parametrize("name", list(LADDER_GROUPS))
    def test_z4_column(self, name):
        """Z/4 with the trivial action over the ladder groups, in degrees
        0-2, on the kernel form, against the bar-route reference.  S4 in
        degree 2, whose reference takes 18 s, is left to the closed form
        of ``TestClosedForms.test_h2_cyclic_coefficients``."""
        g = LADDER_GROUPS[name]
        for degree in (0, 1) if name == "S4" else (0, 1, 2):
            h, routes = computed_by(lambda: cohomology(g, torsion_module(g, 4), degree))
            assert routes == ["kernel"]
            assert_matches_bar_route(h)

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
        """Degree 0 and torsion in every degree take the kernel form."""
        g = GROUPS["Z2"]
        torsion = GModule(g, PresentedAbelianGroup(1, [[4]]), [IntMatrix([[3]])])
        aug = augmentation_ideal(g)
        assert route_of(lambda: cohomology(g, torsion, 1)) == "kernel"
        assert route_of(lambda: cohomology(g, torsion, 2)) == "kernel"
        assert route_of(lambda: cohomology(g, aug, 0)) == "kernel"
        # coker(Z[g] -> Z, x -> 0) = Z is infinite: HH^1 takes the kernel form
        reg, triv = regular_module(g), trivial_module(g, 1)
        c = TwoTermComplex(GModuleHom(reg, triv, IntMatrix.zeros(1, 2)))
        assert route_of(lambda: hypercohomology(g, c, 1)) == "kernel"
        assert route_of(lambda: hypercohomology(g, c, 2)) == "saturation"


def redundant_z4(g):
    """Z/4 with the trivial action, presented on two generators with the
    relations (1, 1) and (0, 4): B^0 has a unit row, so H^0 splits it off."""
    return GModule(g, PresentedAbelianGroup(2, [[1, 1], [0, 4]]), [IntMatrix.identity(2)] * len(g.generators))


class TestSplitValue:
    """The value is computed apart from its representatives.  It builds no
    lattice wider than T^i of the relation complex and solves on none; the
    first read of the representatives builds Z^i_bar, one lattice at the
    rank of the bar T^i, and a second read builds nothing."""

    CASES = {
        # name: (group, coefficients, degree, form, rank of Z^i_bar, order of the value)
        "D4": ("D4", augmentation_ideal, 2, "saturation", 49, 1),
        "S4": ("S4", augmentation_ideal, 1, "saturation", 23, 24),
        "A4-Z4": ("A4", lambda g: torsion_module(g, 4), 2, "kernel", 144, 2),
        "S4-H0": ("S4", redundant_z4, 0, "kernel", 2, 4),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_no_solve_on_z_and_one_build_on_read(self, case, monkeypatch):
        """H^2(D4, I_G) = 0 (index 1), H^1(S4, I_G) = Z/24,
        H^2(A4, Z/4) = Z/2 and H^0(S4, Z/4) on a redundant presentation."""
        name, coefficients, degree, form, rank, order = self.CASES[case]
        g = LADDER_GROUPS[name]
        m = coefficients(g)
        module = sys.modules["shacalc.cohomology"]
        built = []

        def spy(*args, _real=module.hermite_rows):
            built.append(_real(*args))
            return built[-1]

        monkeypatch.setattr(module, "hermite_rows", spy)
        with lattice_reads() as (reduced, solved):
            h, routes = computed_by(lambda: cohomology(g, m, degree))
            assert routes == [form] and group_order(h.group_value) == order
            width = h._complex.dim(degree)
            assert h.lattice.width == width
            assert all(lat.width <= width for lat in solved + reduced) and built == []
            reps = h.representatives
            assert len(reps) == rank and len(built) == 1 and built[0].width == h._cochains.dim(degree)
            before = len(reduced)
            assert h.representatives is reps
            assert len(built) == 1 and len(reduced) == before
        if name == "D4":
            assert hashlib.sha256(repr(reps).encode()).hexdigest() == (
                "0fd6ace5d18b13a6c4ab8b617010439311c188d8c3224befb16526845aa69c6a"
            )


class TestValueWidth:
    """A value and its invariant factors build no lattice wider than T^i
    of the relation complex: on the ladder cases, the Z/4 column in
    degrees 0-2, and the ambients of the bench requests."""

    @staticmethod
    def widths(monkeypatch):
        """A spy on ``_hypercohomology``: per call, the widest lattice built
        while the value and its invariant factors are computed, and the
        width of T^i."""
        seen = []
        real_init, real_hyper = Lattice.__init__, sys.modules["shacalc.cohomology"]._hypercohomology
        built = []

        def init(self, width, index):
            built.append(width)
            real_init(self, width, index)

        def hyper(*args):
            built.clear()
            h = real_hyper(*args)
            h.group_value.invariant_factors()
            seen.append((max(built, default=0), h._complex.dim(h.degree)))
            return h

        monkeypatch.setattr(Lattice, "__init__", init)
        monkeypatch.setattr(sys.modules["shacalc.cohomology"], "_hypercohomology", hyper)
        return seen

    def test_ladder_and_z4(self, monkeypatch):
        seen = self.widths(monkeypatch)
        for g in LADDER_GROUPS.values():
            for degree in (0, 1, 2):
                if degree:
                    cohomology(g, trivial_module(g, 1), degree)
                    cohomology(g, augmentation_ideal(g), degree)
                    hypercohomology(g, j_dual(g), degree)
                cohomology(g, torsion_module(g, 4), degree)
        assert len(seen) == 6 * 9
        assert all(widest <= width for widest, width in seen), seen

    def test_requests(self, monkeypatch, tmp_path):
        """Every CLI request of the bench requests workload at its default
        seed, whose ambients include six degree-2 complexes with torsion."""
        seen = self.widths(monkeypatch)
        for case in bench_requests(tmp_path):
            case.call()
        assert len(seen) >= 36
        assert all(widest <= width for widest, width in seen), seen


class TestColumnsOnFirstRead:
    """Each term turns an element's action matrix into sparse columns when
    it first reads it, and once: a spy on the package's binding of
    ``sparse_from_matrix`` sees which element matrices are converted (the
    matrices are cached on the module, so each element has one object)."""

    @staticmethod
    def conversions(monkeypatch):
        """The matrices converted from here on, in order."""
        module = sys.modules["shacalc.cohomology"]
        seen = []

        def spy(m, _real=module.sparse_from_matrix):
            seen.append(m)
            return _real(m)

        monkeypatch.setattr(module, "sparse_from_matrix", spy)
        return seen

    @staticmethod
    def converted(seen, complex_):
        """For A and for B of ``complex_``, the elements whose matrices are
        in ``seen``, in order; any other matrix converted is f's."""
        terms = (complex_.degree0, complex_.degree1)
        assert terms[0] is not terms[1]
        owner = {id(m.element_matrix(x)): (t, x) for t, m in enumerate(terms) for x in range(m.group.order)}
        out = ([], [])
        others = []
        for mat in seen:
            if id(mat) in owner:
                t, x = owner[id(mat)]
                out[t].append(x)
            else:
                others.append(mat)
        assert others in ([], [complex_.f.matrix]), others
        return out

    @staticmethod
    def ladder_complexes(g):
        return {
            "Z": _module_complex(trivial_module(g, 1)),
            "I_G": _module_complex(augmentation_ideal(g)),
            "J^D": j_dual(g),
        }

    def test_degree_one_reads_the_generators(self, monkeypatch):
        """A Z-free value in degree 1 reads D^0 on the generators only: it
        converts the matrices of the listed generators of A, each once, and
        none of B."""
        seen = self.conversions(monkeypatch)
        for name, g in LADDER_GROUPS.items():
            gens = sorted(set(g.generators))
            for coef, complex_ in self.ladder_complexes(g).items():
                seen.clear()
                _, routes = computed_by(lambda: hypercohomology(g, complex_, 1))
                assert routes == ["saturation"], (name, coef)
                a, b = self.converted(seen, complex_)
                assert (sorted(a), b) == (gens, []), (name, coef)
                assert len(a) == len(gens) < g.order

    def test_each_element_at_most_once(self, monkeypatch):
        """Degree-2 values, kernel-form values (Z/4 in degrees 0-2) and
        their printed representatives read an element's columns many times
        but convert them once per term."""
        seen = self.conversions(monkeypatch)
        for name, g in LADDER_GROUPS.items():
            cases = [(c, 2) for c in self.ladder_complexes(g).values()]
            cases += [(_module_complex(torsion_module(g, 4)), d) for d in (0, 1, 2)]
            for complex_, degree in cases:
                seen.clear()
                h = hypercohomology(g, complex_, degree)
                if g.order <= 8:
                    h.representatives
                for elements in self.converted(seen, complex_):
                    assert len(elements) == len(set(elements)), (name, degree)
            # the relation complex of degree 2 walks every element of A
            assert sorted(self.converted(seen, complex_)[0]) == list(range(g.order))

    @pytest.mark.parametrize("name", ["D4", "A4", "S4"])
    def test_sha_conditions_share_the_parent_columns(self, name, monkeypatch):
        """The conditions of Sha^1_omega on the cyclic subgroups act by
        the ambient's columns: no element is converted twice, though the
        subgroups overlap."""
        g = LADDER_GROUPS[name]
        seen = self.conversions(monkeypatch)
        for m, degree in ((augmentation_ideal(g), 1), (torsion_module(g, 4), 1), (torsion_module(g, 4), 2)):
            seen.clear()
            sha_omega(LocalDatum(g), m, degree).value.invariant_factors()
            elements, _ = self.converted(seen, _module_complex(m))
            assert len(elements) == len(set(elements)) and set(g.generators) <= set(elements)
            assert len(set(elements)) > len(set(g.generators)), (m, degree)


def bench_requests(workdir):
    """The cases of the bench requests workload at its default seed, whose
    problem files are written to ``workdir``."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    try:
        from bench import workloads
    finally:
        sys.path.pop(0)
    return workloads.build_requests(workloads.Modules(), workloads.DEFAULT_SEED, workdir).cases


class TestBrauerRouteA:
    """Degree 2 of G_hat -> H_hat, the first route of ``brauer``, against
    the bar-route reference: every value, representative and class solve,
    on prop-sh1 instances and on the problems of the bench requests."""

    @staticmethod
    def ambients(compute):
        """The degree-2 ambients of complexes with both terms nonzero that
        ``compute()`` computes."""
        seen = []
        module = sys.modules["shacalc.cohomology"]
        real = module._hypercohomology

        def hyper(group, complex_, degree, cap):
            h = real(group, complex_, degree, cap)
            if degree == 2 and complex_.degree0.rank and complex_.degree1.rank:
                seen.append(h)
            return h

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, "_hypercohomology", hyper)
            compute()
        return seen

    def test_prop_sh1(self):
        seen = self.ambients(lambda: route_equivalence_suite(5, 8))
        assert len(seen) == 8
        for h in seen:
            assert_matches_bar_route(h)

    def test_requests(self, tmp_path):
        cases = [case for case in bench_requests(tmp_path) if case.name.endswith("brauer")]
        seen = self.ambients(lambda: [case.call() for case in cases])
        assert len(seen) >= 6 and any(not h.coefficients.degree1.is_z_free() for h in seen)
        for h in seen:
            assert_matches_bar_route(h)


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

    # Past order 24: (group, G^ab, Schur multiplier M(G)), as invariant
    # factors, from Karpilovsky, The Schur Multiplier (1987)
    BEYOND_24 = {
        "S4xZ2": (lambda: from_permutations([[1, 2, 3, 0, 4, 5], [1, 0, 2, 3, 4, 5], [0, 1, 2, 3, 5, 4]]),
                  (2, 2), (2, 2)),
        "SL(2,3)": (lambda: sl23(), (3,), ()),
        "A5": (lambda: from_permutations([[1, 2, 0, 3, 4], [0, 1, 3, 4, 2]]), (), (2,)),
    }

    @pytest.mark.parametrize("name", list(BEYOND_24))
    def test_degree_two_past_order_24(self, name):
        """At the default cap: H^2(G, Z) = (G^ab)^dual, H^2(G, Z/4) by the
        universal coefficient theorem, H^2(G, J_G) = H^3(G, Z) = M(G)^dual
        and H^2(G, I_G) = H^1(G, Z) = 0."""
        build, ab, schur = self.BEYOND_24[name]
        g = build()
        assert g.order == {"S4xZ2": 48, "SL(2,3)": 24, "A5": 60}[name]
        uct = sorted(math.gcd(m, 4) for m in schur + ab if math.gcd(m, 4) > 1)
        for m, want in (
            (trivial_module(g, 1), ab),
            (torsion_module(g, 4), tuple(uct)),
            (augmentation_quotient(g), schur),
            (augmentation_ideal(g), ()),
        ):
            assert invariant_factors(cohomology(g, m, 2).group_value) == (0, want), (name, m)

    # Sha^2_omega(G, J_G) = M(G)^dual (Tate), M(G) = Z/2 on each
    TATE = ("V4", "D4", "A4", "D6", "S4")

    @pytest.mark.parametrize("name", TATE)
    def test_sha_two_of_the_norm_one_torus(self, name):
        """The degree-2 Sha path with a nonzero value: the character module
        J_G of the norm-one torus of a Galois extension with group G."""
        g = LADDER_GROUPS[name]
        sh = sha_omega(LocalDatum(g), augmentation_quotient(g), 2)
        assert invariant_factors(sh.value) == (0, (2,)), name

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
        assert routes == ["kernel"]
        assert_same_as_full_kernel(h)

    def test_redundant_generators(self):
        """Extra generators (a repeat, the identity, a product) only add
        checked rows."""
        s3 = from_permutations([[1, 0, 2], [1, 2, 0], [1, 0, 2], [0, 1, 2], [0, 2, 1]])
        assert len(s3.generators) == 5 and s3.order == 6
        m = torsion_module(s3, 4)
        for degree in (0, 1, 2):
            h, routes = computed_by(lambda: cohomology(s3, m, degree))
            assert routes == ["kernel"]
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


def assert_generator_route(g, m, degree=1):
    """H^degree(g, m), for m with torsion, by the kernel form alone, against
    the bar-route reference."""
    h, routes = computed_by(lambda: cohomology(g, m, degree))
    assert routes == ["kernel"]
    assert_matches_bar_route(h)
    return h


class TestGeneratorRoute:
    """Torsion coefficients on the kernel form, whose degree 1 is the
    values at the generators, against the bar-route reference: random
    modules, and in degrees 1 and 2 groups with redundant generators,
    words that are not prefix-closed, no generators, and actions lawful
    only modulo the relations."""

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
                assert computed_by(lambda: cohomology(g, m, 1))[1] == ["kernel"]
        assert len(read) - validated >= 2 * len(torsion)
        assert all(group is g and edges is read[0][1] for group, edges in read)

    def test_trivial_group(self):
        """No generators, no unknowns: Z^1 is the relation rows R, and in
        degree 2, with no edge off the tree, T^2 = 0 and Z^2_bar is all of
        C^2 = B^2."""
        g, _ = GROUPS["S3"].trivial_subgroup().as_group()
        m = GModule(g, PresentedAbelianGroup(2, [[2, 4], [0, 6]]), [])
        for degree, reps in ((1, hermite_rows([[2, 4], [0, 6]], 2).rows), (2, ((1, 0), (0, 1)))):
            h = assert_generator_route(g, m, degree)
            assert h.representatives == reps
            assert h.group_value.is_trivial()

    def test_redundant_generators(self):
        """A repeated generator and the identity as a generator: the edges
        they label are all off the tree, and force v_l = v_k and v_l in R.
        Their words are not their one letter, so V o W is not the identity
        in degree 2."""
        s3 = from_permutations([[1, 0, 2], [1, 2, 0], [1, 0, 2], [0, 1, 2], [0, 2, 1]])
        rng = SplitMix64(11)
        for m in [torsion_module(s3, 4)] + [
            random_module(s3, rng, max_rank=3, max_torsion_relators=2) for _ in range(12)
        ]:
            if not m.is_z_free():
                for degree in (1, 2):
                    assert_generator_route(s3, m, degree)

    @pytest.mark.parametrize("name,words,n,a", [
        ("V4", [(), (0,), (0, 1, 0), (1, 0)], 4, 3),
        ("Z4", [(), (0,) * 5, (0, 0), (0, 0, 0)], 5, 2),
    ], ids=["V4", "Z4"])
    def test_words_not_prefix_closed(self, name, words, n, a):
        """Stored words whose prefixes are not all stored: the walk takes
        several letters from a stored prefix, through elements whose own
        words differ, and the edges it crosses are off the tree, more than
        |G|(k - 1) + 1 of them.  Each generator acts on Z/n by a."""
        g = GROUPS[name]
        other = FiniteGroup(g.table, g.generators, words)
        rng = SplitMix64(5)
        scalar = GModule(other, PresentedAbelianGroup(1, [[n]]), [IntMatrix([[a]])] * len(g.generators))
        mods = [torsion_module(other, 4), scalar]
        mods += [random_module(other, rng, max_rank=3, max_torsion_relators=2) for _ in range(12)]
        assert len(other.off_tree_edges()) > g.order * (len(g.generators) - 1) + 1
        for m in mods:
            if not m.is_z_free():
                for degree in (1, 2):
                    assert_generator_route(other, m, degree)

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
            for degree in (1, 2):
                assert_generator_route(g, m, degree)

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


def assert_builds_the_generator_rows(t):
    """D^0 of the relation complex of the bar total complex ``t`` is the
    full bar D^0 (``helpers.full_complex``) cut to the rows of the listed
    generators, entry for entry: block l of the A part is d^0 at the tuple
    (s_l), so a generator listed twice has two blocks, and C^0(B) follows
    whole.  Its A part is delta of A (``_Cochains.delta_cols``), and delta
    of B is the bar d^0 of B cut the same way.  On sorted distinct
    generators those rows are the checked rows of T^1
    (``helpers.checked_coords``)."""
    gens = t.ca.group.generators
    full = full_complex(t)

    def cut(cols, gm, tail=()):
        """The columns on the rows of the generators' tuples, then ``tail``."""
        rows = [s * gm + j for s in gens for j in range(gm)] + list(tail)
        return rows, [{p: col[r] for p, r in enumerate(rows) if r in col} for col in cols]

    a_dim, ra = t.ca.dim(1), t.ca.gm
    rows, want = cut(full.diff_cols(0), ra, range(a_dim, t.dim(1)))
    assert _RelationComplex(t).diff_cols(0) == want
    assert t.ca.delta_cols() == [{r: v for r, v in col.items() if r < len(gens) * ra} for col in want]
    assert t.cb.delta_cols() == cut(full.cb.diff_cols(0), t.cb.gm)[1]
    if gens and list(gens) == sorted(set(gens)):
        assert rows == checked_coords(t, 1)
        assert want == on_rows(full.diff_cols(0), {r: p for p, r in enumerate(rows)})


class TestBuiltRows:
    """D^0 of the relation complex and delta, its generator-only builder,
    are the bar d^0 cut to the rows of the generators (the reference is
    ``helpers.full_complex``, with its own action columns)."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["Z2", "Z4", "V4", "S3", "D4"]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_random_torsion_modules(self, name, seed):
        g = GROUPS[name]
        m = random_module(g, SplitMix64(seed), max_rank=3, max_torsion_relators=2)
        assume(not m.is_z_free())
        assert_builds_the_generator_rows(_TotalComplex(g, _module_complex(m)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        name=st.sampled_from(["Z2", "Z4", "V4", "S3", "D4"]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_random_torsion_complexes(self, name, seed):
        g = GROUPS[name]
        rng = SplitMix64(seed)
        a = permutation_module(g, random_subgroup(g, rng))
        b = random_module(g, rng, max_rank=2 if name == "D4" else 3, max_torsion_relators=2)
        assume(not b.is_z_free())
        c = TwoTermComplex(random_equivariant_map(a, b, rng))
        assert_builds_the_generator_rows(_TotalComplex(g, c))

    def test_trivial_group_and_redundant_generators(self):
        """The trivial group has no generators, so D^0 is f alone; S3 lists
        a transposition twice, and the identity, whose delta block is 0."""
        trivial, _ = GROUPS["S3"].trivial_subgroup().as_group()
        s3 = from_permutations([[1, 0, 2], [1, 2, 0], [1, 0, 2], [0, 1, 2], [0, 2, 1]])
        assert trivial.generators == ()
        for g in (trivial, s3):
            m = torsion_module(g, 4)
            c = TwoTermComplex(GModuleHom(trivial_module(g, 1), m, IntMatrix([[2]])))
            assert_builds_the_generator_rows(_TotalComplex(g, c))
            assert_builds_the_generator_rows(_TotalComplex(g, _module_complex(augmentation_ideal(g))))

    @pytest.mark.parametrize("name", ["V4", "S3", "D4"])
    def test_kernel_route_builds_no_full_differential(self, name, monkeypatch):
        """The value builds no bar differential and no bar relation rows in
        any degree: only delta of A on the generators, in D^0 of the
        relation complex, in degrees 0 and 1."""
        g = GROUPS[name]
        built = {"diff_cols": [], "relation_cols": [], "delta_cols": []}
        for method, calls in built.items():

            def spy(self, *args, _real=getattr(_Cochains, method), _calls=calls):
                if self.gm:  # the B term of M -> 0 has no rows
                    _calls.append(args)
                return _real(self, *args)

            monkeypatch.setattr(_Cochains, method, spy)
        for degree in (0, 1, 2):
            for calls in built.values():
                calls.clear()
            _, routes = computed_by(lambda: cohomology(g, torsion_module(g, 4), degree))
            assert routes == ["kernel"]
            assert built == {"diff_cols": [], "relation_cols": [], "delta_cols": [()] * (degree < 2)}


class TestComplexSegment:
    """Degrees 0..3 of the bar cochain and total complexes, with the
    reference d^2, and of the relation complex: D o D lands in the relation
    rows, and vanishes exactly on Z-free coefficients.  The checked rows of
    the Sha conditions rest on this."""

    def assert_square_zero(self, cochains, exact):
        cochains = full_complex(cochains)
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

    def test_relation_complex(self):
        """D^1 D^0 and D^2 D^1 of the relation complex, on modules and
        complexes, Z-free and with torsion, over groups with redundant
        generators, no generators and words that are not prefix-closed."""
        rng = SplitMix64(9)
        s3 = from_permutations([[1, 0, 2], [1, 2, 0], [1, 0, 2], [0, 1, 2], [0, 2, 1]])
        trivial, _ = GROUPS["S3"].trivial_subgroup().as_group()
        v4 = GROUPS["V4"]
        words = FiniteGroup(v4.table, v4.generators, [(), (0,), (0, 1, 0), (1, 0)])
        for g in (GROUPS["V4"], GROUPS["S3"], GROUPS["D4"], s3, trivial, words):
            cases = [(augmentation_ideal(g), True), (torsion_module(g, 4), False)]
            cases += [(random_module(g, rng, max_rank=3, max_torsion_relators=2), None) for _ in range(3)]
            for m, exact in cases:
                for target in (zero_module(g), m):
                    a = permutation_module(g, random_subgroup(g, rng)) if target is m else m
                    f = random_equivariant_map(a, m, rng) if target is m else GModuleHom(m, target, IntMatrix.zeros(0, m.rank))
                    rel = _RelationComplex(_TotalComplex(g, TwoTermComplex(f)))
                    for i in (0, 1):
                        relations = hermite_rows(rel.relation_cols(i + 2), rel.dim(i + 2))
                        composite = sparse_compose(rel.diff_cols(i + 1), rel.diff_cols(i))
                        assert len(composite) == rel.dim(i)
                        for col in composite:
                            assert not col if exact else relations.contains(col)

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

    @staticmethod
    def s4_z2_z4_9():
        """S4 x Z2 and (Z/4)^9 with the trivial action, whose C^2 has rank
        48^2 * 9 = 20736, over the default cap."""
        g = from_permutations([[1, 2, 3, 0, 4, 5], [1, 0, 2, 3, 4, 5], [0, 1, 2, 3, 5, 4]])
        assert g.order == 48
        m = GModule(g, PresentedAbelianGroup(9, [[4 * (i == j) for j in range(9)] for i in range(9)]),
                    [IntMatrix.identity(9)] * len(g.generators))
        assert _TotalComplex(g, _module_complex(m)).dim(2) == 20736
        return g, m

    def test_generator_route_under_default_cap(self):
        """H^1(S4 x Z2, (Z/4)^9) = Hom((Z/2)^2, Z/4)^9."""
        g, m = self.s4_z2_z4_9()
        assert invariant_factors(cohomology(g, m, 1).group_value) == (0, (2,) * 18)

    def test_kernel_route_capped_by_the_rank_of_its_degree(self):
        """The kernel form is held to the cap by its equation rows, the rank
        of T^{i+1} of the relation complex: H^0(S4 x Z2, (Z/4)^9) = (Z/4)^9
        passes at the default cap and reports 3 * 9 = 27 over a cap of 26.
        In degree 2 that is k * E * rk: H^2(S3, Z/4) reports 2 * 7 = 14."""
        g, m = self.s4_z2_z4_9()
        assert invariant_factors(cohomology(g, m, 0).group_value) == (0, (4,) * 9)
        with pytest.raises(ResourceError) as exc:
            cohomology(g, m, 0, cochain_cap=26)
        assert exc.value.dimension == 27
        s3 = GROUPS["S3"]
        assert group_order(cohomology(s3, torsion_module(s3, 4), 2, cochain_cap=14).group_value) == 2
        with pytest.raises(ResourceError) as exc:
            cohomology(s3, torsion_module(s3, 4), 2, cochain_cap=13)
        assert exc.value.dimension == 14

    def test_saturation_route_capped_by_the_rank_it_saturates_in(self):
        """The saturation form is held to the cap by the rank of T^i of the
        relation complex, in which it saturates B^i: H^1(S3, I_G) saturates
        in rank 2 * 5 = 10 and reports that number."""
        g = GROUPS["S3"]
        m = augmentation_ideal(g)
        assert group_order(cohomology(g, m, 1, cochain_cap=10).group_value) == 6
        with pytest.raises(ResourceError) as exc:
            cohomology(g, m, 1, cochain_cap=9)
        assert exc.value.dimension == 10

    def test_cap_enforced(self):
        """H^2(Q8, Z[Q8]) saturates at width 9 * 8 = 72, under a cap of 100;
        reading its representatives, at the bar rank 8^3 = 512, is over it."""
        g = GROUPS["Q8"]
        h = cohomology(g, regular_module(g), 2, cochain_cap=100)
        assert h.lattice.width == 72 and h.group_value.is_trivial()
        with pytest.raises(ResourceError) as exc:
            h.representatives
        assert exc.value.dimension == 8 * 8 * 8

    def test_cap_in_hyper(self):
        """HH^2 of the identity on Z[Q8] saturates at width 72 + 16 = 88; a
        cochain of its value is read at the bar rank 512 + 64."""
        g = GROUPS["Q8"]
        reg = regular_module(g)
        c = TwoTermComplex(GModuleHom(reg, reg, IntMatrix.identity(8)))
        h = hypercohomology(g, c, 2, cochain_cap=100)
        assert h.lattice.width == 88
        with pytest.raises(ResourceError) as exc:
            h.cochain([1] * h.group_value.generator_count)
        assert exc.value.dimension == 8 * 8 * 8 + 8 * 8

    def test_read_of_representatives_is_budgeted(self):
        """H^2(A4, I_G) at a cap of 1000: the value at width 13 * 11 = 143,
        then the read of its representatives, at the bar rank 12^2 * 11 =
        1584, exits at once."""
        g = LADDER_GROUPS["A4"]
        start = time.perf_counter()
        h = cohomology(g, augmentation_ideal(g), 2, cochain_cap=1000)
        assert h.lattice.width == 143 and h.group_value.is_trivial()
        with pytest.raises(ResourceError) as exc:
            h.representatives
        assert exc.value.dimension == 1584
        assert time.perf_counter() - start < 1


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
        of the kernel route run on the cochains C^i(M) of the module alone,
        with every row of d^i, and its relators through the bar-route
        reference it matches."""
        for name, degrees in (("Z2", (0, 1, 2)), ("V4", (0, 1, 2)), ("S3", (0, 1, 2)),
                              ("D4", (0, 1)), ("Q8", (0, 1))):
            g = GROUPS[name]
            for m in (trivial_module(g, 1), augmentation_ideal(g), torsion_module(g, 4)):
                c = _Cochains(g, m)
                for d in degrees:
                    h = cohomology(g, m, d)
                    value, basis = kernel_route(h, c)
                    assert basis.rows == h.representatives, (name, m, d)
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
        h = HomSpaceDatum(datum=datum, res=res)
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
