"""Exact linear algebra: Smith and Hermite forms, kernels, solving."""

import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shacalc.abelian import present_quotient
from shacalc.arith import dual_complex
from shacalc.cohomology import _TotalComplex, _hyper_torsion_bound, _module_complex
from shacalc.errors import InternalError, StructuralError
from shacalc.gmodules import augmentation_ideal, augmentation_quotient, trivial_module
from shacalc.groups import _prime_factors
from shacalc.intlinalg import (
    IntMatrix,
    _deficient_kernel_mod,
    block_diag,
    hermite_rows,
    preimage_kernel,
    smith_normal_form,
    sparse_from_matrix,
    sparse_kernel,
    sparse_saturation,
    unimodular_inverse,
)
from shacalc.prng import SplitMix64

from helpers import (
    LADDER_GROUPS,
    catalog,
    dense_hermite_rows,
    dense_lattice_reduce,
    dense_lattice_solve,
    echelon_kernel,
    full_elimination_saturation,
    group_order,
    held_rows,
    lattice_reads,
    left_kernel_mod,
)
from oracles import snf_invariants


def bareiss_det(m: IntMatrix) -> int:
    """Fraction-free determinant, used only to certify unimodularity."""
    n = m.nrows
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def random_matrix(rng: SplitMix64, rows: int, cols: int, bound: int = 6) -> IntMatrix:
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


class TestIntMatrix:
    def test_ragged_rejected(self):
        with pytest.raises(StructuralError):
            IntMatrix([[1, 2], [3]])

    def test_non_integer_rejected(self):
        with pytest.raises(StructuralError):
            IntMatrix([[1.5]])

    def test_empty_needs_cols(self):
        with pytest.raises(StructuralError):
            IntMatrix([])
        assert IntMatrix([], cols=3).ncols == 3

    def test_big_integers_survive(self):
        big = 10**40
        m = IntMatrix([[big]])
        assert m.mul(IntMatrix([[big]])).at(0, 0) == big * big


class TestTrustedResults:
    """The arithmetic builds its results without re-checking the entries;
    they must equal what the validating constructor makes of the same
    rows."""

    SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1), (3, 3), (2, 5), (5, 2)]

    @staticmethod
    def checked(rows, ncols: int) -> IntMatrix:
        return IntMatrix([list(r) for r in rows], cols=ncols)

    def same(self, m: IntMatrix, ref: IntMatrix) -> None:
        assert (m.nrows, m.ncols, m.rows) == (ref.nrows, ref.ncols, ref.rows)
        assert all(type(v) is int for r in m.rows for v in r)
        assert all(type(r) is tuple for r in m.rows) and type(m.rows) is tuple

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_match_the_validating_constructor(self, shape):
        rng = SplitMix64(sum(shape) * 31 + shape[0])
        r, c = shape
        for _ in range(5):
            a = random_matrix(rng, r, c)
            b = random_matrix(rng, c, rng.randint(0, 4))
            n = b.ncols
            self.same(a.transpose(), self.checked([[a.at(i, j) for i in range(r)] for j in range(c)], r))
            self.same(a.neg(), self.checked([[-v for v in row] for row in a.rows], c))
            prod = [[sum(a.at(i, t) * b.at(t, j) for t in range(c)) for j in range(n)] for i in range(r)]
            self.same(a.mul(b), self.checked(prod, n))
            self.same(IntMatrix.zeros(r, c), self.checked([[0] * c for _ in range(r)], c))
            ident = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
            self.same(IntMatrix.identity(c), self.checked(ident, c))
            diag = [list(row) + [0] * n for row in a.rows] + [[0] * c + list(row) for row in b.rows]
            self.same(block_diag([a, b]), self.checked(diag, c + n))

    def test_transpose_of_no_rows_keeps_the_columns(self):
        t = IntMatrix([], cols=4).transpose()
        assert (t.nrows, t.ncols) == (4, 0)
        assert t.transpose() == IntMatrix([], cols=4)


class TestSmithNormalForm:
    def test_worked_example(self):
        snf = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
        assert snf.diagonal == (2, 4)
        # d1 = gcd of entries, d1*d2 = |det|
        assert snf.diagonal[0] == 2 and snf.diagonal[0] * snf.diagonal[1] == 8

    def test_identity_fixed_by_pivot_rule(self):
        i3 = IntMatrix.identity(3)
        snf = smith_normal_form(i3)
        assert snf.D == i3 and snf.U == i3 and snf.V == i3

    def test_zero_matrix(self):
        z = IntMatrix.zeros(2, 3)
        snf = smith_normal_form(z)
        assert snf.D == z
        assert snf.U == IntMatrix.identity(2)
        assert snf.V == IntMatrix.identity(3)

    def test_recomposition_and_unimodularity_randomized(self):
        rng = SplitMix64(7)
        for _ in range(60):
            rows = rng.randint(0, 5)
            cols = rng.randint(0, 5)
            m = random_matrix(rng, rows, cols)
            snf = smith_normal_form(m)
            assert snf.U.mul(m).mul(snf.V) == snf.D
            if rows:
                assert abs(bareiss_det(snf.U)) == 1
            if cols:
                assert abs(bareiss_det(snf.V)) == 1
            diag = snf.diagonal
            for a, b in zip(diag, diag[1:]):
                assert a >= 0 and b >= 0
                if a:
                    assert b % a == 0
                else:
                    assert b == 0

    def test_matches_independent_snf(self):
        rng = SplitMix64(13)
        for _ in range(40):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = random_matrix(rng, rows, cols)
            ours = [d for d in smith_normal_form(m).diagonal if d > 1]
            free, torsion = snf_invariants([list(r) for r in m.rows], cols)
            assert tuple(sorted(ours)) == torsion

    def test_determinism(self):
        m = IntMatrix([[4, -2, 7], [0, 3, 3], [9, 1, -5]])
        first = smith_normal_form(m)
        second = smith_normal_form(m)
        assert first.U == second.U and first.V == second.V and first.D == second.D


class TestHermite:
    def test_canonical_form(self):
        rows = hermite_rows([[2, 4], [6, 8]], 2).rows
        assert rows == ((2, 0), (0, 4))

    def test_lattice_membership(self):
        basis = hermite_rows([[2, 0], [0, 3]], 2)
        assert basis.contains((4, 3))
        assert not basis.contains((1, 0))
        assert basis.reduce((5, 7)) == (1, 1)

    def test_solve_coefficients(self):
        basis = hermite_rows([[1, 2, 0], [0, 4, 1]], 3)
        vec = [3, 2, -1]  # 3*(1,2,0) - 1*(0,4,1)
        coeffs = basis.solve(vec)
        assert coeffs is not None
        recon = [0, 0, 0]
        for c, row in zip(coeffs, basis):
            for k in range(3):
                recon[k] += c * row[k]
        assert recon == vec

    def test_canonical_independent_of_generating_set(self):
        rng = SplitMix64(21)
        for _ in range(40):
            base = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
            mixed = list(base)
            # add redundant combinations
            mixed.append([a + b for a, b in zip(base[0], base[1])])
            mixed.append([3 * a for a in base[2]])
            assert hermite_rows(base, 4) == hermite_rows(mixed, 4)

    def test_reduced_at_every_pivot(self):
        # reducing at column 1 moves row 0's entry at the later pivot
        # column 2 out of [0, 3): that column must be reduced afterwards
        rows = hermite_rows([[1, 3, 0], [0, 2, 1], [0, 0, 3]], 3).rows
        assert rows == ((1, 1, 2), (0, 2, 1), (0, 0, 3))

    def test_idempotent_randomized(self):
        rng = SplitMix64(22)
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 5), 5, bound=9)
            rows = hermite_rows(m.rows, 5)
            assert hermite_rows(rows, 5) == rows
            rows = rows.rows
            for idx, row in enumerate(rows):
                lead = next(k for k, v in enumerate(row) if v)
                assert row[lead] > 0
                assert all(0 <= above[lead] < row[lead] for above in rows[:idx])


class TestSaturation:
    def test_primes_select_what_is_saturated(self):
        rows = [{0: 2}, {1: 3}]
        lattice, index = sparse_saturation(rows, 2, [])
        assert lattice.rows == ((2, 0), (0, 3)) and index == 1
        lattice, index = sparse_saturation(rows, 2, [2])
        assert lattice.rows == ((1, 0), (0, 3)) and index == 2
        lattice, index = sparse_saturation(rows, 2, [2, 3])
        assert lattice.rows == ((1, 0), (0, 1)) and index == 6

    def test_without_primes_is_the_hermite_form_randomized(self):
        """The sparse echelon and its reduction agree with hermite_rows."""
        rng = SplitMix64(24)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 6), 6, bound=9)
            rows = [{k: v for k, v in enumerate(r) if v} for r in m.rows]
            assert sparse_saturation(rows, 6, []) == (hermite_rows(m.rows, 6), 1)

    def test_matches_kernel_of_the_kernel_randomized(self):
        """With every prime of the index, the saturation is the lattice
        orthogonal to the rational kernel of the rows, and the index it
        reports is the product of the nonzero Smith diagonal entries."""
        rng = SplitMix64(23)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = random_matrix(rng, rng.randint(1, 4), n, bound=6)
            index = 1
            for d in smith_normal_form(m).diagonal:
                index *= d or 1
            primes = [p for p in range(2, index + 1)
                      if index % p == 0 and all(p % q for q in range(2, p))]
            rows = [{k: v for k, v in enumerate(r) if v} for r in m.rows]
            ker = sparse_kernel(sparse_from_matrix(m), m.nrows)  # {y : m y = 0}
            want = sparse_kernel(sparse_from_matrix(IntMatrix(ker, cols=n)), len(ker))
            assert sparse_saturation(rows, n, primes) == (want, index)


class TestKernels:
    def test_sparse_kernel_simple(self):
        # kernel of [1 1 -1]
        k = sparse_kernel([{0: 1}, {0: 1}, {0: -1}], 1)
        assert k.rows == ((1, 0, 1), (0, 1, 1))

    def test_kernel_is_saturated_and_complete(self):
        rng = SplitMix64(3)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = random_matrix(rng, rows, cols, bound=4)
            basis = sparse_kernel(sparse_from_matrix(m), rows)
            for b in basis:
                assert all(v == 0 for v in m.matvec(b))
            # completeness: rank(kernel) + rank(matrix) == cols
            rank = sum(1 for d in smith_normal_form(m).diagonal if d)
            assert len(basis) == cols - rank

    def test_preimage_kernel(self):
        # {x in Z^2 : x1 + x2 in 3Z}
        m = IntMatrix([[1, 1]])
        basis = preimage_kernel(sparse_from_matrix(m), 1, [{0: 3}])
        assert basis.contains((1, 2))
        assert basis.contains((1, -1))
        assert not basis.contains((1, 0))

    def test_preimage_kernel_is_one_echelon_on_the_kept_tags(self, monkeypatch):
        """One Hermite reduction, of width len(columns), and no tag for a
        lattice unknown: the x-part comes out of the echelon of [A | L]
        itself, not from a second echelon of the full kernel.  Nothing
        here is a unit, so every unknown reaches the echelon."""
        module = sys.modules["shacalc.intlinalg"]
        hermite, insert = module._hermite_from_echelon, module._sparse_insert
        widths, keys = [], []
        monkeypatch.setattr(module, "_hermite_from_echelon",
                            lambda *a: widths.append(a[1]) or hermite(*a))
        monkeypatch.setattr(module, "_sparse_insert",
                            lambda *a: keys.extend(a[1]) or insert(*a))
        columns = [{0: 2, 1: 3}, {0: 4, 1: 6}, {0: 3}]
        lattice = [{0: 5}, {1: 7}, {0: 2, 1: 2}]
        basis = preimage_kernel(columns, 2, lattice)
        assert widths == [3]
        assert keys and max(keys) < 2 + len(columns)
        assert basis == hermite_rows([r[:3] for r in echelon_kernel(columns + lattice, 2)], 3)


@st.composite
def unit_heavy_systems(draw):
    """Sparse columns, mostly +-1 with some 2, -3 and 4 entries, over up
    to 12 rows and 60 columns; some columns are zero, some repeat an
    earlier column, and up to two rows are copied onto others, so that
    eliminating through one copy leaves the other as an empty equation."""
    nrows = draw(st.integers(0, 12))
    entry = st.sampled_from([1, -1, 1, -1, 1, -1, 1, -1, 2, -3, 4])
    columns: list[dict[int, int]] = []
    for _ in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(["sparse"] * 6 + ["zero", "repeat"]))
        if kind == "zero" or nrows == 0:
            columns.append({})
        elif kind == "repeat" and columns:
            columns.append(dict(columns[draw(st.integers(0, len(columns) - 1))]))
        else:
            rows = draw(st.lists(st.integers(0, nrows - 1), max_size=4, unique=True))
            columns.append({i: draw(entry) for i in sorted(rows)})
    for _ in range(draw(st.integers(0, 2)) if nrows >= 2 else 0):
        src, dst = draw(st.lists(st.integers(0, nrows - 1), min_size=2, max_size=2, unique=True))
        for col in columns:
            col.pop(dst, None)
            if src in col:
                col[dst] = col[src]
    return columns, nrows


class TestUnitElimination:
    """``sparse_kernel`` eliminates through unit coefficients before the
    gcd echelon; the column-order echelon of [A^T | I] is its reference."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(system=unit_heavy_systems())
    def test_matches_column_order_echelon(self, system):
        columns, nrows = system
        out = sparse_kernel(columns, nrows)
        assert out == echelon_kernel(columns, nrows)
        assert hermite_rows(out, len(columns)) == out

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(system=unit_heavy_systems())
    def test_preimage_kernel_is_the_projected_kernel(self, system):
        """Tagging only the first w unknowns gives the x-part of the full
        kernel, even where an eliminated x refers to an untagged unknown."""
        columns, nrows = system
        full = echelon_kernel(columns, nrows)
        for w in sorted({0, 1, len(columns) // 2, len(columns)}):
            if w <= len(columns):
                want = hermite_rows([r[:w] for r in full.rows], w)
                assert preimage_kernel(columns[:w], nrows, columns[w:]) == want

    @pytest.mark.parametrize("kept", [-1, 3])
    def test_kept_outside_range_rejected(self, kept):
        with pytest.raises(StructuralError):
            sparse_kernel([{0: 1}, {0: -1}], 1, kept)

    def test_columns_are_not_modified(self):
        columns = [{0: 1, 1: 2}, {0: -1}, {1: 1}]
        copies = [dict(c) for c in columns]
        sparse_kernel(columns, 2)
        assert columns == copies

    @pytest.mark.parametrize("columns", [[{1: 1}], [{0: 1}, {1: 1}], [{-1: 1}]])
    def test_row_outside_range_rejected(self, columns):
        """A row index at or past ``nrows`` would collide with the tag
        nrows + j that the echelon gives unknown j, and so give a wrong
        kernel: here ((1,),) and ((1, 1),)."""
        with pytest.raises(StructuralError):
            sparse_kernel(columns, 1)


@st.composite
def hermite_bases(draw):
    """A canonical Hermite basis of up to 6 random rows of width 1-8 with
    entries in [-6, 6], and integer coefficients, one per basis row."""
    width = draw(st.integers(1, 8))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=6))
    basis = hermite_rows(rows, width)
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(basis), max_size=len(basis)))
    return basis, width, coeffs


def combination(basis, coeffs, width):
    return [sum(c * row[k] for c, row in zip(coeffs, basis)) for k in range(width)]


def pivots(basis):
    return [next(k for k, v in enumerate(row) if v) for row in basis]


class TestEchelonSolve:
    """``Lattice.solve``, ``contains`` and ``reduce`` on the echelon index
    the lattice holds, against the dense solve and reduction."""

    @staticmethod
    def solve_both_ways(basis, vec):
        got = basis.solve({k: v for k, v in enumerate(vec) if v})
        assert basis.solve(vec) == got
        assert basis.contains(vec) == (got is not None)
        assert got == dense_lattice_solve(basis.rows, vec)
        return got

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=hermite_bases())
    def test_members(self, data):
        basis, width, coeffs = data
        assert self.solve_both_ways(basis, combination(basis, coeffs, width)) == tuple(coeffs)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=hermite_bases(), pick=st.integers(0, 7))
    def test_pivot_remainder(self, data, pick):
        """One more at a pivot column whose pivot is not 1."""
        basis, width, coeffs = data
        big = [c for c, row in zip(pivots(basis), basis) if row[c] > 1]
        assume(big)
        vec = combination(basis, coeffs, width)
        vec[big[pick % len(big)]] += 1
        assert self.solve_both_ways(basis, vec) is None

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=hermite_bases(), pick=st.integers(0, 7))
    def test_residual_off_the_pivots(self, data, pick):
        """One more at a column that is no row's pivot."""
        basis, width, coeffs = data
        free = [k for k in range(width) if k not in pivots(basis)]
        assume(free)
        vec = combination(basis, coeffs, width)
        vec[free[pick % len(free)]] += 1
        assert self.solve_both_ways(basis, vec) is None

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=hermite_bases(), vec=st.lists(st.integers(-20, 20), min_size=8, max_size=8))
    def test_reduce(self, data, vec):
        basis, width, _ = data
        assert basis.reduce(vec[:width]) == dense_lattice_reduce(basis.rows, vec[:width])

    def test_held_index_serves_many_solves(self):
        """One lattice answers many solves and reductions, each on the
        index it holds, with the dense results; solving leaves it as it
        was."""
        rng = SplitMix64(31)
        basis = hermite_rows([[rng.randint(-9, 9) for _ in range(7)] for _ in range(5)], 7)
        rows, sparse = basis.rows, basis.sparse_rows()
        copies = [dict(r) for r in sparse]
        for _ in range(300):
            coeffs = [rng.randint(-4, 4) for _ in rows]
            vec = combination(rows, coeffs, 7)
            if rng.randint(0, 1):
                vec[rng.randint(0, 6)] += rng.randint(-2, 2)
            assert self.solve_both_ways(basis, vec) == dense_lattice_solve(rows, vec)
            assert basis.reduce(vec) == dense_lattice_reduce(rows, vec)
        assert basis.rows is rows and basis.sparse_rows() == copies

    def test_zero_vector(self):
        basis = hermite_rows([[2, 1, 0], [0, 3, 1]], 3)
        assert self.solve_both_ways(basis, [0, 0, 0]) == (0, 0)

    def test_empty_basis(self):
        basis = hermite_rows([], 2)
        assert self.solve_both_ways(basis, [0, 0]) == ()
        assert self.solve_both_ways(basis, [0, 1]) is None
        assert basis.reduce([3, 4]) == (3, 4)

    @pytest.mark.parametrize("vec", [[2, 4], [2, 4, 1, 0], {3: 1}, {-1: 1}])
    def test_wrong_length_rejected(self, vec):
        """The width is the lattice's own, so a vector of another length,
        or a sparse one with a coordinate outside it, is rejected with rows
        or without.  A short vector used to be solved on a prefix of the
        rows: (2, 4) gave (1, 1), which spans (2, 4, 1); with no rows any
        length passed."""
        for rows in ([[2, 1, 0], [0, 3, 1]], []):
            basis = hermite_rows(rows, 3)
            with pytest.raises(StructuralError):
                basis.solve(vec)
            with pytest.raises(StructuralError):
                basis.contains(vec)
            with pytest.raises(StructuralError):
                basis.reduce(vec)


@st.composite
def row_lists(draw):
    """Rows for ``hermite_rows``: widths 0-7, no rows or up to 8, entries
    small or within a few units of +-2^64, with zero rows, repeated rows
    and negated rows (negative leading entries) mixed in."""
    width = draw(st.integers(0, 7))
    near = st.integers(-3, 3).flatmap(lambda d: st.sampled_from([2**64 + d, -(2**64) + d]))
    entry = st.one_of(st.integers(-6, 6), st.integers(-6, 6), near)
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["random"] * 4 + ["zero", "repeat", "negate"]))
        if kind == "zero":
            rows.append([0] * width)
        elif kind in ("repeat", "negate") and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            rows.append(list(row) if kind == "repeat" else [-v for v in row])
        else:
            rows.append(draw(st.lists(entry, min_size=width, max_size=width)))
    return rows, width


class TestOneEchelon:
    """``hermite_rows`` runs the sparse gcd echelon of ``sparse_kernel``;
    the dense echelon it replaced is the reference."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=row_lists())
    def test_matches_dense_hermite_rows(self, data):
        rows, width = data
        out = hermite_rows(rows, width)
        assert out.width == width
        assert out.rows == dense_hermite_rows(rows, width)
        assert hermite_rows(out, width) == out

    def test_row_of_wrong_length_rejected(self):
        with pytest.raises(StructuralError):
            hermite_rows([[1, 2], [3]], 2)


@st.composite
def echelons(draw):
    """A gcd echelon (pivot column -> row, zero left of its positive pivot)
    and a prime p: widths 1-8, pivots often divisible by p, and entries
    right of a pivot small or multiples of p, so that rows whose pivot p
    divides often reduce onto the pivot of a unit row, or vanish."""
    p = draw(st.sampled_from([2, 3, 5]))
    width = draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-4, 4), st.integers(-2, 2).map(lambda x: x * p))
    pivots: dict[int, dict[int, int]] = {}
    for c in range(width):
        if draw(st.booleans()):
            lead = draw(st.sampled_from([1, 1, 2, 3, p, p, 2 * p, p * p, p + 1]))
            row = {c: lead}
            for k in range(c + 1, width):
                v = draw(entry)
                if v:
                    row[k] = v
            pivots[c] = row
    return pivots, width, p


def shuffled(rows: list, rng: SplitMix64) -> list:
    """A Fisher-Yates shuffle of ``rows`` drawn from ``rng``."""
    out = list(rows)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


class TestDeficientElimination:
    """``sparse_saturation`` inserts its rows last-first and, at each
    prime p, reduces mod p only the echelon rows whose pivot p divides.
    The mod-p elimination over every row and the saturation built on it,
    in the given row order, are the reference."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=echelons())
    def test_kernel_is_the_full_left_kernel(self, data):
        """The kernel has the dimension of the full left kernel mod p, and
        its vectors are independent left-kernel vectors, so it spans it."""
        pivots, width, p = data
        cols = sorted(pivots)
        deficient = [c for c in cols if pivots[c][c] % p == 0]
        kernel = _deficient_kernel_mod(pivots, deficient, p)
        assert len(kernel) == len(left_kernel_mod([pivots[c] for c in cols], p))
        for x in kernel:
            assert x and all(c in pivots and 0 < v < p for c, v in x.items())
            total = [sum(v * pivots[c].get(k, 0) for c, v in x.items()) for k in range(width)]
            assert all(v % p == 0 for v in total)
        assert left_kernel_mod(kernel, p) == []
        rows = [pivots[c] for c in cols]
        assert sparse_saturation(rows, width, [p]) == full_elimination_saturation(rows, width, [p])

    def test_deficient_row_reduced_onto_a_unit_pivot(self):
        """At p = 2 the row (2, 1, 0) reads (0, 1, 0), which the unit row
        (0, 1, 1) reduces to (0, 0, 1), where the unit row (0, 0, 1) makes
        it vanish.  The kernel vector is (1, 1, 1), and the round adds the
        sum of the three rows halved, (1, 1, 1), at index 2."""
        pivots = {0: {0: 2, 1: 1}, 1: {1: 1, 2: 1}, 2: {2: 1}}
        kernel = _deficient_kernel_mod(pivots, [0], 2)
        assert kernel == [{0: 1, 1: 1, 2: 1}]
        rows = list(pivots.values())
        assert sparse_saturation(rows, 3, [2]) == full_elimination_saturation(rows, 3, [2])
        assert sparse_saturation(rows, 3, [2])[1] == 2

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=row_lists())
    def test_saturation_matches_full_elimination(self, data):
        """On rows that are no echelon, with entries near +-2^64, the
        (lattice, index) pair is the reference's, and does not depend on
        the order of the rows."""
        rows, width = data
        sparse = [{k: v for k, v in enumerate(r) if v} for r in rows]
        want = full_elimination_saturation(sparse, width, [2, 3])
        assert sparse_saturation(sparse, width, [2, 3]) == want
        rng = SplitMix64(len(rows) * 31 + width)
        assert sparse_saturation(shuffled(sparse, rng), width, [2, 3]) == want

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(system=unit_heavy_systems())
    def test_unit_heavy_rows_in_any_order(self, system):
        """Rows like those of a differential, mostly +-1: the reference's
        pair, in the given order, reversed, and shuffled."""
        columns, nrows = system
        want = full_elimination_saturation(columns, nrows, [2, 3])
        rng = SplitMix64(len(columns) * 131 + nrows)
        for rows in (columns, columns[::-1], shuffled(columns, rng)):
            assert sparse_saturation(rows, nrows, [2, 3]) == want

    def test_boundaries_of_the_ladder(self):
        """B^i of G with coefficients Z and I_G in degrees 1 and 2, at the
        primes of |G|: Z^i and the index [Z^i : B^i] are the reference's."""
        for name in ("V4", "S3", "D4", "Q8"):
            g = catalog()[name]
            primes = [p for p in (2, 3) if g.order % p == 0]
            for module in (trivial_module(g, 1), augmentation_ideal(g)):
                t = _TotalComplex(g, _module_complex(module))
                for degree in (1, 2):
                    rows = t.diff_cols(degree - 1) + t.relation_cols(degree)
                    got = sparse_saturation(rows, t.dim(degree), primes)
                    assert got == full_elimination_saturation(rows, t.dim(degree), primes), name

    def test_no_elimination_at_a_prime_dividing_no_pivot(self, monkeypatch):
        """A round at a prime that divides no pivot ends on the pivot test
        alone: nothing is reduced mod p.  Every elimination that does run
        is given only rows whose pivot p divides."""
        module = sys.modules["shacalc.intlinalg"]
        real = module._deficient_kernel_mod
        calls = []

        def spy(pivots, deficient, p):
            calls.append((p, [pivots[c][c] for c in deficient]))
            return real(pivots, deficient, p)

        monkeypatch.setattr(module, "_deficient_kernel_mod", spy)
        assert sparse_saturation([{0: 2}, {1: 3}], 2, [2, 3, 5, 7])[1] == 6
        assert calls == [(2, [2]), (3, [3])]
        calls.clear()
        assert sparse_saturation([{0: 1, 1: 4}, {1: 1}], 2, [2, 3]) == (hermite_rows([[1, 0], [0, 1]], 2), 1)
        assert calls == []
        calls.clear()
        g = catalog()["D4"]
        t = _TotalComplex(g, _module_complex(augmentation_ideal(g)))
        sparse_saturation(t.diff_cols(1) + t.relation_cols(2), t.dim(2), [2, 3, 5])
        assert calls and all(pivs and all(v % p == 0 for v in pivs) for p, pivs in calls)

    def test_non_kernel_combination_raises(self, monkeypatch):
        """A combination that is no left-kernel vector mod p, here the row
        (2, 1) alone at p = 2, has an entry p does not divide: it raises
        :class:`InternalError`, not a floor-divided row."""
        module = sys.modules["shacalc.intlinalg"]
        monkeypatch.setattr(module, "_deficient_kernel_mod", lambda pivots, deficient, p: [{0: 1}])
        with pytest.raises(InternalError, match="does not divide"):
            sparse_saturation([{0: 2, 1: 1}], 2, [2])


def ladder_boundaries():
    """(label, B^i, width, primes) for each case of the bench ladder, G in
    ``LADDER_GROUPS`` with Z, I_G and J^D in degrees 1 and 2: the
    generators of B^i on the saturation route, at the primes of its
    torsion bound."""
    for name, g in LADDER_GROUPS.items():
        j_dual = dual_complex(augmentation_quotient(g), [[1] + [0] * (g.order - 1)])
        for coef, complex_ in (
            ("Z", _module_complex(trivial_module(g, 1))),
            ("I_G", _module_complex(augmentation_ideal(g))),
            ("J^D", j_dual),
        ):
            t = _TotalComplex(g, complex_)
            for degree in (1, 2):
                primes = sorted(_prime_factors(_hyper_torsion_bound(complex_, degree)))
                rows = t.diff_cols(degree - 1) + t.relation_cols(degree)
                yield f"{name} {coef} {degree}", rows, t.dim(degree), primes


class TestUnitSplit:
    """Lattices with many unit pivots, which the package once split into
    the unit rows U and the rest before saturating: ``sparse_saturation``
    takes them whole and gives the saturation that the full elimination of
    ``helpers`` is the reference for, with its index, and that index is the
    order of the saturation modulo the lattice."""

    @staticmethod
    def assert_split(rows, width, primes):
        saturated, index = sparse_saturation(rows, width, primes)
        want, want_index = full_elimination_saturation(rows, width, primes)
        assert saturated == want
        assert index == want_index
        assert group_order(present_quotient(saturated, rows)) == index

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=row_lists())
    def test_row_lists(self, data):
        rows, width = data
        self.assert_split([{k: v for k, v in enumerate(r) if v} for r in rows], width, [2, 3])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(system=unit_heavy_systems())
    def test_unit_heavy_systems(self, system):
        columns, nrows = system
        self.assert_split(columns, nrows, [2, 3])

    def test_boundaries_of_the_ladder(self):
        """The bar boundaries of every ladder case but S4 with I_G and J^D
        in degree 2, on which the full elimination of the reference takes
        2-3 s each."""
        for label, rows, width, primes in ladder_boundaries():
            if label not in ("S4 I_G 2", "S4 J^D 2"):
                self.assert_split(rows, width, primes)

    def test_unit_rows_reduce_a_deficient_row(self):
        """(2, 1) and (0, 1): the unit row clears the 1 of the deficient
        row, whose rest (2, 0) saturates at 2 to (1, 0), at index 2."""
        assert sparse_saturation([{0: 2, 1: 1}, {1: 1}], 2, [2]) == (hermite_rows([[1, 0], [0, 1]], 2), 2)


# every way to read a lattice's canonical basis
READERS = {
    "rows": lambda lat: lat.rows,
    "iter": list,
    "repr": repr,
    "sparse_rows": lambda lat: lat.sparse_rows(),
    "solve": lambda lat: lat.solve([0] * lat.width),
    "eq": lambda lat: lat == lat,
}


class TestDeferredReduction:
    """A lattice holds the gcd echelon it came out of and reduces it above
    the pivots, once, when its canonical basis is first read.  The dense
    reduction of the same echelon is the reference."""

    def test_held_echelon_until_read(self):
        """[1 5] leads column 0 before [0 2] leads column 1, so the echelon
        holds the 5 until the rows are read."""
        lat = hermite_rows([[1, 5], [0, 2]], 2)
        with lattice_reads() as (reduced, _):
            assert len(lat) == 2 and lat.contains([1, 5]) and not lat.contains([0, 1])
            assert lat.reduce([3, 3]) == (0, 0)
            assert reduced == [] and held_rows(lat) == ((1, 5), (0, 2))
            assert lat.rows == ((1, 1), (0, 2))
            assert len(reduced) == 1 and reduced[0] is lat

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=row_lists())
    def test_first_read_reduces_once_to_the_eager_rows(self, data):
        rows, width = data
        want = dense_hermite_rows(rows, width)
        for name, read in READERS.items():
            with lattice_reads() as (reduced, _):
                lat = hermite_rows(rows, width)
                echelon = held_rows(lat)
                assert len(lat) == len(want)
                lat.contains([0] * width)
                lat.reduce([0] * width)
                assert reduced == [], name
                read(lat)
                assert len(reduced) == 1 and reduced[0] is lat, name
                for again in READERS.values():
                    again(lat)
                assert len(reduced) == 1 and reduced[0] is lat, name
            assert lat.rows == dense_hermite_rows(echelon, width) == want, name

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(system=unit_heavy_systems())
    def test_kernels_and_saturations_reduce_to_the_eager_rows(self, system):
        columns, nrows = system
        lattices = [preimage_kernel(columns[:w], nrows, columns[w:])
                    for w in sorted({0, len(columns) // 2, len(columns)})]
        lattices.append(sparse_saturation(columns, nrows, [2, 3])[0])
        for lat in lattices:
            echelon = held_rows(lat)
            assert lat.rows == dense_hermite_rows(echelon, lat.width)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        data=row_lists(),
        coeffs=st.lists(st.integers(-3, 3), min_size=8, max_size=8),
        pick=st.integers(0, 6),
    )
    def test_contains_and_reduce_on_the_echelon(self, data, coeffs, pick):
        """Membership and the canonical representative on the unreduced
        echelon are those on the canonical basis, for vectors in the
        lattice and vectors one off it."""
        rows, width = data
        assume(width)
        held, canonical = hermite_rows(rows, width), hermite_rows(rows, width)
        member = [sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(width)]
        off = list(member)
        off[pick % width] += 1
        with lattice_reads() as (reduced, _):
            assert held.contains(member)
            for vec in (member, off, {k: v for k, v in enumerate(off) if v}):
                assert held.contains(vec) == (canonical.solve(vec) is not None)
                assert held.reduce(vec) == canonical.reduce(vec)
            assert not any(lat is held for lat in reduced)


class TestUnimodularInverse:
    def test_round_trip(self):
        m = IntMatrix([[1, 2], [1, 3]])
        inv = unimodular_inverse(m)
        assert m.mul(inv) == IntMatrix.identity(2)

    def test_rejects_non_unimodular(self):
        for rows in (
            [[2, 0], [0, 1]],
            [[1, 2], [2, 4]],  # singular
            [[2, 1, 0], [1, 2, 0], [0, 0, -1]],  # determinant -3
            [[0, 0], [0, 0]],
        ):
            with pytest.raises(StructuralError):
                unimodular_inverse(IntMatrix(rows))
