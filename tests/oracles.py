"""Independent oracles for the test suite.

Nothing here touches the package's normal-form code: integer elimination
is reimplemented from scratch (gcd column folding), rational kernels use
Fractions, finite quotients are enumerated element by element, and
invariant factors of small explicit matrices come from sympy.  An
agreeing answer here and in the package is evidence, not circularity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import sympy
from sympy.matrices.normalforms import smith_normal_form as _sympy_snf


# -- invariant factors of small dense matrices (sympy path) ---------------


def snf_invariants(rows: list[list[int]], ncols: int) -> tuple[int, tuple[int, ...]]:
    """(free_rank, torsion) of Z^ncols modulo the span of the rows."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return ncols, ()
    d = _sympy_snf(sympy.Matrix(rows))
    diag = [int(abs(d[i, i])) for i in range(min(d.shape))]
    rank = sum(1 for x in diag if x)
    torsion = tuple(sorted(x for x in diag if x > 1))
    return ncols - rank, torsion


# -- from-scratch integer image membership ---------------------------------


def solve_image(columns: list[list[int]], target: list[int]) -> bool:
    """Whether target is an integer combination of the columns.

    Gcd column folding, one coordinate at a time; intentionally different
    in style and pivot choice from the package's Hermite code."""
    cols = [list(c) for c in columns if any(c)]
    t = list(target)
    m = len(t)
    for row in range(m):
        live = [c for c in cols if any(c[row:])]
        nz = [c for c in live if c[row]]
        if not nz:
            if t[row] != 0:
                return False
            cols = live
            continue
        base = nz[0]
        for c in nz[1:]:
            while c[row]:
                if abs(base[row]) > abs(c[row]):
                    base[row:], c[row:] = c[row:], base[row:]
                q = c[row] // base[row]
                for k in range(row, m):
                    c[k] -= q * base[k]
        if t[row] % base[row]:
            return False
        q = t[row] // base[row]
        for k in range(row, m):
            t[k] -= q * base[k]
        cols = [c for c in live if c is not base]
    return all(v == 0 for v in t)


def rational_fixed_space_is_zero(matrices: list[list[list[int]]], n: int) -> bool:
    """Whether (A - I)x = 0 for every listed matrix forces x = 0 over the
    rationals.  Plain fractional Gaussian elimination."""
    rows: list[list[Fraction]] = []
    for a in matrices:
        for i in range(n):
            rows.append([Fraction(a[i][j] - (1 if i == j else 0)) for j in range(n)])
    rank = 0
    for col in range(n):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / pv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank == n


# -- finite abelian groups given by explicit elements -----------------------


class FiniteBoxGroup:
    """A subgroup of (Z/modulus)^dim given by an explicit element list."""

    def __init__(self, modulus: int, elements: list[tuple[int, ...]]):
        self.modulus = modulus
        self.elements = sorted(set(elements))
        self._set = set(self.elements)
        zero = tuple([0] * (len(elements[0]) if elements else 0))
        assert zero in self._set, "a subgroup contains zero"

    def add(self, a, b):
        return tuple((x + y) % self.modulus for x, y in zip(a, b))

    def quotient_invariants(self, image_gens: list[tuple[int, ...]]) -> tuple[int, ...]:
        """Invariant factors of self / <image_gens>."""
        zero = tuple([0] * len(self.elements[0]))
        im = {zero}
        frontier = [zero]
        gens = [tuple(v % self.modulus for v in g) for g in image_gens]
        for g in gens:
            assert g in self._set, "image generators must lie in the subgroup"
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.add(x, g)
                    if y not in im:
                        im.add(y)
                        nxt.append(y)
            frontier = nxt
        seen = set()
        classes = []
        coset_of = {}
        for x in self.elements:
            if x in seen:
                continue
            coset = {self.add(x, y) for y in im}
            seen |= coset
            classes.append(x)
            for c in coset:
                coset_of[c] = x
        return _classify_by_orders(classes, lambda a, b: coset_of[self.add(a, b)], zero, coset_of)


def _classify_by_orders(classes, add, zero, coset_of) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from the counts of
    solutions of p^j * x = 0 (a complete isomorphism invariant)."""
    size = len(classes)
    if size == 1:
        return ()

    def times(d, x):
        total = None
        for _ in range(d):
            total = x if total is None else add(total, x)
        return total

    n = size
    primes = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            primes[p] = primes.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        primes[n] = primes.get(n, 0) + 1

    zero_class = coset_of[zero]
    per_prime: dict[int, list[int]] = {}
    for p, e_max in sorted(primes.items()):
        s = [0]
        for j in range(1, e_max + 1):
            cnt = sum(1 for x in classes if times(p**j, x) == zero_class)
            e = 0
            while p**e < cnt:
                e += 1
            s.append(e)
        # number of partition parts of size >= j is s_j - s_{j-1}
        geq = [s[j] - s[j - 1] for j in range(1, len(s))]
        lam: list[int] = []
        for j, m_j in enumerate(geq, start=1):
            nxt = geq[j] if j < len(geq) else 0
            lam.extend([j] * (m_j - nxt))
        lam.sort(reverse=True)
        per_prime[p] = [p**e for e in lam if e]

    width = max(len(v) for v in per_prime.values())
    out = []
    for i in range(width):
        f = 1
        for lst in per_prime.values():
            if i < len(lst):
                f *= lst[i]
        out.append(f)
    return tuple(sorted(f for f in out if f > 1))


def abelianization_invariants(table: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors of G/[G,G] for the group with multiplication
    table ``table`` (element 0 the identity): the commutator subgroup by
    closure, its cosets enumerated, then classified by element orders."""
    n = len(table)
    inv = [row.index(0) for row in table]
    commutators = {table[table[a][b]][table[inv[a]][inv[b]]] for a in range(n) for b in range(n)}
    derived = {0}
    frontier = [0]
    while frontier:
        frontier = [table[x][c] for x in frontier for c in commutators if table[x][c] not in derived]
        derived.update(frontier)
    coset_of: dict[int, int] = {}
    classes = []
    for x in range(n):
        if x not in coset_of:
            classes.append(x)
            for k in derived:
                coset_of[table[x][k]] = x
    return _classify_by_orders(classes, lambda a, b: coset_of[table[a][b]], 0, coset_of)


# -- Sylow subgroups from the multiplication table -------------------------


def element_order(table: list[list[int]], x: int) -> int:
    """Order of ``x`` in the group with multiplication table ``table``
    (element 0 the identity)."""
    k, y = 1, x
    while y != 0:
        y = table[y][x]
        k += 1
    return k


def exponent(table: list[list[int]]) -> int:
    """Least common multiple of the element orders of the group with
    multiplication table ``table``."""
    return math.lcm(*(element_order(table, x) for x in range(len(table))))


def sylow_subgroups(table: list[list[int]]) -> dict[int, frozenset[int]]:
    """One Sylow p-subgroup, as a set of elements, for each prime p dividing
    the order of the group with multiplication table ``table``.

    A depth-first search over p-subgroups, each the closure of a smaller
    one and one element of p-power order, stops at the first of order the
    full p-part.  Every p-subgroup H lies in a Sylow subgroup P, and
    adjoining an element of P outside H stays inside P, so the search
    reaches one."""
    n = len(table)

    def closure(seeds: set[int]) -> frozenset[int]:
        members = {0}
        frontier = [0]
        while frontier:
            frontier = [table[x][s] for x in frontier for s in seeds if table[x][s] not in members]
            members.update(frontier)
        return frozenset(members)

    def p_power(m: int, p: int) -> bool:
        while m % p == 0:
            m //= p
        return m == 1

    out: dict[int, frozenset[int]] = {}
    rest = n
    for p in range(2, n + 1):
        full = 1
        while rest % p == 0:
            rest //= p
            full *= p
        if full == 1:
            continue
        p_elements = [x for x in range(n) if p_power(element_order(table, x), p)]
        seen: set[frozenset[int]] = set()
        stack = [frozenset({0})]
        while len(stack[-1]) < full:
            sub = stack.pop()
            for x in p_elements:
                grown = closure(sub | {x})
                if grown != sub and grown not in seen and p_power(len(grown), p):
                    seen.add(grown)
                    stack.append(grown)
        out[p] = stack[-1]
    return out


# -- naive subquotient inside a box group -----------------------------------


def box_subquotient_invariants(
    modulus: int,
    dim: int,
    kernel_matrix: list[list[int]],
    kernel_modulus: int,
    image_generators: list[tuple[int, ...]],
) -> tuple[int, ...]:
    """Invariant factors of ker/im inside (Z/modulus)^dim: the kernel of
    x -> K x (mod kernel_modulus) modulo the subgroup generated by the
    given vectors, everything enumerated element by element."""
    box = list(product(range(modulus), repeat=dim))
    ker = [
        x
        for x in box
        if all(
            sum(kernel_matrix[i][j] * x[j] for j in range(dim)) % kernel_modulus == 0
            for i in range(len(kernel_matrix))
        )
    ]
    return FiniteBoxGroup(modulus, ker).quotient_invariants(list(image_generators))


# -- periodic resolution for cyclic groups -----------------------------------


def cyclic_cohomology_invariants(
    action: list[list[int]], order: int, degree: int
) -> tuple[int, ...]:
    """Torsion invariant factors of H^degree of a cyclic group acting on a
    free module through the matrix of a generator, from the periodic
    resolution: H^1 = ker N / im T and H^2 = ker T / im N with T = A - 1,
    N = 1 + A + ... + A^(order-1).

    Both groups are killed by the group order n, and an integer kernel
    lattice is saturated, so L/nL embeds into (Z/n)^rank as the box
    vectors x with (big x) an integer combination of the columns of
    n*big.  The quotient by the image of `small` is then enumerated."""
    n = len(action)
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def mat_mul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    power = ident
    norm = [row[:] for row in ident]
    for _ in range(order - 1):
        power = mat_mul(power, action)
        norm = [[norm[i][j] + power[i][j] for j in range(n)] for i in range(n)]
    t_mat = [[action[i][j] - ident[i][j] for j in range(n)] for i in range(n)]

    if degree == 1:
        big, small = norm, t_mat
    elif degree == 2:
        big, small = t_mat, norm
    else:
        raise ValueError("periodic oracle covers degrees 1 and 2")

    scaled_cols = [[order * big[i][j] for i in range(n)] for j in range(n)]

    def lifts_to_kernel(x) -> bool:
        bx = [sum(big[i][j] * x[j] for j in range(n)) for i in range(n)]
        return solve_image(scaled_cols, bx)

    members = [x for x in product(range(order), repeat=n) if lifts_to_kernel(x)]
    group = FiniteBoxGroup(order, members)
    image_gens = [
        tuple(small[i][j] % order for i in range(n)) for j in range(n)
    ]
    return group.quotient_invariants(image_gens)


# -- brute-force H^1 and its Sha subgroup for a Z-free module ----------------


def h1_and_sha_by_enumeration(
    order: int,
    gen_actions: list[list[list[int]]],
    all_element_actions: list[list[list[int]]],
    cyclic_generators: list[int],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(invariant factors of H^1, invariant factors of Sha^1_cyc) for a
    Z-free module over a group of the given order, assuming the fixed
    space is trivial over Q (checked; the caller picks such modules).

    Route: from 0 -> M -n-> M -> M/nM -> 0 and n H^1 = 0, the connecting
    map identifies H^1(M) with (M/nM)^G / image(M^G); the fixed space is
    zero, so H^1(M) is the fixed subgroup of the box (Z/n)^rank.  The
    class of a fixed x restricted to the cyclic subgroup generated by c
    is trivial iff ((c-1)·lift(x))/n lies in the image of (c-1), an exact
    integer membership decided by the from-scratch eliminator."""
    n_rank = len(gen_actions[0]) if gen_actions else 0
    assert rational_fixed_space_is_zero(gen_actions, n_rank), (
        "oracle precondition: the fixed space must vanish"
    )
    fixed = []
    for x in product(range(order), repeat=n_rank):
        ok = True
        for a in gen_actions:
            for i in range(n_rank):
                if (
                    sum(a[i][j] * x[j] for j in range(n_rank)) - x[i]
                ) % order != 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            fixed.append(tuple(x))
    h1_group = FiniteBoxGroup(order, fixed)
    h1 = h1_group.quotient_invariants([])

    def cocycle_value(x, elt: int) -> list[int]:
        a = all_element_actions[elt]
        return [
            (sum(a[i][j] * x[j] for j in range(n_rank)) - x[i]) // order
            for i in range(n_rank)
        ]

    sha_members = []
    for x in fixed:
        dies_everywhere = True
        for c in cyclic_generators:
            a = all_element_actions[c]
            t_cols = [
                [a[i][j] - (1 if i == j else 0) for i in range(n_rank)]
                for j in range(n_rank)
            ]
            if not solve_image(t_cols, cocycle_value(x, c)):
                dies_everywhere = False
                break
        if dies_everywhere:
            sha_members.append(x)
    sha = FiniteBoxGroup(order, sha_members).quotient_invariants([])
    return h1, sha
