"""Group cohomology H^0..H^2 and hypercohomology of two-term complexes,
computed on the relation module of the breadth-first tree and read back
to inhomogeneous (bar) cochains.

Bar cochains.  The cochain space C^i(G, M) is Maps(G^i, M), realized as a
presented abelian group of rank |G|^i * rank(M): coordinates are blocks of
module coordinates indexed by i-tuples of element indices in
lexicographic order.  The differential is the standard one,

  (d c)(g_1,...,g_{i+1}) = g_1 . c(g_2,...,g_{i+1})
                           + sum_k (-1)^k c(...,g_k g_{k+1},...)
                           + (-1)^{i+1} c(g_1,...,g_i),

with no normalization assumed.  For a two-term complex f : A -> B (A in
degree 0, B in degree 1) the bar total complex is T^n = C^n(A) + C^{n-1}(B)
with the fixed sign convention

  D(a, b) = (d a, f(a) - d b);

any consistent convention yields isomorphic groups, but this one is pinned
so that representative-level tests are stable.  A module M is the complex
M -> 0, whose T^n is C^n(M).  HH^i = Z^i / B^i on presented groups: Z^i the
cochains whose coboundary lies in the relation rows R of T^{i+1} (the
module's relations in every block), B^i the image of D^{i-1} plus R.  The
printed representatives, the cochain of each class and the recheck of
the Sha conditions (see :mod:`shacalc.sha`) live in these coordinates.
Nothing builds the bar d^2: the builders give d^0 and d^1.

The relation complex.  Values are computed on a complex of width about
E * rk instead of |G|^i * rk.  Let s_1..s_k be the listed generators, w_x
the stored word of x, and P_x the path from 1 along w_x in the Cayley graph
Gamma: vertices G, an edge (x, l) from x to x s_l, and G acting by left
translation.  An edge (e, l) is on the tree when the word of e s_l is that
of e followed by l; the E others are ``FiniteGroup.off_tree_edges`` (the
one definition of the tree; E = |G|(k - 1) + 1 on breadth-first words).
Edge n = (e, l) off the tree closes the cycle z_n = P_e + (e, l) - P_{e s_l}.
For a module X with matrices M(x): the walk L_X : X^k -> C^1(X),
L(v)(x) = the sum of M(p) v_l over the edges (p, l) of P_x; the relator map
rho_X(v)_n = L(v)(e s_l) - L(v)(e) - M(e) v_l; and delta_X x = ((s_l - 1) x)_l.
Then

  T^0 = A,   T^1 = A^k + B,   T^2 = A^E + B^k,   T^3 = A^{kE} + B^E,
  D^0 a = (delta_A a, f a),
  D^1 (v, b) = (rho_A v, (f v_l)_l - delta_B b),
  D^2 (a, beta) = ((a(s_l z_n) - s_l a_n)_{l,n}, (f a_n)_n - rho_B beta),

where a(s_l z_n) is the signed sum of a over the off-tree edges crossed
by the translated cycle s_l z_n: s_l P_e, the edge (s_l e, l_n), then
s_l P_{e s_{l_n}} backwards, with coefficients 0 and +-1.  R^i is the
relation rows of A and of B in each of their blocks, and
HH^i = Z^i / (im D^{i-1} + R^i), Z^i the vectors that D^i sends into
R^{i+1}.  D o D lands in R: the action is a homomorphism, and f commutes
with it, modulo the relations.

Why T computes HH.  Let Z_1 = H_1(Gamma), the kernel of
Z[G]^k -> Z[G], x e_l -> x s_l - x, where x e_l is the edge (x, l).  Gamma is
connected, so 0 -> Z_1 -> Z[G]^k -> Z[G] -> Z -> 0 is exact: Gruenberg's
relation sequence (Cohomological Topics in Group Theory, LNM 143), Z_1
being the relation module N^ab of the presentation on the s_l.  Take a
free F_2 onto Z_1 and a free F_3 onto the kernel of F_2 -> Z_1; with
Z[G]^k and Z[G] that is a free resolution of Z.  In degrees <= 2 the total
complex of Hom_G(F, A -> B) sees F_2 only through Z_1: the A part of a
degree-2 cocycle kills the image of F_3, so factors through Z_1, and the
other conditions and every coboundary read F_2 through its image.  So
HH^i, i <= 2, is computed by the complex with Hom_G(Z_1, A) for
Hom_G(F_2, A).  In the coordinates v_l = phi(e_l) of a G-map on Z[G]^k and
a_n = -alpha(z_n) of a G-map on Z_1 that complex is T: L(v)(x) =
phi_v(P_x), so rho(v)_n = -phi_v(z_n), and the G-maps on Z_1 are the
vectors on which the equivariance rows vanish, as follows.

Equivariance on the z-basis.  The tree edges form a forest (each vertex
has at most one tree edge in, and word length grows along it), and
Pi(m) = z_m, for every edge m = (e, l), is zero on it and the identity on
Z_1: on a cycle the P terms of its edges cancel.  For a in X^E let psi_a
be a_n on the off-tree edge n and 0 on the tree, so psi_a(s_l z_n) is the
signed sum above.  If alpha is a G-map on Z_1 and a_n = alpha(z_n), then
psi_a = alpha o Pi and every row alpha(s_l z_n) - s_l alpha(z_n) vanishes.
Conversely, let the rows vanish (modulo R) and alpha = psi_a on Z_1.  A
cycle c is Pi(c), the sum of c_n z_n over its off-tree edges, so
alpha(s_l c) = s_l alpha(c): alpha commutes with the generators, so with G,
and a_n = psi_a(n) = s_l^-1 alpha(s_l z_n) = alpha(z_n).  Nothing here
needs the z_n to be independent, so any stored words do: on words that are
not prefix-closed more than |G|(k - 1) + 1 edges are off the tree, and the
rows tie the extra coordinates to the others.

The bar maps.  Let gamma(x, y) = P_x + x P_y - P_{xy}, a cycle.  W from T to
the bar complex is

  W_0 = id,   W_1 (v, b) = (L_A v, b),
  W_2 (a, beta) = (c, L_B beta),  c(x, y) = -psi_a(gamma(x, y)),

which on breadth-first words, where P_x is on the tree, is minus the sum
of a_n over the off-tree edges on the path x w_y.  It comes from the
G-chain map [x] -> P_x, [x|y] -> gamma(x, y) from the bar resolution, whose
boundaries match: d[x|y] = x[y] - [xy] + [x] goes to x P_y - P_xy + P_x.  So
W is a chain map modulo R, and it induces an isomorphism on HH (the
comparison theorem).  Back, for a bar 2-cochain c let theta_c(zeta) be the
signed sum of c(p, s_l) over the edges (p, l) of a cycle zeta.  For a
cocycle, c(g p, s) = g c(p, s) + c(g, p s) - c(g, p), whose last two terms
cancel around zeta, so theta_c is a G-map on Z_1.  V is

  V_0 = id,   V_1 (c, b) = ((c(s_l))_l, b),
  V_2 (c, gamma) = (a, (gamma(s_l))_l),  a_n = -theta_c(z_n).

It sends cocycles to cocycles and commutes with the differentials
(V_2 (d c) = D^1 V_1 (c): the c(p s) - c(p) terms cancel around z_n), and
V o W is the identity on cocycles when each generator's stored word is
its one letter.  Otherwise V o W comes from the chain map e_l -> P_{s_l} of
the resolution, which the homotopy h(e_l) = P_{s_l} - e_l in Z_1 joins to
the identity; so V always induces the inverse of W.  A class solve is
V(c) solved on Z^i.  In degree 1, c is a cocycle iff V_1(c) lies in Z^1
and c - W_1 V_1 (c) lies in R blockwise, since a 1-cocycle of A is the walk
of its values modulo R.  In degree 2, c is a cocycle iff it lies in
Z^2_bar = W_2(Z^2) + B^2_bar + R, since W induces an isomorphism.  In
degree 1 the bar boundaries (d a, f a) already lie in W_1(Z^1) + R, since
L_A(delta_A a) = d a modulo R.

The two forms.  The value is Z^i / (im D^{i-1} + R^i), presented with
``present_quotient`` on the Hermite basis of Z^i:

* the saturation form, for Z-free coefficients K whenever HH^i of the
  trivial group is finite: a module in degree >= 1, a complex in degree
  >= 2, or a complex in degree 1 when coker f is finite.  Since cor o res
  = |G|, e = |G| * exp HH^i(1, K) kills HH^i(G, K) (Brown, Cohomology of
  Groups, III.9-10).  T^{i+1} is torsion-free, so a vector with a multiple
  in B^i = im D^{i-1} + R^i is a cocycle, and e times a cocycle lies in
  B^i: Z^i = sat(B^i) at the primes of e.  D^i is not built;
* the kernel form, everywhere else: Z^i is the preimage under D^i of
  R^{i+1}, one ``preimage_kernel``.  Only this form builds D^2.

The cap (``--cap``) bounds what is eliminated and is reported as the
measure: the equation rows dim T^{i+1} of the kernel form, the width
dim T^i of the saturation form, and, on the first read of anything in bar
coordinates (a cochain, a Sha condition, the representatives), the rank
of the bar T^i.

Action columns.  The builders read M(x) as sparse columns, which each
computation converts from the module's matrix when it first reads x, once,
and drops with its complex.  D^0 and D^2 read the generators only (delta
is ``_Cochains.delta_cols``), so a value in the saturation form of degree
1 converts k matrices, not |G|; the walk L and the bar d^0 and d^1 read
every element.  A subgroup's complex takes its elements' columns from the
ambient's.

The value layout.  :class:`CohomologyGroup` holds the value lattice Z^i in
T^i, W_i as one linear form per coordinate of the bar T^i, built on first
read, and V_i as one form per coordinate of T^i.  The printed
representatives are the canonical Hermite basis of Z^i_bar, which depends
only on that lattice, built on first read from W_i(Z^i), B^2_bar in
degree 2, and R.

No command restricts a computed group to a subgroup: a Sha condition at
H takes V_H of the ambient's cocycles W_i(z), read at the bar
coordinates of H, into T^i of the relation complex of H, where a class
of H is zero iff it lies in im D^{i-1}_H + R (see :mod:`shacalc.sha`).
The restriction map on cohomology is kept only as the reference the
tests compare against, ``tests/helpers.restriction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .abelian import PresentedAbelianGroup, class_on_basis, present_quotient
from .errors import InternalError, ResourceError, StructuralError
from .gmodules import GModule, GModuleHom, zero_module
from .groups import FiniteGroup, _prime_factors
from .intlinalg import (
    IntMatrix,
    Lattice,
    hermite_rows,
    preimage_kernel,
    sparse_from_matrix,
    sparse_saturation,
)

DEFAULT_COCHAIN_CAP = 20000


@dataclass(frozen=True)
class TwoTermComplex:
    """An equivariant map viewed as a complex: source in degree 0, target
    in degree 1."""

    f: GModuleHom

    @property
    def degree0(self) -> GModule:
        return self.f.source

    @property
    def degree1(self) -> GModule:
        return self.f.target

    @property
    def group(self) -> FiniteGroup:
        return self.f.source.group


def _module_complex(module: GModule) -> TwoTermComplex:
    """The module as the complex M -> 0."""
    zero = zero_module(module.group)
    return TwoTermComplex(GModuleHom(module, zero, IntMatrix.zeros(0, module.rank)))


# ---------------------------------------------------------------------------
# Cochain machinery
# ---------------------------------------------------------------------------


class _Cochains:
    """Index bookkeeping and sparse differentials for one term of a
    :class:`_TotalComplex`: coordinate idx(t) * rk + j of C^i is entry j
    of the value at the i-tuple t, idx the lexicographic index.

    An element's action matrix is turned into sparse columns when a builder
    first reads it (:meth:`columns`), once per term, and the columns go
    with the term: a value that reads D^0 on the generators alone converts
    only their matrices."""

    def __init__(self, group: FiniteGroup, module: GModule):
        self.group = group
        self.module = module
        self.gm = module.rank
        self._cols: list[list[dict[int, int]] | None] = [None] * group.order

    def columns(self, x: int) -> list[dict[int, int]]:
        """The sparse columns of the action matrix of element x, converted
        on first read; none for the zero module."""
        cols = self._cols[x]
        if cols is None:
            cols = self._cols[x] = sparse_from_matrix(self.module.element_matrix(x)) if self.gm else []
        return cols

    def on(self, group: FiniteGroup, embed: Sequence[int]) -> "_Cochains":
        """The same coefficients over a subgroup, given as a standalone
        ``group`` and its embedding: each element acts by the parent's
        columns, read from the parent once, so shared, not rebuilt."""
        sub = _Cochains.__new__(_Cochains)
        sub.group, sub.module, sub.gm = group, self.module, self.gm
        sub._cols = [self.columns(e) for e in embed]
        return sub

    def selection(self, i: int, embed: Sequence[int]) -> list[int]:
        """For each C^i coordinate of the subgroup with embedding ``embed``,
        the coordinate of this (parent) term."""
        tuples = [0]
        for _ in range(i):
            tuples = [p * self.group.order + e for p in tuples for e in embed]
        return [t * self.gm + j for t in tuples for j in range(self.gm)]

    def dim(self, i: int) -> int:
        return self.group.order**i * self.gm

    def diff_cols(self, i: int) -> list[dict[int, int]]:
        """Columns of d^i : C^i -> C^{i+1} for i = 0 or 1.  Nothing reads
        d^2 of bar cochains; the tests keep it as a reference."""
        order, table, inverse = self.group.order, self.group.table, self.group.inverse
        elt = [self.columns(x) for x in range(order)]
        cols: list[dict[int, int]] = []
        for t in range(order**i):
            # (row, columns of x) for the leading term, value A(x) e_j, and
            # the unit terms, value sign * e_j, summed once for every j
            if i == 0:
                lead = list(enumerate(elt))
                units = dict.fromkeys(range(order), -1)
            else:
                # (x, t); the final term (t, b); the contraction (t b^-1, b),
                # with sign -1
                lead = [(x * order + t, elt[x]) for x in range(order)]
                units = dict.fromkeys(range(t * order, (t + 1) * order), 1)
                for b in range(order):
                    row = table[t][inverse[b]] * order + b
                    units[row] = units.get(row, 0) - 1
            for j in range(self.gm):
                col = {row * self.gm + j: v for row, v in units.items()}
                for row, x_cols in lead:
                    for r, v in x_cols[j].items():
                        col[row * self.gm + r] = col.get(row * self.gm + r, 0) + v
                cols.append({k: v for k, v in col.items() if v})
        return cols

    def delta_cols(self) -> list[dict[int, int]]:
        """Columns of delta x = ((s_l - 1) x)_l : X -> X^k on the listed
        generators, block l on rows l*rk .. l*rk + rk-1: the bar d^0 on the
        rows of the generators, which reads their matrices alone."""
        gm, gens = self.gm, [self.columns(s) for s in self.group.generators]
        cols = []
        for j in range(gm):
            col: dict[int, int] = {}
            for l, s_cols in enumerate(gens):
                col.update((l * gm + r, v) for r, v in s_cols[j].items())
                col[l * gm + j] = col.get(l * gm + j, 0) - 1
            cols.append({r: v for r, v in col.items() if v})
        return cols

    def relation_cols(self, i: int) -> list[dict[int, int]]:
        """The module's relators embedded in every tuple block of C^i."""
        return self.relation_blocks(self.group.order**i)

    def relation_blocks(self, blocks: int) -> list[dict[int, int]]:
        """The module's relation rows in each of ``blocks`` blocks of module
        coordinates."""
        gm = self.gm
        return [
            {b * gm + k: a for k, a in enumerate(rel) if a}
            for b in range(blocks)
            for rel in self.module.underlying.relation_rows
        ]

    def block_contains(self, i: int, vec: Sequence[int]) -> bool:
        """Whether a C^i vector lies in the embedded relation lattice."""
        und = self.module.underlying
        gm = self.gm
        for block in range(self.group.order**i):
            if not und.contains_relation(vec[block * gm : (block + 1) * gm]):
                return False
        return True


class _TotalComplex:
    """T^n = C^n(A) + C^{n-1}(B), D(a,b) = (dA a, f(a) - dB b)."""

    def __init__(self, group: FiniteGroup, complex_: TwoTermComplex):
        self.ca = _Cochains(group, complex_.degree0)
        self.cb = _Cochains(group, complex_.degree1)
        self.f_cols = sparse_from_matrix(complex_.f.matrix)

    def on(self, group: FiniteGroup, embed: Sequence[int]) -> "_TotalComplex":
        """The total complex of the restricted coefficients over a subgroup
        (see :meth:`_Cochains.on`); ``f`` is the same map."""
        sub = _TotalComplex.__new__(_TotalComplex)
        sub.ca, sub.cb, sub.f_cols = self.ca.on(group, embed), self.cb.on(group, embed), self.f_cols
        return sub

    def selection(self, n: int, embed: Sequence[int]) -> tuple[int, ...]:
        """For each T^n coordinate of the subgroup, the coordinate of this
        complex: the C^n(A) part, then the C^{n-1}(B) part."""
        sel = self.ca.selection(n, embed)
        if n >= 1:
            a_dim = self.ca.dim(n)
            sel += [a_dim + s for s in self.cb.selection(n - 1, embed)]
        return tuple(sel)

    def dim(self, n: int) -> int:
        return self.ca.dim(n) + (self.cb.dim(n - 1) if n >= 1 else 0)

    def diff_cols(self, n: int) -> list[dict[int, int]]:
        """Columns of D^n : T^n -> T^{n+1}."""
        a_tgt = self.ca.dim(n + 1)
        cols = self.ca.diff_cols(n)  # built afresh, so f is added in place
        gm_a, gm_b = self.ca.gm, self.cb.gm
        for src, col in enumerate(cols):
            # f applied pointwise: block structure is shared
            block, j = divmod(src, gm_a)
            for r, v in self.f_cols[j].items():
                col[a_tgt + block * gm_b + r] = col.get(a_tgt + block * gm_b + r, 0) + v
            cols[src] = {k: v for k, v in col.items() if v}
        b_part = self.cb.diff_cols(n - 1) if n >= 1 else []
        return cols + [{a_tgt + k: -v for k, v in col.items()} for col in b_part]

    def relation_cols(self, n: int) -> list[dict[int, int]]:
        a_tgt = self.ca.dim(n)
        b_part = self.cb.relation_cols(n - 1) if n >= 1 else []
        return self.ca.relation_cols(n) + [{a_tgt + k: v for k, v in col.items()} for col in b_part]

    def block_contains(self, n: int, vec: Sequence[int]) -> bool:
        a_dim = self.ca.dim(n)
        return self.ca.block_contains(n, vec[:a_dim]) and (n == 0 or self.cb.block_contains(n - 1, vec[a_dim:]))


# ---------------------------------------------------------------------------
# The relation complex
# ---------------------------------------------------------------------------


class _RelationComplex:
    """T^0..T^3 of the relation module for f : A -> B (see the module
    docstring), built on the bar complex ``t`` for its action columns; the
    maps W and V to and from bar cochains, as linear forms."""

    def __init__(self, t: _TotalComplex):
        self.t = t
        group = self.group = t.ca.group
        self.gens = list(group.generators)
        self.edges = group.off_tree_edges()
        self.index = {edge: n for n, edge in enumerate(self.edges)}
        k, e = len(self.gens), len(self.edges)
        # the blocks of A and of B in T^0..T^3
        self.blocks = ((1, 0), (k, 1), (e, k), (k * e, e))

    def dim(self, i: int) -> int:
        a, b = self.blocks[i]
        return a * self.t.ca.gm + b * self.t.cb.gm

    @cached_property
    def walk_a(self) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
        """(L, rho) of A, computed once."""
        return _walk(self.t.ca)

    @cached_property
    def walk_b(self) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
        return _walk(self.t.cb)

    def relation_cols(self, i: int) -> list[dict[int, int]]:
        a, b = self.blocks[i]
        b_part = self.t.cb.relation_blocks(b)
        return self.t.ca.relation_blocks(a) + [{a * self.t.ca.gm + r: v for r, v in col.items()} for col in b_part]

    def diff_cols(self, i: int) -> list[dict[int, int]]:
        """Columns of D^i : T^i -> T^{i+1}."""
        t, gens = self.t, self.gens
        ra, rb = t.ca.gm, t.cb.gm
        k, e = len(gens), len(self.edges)
        if i == 0:
            # (delta_A a, f a)
            return [
                {**col, **{k * ra + r: v for r, v in t.f_cols[j].items()}}
                for j, col in enumerate(t.ca.delta_cols())
            ]
        if i == 1:
            # (rho_A v, (f v_l)_l - delta_B b)
            cols = [dict(col) for col in self.walk_a[1]]
            for u, col in enumerate(cols):
                l, j = divmod(u, ra)
                col.update((e * ra + l * rb + r, v) for r, v in t.f_cols[j].items())
            return cols + [{e * ra + r: -v for r, v in col.items()} for col in t.cb.delta_cols()]
        # ((a(s_l z_n) - s_l a_n)_{l,n}, (f a_n)_n - rho_B beta), the block of
        # (l, n) at n * k + l
        cols: list[dict[int, int]] = [{} for _ in range(e * ra)]
        gen_cols = [t.ca.columns(s) for s in gens]
        for n in range(e):
            for l, s in enumerate(gens):
                block = n * k + l
                for m, c in self._crossed(self._loop(n), s).items():
                    for j in range(ra):
                        cols[m * ra + j][block * ra + j] = c
                for j in range(ra):
                    col = cols[n * ra + j]
                    for r, v in gen_cols[l][j].items():
                        col[block * ra + r] = col.get(block * ra + r, 0) - v
            for j in range(ra):
                cols[n * ra + j].update((k * e * ra + n * rb + r, v) for r, v in t.f_cols[j].items())
        cols = [{r: v for r, v in col.items() if v} for col in cols]
        return cols + [{k * e * ra + r: -v for r, v in col.items()} for col in self.walk_b[1]]

    def _path(self, x: int, word: Sequence[int], sign: int) -> list[tuple[int, int, int]]:
        """The edges (p, l) of the path from x along ``word``, each with
        ``sign``."""
        out = []
        for l in word:
            out.append((x, l, sign))
            x = self.group.table[x][self.gens[l]]
        return out

    def _loop(self, n: int) -> list[tuple[int, int, int]]:
        """The signed edges of z_n: P_e, the edge n, P_{e s_l} backwards."""
        (e, l), words = self.edges[n], self.group.element_words
        return self._path(0, words[e], 1) + [(e, l, 1)] + self._path(0, words[self.group.table[e][self.gens[l]]], -1)

    def _crossed(self, edges: list[tuple[int, int, int]], g: int = 0) -> dict[int, int]:
        """The off-tree edges crossed by the signed edges translated by g,
        with their signed counts: the cycle in the z-basis."""
        table, out = self.group.table, {}
        for p, l, sign in edges:
            n = self.index.get((table[g][p], l))
            if n is not None:
                out[n] = out.get(n, 0) + sign
        return {n: c for n, c in out.items() if c}

    def bar_forms(self, i: int) -> list[dict[int, int]]:
        """W_i: for each coordinate of the bar T^i, a linear form
        {T^i coordinate: coefficient}."""
        ra, rb = self.t.ca.gm, self.t.cb.gm
        if i == 0:
            return [{j: 1} for j in range(ra)]
        a_dim = self.blocks[i][0] * ra
        if i == 1:
            return self.walk_a[0] + [{a_dim + j: 1} for j in range(rb)]
        # c(x, y) = -psi_a(gamma(x, y)), gamma(x, y) = P_x + x P_y - P_xy
        group, words, forms = self.group, self.group.element_words, []
        for x in range(group.order):
            for y in range(group.order):
                gamma = self._path(0, words[x], 1) + self._path(x, words[y], 1)
                crossed = self._crossed(gamma + self._path(0, words[group.table[x][y]], -1))
                forms += ({n * ra + j: -c for n, c in crossed.items()} for j in range(ra))
        return forms + [{a_dim + u: a for u, a in form.items()} for form in self.walk_b[0]]

    def value_forms(self, i: int) -> list[dict[int, int]]:
        """V_i: for each coordinate of T^i, a linear form {bar coordinate:
        coefficient}."""
        t, gens, order = self.t, self.gens, self.group.order
        ra, rb = t.ca.gm, t.cb.gm
        if i == 0:
            return [{j: 1} for j in range(ra)]
        a_dim = t.ca.dim(i)
        if i == 1:
            return [{s * ra + j: 1} for s in gens for j in range(ra)] + [{a_dim + j: 1} for j in range(rb)]
        # a_n = -theta_c(z_n), c read at (p, s_l) on the edges of z_n
        forms = []
        for n in range(len(self.edges)):
            acc: dict[int, int] = {}
            for p, l, sign in self._loop(n):
                key = p * order + gens[l]
                acc[key] = acc.get(key, 0) - sign
            forms += ({key * ra + j: c for key, c in acc.items() if c} for j in range(ra))
        return forms + [{a_dim + s * rb + j: 1} for s in gens for j in range(rb)]


def _walk(c: _Cochains) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """The walk L from X^k to C^1(X), one linear form per coordinate of
    C^1, and rho, as sparse columns on one block of rk rows per edge off the
    breadth-first tree (see the module docstring).  v_l is the unknowns
    l*rk .. l*rk + rk-1."""
    group, rk = c.group, c.gm
    gens, words, table = group.generators, group.element_words, group.table
    edges = group.off_tree_edges()
    elt = [c.columns(x) for x in range(group.order)]

    def add_step(value: list[dict[int, int]], x: int, l: int, sign: int) -> None:
        """value += sign * M(x) v_l, in place, one form per coordinate of X."""
        for j, col in enumerate(elt[x]):
            u = l * rk + j
            for r, a in col.items():
                value[r][u] = value[r].get(u, 0) + sign * a

    # values[e] = L(v)(e), walked along the stored words from the identity's
    # empty one: c(p s_l) = c(p) + M(p) v_l
    values: list[list[dict[int, int]]] = [[{} for _ in range(rk)] for _ in range(group.order)]
    steps = group.word_prefixes()
    for e in sorted(range(1, group.order), key=lambda e: len(words[e])):
        p, tail = steps[e]
        value = [dict(form) for form in values[p]]
        for l in tail:
            add_step(value, p, l, 1)
            p = table[p][gens[l]]
        values[e] = value
    # one relator block c(e s_l) - c(e) - M(e) v_l per edge off the tree
    cols: list[dict[int, int]] = [{} for _ in range(len(gens) * rk)]
    for n, (e, l) in enumerate(edges):
        relator = [dict(form) for form in values[table[e][gens[l]]]]
        add_step(relator, e, l, -1)
        for r, (form, other) in enumerate(zip(relator, values[e])):
            for u, a in other.items():
                form[u] = form.get(u, 0) - a
            for u, a in form.items():
                if a:
                    cols[u][n * rk + r] = a
    return [form for value in values for form in value], cols


# ---------------------------------------------------------------------------
# Cohomology groups
# ---------------------------------------------------------------------------


@dataclass
class CohomologyGroup:
    """A computed H^i or HH^i: its value as a presented abelian group, the
    cocycle of each class, and a membership procedure taking a cocycle to
    its class coordinates.

    The value is presented on the rows of ``lattice``, Z^i in T^i of the
    relation complex ``_complex``.  Cochains are bar cochains, in the
    coordinates of ``_cochains``: :meth:`cochain` gives the cocycle W_i(z)
    of a class given on the value's generators, :meth:`class_coords` the
    class of a cocycle c, that of V_i(c).  W_i is built on first read,
    within ``_cap``.  The printed ``representatives`` are the canonical
    Hermite basis of Z^i_bar, built on first read (see the module
    docstring)."""

    degree: int
    group: FiniteGroup
    coefficients: TwoTermComplex  # a module M as M -> 0
    group_value: PresentedAbelianGroup
    lattice: Lattice
    _cochains: _TotalComplex = field(repr=False)
    _complex: _RelationComplex = field(repr=False)
    _cap: int = field(default=DEFAULT_COCHAIN_CAP, repr=False)

    @cached_property
    def _bar(self) -> list[dict[int, int]]:
        """W_i, one linear form per coordinate of the bar T^i, whose rank
        the cap bounds."""
        rank = self._cochains.dim(self.degree)
        if rank > self._cap:
            raise ResourceError(
                f"degree-{self.degree} cochain space has rank {rank}, over the cap {self._cap}",
                dimension=rank,
            )
        return self._complex.bar_forms(self.degree)

    def _read(self, vec: dict[int, int], coords: Sequence[int]) -> dict[int, int]:
        """The entries at ``coords``, numbered by position, of the cochain
        W_i(vec) of a sparse vector of T^i."""
        return _evaluate(self._bar, vec, coords)

    def _cochain_of(self, vec: dict[int, int]) -> dict[int, int]:
        """The cochain W_i(vec), sparse, of a sparse vector of T^i."""
        return self._read(vec, range(len(self._bar)))

    def _dense(self, vec: dict[int, int]) -> tuple[int, ...]:
        return tuple(vec.get(k, 0) for k in range(self._cochains.dim(self.degree)))

    def _boundaries(self) -> list[dict[int, int]]:
        """The bar boundaries that W_i(Z^i) does not reach: B^2_bar in
        degree 2, and the relation rows R of the bar T^i."""
        t = self._cochains
        return (t.diff_cols(1) if self.degree == 2 else []) + t.relation_cols(self.degree)

    def cochain(self, coords: Sequence[int]) -> tuple[int, ...]:
        """The cocycle sum of coords[t] times generator t of the value."""
        vec = _combination(self.lattice.sparse_rows(), {t: c for t, c in enumerate(coords) if c})
        return self._dense(self._cochain_of(vec))

    def class_coords(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a cocycle's class on the computed generators, the
        class of V_i(c); a vector that is no cocycle raises
        :class:`StructuralError`.  In degree 2, c is a cocycle iff it lies
        in Z^2_bar; else iff V_i(c) lies in Z^i and c - W_i V_i(c) in the
        relation rows (see the module docstring)."""
        if len(vec) != self._cochains.dim(self.degree):
            raise StructuralError("vector length does not match the cochain rank")
        if self.degree == 2 and not self._cocycles.contains(vec):
            raise StructuralError("vector is not a cocycle")
        forms = self._complex.value_forms(self.degree)
        values = _evaluate(forms, {k: v for k, v in enumerate(vec) if v}, range(len(forms)))
        coords = class_on_basis(self.group_value, self.lattice, values)
        if self.degree < 2:
            walked = self._cochain_of(values)
            if not self._cochains.block_contains(self.degree, [v - walked.get(k, 0) for k, v in enumerate(vec)]):
                raise StructuralError("vector is not a cocycle")
        return coords

    @cached_property
    def _cocycles(self) -> Lattice:
        """Z^i_bar = W_i(Z^i) + B^i_bar + R, built on first read.  The rows
        go in last-first, the sparse boundaries before the dense cocycles,
        whose entries then mostly meet pivots already there."""
        walked = [self._cochain_of(row) for row in self.lattice.sparse_rows()]
        return hermite_rows((walked + self._boundaries())[::-1], self._cochains.dim(self.degree))

    @property
    def representatives(self) -> tuple[tuple[int, ...], ...]:
        return self._cocycles.rows

    def preimage_representatives(self, rows: Sequence[dict[int, int]]) -> tuple[tuple[int, ...], ...]:
        """The cochains of the canonical Hermite basis, in the coordinates
        of the representatives, of the cocycles whose classes lie in the
        subgroup spanned by the sparse ``rows``, which are given on every
        generator of the value and span its relations.

        Those cocycles are W_i of the value-lattice vectors the rows give,
        plus the boundaries that W_i(Z^i) does not reach (see
        :meth:`_boundaries`).  Each is solved on Z^i_bar."""
        cocycles = self._cocycles
        lattice = self.lattice.sparse_rows()
        vectors = [self._cochain_of(_combination(lattice, row)) for row in rows] + self._boundaries()
        coords = []
        for vec in vectors:
            c = cocycles.solve(vec)
            if c is None:
                raise InternalError(f"a cocycle of the value escapes Z^{self.degree}")
            coords.append(c)
        reps = cocycles.sparse_rows()
        basis = hermite_rows(coords, len(cocycles))
        return tuple(self._dense(_combination(reps, b)) for b in basis.sparse_rows())

    def __str__(self) -> str:
        return str(self.group_value)


def _combination(rows: Sequence[dict[int, int]], coeffs: dict[int, int]) -> dict[int, int]:
    """The sum of coeffs[t] * rows[t], sparse."""
    acc: dict[int, int] = {}
    for t, c in coeffs.items():
        for k, v in rows[t].items():
            acc[k] = acc.get(k, 0) + c * v
    return {k: v for k, v in acc.items() if v}


def _evaluate(forms: Sequence[dict[int, int]], vec: dict[int, int], at: Iterable[int]) -> dict[int, int]:
    """The linear forms at ``at`` on a sparse vector, numbered by position."""
    out = {}
    for r, s in enumerate(at):
        x = sum(a * vec[u] for u, a in forms[s].items() if u in vec)
        if x:
            out[r] = x
    return out


def _hypercohomology(
    group: FiniteGroup, complex_: TwoTermComplex, degree: int, cochain_cap: int
) -> CohomologyGroup:
    """HH^degree(group, A -> B) on the relation complex, in the saturation
    form when a torsion bound is known, else in the kernel form.  The cap
    bounds the width the saturation form saturates in, or the equation
    rows of the kernel form."""
    if degree not in (0, 1, 2):
        raise StructuralError("only degrees 0..2 are supported")
    t = _TotalComplex(group, complex_)
    rel = _RelationComplex(t)
    torsion_bound = _hyper_torsion_bound(complex_, degree)
    size = rel.dim(degree if torsion_bound is not None else degree + 1)
    if size > cochain_cap:
        what = "saturates in rank" if torsion_bound is not None else "has equation rows"
        raise ResourceError(f"the degree-{degree} value {what} {size}, over the cap {cochain_cap}", dimension=size)
    # the generators of im D^{i-1} + R^i
    boundaries = (rel.diff_cols(degree - 1) if degree else []) + rel.relation_cols(degree)
    if torsion_bound is not None:
        # torsion_bound kills HH^i and T^{i+1} is torsion-free, so Z^i is the
        # saturation of im D^{i-1} at its primes
        lattice, _ = sparse_saturation(boundaries, size, sorted(_prime_factors(torsion_bound)))
    else:
        lattice = preimage_kernel(rel.diff_cols(degree), size, rel.relation_cols(degree + 1))
    return CohomologyGroup(degree, group, complex_, present_quotient(lattice, boundaries), lattice, t, rel, cochain_cap)


def _hyper_torsion_bound(complex_: TwoTermComplex, degree: int) -> int | None:
    """A multiple of the exponent of HH^degree(G, A -> B), or None when
    the saturation form does not apply.

    For the trivial group HH^0 = ker f, HH^1 = coker f and HH^i = 0 for
    i >= 2, and |G| * exp HH^i(1, K) kills HH^i(G, K).  For M -> 0 that
    is |G| in degree >= 1, since coker f = 0."""
    a, b = complex_.degree0, complex_.degree1
    if degree == 0 or not (a.is_z_free() and b.is_z_free()):
        return None
    order = complex_.group.order
    if degree >= 2 or not b.rank:
        return order
    coker = PresentedAbelianGroup(
        b.rank, list(b.underlying.relation_rows) + list(complex_.f.matrix.transpose().rows)
    )
    free, torsion = coker.invariant_factors()
    if free:
        return None
    return order * (torsion[-1] if torsion else 1)


def cohomology(
    group: FiniteGroup,
    module: GModule,
    degree: int,
    *,
    cochain_cap: int = DEFAULT_COCHAIN_CAP,
) -> CohomologyGroup:
    """H^degree(group, module) for degree 0, 1 or 2, computed as
    HH^degree(group, module -> 0)."""
    if module.group is not group:
        raise StructuralError("module is not a module over the given group")
    return _hypercohomology(group, _module_complex(module), degree, cochain_cap)


def hypercohomology(
    group: FiniteGroup,
    complex_: TwoTermComplex,
    degree: int,
    *,
    cochain_cap: int = DEFAULT_COCHAIN_CAP,
) -> CohomologyGroup:
    """HH^degree(group, A -> B) via the total complex."""
    if complex_.group is not group:
        raise StructuralError("complex is not over the given group")
    return _hypercohomology(group, complex_, degree, cochain_cap)
