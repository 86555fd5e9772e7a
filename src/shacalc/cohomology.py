"""Group cohomology H^0..H^2 via inhomogeneous cochains, and
hypercohomology of two-term complexes via the total complex.

The cochain space C^i(G, M) is Maps(G^i, M), realized as a presented
abelian group of rank |G|^i * rank(M): coordinates are blocks of module
coordinates indexed by i-tuples of element indices in lexicographic
order.  The differential is the standard one,

  (d c)(g_1,...,g_{i+1}) = g_1 . c(g_2,...,g_{i+1})
                           + sum_k (-1)^k c(...,g_k g_{k+1},...)
                           + (-1)^{i+1} c(g_1,...,g_i),

with no normalization assumed.  H^i is Z^i / B^i computed on presented
groups, where B^i = im d^{i-1} plus the module's relation rows in every
tuple block, and Z^i is the lattice of cochains whose coboundary lies in
the relation rows of C^{i+1}.  Z^i, or on the generator route the values
of its cocycles at the generators, is computed along one of three routes:

* the saturation route, for Z-free coefficients K whenever HH^i of the
  trivial group is finite: a module in degree >= 1, a complex in degree
  >= 2, or a complex in degree 1 when coker f is finite.  Since
  cor o res = |G|, e = |G| * exp HH^i(1, K) kills HH^i(G, K) (Brown,
  Cohomology of Groups, III.9-10).  C^{i+1} is torsion-free, so Z^i is
  the saturation of B^i: the vectors with a multiple in B^i.  It is
  found by saturating B^i at the primes of e.  Only d^{i-1} is built;
  d^i and C^{i+1} never are;
* the generator route, for a module with torsion in degree 1: a crossed
  homomorphism is known by its values at the k generators (Holt, The
  mechanical computation of first and second cohomology groups,
  J. Symbolic Comput. 1, 1985).  One kernel over k * rk unknowns gives
  the values K of the cocycles, and the value is K / (D0 + R^k), at width
  k * rk.  No differential is built, and no lattice in C^1 until the
  representatives are read;
* the kernel route, everywhere else (degree 0, degree 2 with torsion,
  complexes with torsion, an infinite coker f): Z^i is read off the
  sparse kernel of d^i augmented by the relation rows of C^{i+1}.  Only
  the rows of C^{i+1} whose tuple ends in a listed generator s in S are
  built, with the relation rows of those tuples: |G|^i * |S| rows per
  rank instead of |G|^{i+1}, and 2|S| entries in a column whose tuple
  does not end in S.

The kernel route may leave out the other rows by this lemma: if
delta in C^m(G, M), m >= 1, has d delta = 0 in M and vanishes on every
tuple ending in S, then delta = 0.  At (g_1,...,g_m, s) every term of
d delta ends in s except (-1)^m [delta(g_1,...,g_m s) - delta(g_1,...,g_m)],
so delta(h, x s) = delta(h, x) for all x; then delta(h, e) = delta(h, s)
= 0, and delta vanishes everywhere since S generates G as a monoid (the
group checks this when it is built).  It applies to delta = d^i c read
in M, since d o d = 0 modulo the relation rows.  For the total complex,
the lemma kills the C^{m}(A) part first; then D delta = 0 gives
d delta_B = f(delta_A) = 0, which kills the C^{m-1}(B) part when m >= 2.
All of C^0(B) is kept.  The trivial group has no generators; its one
tuple is kept.

The generator route walks the stored words from the identity's empty
word.  c(1) = 0 and c(p s_l) = c(p) + M(p) v_l, with p the stored prefix
(see ``FiniteGroup.word_prefixes``), define a linear map L from the
values v = (v_1..v_k) in M^k to C^1.  An edge (e, l) of the breadth-first
tree, where the stored word of e s_l is that of e followed by l, has
L(v)(e s_l) = L(v)(e) + M(e) v_l by construction; each other edge, as
``FiniteGroup.off_tree_edges`` (the one definition of the tree) lists
them, gives one relator block L(v)(e s_l) - L(v)(e) - M(e) v_l in R, the
module's relations.  With K the kernel of those relators, Z^1 = L(K) + R
in every block.  Both ways:

* for v in K every edge holds modulo R, so by induction on the length of
  a word w of y, c = L(v) has c(x y) = c(x) + M(x) F_w(v) modulo R for
  every x, where F_w(v) is the sum along w that the walk forms: the step
  from w to w s_l uses the edge (x y, l), M(x y) = M(x) M(y) modulo R and
  M(x) R in R (see :mod:`shacalc.gmodules`).  With x = 1, c(y) = F_w(v);
  so c(x y) = c(x) + M(x) c(y) modulo R, and c is a cocycle;
* a cocycle c has c(1) in R and c(x s_l) = c(x) + M(x) c(s_l) modulo R,
  so along the walk L(v) = c modulo R for v_l = c(s_l), and the relators
  of L(v) are those of c, which lie in R: v is in K.

The relation rows of every block are cocycles, so they lie in Z^1 too.

The value in the coordinates of the values.  Let V read a cochain at
the generators, V(c) = (c(s_1)..c(s_k)) in M^k, let R^k be the relation
rows of M in each of the k blocks of M^k, and let
D0 = {((s_l - 1) m)_l : m in M}, spanned by the values of the
coboundaries of the basis vectors of M.  K holds R^k: the relators are
linear in v, and M(e) R lies in R.  Then V induces
H^1(G, M) = Z^1 / (B^1 + R) = K / (D0 + R^k), where R is the relation
rows in every block of C^1:

* V(Z^1) lies in K, by the second point above;
* V(Z^1) + R^k = K: for v in K, L(v) is a cocycle by the first point, and
  L(v)(s_l) = L(v)(1) + M(1) v_l = v_l exactly on a tree edge (1, l), and
  modulo R on an edge off the tree, by its relator; so V(L(v)) = v
  modulo R^k;
* V(B^1 + R) lies in D0 + R^k, since V(dm) = ((s_l - 1) m)_l and V(R)
  lies in R^k;
* nothing else goes there: if c is a cocycle and V(c) = V(dm) + r with r
  in R^k, then c - dm is a cocycle whose values at the generators lie in
  R, and such a cocycle lies in R everywhere: c(1) is in R, and
  c(x s_l) = c(x) + M(x) c(s_l) modulo R with M(x) R in R.  So c lies in
  B^1 + R.

The generator route presents the value there, on the Hermite basis of K,
with D0 + R^k solved on it: one relator per basis vector of M and per
relation row in each block.  Since (d m)(s_l) = (s_l - 1) m, D0 + R^k
is d^0 and the relation rows of C^1 on the rows of the tuples (s_l)
alone.  A value class v is the class of the cocycle L(v), and a cocycle
c has the class of V(c).  A cochain c is a cocycle iff V(c) lies in K
and c = L(V(c)) modulo R, which ``class_coords`` checks: if so, c is a
cocycle plus relation rows; if c is a cocycle, the induction of the
second point gives c = L(V(c)) modulo R.

All routes give the same lattice Z^i in C^i, and its canonical Hermite
basis gives the printed representatives, so the route never shows in
the results.  The generator route builds that basis, from L(K) and R,
only when the representatives are read.

For a two-term complex f : A -> B (A in degree 0, B in degree 1) the total
complex is T^n = C^n(A) + C^{n-1}(B) with the fixed sign convention

  D(a, b) = (d a, f(a) - d b);

any consistent convention yields isomorphic groups, but this one is pinned
so that representative-level tests are stable.

A module M is computed as the complex M -> 0: then T^n = C^n(M) and D = d,
so H^i(G, M) = HH^i(G, M -> 0) with the same coordinates.

The value's coordinates depend on the route.  On the saturation and
kernel routes Z^i / B^i is presented on the Hermite basis of Z^i, with
one relator per generator of B^i, each solved sparsely on that basis; it
has about rank B^i generators, most of them left out by its reduced view
(see :mod:`shacalc.abelian`).  On the generator route K / (D0 + R^k) is
presented on the Hermite basis of K, with at most k * rk generators.
Either lattice is a :class:`~shacalc.intlinalg.Lattice`: the basis comes
out of the gcd echelon together with its index, and the group holds
both, so the class solves of ``class_coords`` run on the index that
presented the value.  The group also holds the map from the lattice's
coordinates to cochains, L on the generator route and the identity on
the others, so a class given on the value's generators has a cocycle.

The main values of the paper are zeros, and they cost no solve.  On the
saturation route the saturation also gives the index [Z^i : B^i], and an
index of 1 means Z^i = B^i: the relators would span all of Z^n on the n
rows of the basis, so the value is presented by the n unit rows, as
solving would present it.  Only the index is read, so the basis of Z^i
stays an unreduced echelon until the representatives or a class solve
ask for it (see :class:`~shacalc.intlinalg.Lattice`).

No command restricts a computed group to a subgroup: a Sha condition
reads the ambient's cocycles on rows of the subgroup's total complex (see
:mod:`shacalc.sha`).  The restriction map on cohomology is kept only as
the reference the tests compare against, ``tests/helpers.restriction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

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
    :class:`_TotalComplex`.

    The builders take ``last``, sorted distinct elements, and keep the empty
    tuple and the tuples (u, s) with s in ``last``, numbered
    idx(u) * len(last) + pos(s): idx is the lexicographic index, pos the
    position in ``last``.  ``last=None``, every element, gives the
    lexicographic numbering of all tuples."""

    def __init__(self, group: FiniteGroup, module: GModule):
        self.group = group
        self.module = module
        self.gm = module.rank
        # sparse columns of each element's action matrix; none for the zero
        # module, whose differentials have no columns to fill
        self.elt_cols: list[list[dict[int, int]]] = [
            sparse_from_matrix(module.element_matrix(e)) for e in range(group.order)
        ] if self.gm else []

    def on(self, group: FiniteGroup, embed: Sequence[int]) -> "_Cochains":
        """The same coefficients over a subgroup, given as a standalone
        ``group`` and its embedding: each element acts by the parent's
        columns, which are shared, not rebuilt."""
        sub = _Cochains.__new__(_Cochains)
        sub.group, sub.module, sub.gm = group, self.module, self.gm
        sub.elt_cols = [self.elt_cols[e] for e in embed] if self.gm else []
        return sub

    def selection(self, i: int, embed: Sequence[int], last: Sequence[int] | None = None) -> list[int]:
        """For each C^i coordinate of the subgroup with embedding ``embed``
        that ``last`` keeps, numbered as the builders number it, the
        coordinate of this (parent) term."""
        if i == 0:
            return list(range(self.gm))
        order = self.group.order
        heads = [0]
        for _ in range(i - 1):
            heads = [p * order + e for p in heads for e in embed]
        ends = [embed[s] for s in last] if last is not None else embed
        return [(p * order + e) * self.gm + j for p in heads for e in ends for j in range(self.gm)]

    def dim(self, i: int, last: Sequence[int] | None = None) -> int:
        return self.tuple_count(i, last) * self.gm

    def tuple_count(self, i: int, last: Sequence[int] | None = None) -> int:
        if last is None or i == 0:
            return self.group.order**i
        return self.group.order ** (i - 1) * len(last)

    def diff_cols(self, i: int, last: Sequence[int] | None = None) -> list[dict[int, int]]:
        """Columns of d^i : C^i -> C^{i+1}, on the rows of the target
        tuples that ``last`` keeps."""
        order, gm = self.group.order, self.gm
        table, inverse = self.group.table, self.group.inverse
        if last is None:
            last = range(order)
        n_last = len(last)
        pos = {s: p for p, s in enumerate(last)}
        # strides of the slots of a target (i+1)-tuple
        stride = [order ** (i - k) for k in range(i + 1)]
        final_sign = -1 if (i + 1) % 2 else 1
        cols: list[dict[int, int]] = []

        for ti in range(order**i):
            t = [ti // stride[k + 1] % order for k in range(i)]
            # The kept target rows of each term, a target (u, s) on row
            # idx(u) * n_last + pos(s): (row, x) for the leading term, value
            # A(x) e_j, and (sign, rows) for the contractions, value sign * e_j.
            contractions = []
            if i == 0:
                lead = list(enumerate(last))  # target (x)
            elif t[-1] in pos:
                # every term but the last contraction and the final one ends
                # in t_i, so it is kept only when t_i is
                p_last = pos[t[-1]]
                # target (x, t_1..t_i)
                step = stride[0] // order * n_last
                lead = [(ti // order * n_last + p_last + x * step, x) for x in range(order)]
                # contractions k < i: targets s with s_k s_{k+1} = t_k (so
                # s_{k+1} = a^-1 t_k) and the rest of t kept
                for k in range(1, i):
                    head = sum(t[idx] * stride[idx] for idx in range(k - 1))
                    tail = sum(t[idx] * stride[idx + 1] for idx in range(k, i))
                    tk = t[k - 1]
                    contractions.append((-1 if k % 2 else 1, [
                        (head + a * stride[k - 1] + table[inverse[a]][tk] * stride[k] + tail)
                        // order * n_last + p_last
                        for a in range(order)
                    ]))
            else:
                lead = []
            if i >= 1:
                # the last contraction: target (t_1..t_{i-1}, t_i b^-1, b)
                prefix = ti - t[-1]
                contractions.append((-1 if i % 2 else 1, [
                    (prefix + table[t[-1]][inverse[b]]) * n_last + p for p, b in enumerate(last)
                ]))
            # the final term, target (t_1..t_i, x), and the contractions sit
            # on the same rows for every j: sum them once
            unit_sum = dict.fromkeys(range(ti * n_last, (ti + 1) * n_last), final_sign)
            for sign, rows in contractions:
                for row in rows:
                    w = unit_sum.get(row, 0) + sign
                    if w:
                        unit_sum[row] = w
                    else:
                        del unit_sum[row]
            for j in range(gm):
                col = {row * gm + j: v for row, v in unit_sum.items()}
                for row, x in lead:
                    base = row * gm
                    for r, v in self.elt_cols[x][j].items():
                        w = col.get(base + r, 0) + v
                        if w:
                            col[base + r] = w
                        else:
                            del col[base + r]
                cols.append(col)
        return cols

    def relation_cols(self, i: int, last: Sequence[int] | None = None) -> list[dict[int, int]]:
        """The module's relators embedded in every kept tuple block of C^i."""
        return self.relation_blocks(self.tuple_count(i, last))

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
        for block in range(self.tuple_count(i)):
            if not und.contains_relation(vec[block * gm : (block + 1) * gm]):
                return False
        return True


class _TotalComplex:
    """T^n = C^n(A) + C^{n-1}(B), D(a,b) = (dA a, f(a) - dB b).  ``last``
    keeps tuples in both parts as in :class:`_Cochains`."""

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

    def selection(self, n: int, embed: Sequence[int], last: Sequence[int] | None = None) -> tuple[int, ...]:
        """For each T^n coordinate of the subgroup that ``last`` keeps, the
        coordinate of this complex: the C^n(A) part, then the C^{n-1}(B)
        part."""
        sel = self.ca.selection(n, embed, last)
        if n >= 1:
            a_dim = self.ca.dim(n)
            sel += [a_dim + s for s in self.cb.selection(n - 1, embed, last)]
        return tuple(sel)

    def dim(self, n: int, last: Sequence[int] | None = None) -> int:
        if n < 0:
            return 0
        b_part = self.cb.dim(n - 1, last) if n >= 1 else 0
        return self.ca.dim(n, last) + b_part

    def diff_cols(self, n: int, last: Sequence[int] | None = None) -> list[dict[int, int]]:
        """Columns of D^n : T^n -> T^{n+1}, on the rows that ``last`` keeps."""
        order = self.ca.group.order
        if last is None:
            last = range(order)
        pos = {s: p for p, s in enumerate(last)}
        a_tgt = self.ca.dim(n + 1, last)
        cols = self.ca.diff_cols(n, last)  # built afresh, so f is added in place
        gm_a, gm_b = self.ca.gm, self.cb.gm
        for src, col in enumerate(cols):
            # f applied pointwise: block structure is shared, and C^0(B) is
            # kept whole
            block, j = divmod(src, gm_a)
            if n:
                head, s = divmod(block, order)
                if s not in pos:
                    continue
                block = head * len(last) + pos[s]
            for r, v in self.f_cols[j].items():
                key = a_tgt + block * gm_b + r
                w = col.get(key, 0) + v
                if w:
                    col[key] = w
                else:
                    col.pop(key, None)
        if n >= 1:
            for col in self.cb.diff_cols(n - 1, last):
                cols.append({a_tgt + k: -v for k, v in col.items()})
        return cols

    def relation_cols(self, n: int, last: Sequence[int] | None = None) -> list[dict[int, int]]:
        a_tgt = self.ca.dim(n, last)
        out = list(self.ca.relation_cols(n, last))
        if n >= 1:
            for col in self.cb.relation_cols(n - 1, last):
                out.append({a_tgt + k: v for k, v in col.items()})
        return out

    def block_contains(self, n: int, vec: Sequence[int]) -> bool:
        a_dim = self.ca.dim(n)
        if not self.ca.block_contains(n, vec[:a_dim]):
            return False
        if n >= 1 and not self.cb.block_contains(n - 1, vec[a_dim:]):
            return False
        return True


# ---------------------------------------------------------------------------
# Cohomology groups
# ---------------------------------------------------------------------------


@dataclass
class CohomologyGroup:
    """A computed H^i or HH^i: its value as a presented abelian group, the
    cocycle of each class, and a membership procedure taking a cocycle to
    its class coordinates.

    The value is presented on the rows of ``lattice``, the value lattice
    in its own coordinates: Z^i in C^i on the saturation and kernel routes,
    K in M^k on the generator route (see the module docstring).  ``_walk``
    maps those coordinates to cochains: the walk's linear map L, as one
    linear form {unknown: coefficient} per coordinate of C^1, or None for
    the identity.  :meth:`cochain` gives the cocycle of a class given on
    the value's generators, :meth:`class_coords` the class of a cocycle.
    The printed ``representatives`` are the canonical Hermite basis of Z^i
    in C^i, whatever the route; on the generator route it is built on
    first read, from L(K) and the relation rows of every block."""

    degree: int
    group: FiniteGroup
    coefficients: TwoTermComplex  # a module M as M -> 0
    group_value: PresentedAbelianGroup
    lattice: Lattice
    _cochains: _TotalComplex = field(repr=False)
    _walk: list[dict[int, int]] | None = field(default=None, repr=False)

    def _read(self, vec: dict[int, int], coords: Sequence[int]) -> dict[int, int]:
        """The entries at ``coords``, numbered by position, of the cochain
        of a sparse vector in the lattice's coordinates."""
        if self._walk is None:
            return {r: vec[s] for r, s in enumerate(coords) if s in vec}
        out = {}
        for r, s in enumerate(coords):
            x = sum(a * vec[u] for u, a in self._walk[s].items() if u in vec)
            if x:
                out[r] = x
        return out

    def _cochain_of(self, vec: dict[int, int]) -> dict[int, int]:
        """The cochain, sparse, of a sparse vector in the lattice's
        coordinates."""
        return vec if self._walk is None else self._read(vec, range(len(self._walk)))

    def _dense(self, vec: dict[int, int]) -> tuple[int, ...]:
        return tuple(vec.get(k, 0) for k in range(self._cochains.dim(self.degree)))

    def cochain(self, coords: Sequence[int]) -> tuple[int, ...]:
        """The cocycle sum of coords[t] times generator t of the value."""
        vec = _combination(self.lattice.sparse_rows(), {t: c for t, c in enumerate(coords) if c})
        return self._dense(self._cochain_of(vec))

    def class_coords(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Coordinates of a cocycle's class on the computed generators; a
        vector that is no cocycle raises :class:`StructuralError`.  On the
        generator route the class is that of the values c(s_l), and c is a
        cocycle iff they lie in K and c = L(c(s_l)) modulo the relation rows
        (see the module docstring)."""
        if self._walk is None:
            return class_on_basis(self.group_value, self.lattice, vec)
        if len(vec) != len(self._walk):
            raise StructuralError("vector length does not match the cochain rank")
        rk = self._cochains.ca.gm
        values = {
            l * rk + j: vec[s * rk + j]
            for l, s in enumerate(self.group.generators)
            for j in range(rk)
            if vec[s * rk + j]
        }
        coords = class_on_basis(self.group_value, self.lattice, values)
        walked = self._cochain_of(values)
        if not self._cochains.block_contains(1, [v - walked.get(k, 0) for k, v in enumerate(vec)]):
            raise StructuralError("vector is not a cocycle")
        return coords

    @cached_property
    def _cocycles(self) -> Lattice:
        """Z^i in C^i: the value lattice itself when it lies there, else
        L(K) with the relation rows of every block, built on first read."""
        if self._walk is None:
            return self.lattice
        t = self._cochains
        walked = [self._cochain_of(row) for row in self.lattice.sparse_rows()]
        return hermite_rows(t.relation_cols(1) + walked, t.dim(1))

    @property
    def representatives(self) -> tuple[tuple[int, ...], ...]:
        return self._cocycles.rows

    def preimage_representatives(self, rows: Sequence[dict[int, int]]) -> tuple[tuple[int, ...], ...]:
        """The cochains of the canonical Hermite basis, in the coordinates
        of the representatives, of the cocycles whose classes lie in the
        subgroup spanned by the sparse ``rows``, which are given on every
        generator of the value and span its relations.

        On the generator route those cocycles are L(v), for v in the span
        of the rows read on K, plus R, the relation rows of every block:
        a cocycle c has the class of its values V(c), and c = L(V(c))
        modulo R (see the module docstring).  Each is solved on Z^1."""
        cocycles = self._cocycles
        if self._walk is None:
            basis = hermite_rows(rows, self.group_value.generator_count)
        else:
            lattice = self.lattice.sparse_rows()
            vectors = [self._cochain_of(_combination(lattice, row)) for row in rows]
            coords = []
            for vec in vectors + self._cochains.relation_cols(1):
                c = cocycles.solve(vec)
                if c is None:
                    raise InternalError("a cocycle of the value escapes Z^1")
                coords.append(c)
            basis = hermite_rows(coords, len(cocycles))
        reps = cocycles.sparse_rows()
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


def _hypercohomology(
    group: FiniteGroup, complex_: TwoTermComplex, degree: int, cochain_cap: int
) -> CohomologyGroup:
    """HH^degree(group, A -> B) on the total complex, by the saturation
    route when a torsion bound is known, else by the generator route for a
    module in degree 1, else by the kernel route.  The cap bounds the rows
    the generator route eliminates, the rank of T^i that the saturation
    route saturates in, and the rank of T^2 on the kernel route."""
    if degree not in (0, 1, 2):
        raise StructuralError("only degrees 0..2 are supported")
    t = _TotalComplex(group, complex_)
    torsion_bound = _hyper_torsion_bound(complex_, degree)
    walk = None
    if torsion_bound is None and degree == 1 and not complex_.degree1.rank:
        # the generator route: a module M -> 0, whose T^1 is C^1(M), and the
        # value K / (D0 + R^k) in the coordinates of K
        rows = len(group.off_tree_edges()) * t.ca.gm
        if rows > cochain_cap:
            raise ResourceError(
                f"the generator route eliminates {rows} relator rows, over the cap {cochain_cap}",
                dimension=rows,
            )
        lattice, walk = _generator_values(t.ca)
        gens = list(group.generators)
        value = present_quotient(lattice, t.ca.diff_cols(0, gens) + t.ca.relation_cols(1, gens))
    else:
        # the saturation route saturates in T^i; the kernel route maps into
        # T^{i+1}, bounded by T^2
        budget_degree = degree if torsion_bound is not None else 2
        rank = t.dim(budget_degree)
        if rank > cochain_cap:
            raise ResourceError(
                f"degree-{budget_degree} cochain space has rank {rank}, over the cap {cochain_cap}",
                dimension=rank,
            )
        # the generators of B^i: the image of d^{i-1} and the relation rows
        boundaries = (t.diff_cols(degree - 1) if degree >= 1 else []) + t.relation_cols(degree)
        index = None
        if torsion_bound is not None:
            # the saturation route: torsion_bound kills Z^i / B^i and C^{i+1}
            # is torsion-free, so Z^i is the saturation of B^i at its primes
            primes = sorted(_prime_factors(torsion_bound))
            lattice, index = sparse_saturation(boundaries, t.dim(degree), primes)
        else:
            # the kernel route: Z^i is the preimage under d^i of the relation
            # rows of C^{i+1}, on the rows of C^{i+1} whose tuple ends in a
            # generator (see the module docstring); the trivial group keeps
            # its one tuple
            last = sorted(set(group.generators)) or [0]
            lattice = preimage_kernel(
                t.diff_cols(degree, last), t.dim(degree + 1, last), t.relation_cols(degree + 1, last)
            )
        if index == 1:
            # B^i was saturated, so Z^i = B^i and the value is 0: the
            # boundaries, solved on the basis of Z^i, would span all of Z^n,
            # whose Hermite rows are the unit rows.  Nothing is solved.  The
            # check that no boundary escapes Z^i is skipped with nothing
            # lost, since the echelon of Z^i was built from these very
            # boundaries.
            value = PresentedAbelianGroup(len(lattice), [{k: 1} for k in range(len(lattice))])
        else:
            value = present_quotient(lattice, boundaries)
    return CohomologyGroup(
        degree=degree,
        group=group,
        coefficients=complex_,
        group_value=value,
        lattice=lattice,
        _cochains=t,
        _walk=walk,
    )


def _generator_values(c: _Cochains) -> tuple[Lattice, list[dict[int, int]]]:
    """K, the values v = (v_1..v_k) at the generators that satisfy the
    relators of the edges off the breadth-first tree, and the walk's
    linear map L from M^k to C^1, as one linear form per coordinate of C^1
    (see the module docstring).  v_l is the unknowns l*rk .. l*rk + rk-1."""
    group, rk = c.group, c.gm
    gens, words, table = group.generators, group.element_words, group.table
    edges = group.off_tree_edges()

    def add_step(value: list[dict[int, int]], x: int, l: int, sign: int) -> None:
        """value += sign * M(x) v_l, in place, one form per coordinate of M."""
        for j, col in enumerate(c.elt_cols[x]):
            u = l * rk + j
            for r, a in col.items():
                form = value[r]
                w = form.get(u, 0) + sign * a
                if w:
                    form[u] = w
                else:
                    del form[u]

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
    # one relator block c(e s_l) - c(e) - M(e) v_l in R per edge off the tree
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
    walk = [form for value in values for form in value]
    return preimage_kernel(cols, len(edges) * rk, c.relation_blocks(len(edges))), walk


def _hyper_torsion_bound(complex_: TwoTermComplex, degree: int) -> int | None:
    """A multiple of the exponent of HH^degree(G, A -> B), or None when
    the saturation route does not apply.

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
