"""Exact linear algebra over the integers.

Everything downstream (presented abelian groups, cochain complexes, Sha
kernels) reduces to the routines in this module: Smith normal form with
unimodular transforms, canonical Hermite-form bases of lattices, kernels
of lattice maps, and exact solving on a Hermite basis.

Conventions:

* matrices act on column vectors; ``m.col(j)`` is the image of the j-th
  standard basis vector,
* a *lattice* is a :class:`Lattice`: its width and its echelon index,
  one (pivot column, sparse row) pair per row, pivots positive and
  strictly increasing, no zero rows.  The index is the gcd echelon's own
  sparse rows.  The first read of the canonical Hermite basis reduces
  them in place, entries above a pivot into ``[0, pivot)``; the rank,
  membership and canonical coset representatives need no reduction.  No
  other module knows the index format,
* all arithmetic is on Python's arbitrary-precision integers; nothing can
  silently wrap,
* every routine is deterministic: fixed pivot rules, no randomness, no
  dependence on hash iteration order.

There is one gcd echelon, :func:`_sparse_insert`, on sparse rows.  Every
lattice comes out of it once: :func:`hermite_rows` inserts the nonzero rows
it is given, :func:`sparse_kernel` (and so :func:`preimage_kernel`, which
tags the kept unknowns alone) and :func:`sparse_saturation` the rows their
methods produce, and :func:`_hermite_from_echelon` makes the lattice, which
reduces the entries above the pivots when its basis is first read.  The
Hermite form is unique (Cohen, A Course in Computational Algebraic
Number Theory, section 2.4), so the basis depends only on the lattice,
whatever the order of the rows or the pivot steps, and deferring the
reduction changes nothing that can be read.

:func:`sparse_saturation` feeds its rows to the echelon last-first, which
for the rows of a differential, whose later rows reach further right,
cuts the gcd steps; the lattice does not depend on the order.  At each
prime p it tests the pivots first: when p divides none, the echelon is
independent mod p and nothing is eliminated.  Otherwise it reduces mod p
only the rows whose pivot p divides, taking in a row with a pivot prime to p when a
reduction first reaches its column; the vanished rows give a basis of
the full left kernel mod p, so each round adds the lattice a full
elimination would.  :func:`_deficient_kernel_mod` has the proof.  Each
combination they give is divided by p only after a check that p divides
every entry; one it does not divide raises :class:`InternalError`.

Kernels of sparse maps (:func:`sparse_kernel`) run in two phases.  The
first eliminates unknowns through equations in which they have
coefficient +-1, picked by a fixed fill-reducing rule: the shortest
equation first, then the unknown in the fewest equations, ties broken by
index.  The second gives the equations left, none with a unit coefficient,
to the gcd echelon.  Substituting x_j = -u * (the rest of its equation),
with u = +-1, is a unimodular change of variables, so back-substitution
maps the kernel of the residual system isomorphically onto the full
kernel lattice; the canonical Hermite basis depends only on that lattice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InternalError, StructuralError


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = x*a + y*b, g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class IntMatrix:
    """Immutable integer matrix.

    Stored as a tuple of row tuples.  ``cols`` must be supplied for
    matrices with zero rows, where the shape cannot be inferred.
    """

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Sequence[int]], *, cols: int | None = None):
        packed = tuple(tuple(r) for r in rows)
        if packed:
            width = len(packed[0])
            for r in packed:
                if len(r) != width:
                    raise StructuralError("ragged matrix: rows of unequal length")
            if cols is not None and cols != width:
                raise StructuralError(
                    f"declared column count {cols} does not match rows of length {width}"
                )
        else:
            if cols is None:
                raise StructuralError("matrix with no rows needs an explicit column count")
            width = cols
        for r in packed:
            for v in r:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise StructuralError(f"matrix entry {v!r} is not an integer")
        self._rows = packed
        self.nrows = len(packed)
        self.ncols = width

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...], ncols: int) -> "IntMatrix":
        """A matrix from rows that are int tuples of length ``ncols`` by
        construction, as the results of this class's own arithmetic are;
        nothing is checked.  Matrices from outside go through ``__init__``."""
        m = cls.__new__(cls)
        m._rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._of(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls._of(((0,) * ncols,) * nrows, ncols)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], *, rows: int | None = None) -> "IntMatrix":
        if not cols:
            if rows is None:
                raise StructuralError("matrix with no columns needs an explicit row count")
            return cls([[] for _ in range(rows)], cols=0)
        height = len(cols[0])
        return cls([[c[i] for c in cols] for i in range(height)], cols=len(cols))

    # -- access -------------------------------------------------------

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def row(self, i: int) -> tuple[int, ...]:
        return self._rows[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self._rows)

    def at(self, i: int, j: int) -> int:
        return self._rows[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.ncols, self._rows))

    def __repr__(self) -> str:
        return f"IntMatrix({self.nrows}x{self.ncols})"

    # -- arithmetic ---------------------------------------------------

    def transpose(self) -> "IntMatrix":
        # zip of no rows gives no columns: a 0 x n matrix has n empty ones
        cols = tuple(zip(*self._rows)) if self._rows else ((),) * self.ncols
        return IntMatrix._of(cols, self.nrows)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise StructuralError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        ocols = other.ncols
        out = []
        for r in self._rows:
            acc = [0] * ocols
            for k, v in enumerate(r):
                if v:
                    orow = other._rows[k]
                    for j in range(ocols):
                        w = orow[j]
                        if w:
                            acc[j] += v * w
            out.append(tuple(acc))
        return IntMatrix._of(tuple(out), ocols)

    def matvec(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.ncols:
            raise StructuralError("vector length does not match column count")
        return tuple(sum(a * b for a, b in zip(r, vec)) for r in self._rows)

    def neg(self) -> "IntMatrix":
        return IntMatrix._of(tuple(tuple(-v for v in r) for r in self._rows), self.ncols)


def block_diag(blocks: Sequence[IntMatrix]) -> IntMatrix:
    nrows = sum(b.nrows for b in blocks)
    ncols = sum(b.ncols for b in blocks)
    out = [[0] * ncols for _ in range(nrows)]
    roff = coff = 0
    for b in blocks:
        for i, r in enumerate(b.rows):
            out[roff + i][coff : coff + b.ncols] = list(r)
        roff += b.nrows
        coff += b.ncols
    return IntMatrix._of(tuple(map(tuple, out)), ncols)


# ---------------------------------------------------------------------------
# Hermite normal form of a row lattice
# ---------------------------------------------------------------------------


class Lattice:
    """A sublattice of Z^width, held as the gcd echelon it came out of,
    sorted by pivot (see the module docstring).  The first read of the
    canonical Hermite basis, by ``rows``, iteration, :meth:`sparse_rows`,
    :meth:`solve` or ``==``, reduces the echelon above its pivots, in place
    and once.  ``len``, :meth:`contains` and :meth:`reduce` do not reduce:
    the rank, membership and canonical representatives are the same on any
    echelon basis.  :meth:`solve`, :meth:`contains` and :meth:`reduce` run
    on the index; a vector whose length is not ``width`` raises
    :class:`StructuralError`, with or without rows."""

    __slots__ = ("width", "_index", "_pending", "_rows")

    def __init__(self, width: int, index: list[tuple[int, dict[int, int]]]):
        self.width = width
        self._index = index
        self._pending = True
        self._rows: tuple[tuple[int, ...], ...] | None = None

    def _reduce_above_pivots(self) -> None:
        """Reduce the echelon to the canonical Hermite basis, in place.
        It runs on the sparse rows from the bottom up, each row reduced
        left to right by the finished rows below it, which are sparser
        than half-reduced ones.  A row with no entry right of its pivot
        has nothing to reduce, and is passed over."""
        index = self._index
        for idx in range(len(index) - 2, -1, -1):
            row = index[idx][1]
            if len(row) == 1:
                continue
            for below in range(idx + 1, len(index)):
                c, brow = index[below]
                x = row.get(c)
                if x:
                    q = x // brow[c]
                    if q:
                        _sparse_sub_inplace(row, brow, q)
        self._pending = False

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        if self._rows is None:
            if self._pending:
                self._reduce_above_pivots()
            out = []
            for _, row in self._index:
                vec = [0] * self.width
                for k, v in row.items():
                    vec[k] = v
                out.append(tuple(vec))
            self._rows = tuple(out)
        return self._rows

    def sparse_rows(self) -> list[dict[int, int]]:
        """The basis rows as {column: value} dicts, shared with the index,
        so not to be modified."""
        if self._pending:
            self._reduce_above_pivots()
        return [row for _, row in self._index]

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Lattice)
            and self.width == other.width
            and self.sparse_rows() == other.sparse_rows()
        )

    def __repr__(self) -> str:
        return f"Lattice(width={self.width}, rows={self.rows})"

    def solve(self, vec: Sequence[int] | dict[int, int]) -> tuple[int, ...] | None:
        """Coefficients c with vec = sum c_i * rows_i, or None; ``vec`` is
        dense or sparse."""
        if self._pending:
            self._reduce_above_pivots()
        return self._coefficients(vec)

    def contains(self, vec: Sequence[int] | dict[int, int]) -> bool:
        """Membership, on the echelon as it stands: reduced or not, it is
        a basis of the same lattice."""
        return self._coefficients(vec) is not None

    def _coefficients(self, vec: Sequence[int] | dict[int, int]) -> tuple[int, ...] | None:
        """Coefficients of ``vec`` on the rows of the index as they stand.
        Pivots strictly increase, so each row clears its pivot column for
        good."""
        work = _sparse_vec(vec, self.width)
        coeffs = []
        for lead, row in self._index:
            x = work.get(lead)
            if not x:
                coeffs.append(0)
                continue
            q, r = divmod(x, row[lead])
            if r:
                return None
            _sparse_sub_inplace(work, row, q)
            coeffs.append(q)
        if work:
            return None
        return tuple(coeffs)

    def reduce(self, vec: Sequence[int] | dict[int, int]) -> tuple[int, ...]:
        """Canonical representative of ``vec`` modulo the lattice: at each
        pivot column the result lies in [0, pivot).  Only one vector of
        the coset does, since a nonzero lattice vector is a nonzero
        multiple of the pivot at its first pivot column with a nonzero
        coefficient, so this needs no reduced basis."""
        work = _sparse_vec(vec, self.width)
        for lead, row in self._index:
            q = work.get(lead, 0) // row[lead]
            if q:
                _sparse_sub_inplace(work, row, q)
        return tuple(work.get(k, 0) for k in range(self.width))


def _sparse_vec(vec: Sequence[int] | dict[int, int], width: int) -> dict[int, int]:
    """A fresh sparse copy of ``vec``, dense or sparse, checked against
    ``width``."""
    if isinstance(vec, dict):
        if vec and not (min(vec) >= 0 and max(vec) < width):
            raise StructuralError("vector coordinate outside the lattice width")
        return dict(vec)
    if len(vec) != width:
        raise StructuralError("vector length does not match lattice width")
    return {k: v for k, v in enumerate(vec) if v}


def hermite_rows(rows: Iterable[Sequence[int] | dict[int, int]], width: int) -> Lattice:
    """The lattice spanned by ``rows``, dense of length ``width`` or sparse,
    in canonical Hermite form.  The result depends only on the lattice."""
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        _sparse_insert(pivots, _sparse_vec(r, width))
    return _hermite_from_echelon(pivots, width)


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix (error if not unimodular)."""
    if m.nrows != m.ncols:
        raise StructuralError("only square matrices can be unimodular")
    n = m.nrows
    aug = hermite_rows([list(m.row(i)) + [1 if j == i else 0 for j in range(n)]
                        for i in range(n)], 2 * n).rows
    if len(aug) != n or any(aug[i][i] != 1 for i in range(n)):
        raise StructuralError("matrix is not unimodular")
    # aug rows are [I | M^-1] up to the canonical reduction, which is exact
    # here because all pivots are 1.
    inv_rows = [r[n:] for r in aug]
    return IntMatrix(inv_rows, cols=n)


# ---------------------------------------------------------------------------
# Sparse kernels
# ---------------------------------------------------------------------------
#
# Cochain differentials are huge but very sparse, and almost all of their
# entries are +-1, so kernels are computed on columns stored as
# {row: value} dicts, in two phases (structured Gaussian elimination, as in
# LaMacchia and Odlyzko, "Solving large sparse linear systems over finite
# fields", CRYPTO '90).
#
# 1. Unit elimination.  Read A x = 0 as equations, one per row.  While some
#    equation has a coefficient u = +-1, take the shortest such equation
#    (ties: lowest row), and in it the unit unknown x_j that occurs in the
#    fewest equations (ties: lowest j).  Then x_j = -u * sum_{k != j} a_k x_k;
#    substitute that into every other equation and drop x_j and its
#    equation.  This never divides, so it is exact over Z.
# 2. Gcd echelon.  Each remaining unknown x_k gives the row
#    [A'_k | phi_K(e_k)]: its column of the residual equations A' (keys
#    below nrows), then, at the tags nrows + j for the first K = ``kept``
#    unknowns only, the part in Z^K of the vector with x_k = 1, every other
#    remaining unknown 0, and the eliminated ones by back-substitution.
#    The rows go, shortest first (ties: lowest k), into a gcd echelon
#    keyed by leading column; those leading with a tag span proj_K(ker A).
#
# Why: phi is Z-linear and injective, and x in Z^n lies in ker A iff its
# eliminated coordinates are the back-substituted ones and its remaining
# ones solve A'; +-1 substitutions are unimodular, so phi(ker A') = ker A.
# A combination sum c_k [A'_k | phi_K(e_k)] has A'-part zero iff c is in
# ker A', whatever tags are left out, and then its tags are proj_K(phi(c)).
# The canonical Hermite basis depends only on that lattice, proj_K(ker A).


def _sparse_sub_inplace(row: dict[int, int], other: dict[int, int], q: int) -> None:
    """row -= q * other in place, dropping zeros: the cost is that of
    ``other`` alone, which matters when ``row`` is the longer one."""
    for k, v in other.items():
        w = row.get(k, 0) - q * v
        if w:
            row[k] = w
        else:
            row.pop(k, None)


def _back_reduce(
    pivots: dict[int, dict[int, int]], row: dict[int, int], lead: int
) -> dict[int, int]:
    """Floor-reduce ``row``, in place, at every pivot column right of
    ``lead``, left to right; a pivot row is zero left of its pivot, so the
    columns done stay done.

    Keeps stored rows small: with unit pivots (the common case for cochain
    differentials) the reduced entries vanish outright, which is what
    prevents coefficient blow-up in the gcd echelon."""
    while True:
        hit = None
        for k in row:
            if k > lead and k in pivots and (hit is None or k < hit):
                hit = k
        if hit is None:
            return row
        p = pivots[hit]
        q = row[hit] // p[hit]
        if q:
            _sparse_sub_inplace(row, p, q)
        lead = hit


def _sparse_insert(pivots: dict[int, dict[int, int]], row: dict[int, int]) -> None:
    """The gcd echelon: insert ``row``, which the echelon takes over, into
    ``pivots``, keyed by leading column, combining it with the row of its
    leading column by gcd steps until it vanishes or leads a new column."""
    while row:
        c = min(row)
        p = pivots.get(c)
        if p is None:
            if row[c] < 0:
                row = {k: -v for k, v in row.items()}
            pivots[c] = _back_reduce(pivots, row, c)
            return
        a, b = p[c], row[c]
        if b % a == 0:
            _sparse_sub_inplace(row, p, b // a)
        else:
            g, x, y = xgcd(a, b)
            ag, bg = a // g, b // g
            newp: dict[int, int] = {}
            newr: dict[int, int] = {}
            for k in set(p) | set(row):
                pk = p.get(k, 0)
                rk = row.get(k, 0)
                vp = x * pk + y * rk
                vr = -bg * pk + ag * rk
                if vp:
                    newp[k] = vp
                if vr:
                    newr[k] = vr
            pivots[c] = _back_reduce(pivots, newp, c)
            row = newr


def _eliminate_units(
    eqs: dict[int, dict[int, int]], cols: list[dict[int, int] | None]
) -> list[tuple[int, dict[int, int]]]:
    """The first phase of :func:`sparse_kernel`, in place.

    ``eqs`` maps each row to its equation {unknown: coefficient} and
    ``cols`` each unknown to {row: coefficient}; both views are kept in
    step.  Returns the substitutions (j, sub), meaning
    x_j = sum_k sub[k] * x_k, in the order made; an eliminated unknown's
    column becomes None and its equation leaves ``eqs``."""
    # (length, row) of every equation with a unit coefficient; an entry
    # whose length is out of date is skipped, a fresh one is pushed on
    # every change, so the smallest valid entry is the rule's pick
    heap = [(len(eq), i) for i, eq in eqs.items() if 1 in eq.values() or -1 in eq.values()]
    heapq.heapify(heap)
    subs = []
    while heap:
        length, i = heapq.heappop(heap)
        eq = eqs.get(i)
        if eq is None or len(eq) != length:
            continue
        j = -1
        for k, v in eq.items():
            if v == 1 or v == -1:
                count = len(cols[k])
                if j < 0 or count < fewest or (count == fewest and k < j):
                    fewest, j = count, k
        if j < 0:
            continue  # the equation lost its units and kept its length
        del eqs[i]
        u = eq.pop(j)
        for k in eq:
            del cols[k][i]
        col = cols[j]
        cols[j] = None
        del col[i]
        sub = {k: -u * v for k, v in eq.items()}
        subs.append((j, sub))
        for q, b in col.items():
            other = eqs[q]
            del other[j]
            for k, v in sub.items():
                w = other.get(k, 0) + b * v
                if w:
                    other[k] = w
                    cols[k][q] = w
                else:
                    del other[k]
                    del cols[k][q]
            if not other:
                del eqs[q]
            elif 1 in other.values() or -1 in other.values():
                heapq.heappush(heap, (len(other), q))
    return subs


def sparse_kernel(
    columns: Sequence[dict[int, int]], nrows: int, kept: int | None = None
) -> Lattice:
    """The lattice {x : sum x_j * col_j = 0}, projected onto its first
    ``kept`` coordinates (all of them by default).

    ``columns[j]`` is the j-th column of the matrix as a {row: value} dict
    whose rows lie in [0, ``nrows``); a row outside, or ``kept`` outside
    [0, len(columns)], raises :class:`StructuralError`.  See "Sparse
    kernels" above for the two phases and the projection."""
    n = len(columns)
    kept = n if kept is None else kept
    if not 0 <= kept <= n:
        raise StructuralError(f"kept = {kept} outside [0, {n}]")
    cols: list[dict[int, int] | None] = []
    eqs: dict[int, dict[int, int]] = {}
    for j, col in enumerate(columns):
        c = {}
        for i, v in col.items():
            if v:
                if not 0 <= i < nrows:
                    raise StructuralError(f"column {j} has row {i}, outside [0, {nrows})")
                c[i] = v
                eq = eqs.get(i)
                if eq is None:
                    eqs[i] = {j: v}
                else:
                    eq[j] = v
        cols.append(c)
    subs = _eliminate_units(eqs, cols)
    # the kept tags phi_K(e_k): each eliminated x_j as a combination of
    # the remaining unknowns, built from the last substitution back
    for k in range(kept):
        if cols[k] is not None:
            cols[k][nrows + k] = 1
    on_remaining: dict[int, dict[int, int]] = {}
    for j, sub in reversed(subs):
        acc: dict[int, int] = {}
        for m, v in sub.items():
            if cols[m] is not None:
                acc[m] = acc.get(m, 0) + v
            else:
                for k, w in on_remaining[m].items():
                    acc[k] = acc.get(k, 0) + v * w
        on_remaining[j] = acc
        if j < kept:
            for k, w in acc.items():
                if w:
                    cols[k][nrows + j] = w
    pivots: dict[int, dict[int, int]] = {}
    for _, k in sorted((len(c), k) for k, c in enumerate(cols) if c is not None):
        _sparse_insert(pivots, cols[k])
    kernel = {
        key - nrows: {k - nrows: v for k, v in row.items()}
        for key, row in pivots.items()
        if key >= nrows
    }
    return _hermite_from_echelon(kernel, kept)


def _hermite_from_echelon(pivots: dict[int, dict[int, int]], width: int) -> Lattice:
    """The lattice of a sparse echelon basis, given as leading column ->
    row with a positive leading entry.  The rows become the index of the
    result, sorted by pivot; the lattice reduces them above the pivots, in
    place, when its canonical basis is first read."""
    return Lattice(width, sorted(pivots.items()))


def _sub_mod(row: dict[int, int], other: dict[int, int], q: int, p: int) -> None:
    """row -= q * other mod p in place, entries in [0, p), dropping zeros."""
    for k, v in other.items():
        w = (row.get(k, 0) - q * v) % p
        if w:
            row[k] = w
        else:
            row.pop(k, None)


def _deficient_kernel_mod(
    pivots: dict[int, dict[int, int]], deficient: Sequence[int], p: int
) -> list[dict[int, int]]:
    """A basis of the left kernel mod p of the echelon ``pivots`` (leading
    column -> row), each vector x as {leading column: x_c} with entries in
    [0, p), given the ``deficient`` pivot columns, those whose pivot p
    divides, in order.

    Only the d deficient rows are reduced mod p, in turn.  When a
    reduction first reaches the pivot column of a unit row (one whose
    pivot p does not divide), that row, zero left of its pivot, enters the
    mod-p echelon there, monic; a reduced row that leads a column with no
    unit row and no mod-p pivot enters there itself.  So the mod-p pivot
    at a unit column is always its unit row, and the mod-p echelon with
    the unit rows not yet entered is an echelon basis of U + D', where U
    is spanned by the unit rows and D' by the deficient rows done so far.
    A deficient row therefore vanishes exactly when it lies in U + D', and
    its combination is then a left-kernel vector.  The unit rows are
    independent mod p (see :func:`sparse_saturation`), so the left kernel
    of all the rows has dimension d - dim((U + D) / U), the number of rows
    that vanish.  Their vectors are independent: each has 1 at its own
    row and 0 at the other vanished rows, which never enter the echelon.
    So they are a basis."""
    echelon: dict[int, tuple[dict[int, int], dict[int, int]]] = {}
    kernel = []
    for c in deficient:
        r = {k: v % p for k, v in pivots[c].items() if v % p}
        combo = {c: 1}
        while r:
            k = min(r)
            entry = echelon.get(k)
            if entry is None:
                unit = pivots.get(k)
                if unit is None or unit[k] % p == 0:
                    inv = pow(r[k], -1, p)
                    echelon[k] = (
                        {i: v * inv % p for i, v in r.items()},
                        {i: v * inv % p for i, v in combo.items()},
                    )
                    break
                inv = pow(unit[k], -1, p)
                entry = echelon[k] = (
                    {i: v * inv % p for i, v in unit.items() if v * inv % p},
                    {k: inv},
                )
            prow, pcombo = entry
            q = r[k]
            _sub_mod(r, prow, q, p)
            _sub_mod(combo, pcombo, q, p)
        else:
            kernel.append(combo)
    return kernel


def sparse_saturation(
    rows: Sequence[dict[int, int]], width: int, primes: Iterable[int]
) -> tuple[Lattice, int]:
    """The lattice S = {x : n * x in L for some n whose prime factors are
    in ``primes``}, where L is the lattice spanned by the sparse ``rows``
    of the given width, and the index [S : L].

    The rows go into the gcd echelon last-first.  The lattice, and so the
    result, does not depend on the order, but the work does: in the rows
    of a differential d^{i-1}, later source tuples have their entries
    further right, so inserted last-first the pivots right of a new lead
    are mostly there before the rows that collide on it, and each
    collision is reduced against them at once.

    At each prime p the gcd-echelon basis E of the current lattice is
    independent mod p exactly when the lattice is p-saturated; otherwise
    every left kernel vector x mod p gives a new vector (sum x_k E_k) / p.
    Adding those and repeating terminates, because each step grows the
    lattice inside its saturation, where its index is finite.  A round
    that adds k vectors at p grows the lattice by index p^k: they are
    independent modulo it, since their x are independent mod p.  So an
    index of 1 means that L was saturated already, S = L.  The lattice a
    round adds, L + {(sum x_k E_k) / p : x in the kernel mod p}, does not
    depend on the basis of the kernel, since changing x by p * y changes
    the vector by sum y_k E_k, in L.

    A round eliminates only what it must.  When p divides no pivot, E is
    independent mod p: in a dependency, the first row with a nonzero
    coefficient is the only one nonzero at its pivot column, so p divides
    the coefficient.  The round then ends with no elimination.  Otherwise
    only the rows whose pivot p divides are reduced mod p, against the
    unit rows as they are reached (see :func:`_deficient_kernel_mod`)."""
    pivots: dict[int, dict[int, int]] = {}
    for row in reversed(rows):
        _sparse_insert(pivots, dict(row))
    index = 1
    for p in primes:
        while True:
            deficient = [c for c in sorted(pivots) if pivots[c][c] % p == 0]
            if not deficient:
                break
            kernel = _deficient_kernel_mod(pivots, deficient, p)
            if not kernel:
                break
            index *= p ** len(kernel)
            added = []
            for combo in kernel:
                acc: dict[int, int] = {}
                for c, x in combo.items():
                    _sparse_sub_inplace(acc, pivots[c], -x)
                if any(v % p for v in acc.values()):
                    raise InternalError(f"a kernel vector mod {p} gives a row {p} does not divide")
                added.append({c: v // p for c, v in acc.items()})
            for row in added:
                _sparse_insert(pivots, row)
    return _hermite_from_echelon(pivots, width), index


def preimage_kernel(
    columns: Sequence[dict[int, int]],
    nrows: int,
    lattice_rows: Iterable[dict[int, int]],
) -> Lattice:
    """{x : A x lies in the lattice spanned by the sparse ``lattice_rows``}, for A
    given by sparse columns on ``nrows`` rows: ker [A | L] projected onto x."""
    return sparse_kernel(list(columns) + list(lattice_rows), nrows, len(columns))


def sparse_from_matrix(m: IntMatrix) -> list[dict[int, int]]:
    """Columns of a dense matrix as sparse dicts."""
    cols: list[dict[int, int]] = [dict() for _ in range(m.ncols)]
    for i, r in enumerate(m.rows):
        for j, v in enumerate(r):
            if v:
                cols[j][i] = v
    return cols


def sparse_apply(columns: Sequence[dict[int, int]], vec: Sequence[int]) -> dict[int, int]:
    """A @ vec for A given by sparse columns."""
    acc: dict[int, int] = {}
    for j, x in enumerate(vec):
        if x:
            for i, v in columns[j].items():
                w = acc.get(i, 0) + x * v
                if w:
                    acc[i] = w
                else:
                    del acc[i]
    return acc


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ m @ V == D for the input matrix m, with U, V unimodular and D
    diagonal, diagonal entries nonnegative, each dividing the next."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(
            self.D.at(i, i) for i in range(min(self.D.nrows, self.D.ncols))
        )


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms.

    Pivot rule (fixed for reproducibility): among the nonzero entries of
    the remaining submatrix, take one of minimal absolute value; ties are
    broken by the lowest (row, col) position in lexicographic order.
    """
    nr, nc = m.nrows, m.ncols
    D = [list(r) for r in m.rows]
    U = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    V = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i1, i2):
        if i1 != i2:
            D[i1], D[i2] = D[i2], D[i1]
            U[i1], U[i2] = U[i2], U[i1]

    def swap_cols(j1, j2):
        if j1 != j2:
            for row in D:
                row[j1], row[j2] = row[j2], row[j1]
            for row in V:
                row[j1], row[j2] = row[j2], row[j1]

    def negate_row(i):
        D[i] = [-v for v in D[i]]
        U[i] = [-v for v in U[i]]

    def sub_row(dst, src, q):
        # row_dst -= q * row_src
        Dd, Ds = D[dst], D[src]
        for k in range(nc):
            Dd[k] -= q * Ds[k]
        Ud, Us = U[dst], U[src]
        for k in range(nr):
            Ud[k] -= q * Us[k]

    def sub_col(dst, src, q):
        for row in D:
            row[dst] -= q * row[src]
        for row in V:
            row[dst] -= q * row[src]

    k = 0
    limit = min(nr, nc)
    while k < limit:
        # pivot search: minimal |value|, lowest (row, col) on ties
        best_i = best_j = -1
        best_abs = 0
        for i in range(k, nr):
            for j in range(k, nc):
                v = D[i][j]
                if v and (best_i < 0 or abs(v) < best_abs):
                    best_i, best_j, best_abs = i, j, abs(v)
        if best_i < 0:
            break
        swap_rows(k, best_i)
        swap_cols(k, best_j)
        if D[k][k] < 0:
            negate_row(k)

        while True:
            dirty = False
            for i in range(k + 1, nr):
                a = D[i][k]
                if a:
                    q = a // D[k][k]
                    if q:
                        sub_row(i, k, q)
                    if D[i][k]:
                        # remainder strictly smaller than pivot: promote it
                        swap_rows(i, k)
                        if D[k][k] < 0:
                            negate_row(k)
                        dirty = True
            for j in range(k + 1, nc):
                a = D[k][j]
                if a:
                    q = a // D[k][k]
                    if q:
                        sub_col(j, k, q)
                    if D[k][j]:
                        swap_cols(j, k)
                        dirty = True
                        if D[k][k] < 0:
                            negate_row(k)
            if dirty:
                continue
            if any(D[i][k] for i in range(k + 1, nr)) or any(
                D[k][j] for j in range(k + 1, nc)
            ):
                continue
            # divisibility: the pivot must divide the whole submatrix
            p = D[k][k]
            viol = None
            for i in range(k + 1, nr):
                for j in range(k + 1, nc):
                    if D[i][j] % p:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            sub_row(k, viol, -1)  # add the offending row to the pivot row
        k += 1

    return SmithDecomposition(
        U=IntMatrix(U, cols=nr),
        D=IntMatrix(D, cols=nc),
        V=IntMatrix(V, cols=nc),
    )
