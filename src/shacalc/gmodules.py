"""Integral representations of a finite group.

A G-module is a presented abelian group Z^n/R together with one action
matrix A_k per group generator s_k.  The matrix M(e) of an element is the
product of the A_k along e's stored word; it is built from the matrix of
the longest stored prefix of that word, so breadth-first words cost one
product per element.  Modules with torsion are first-class everywhere
except dualization.

Construction checks, in this order:

1. each A_k preserves R;
2. M(e) A_k = M(e s_k) modulo R (column by column) for every element e
   and every k.  Where the stored word of e s_k is that of e followed by
   k (an edge of the breadth-first tree) this holds by construction and
   is skipped; the other edges, ``FiniteGroup.off_tree_edges`` (the one
   definition of the tree), are compared, first on the nose.

That is complete.  The identity's word is empty, so M(1) = I.  Right
multiplication by an integer matrix keeps congruence modulo R, so by
induction on the length of any word w of y, (2) gives
M(x) A(w) = M(x y) modulo R for every x; with x = 1 the product along any
word of y is M(y), and with w the stored word of y, M(x) M(y) = M(x y).
By (1) every M(x) induces an endomorphism of Z^n/R, so these congruences
say that e -> M(e) is a homomorphism into it, and y = x^-1 gives
M(x) M(x^-1) = I: every element acts invertibly on the quotient.

The permutation-cover resolution 0 -> L -> P -> M -> 0, with P free on a
permuted basis of subgroup cosets and L its Z-free kernel, is the bridge
from arbitrary modules to the two-term complexes used by the obstruction
computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .abelian import AbHom, PresentedAbelianGroup
from .errors import StructuralError
from .groups import FiniteGroup, Subgroup, _group_from_tokens
from .intlinalg import (
    IntMatrix,
    Lattice,
    block_diag,
    preimage_kernel,
    smith_normal_form,
    sparse_from_matrix,
    unimodular_inverse,
)


class GModule:
    __slots__ = ("group", "underlying", "action", "_element_matrices")

    def __init__(
        self,
        group: FiniteGroup,
        underlying: PresentedAbelianGroup,
        action: Sequence[IntMatrix],
        *,
        _trusted: bool = False,
    ):
        if len(action) != len(group.generators):
            raise StructuralError(
                f"need one action matrix per group generator "
                f"({len(group.generators)}), got {len(action)}"
            )
        n = underlying.generator_count
        for a in action:
            if a.nrows != n or a.ncols != n:
                raise StructuralError("action matrices must be square of the module rank")
        self.group = group
        self.underlying = underlying
        self.action = tuple(action)
        self._element_matrices: list[IntMatrix | None] = [None] * group.order
        if not _trusted:
            self._validate()

    def _validate(self) -> None:
        """Checks (1) and (2) of the module docstring."""
        und = self.underlying
        for a in self.action:
            for rel in und.relation_rows:
                if not und.contains_relation(a.matvec(rel)):
                    raise StructuralError(
                        "action matrix does not preserve the relation lattice"
                    )
        g = self.group
        for e, k in g.off_tree_edges():
            left = self.element_matrix(e).mul(self.action[k])
            if not _congruent(und, left, self.element_matrix(g.table[e][g.generators[k]])):
                raise StructuralError("action matrices are inconsistent with the group law")

    @property
    def rank(self) -> int:
        """Number of presentation generators (not the free rank)."""
        return self.underlying.generator_count

    def element_matrix(self, e: int) -> IntMatrix:
        """Action of an element, the product of generator matrices along
        its stored word.  The product starts from the cached matrix of the
        longest proper prefix of that word that is an element's stored
        word (``FiniteGroup.word_prefixes``), computed first if need be, and
        multiplies only the letters after it."""
        cache = self._element_matrices
        steps = self.group.word_prefixes()
        chain = []
        p: int | None = e
        while p is not None and cache[p] is None:
            chain.append(p)
            p = steps[p][0]
        m = IntMatrix.identity(self.rank) if p is None else cache[p]
        for x in reversed(chain):
            for k in steps[x][1]:
                m = m.mul(self.action[k])
            cache[x] = m
        return m

    def acts_trivially(self, e: int) -> bool:
        """Whether e acts as the identity on the quotient: on the nose, or
        else column by column modulo the relations."""
        und = self.underlying
        m = self.element_matrix(e)
        if all(row[i] == 1 and row.count(0) == len(row) - 1 for i, row in enumerate(m.rows)):
            return True
        for j in range(und.generator_count):
            col = list(m.col(j))
            col[j] -= 1
            if any(col) and not und.contains_relation(col):
                return False
        return True

    def action_kernel(self) -> list[int]:
        """Elements acting as the identity on the quotient."""
        return [e for e in range(self.group.order) if self.acts_trivially(e)]

    def is_z_free(self) -> bool:
        free, tors = self.underlying.invariant_factors()
        return not tors

    def __repr__(self) -> str:
        return f"GModule({self.underlying} over group of order {self.group.order})"


class PermutationModule(GModule):
    """Free module with a basis permuted by the group.

    ``basis_action[e]`` is the permutation of basis indices induced by the
    element ``e``; the rank is explicit, so a group without generators has
    permutation modules of every rank."""

    __slots__ = ("basis_action",)

    def __init__(self, group: FiniteGroup, rank: int, generator_perms: Sequence[Sequence[int]]):
        if len(generator_perms) != len(group.generators):
            raise StructuralError("need one basis permutation per group generator")
        perms = [tuple(p) for p in generator_perms]
        n = rank
        for p in perms:
            if sorted(p) != list(range(n)):
                raise StructuralError("basis action is not a permutation")
        # per-element permutations along words, each from its stored prefix
        # (the word (k1,..,kt) is the product s_k1 ... s_kt, whose
        # translation applies later letters first), then the group law off
        # the tree edges, as for any module (see the module docstring)
        words = group.element_words
        steps = group.word_prefixes()
        per_elt: list[tuple[int, ...]] = [()] * group.order
        for e in sorted(range(group.order), key=lambda e: len(words[e])):
            prefix, tail = steps[e]
            q = tuple(range(n)) if prefix is None else per_elt[prefix]
            for k in tail:
                q = tuple(q[b] for b in perms[k])
            per_elt[e] = q
        for e, k in group.off_tree_edges():
            es = group.table[e][group.generators[k]]
            if tuple(per_elt[e][b] for b in perms[k]) != per_elt[es]:
                raise StructuralError("basis permutations are inconsistent with the group law")
        matrices = [
            IntMatrix([[1 if p[j] == i else 0 for j in range(n)] for i in range(n)], cols=n)
            for p in perms
        ]
        super().__init__(
            group, PresentedAbelianGroup(n), matrices, _trusted=True
        )
        self.basis_action = tuple(per_elt)


class GModuleHom:
    """Equivariant homomorphism of modules over the same group."""

    __slots__ = ("source", "target", "matrix", "abhom")

    def __init__(self, source: GModule, target: GModule, matrix: IntMatrix):
        if source.group is not target.group:
            raise StructuralError("source and target live over different groups")
        self.abhom = AbHom(source.underlying, target.underlying, matrix)
        for a_src, a_tgt in zip(source.action, target.action):
            # equivariant on the nose, as the map M -> 0 always is, or else
            # modulo the target's relations
            if not _congruent(target.underlying, a_tgt.mul(matrix), matrix.mul(a_src)):
                raise StructuralError("homomorphism is not equivariant")
        self.source = source
        self.target = target
        self.matrix = matrix

    def __repr__(self) -> str:
        return f"GModuleHom({self.source.underlying} -> {self.target.underlying})"


def _congruent(und: PresentedAbelianGroup, left: IntMatrix, right: IntMatrix) -> bool:
    """Whether two matrices with values in ``und`` agree there: equal on
    the nose, or else column by column modulo the relations."""
    if left.rows == right.rows:
        return True
    return all(
        und.contains_relation([x - y for x, y in zip(left.col(j), right.col(j))])
        for j in range(left.ncols)
    )


@dataclass(frozen=True)
class PermutationResolution:
    """0 -> L -> P -> M -> 0 with P a permutation module and L Z-free."""

    module: GModule
    P: PermutationModule
    L: GModule
    incl: GModuleHom
    proj: GModuleHom


# ---------------------------------------------------------------------------
# Named constructors
# ---------------------------------------------------------------------------


def trivial_module(g: FiniteGroup, rank: int) -> GModule:
    return GModule(
        g,
        PresentedAbelianGroup(rank),
        [IntMatrix.identity(rank) for _ in g.generators],
        _trusted=True,
    )


def zero_module(g: FiniteGroup) -> GModule:
    return trivial_module(g, 0)


def sign_module(g: FiniteGroup, negating: Iterable[int]) -> GModule:
    """Rank-one module where the listed generators act by -1.  The
    constructor rejects assignments that do not factor through the group."""
    neg = set(negating)
    return GModule(
        g,
        PresentedAbelianGroup(1),
        [IntMatrix([[-1 if k in neg else 1]]) for k in range(len(g.generators))],
    )


def permutation_module(g: FiniteGroup, h: Subgroup) -> PermutationModule:
    """Z[g/h]: basis the left cosets of h, action by left translation."""
    if h.parent is not g:
        raise StructuralError("subgroup does not belong to the given group")
    names, name_of = _cosets(g, h)
    index = {r: i for i, r in enumerate(names)}
    perms = [tuple(index[name_of[g.mul(s, r)]] for r in names) for s in g.generators]
    return PermutationModule(g, len(names), perms)


def _cosets(g: FiniteGroup, h: Subgroup) -> tuple[list[int], list[int]]:
    """The left cosets e h, each named by its least element: the names in
    increasing order, and the name of each element.  Elements are scanned
    in increasing order, so one not yet named is the least of its coset."""
    names: list[int] = []
    name_of: list[int] = [-1] * g.order
    for e in range(g.order):
        if name_of[e] < 0:
            names.append(e)
            for s in h.members:
                name_of[g.table[e][s]] = e
    return names, name_of


def regular_module(g: FiniteGroup) -> PermutationModule:
    return permutation_module(g, g.trivial_subgroup())


def augmentation_ideal(g: FiniteGroup) -> GModule:
    """Kernel of the coefficient-sum map on Z[g], with basis
    e_i - e_identity for the nonidentity elements i."""
    n = g.order
    rank = n - 1

    def col_for(s: int, i: int) -> list[int]:
        # image of e_{i} - e_0 under left translation by s
        out = [0] * rank
        top = g.mul(s, i)
        bot = g.mul(s, 0)
        if top != 0:
            out[top - 1] += 1
        if bot != 0:
            out[bot - 1] -= 1
        return out

    action = [
        IntMatrix.from_cols([col_for(s, i) for i in range(1, n)], rows=rank)
        for s in g.generators
    ]
    return GModule(g, PresentedAbelianGroup(rank), action, _trusted=True)


def augmentation_quotient(g: FiniteGroup) -> GModule:
    """Z[g] modulo the norm element (the sum of the basis)."""
    n = g.order
    reg = regular_module(g)
    return GModule(
        g,
        PresentedAbelianGroup(n, [[1] * n]),
        reg.action,
        _trusted=True,
    )


def direct_sum(mods: Sequence[GModule]) -> GModule:
    if not mods:
        raise StructuralError("direct sum needs at least one summand")
    g = mods[0].group
    for m in mods:
        if m.group is not g:
            raise StructuralError("summands live over different groups")
    und, _ = PresentedAbelianGroup.direct_sum([m.underlying for m in mods])
    action = [block_diag([m.action[k] for m in mods]) for k in range(len(g.generators))]
    return GModule(g, und, action, _trusted=True)


def perm_direct_sum(mods: Sequence[PermutationModule]) -> PermutationModule:
    g = mods[0].group
    for m in mods:
        if m.group is not g:
            raise StructuralError("summands live over different groups")
    perms = []
    for k in range(len(g.generators)):
        combined: list[int] = []
        off = 0
        for m in mods:
            p = [m.basis_action[g.generators[k]][b] + off for b in range(m.rank)]
            combined.extend(p)
            off += m.rank
        perms.append(tuple(combined))
    return PermutationModule(g, sum(m.rank for m in mods), perms)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def free_basis_presentation(m: GModule) -> tuple[GModule, IntMatrix, IntMatrix]:
    """Re-present a torsion-free module on an honest basis.

    Returns (free module, proj, lift) with proj @ lift the identity; proj
    carries old presentation coordinates to basis coordinates."""
    free, tors = m.underlying.invariant_factors()
    if tors:
        raise StructuralError(f"module has torsion {list(tors)}; no free basis exists")
    n = m.underlying.generator_count
    if not m.underlying.relation_rows:
        ident = IntMatrix.identity(n)
        return m, ident, ident
    rel_t = m.underlying.relations.transpose()
    snf = smith_normal_form(rel_t)
    diag = snf.diagonal
    free_idx = [i for i in range(n) if i >= len(diag) or diag[i] == 0]
    u = snf.U
    u_inv = unimodular_inverse(u)
    proj = IntMatrix([u.row(i) for i in free_idx], cols=n)
    lift = IntMatrix.from_cols([u_inv.col(i) for i in free_idx], rows=n)
    action = [proj.mul(a).mul(lift) for a in m.action]
    free_mod = GModule(m.group, PresentedAbelianGroup(len(free_idx)), action, _trusted=True)
    return free_mod, proj, lift


def dual_module(m: GModule) -> GModule:
    """Hom(M, Z) with the contragredient action (inverse transpose);
    requires a torsion-free module.  The dual of a permutation module is
    the permutation module on the dual basis."""
    free, tors = m.underlying.invariant_factors()
    if tors:
        raise StructuralError(
            f"cannot dualize a module with torsion factors {list(tors)}"
        )
    if isinstance(m, PermutationModule):
        # permutation matrices are orthogonal: inverse transpose is itself
        return PermutationModule(m.group, m.rank, [m.basis_action[s] for s in m.group.generators])
    base, _, _ = free_basis_presentation(m)
    dual_action = [unimodular_inverse(a).transpose() for a in base.action]
    return GModule(
        base.group, PresentedAbelianGroup(base.rank), dual_action, _trusted=True
    )


def faithful_quotient(m: GModule) -> tuple[FiniteGroup, GModule]:
    """Quotient of the acting group by the kernel of the action, together
    with the module as a faithful module over it.  Models passing to the
    smallest splitting extension.

    Each coset is named by its least element, and the quotient is the
    breadth-first closure of the generators' cosets.  It is built from the
    checked group without checking it again: the kernel N of the action is
    normal, so the coset product (aN)(bN) = abN is well defined and is a
    group law, with N as identity and the coset of the parent's inverse as
    inverse; the closure's words evaluate to their cosets and reach every
    coset, since the parent's generators generate."""
    g = m.group
    kernel = m.action_kernel()
    rep = [min(g.table[e][k] for k in kernel) for e in range(g.order)]
    gens: list[int] = []
    for s in g.generators:
        if rep[s] and rep[s] not in gens:
            gens.append(rep[s])
    q_group, _ = _group_from_tokens(
        0, gens, lambda a, b: rep[g.table[a][b]], g.order + 1, lambda a: rep[g.inverse[a]]
    )
    action = [m.element_matrix(s) for s in gens]
    return q_group, GModule(q_group, m.underlying, action, _trusted=True)


def permutation_cover(
    m: GModule, generators: Sequence[Sequence[int]] | None = None
) -> PermutationResolution:
    """Resolution 0 -> L -> P -> M -> 0.

    P is the direct sum, over a generating set {v_i} of M, of the coset
    modules Z[g/Stab(v_i)], where the stabilizer is exact equality in the
    quotient; the projection sends the coset of s in the i-th summand to
    s.v_i, and L is its kernel, Z-free with the induced action.

    By default the generating set is the presentation basis of M with the
    vectors that vanish in M dropped; any generating set may be supplied.
    """
    g = m.group
    und = m.underlying
    n = und.generator_count
    if generators is None:
        gen_vectors = [
            tuple(1 if j == i else 0 for j in range(n))
            for i in range(n)
            if not und.contains_relation([1 if j == i else 0 for j in range(n)])
        ]
    else:
        gen_vectors = [tuple(v) for v in generators]
        for v in gen_vectors:
            if len(v) != n:
                raise StructuralError("generating vector has wrong length")

    summands: list[PermutationModule] = []
    proj_cols: list[list[int]] = []
    for v in gen_vectors:
        stab = [
            e
            for e in range(g.order)
            if und.contains_relation(
                [a - b for a, b in zip(m.element_matrix(e).matvec(v), v)]
            )
        ]
        h = Subgroup(g, stab)
        pm = permutation_module(g, h)
        summands.append(pm)
        # the coset names, in the basis order used by permutation_module
        for r in _cosets(g, h)[0]:
            proj_cols.append(list(m.element_matrix(r).matvec(v)))
    P = perm_direct_sum(summands) if summands else PermutationModule(g, 0, [()] * len(g.generators))
    proj_matrix = IntMatrix.from_cols(proj_cols, rows=n)
    # surjectivity: the columns together with the relators must span Z^n
    cok = PresentedAbelianGroup(n, list(und.relation_rows) + [tuple(c) for c in proj_cols])
    if not cok.is_trivial():
        raise StructuralError("chosen vectors do not generate the module")
    proj = GModuleHom(P, m, proj_matrix)

    basis = preimage_kernel(sparse_from_matrix(proj_matrix), n, und.relation_lattice.sparse_rows())
    incl_matrix = IntMatrix.from_cols(basis.rows, rows=P.rank)
    L_action = induced_action(basis, P.action, "kernel")
    L = GModule(g, PresentedAbelianGroup(len(basis)), L_action, _trusted=True)
    incl = GModuleHom(L, P, incl_matrix)
    return PermutationResolution(module=m, P=P, L=L, incl=incl, proj=proj)


def induced_action(basis: Lattice, action: Sequence[IntMatrix], name: str) -> list[IntMatrix]:
    """The action on the sublattice spanned by ``basis`` of the matrices
    ``action``, one per generator on the ambient coordinates: the image of
    each basis row, solved on the basis.  A sublattice that some generator
    does not map into itself raises :class:`StructuralError`, naming it as
    the ``name`` lattice."""
    out = []
    for a in action:
        cols = []
        for b in basis:
            coeffs = basis.solve(a.matvec(b))
            if coeffs is None:
                raise StructuralError(f"{name} lattice is not action-stable")
            cols.append(list(coeffs))
        out.append(IntMatrix.from_cols(cols, rows=len(basis)))
    return out
