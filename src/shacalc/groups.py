"""Finite groups with full multiplication tables.

Groups stand in for finite Galois groups.  They are built from permutation
generators by breadth-first closure from the identity, which fixes a
canonical element order (index 0 is the identity) and hence deterministic
matrices everywhere downstream.  Each element carries one word in the
generators, used to transport generator-level data (module actions) to
arbitrary elements.

The product convention is composition: ``g*h`` acts by "h first, then g",
and ``table[i][j]`` is the index of ``element_i * element_j``.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Hashable, Iterable, Sequence

from .errors import ResourceError, StructuralError

DEFAULT_ORDER_BOUND = 5000


class FiniteGroup:
    __slots__ = (
        "order",
        "table",
        "generators",
        "element_words",
        "inverse",
        "_elt_order",
        "_cyclic_classes",
        "_word_prefixes",
        "_off_tree",
    )

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        generators: Sequence[int],
        element_words: Sequence[Sequence[int]],
    ):
        n = len(table)
        self.order = n
        self.table = tuple(tuple(r) for r in table)
        self.generators = tuple(generators)
        self.element_words = tuple(tuple(w) for w in element_words)
        self._check_table()
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if self.table[i][j] == 0:
                    inv[i] = j
                    break
        if any(v is None for v in inv):
            raise StructuralError("multiplication table has an element without inverse")
        self.inverse = tuple(inv)  # type: ignore[arg-type]
        self._elt_order: tuple[int, ...] | None = None
        self._cyclic_classes: tuple[Subgroup, ...] | None = None
        self._word_prefixes: tuple[tuple[int | None, tuple[int, ...]], ...] | None = None
        self._off_tree: tuple[tuple[int, int], ...] | None = None

    @classmethod
    def _from_checked(cls, table, generators, element_words, inverse) -> "FiniteGroup":
        """A group from tuples read off a group that is already checked
        (see :func:`_group_from_tokens`), so nothing is checked again."""
        g = cls.__new__(cls)
        g.order = len(table)
        g.table, g.generators, g.element_words, g.inverse = table, generators, element_words, inverse
        g._elt_order = g._cyclic_classes = g._word_prefixes = g._off_tree = None
        return g

    def _check_table(self) -> None:
        n = self.order
        t = self.table
        for i in range(n):
            if t[0][i] != i or t[i][0] != i:
                raise StructuralError("element 0 is not an identity for the table")
            if sorted(t[i]) != list(range(n)) or sorted(t[j][i] for j in range(n)) != list(range(n)):
                raise StructuralError("multiplication table is not a Latin square")
        # Light's associativity test: checking a(xy) = (ax)y for generators a
        # suffices once the generators generate, which closure guarantees.
        for a in self.generators:
            ta = t[a]
            for x in range(n):
                tax = t[ta[x]]
                tx = t[x]
                for y in range(n):
                    if ta[tx[y]] != tax[y]:
                        raise StructuralError("multiplication table is not associative")
        if len(self._closure(self.generators)) != n:
            raise StructuralError("listed generators do not generate the group")
        # module actions are transported along the words (gmodules)
        if self.element_words[0]:
            raise StructuralError("the identity's stored word is not empty")
        for e, w in enumerate(self.element_words):
            x = 0
            for k in w:
                x = t[x][self.generators[k]]
            if x != e:
                raise StructuralError(f"the stored word of element {e} evaluates to {x}")

    # -- basic queries ---------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def word_prefixes(self) -> tuple[tuple[int | None, tuple[int, ...]], ...]:
        """Per element, (p, tail): p is the element whose stored word is
        the longest proper prefix of this element's word that is stored,
        and tail the letters after it; p is None for the identity, whose
        word is empty.  Along breadth-first words p is the parent in the
        search tree and tail one letter."""
        if self._word_prefixes is None:
            index = {w: e for e, w in enumerate(self.element_words)}
            out: list[tuple[int | None, tuple[int, ...]]] = []
            for w in self.element_words:
                cut = next((i for i in range(len(w) - 1, -1, -1) if w[:i] in index), None)
                out.append((None, w) if cut is None else (index[w[:cut]], w[cut:]))
            self._word_prefixes = tuple(out)
        return self._word_prefixes

    def off_tree_edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (e, k) of the generator graph off the breadth-first
        tree: those where the stored word of e s_k is not the word of e
        followed by k; computed once.  This is the one definition of the
        tree: module validation checks the group law on these edges only,
        and the generator route of :mod:`shacalc.cohomology` puts one
        relator block on each."""
        if self._off_tree is None:
            words, table = self.element_words, self.table
            self._off_tree = tuple(
                (e, k)
                for e in range(self.order)
                for k, s in enumerate(self.generators)
                if words[table[e][s]] != words[e] + (k,)
            )
        return self._off_tree

    def element_order(self, i: int) -> int:
        if self._elt_order is None:
            orders = []
            for e in range(self.order):
                x, n = e, 1
                while x != 0:
                    x = self.table[x][e]
                    n += 1
                orders.append(n)
            self._elt_order = tuple(orders)
        return self._elt_order[i]

    def exponent(self) -> int:
        return lcm(*(self.element_order(e) for e in range(self.order)))

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.table[self.table[g][x]][self.inverse[g]]

    # -- subgroups ---------------------------------------------------------

    def generated_subgroup(self, seeds: Iterable[int]) -> "Subgroup":
        return Subgroup(self, self._closure(tuple(seeds)))

    def _closure(self, seeds: Sequence[int]) -> set[int]:
        """The members of the subgroup the seeds generate: seeds need not
        contain inverses, but in a finite group powers do."""
        members = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for e in frontier:
                for s in seeds:
                    c = self.table[e][s]
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
            frontier = nxt
        return members

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order))

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _group_from_tokens(
    identity: Hashable,
    gen_tokens: Sequence[Hashable],
    mul: Callable[[Hashable, Hashable], Hashable],
    order_bound: int,
    inverse: Callable[[Hashable], Hashable] | None = None,
) -> tuple[FiniteGroup, list[Hashable]]:
    """The group the tokens generate, and its elements as tokens, by the
    canonical breadth-first enumeration: from the identity, apply the
    generators in listed order by right multiplication.

    Without ``inverse`` the table is checked (:meth:`FiniteGroup._check_table`)
    and the inverses are searched for.  A caller that reads the group off
    a checked one passes the inverse of a token instead, and nothing is
    checked (:meth:`FiniteGroup._from_checked`)."""
    index: dict[Hashable, int] = {identity: 0}
    elements: list[Hashable] = [identity]
    words: list[tuple[int, ...]] = [()]
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for k, s in enumerate(gen_tokens):
                c = mul(e, s)
                if c not in index:
                    if len(elements) >= order_bound:
                        raise ResourceError(
                            f"group order exceeds the configured bound {order_bound}"
                        )
                    index[c] = len(elements)
                    elements.append(c)
                    words.append(words[index[e]] + (k,))
                    nxt.append(c)
        frontier = nxt
    table = tuple(tuple(index[mul(a, b)] for b in elements) for a in elements)
    gens = tuple(index[s] for s in gen_tokens)
    if inverse is None:
        return FiniteGroup(table, gens, words), elements
    inv = tuple(index[inverse(a)] for a in elements)
    return FiniteGroup._from_checked(table, gens, tuple(words), inv), elements


def from_permutations(
    gens: Sequence[Sequence[int]], *, order_bound: int = DEFAULT_ORDER_BOUND
) -> FiniteGroup:
    """Group generated by permutations of {0..n-1}, given as image tuples.

    An empty generator list yields the trivial group."""
    if not gens:
        return FiniteGroup([[0]], [], [()])
    n = len(gens[0])
    tokens = []
    for p in gens:
        t = tuple(p)
        if len(t) != n:
            raise StructuralError("permutation generators act on different sets")
        if sorted(t) != list(range(n)):
            raise StructuralError(f"{list(p)} is not a permutation of 0..{n - 1}")
        tokens.append(t)
    identity = tuple(range(n))

    def mul(a, b):  # a*b acts by b first: composition a o b
        return tuple(a[b[x]] for x in range(n))

    group, _ = _group_from_tokens(identity, tokens, mul, order_bound)
    return group


class Subgroup:
    """Subset of a parent group, closed under product and inverse."""

    __slots__ = ("parent", "members", "_conjugates", "_group")

    def __init__(self, parent: FiniteGroup, members: Iterable[int]):
        mem = tuple(sorted(set(members)))
        if not mem or mem[0] != 0:
            raise StructuralError("a subgroup must contain the identity")
        mset = set(mem)
        for a in mem:
            if parent.inverse[a] not in mset:
                raise StructuralError("subgroup is not closed under inversion")
            for b in mem:
                if parent.table[a][b] not in mset:
                    raise StructuralError("subgroup is not closed under the product")
        self.parent = parent
        self.members = mem
        self._conjugates: frozenset[tuple[int, ...]] | None = None
        self._group: tuple[FiniteGroup, tuple[int, ...]] | None = None

    @property
    def order(self) -> int:
        return len(self.members)

    def is_cyclic(self) -> bool:
        return any(
            self.parent.element_order(e) == self.order for e in self.members
        )

    def conjugated_by(self, g: int) -> "Subgroup":
        return Subgroup(self.parent, (self.parent.conjugate(g, x) for x in self.members))

    def conjugates(self) -> frozenset[tuple[int, ...]]:
        """The members of every conjugate, this subgroup included; computed once."""
        if self._conjugates is None:
            g = self.parent
            self._conjugates = frozenset(
                tuple(sorted(g.conjugate(x, m) for m in self.members)) for x in range(g.order)
            )
        return self._conjugates

    def conjugate_lies_in(self, other: "Subgroup") -> bool:
        """Whether some conjugate of this subgroup is contained in ``other``."""
        big = set(other.members)
        return any(big.issuperset(c) for c in self.conjugates())

    def minimal_generators(self) -> tuple[int, ...]:
        """Greedy deterministic generating set (sorted element order)."""
        gens: list[int] = []
        closure = {0}
        for m in self.members:
            if m not in closure:
                gens.append(m)
                closure = self.parent._closure(gens)
        return tuple(gens)

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Standalone group plus the embedding (subgroup index -> parent
        index); built once per subgroup object."""
        if self._group is None:
            parent = self.parent
            group, elements = _group_from_tokens(
                0, self.minimal_generators(), parent.mul, self.order + 1, parent.inverse.__getitem__
            )
            self._group = (group, tuple(elements))  # type: ignore[arg-type]
        return self._group

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, members={self.members})"


def cyclic_subgroups(g: FiniteGroup, up_to_conjugacy: bool = False) -> list[Subgroup]:
    """Every subgroup generated by a single element, the trivial one
    included, sorted by (order, members).  With ``up_to_conjugacy`` one
    representative per conjugacy class is kept: the least in that order.
    The group holds those representatives once they are computed."""
    if up_to_conjugacy and g._cyclic_classes is not None:
        return list(g._cyclic_classes)
    seen: dict[tuple[int, ...], Subgroup] = {}
    for e in range(g.order):
        s = g.generated_subgroup([e] if e else [])
        seen.setdefault(s.members, s)
    subs = [seen[k] for k in sorted(seen, key=lambda m: (len(m), m))]
    if not up_to_conjugacy:
        return subs
    reps: list[Subgroup] = []
    taken: set[tuple[int, ...]] = set()
    for s in subs:
        if s.members in taken:
            continue
        taken |= s.conjugates()
        reps.append(s)
    g._cyclic_classes = tuple(reps)
    return reps


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def exponent(g: FiniteGroup) -> int:
    """Least common multiple of the element orders."""
    return g.exponent()


def is_metacyclic(g: FiniteGroup) -> bool:
    """Whether every Sylow subgroup is cyclic, equivalently whether the
    exponent equals the order."""
    return exponent(g) == g.order
