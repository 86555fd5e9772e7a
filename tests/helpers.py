"""Shared fixtures-in-spirit: a catalog of small groups, a full subgroup
enumeration (the library itself deliberately ships no subgroup lattice;
tests build it by closure), and constructions that only tests use: small
abelian groups, sparse composition, map congruence and the long exact
sequence of a two-term complex."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from shacalc.abelian import AbHom, PresentedAbelianGroup
from shacalc.cohomology import (
    CohomologyGroup,
    TwoTermComplex,
    _class_map,
    cohomology,
    hypercohomology,
)
from shacalc.groups import FiniteGroup, Subgroup, from_permutations
from shacalc.intlinalg import sparse_from_matrix


def catalog() -> dict[str, FiniteGroup]:
    def cyc(n):
        return from_permutations([[(i + 1) % n for i in range(n)]])

    return {
        "Z2": cyc(2),
        "Z3": cyc(3),
        "Z4": cyc(4),
        "Z6": cyc(6),
        "Z8": cyc(8),
        "Z12": cyc(12),
        "V4": from_permutations([[1, 0, 2, 3], [0, 1, 3, 2]]),
        "S3": from_permutations([[1, 0, 2], [1, 2, 0]]),
        "D4": from_permutations([[1, 2, 3, 0], [0, 3, 2, 1]]),
        "Q8": from_permutations([[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]]),
        "Z2xZ4": from_permutations([[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]]),
        "Z2^3": from_permutations(
            [[1, 0, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]]
        ),
        "A4": from_permutations([[1, 2, 0, 3], [1, 0, 3, 2]]),
    }


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, by closure saturation (fine for order <= 64)."""
    found = {(0,): g.trivial_subgroup()}
    frontier = [g.trivial_subgroup()]
    while frontier:
        nxt = []
        for sub in frontier:
            for e in range(1, g.order):
                if e in sub.members:
                    continue
                bigger = g.generated_subgroup(list(sub.members) + [e])
                if bigger.members not in found:
                    found[bigger.members] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return [found[k] for k in sorted(found, key=lambda m: (len(m), m))]


def free_group(rank: int) -> PresentedAbelianGroup:
    return PresentedAbelianGroup(rank)


def cyclic_group(n: int) -> PresentedAbelianGroup:
    return PresentedAbelianGroup(1, [[n]])


def congruent(a: AbHom, b: AbHom) -> bool:
    """Equality as maps of presented groups."""
    if a.source != b.source or a.target != b.target:
        return False
    for j in range(a.matrix.ncols):
        diff = [x - y for x, y in zip(a.matrix.col(j), b.matrix.col(j))]
        if not a.target.contains_relation(diff):
            return False
    return True


def sparse_compose(
    outer: Sequence[dict[int, int]], inner: Sequence[dict[int, int]]
) -> list[dict[int, int]]:
    """Columns of A @ B where outer gives A's columns and inner gives B's."""
    out = []
    for col in inner:
        acc: dict[int, int] = {}
        for j, x in col.items():
            for i, v in outer[j].items():
                w = acc.get(i, 0) + x * v
                if w:
                    acc[i] = w
                else:
                    del acc[i]
        out.append(acc)
    return out


@dataclass(frozen=True)
class LesSegment:
    """H^{i-1}(A) -> H^{i-1}(B) -> HH^i(A->B) -> H^i(A) -> H^i(B) with the
    connecting maps realized on representatives."""

    ha_prev: CohomologyGroup
    hb_prev: CohomologyGroup
    hyper: CohomologyGroup
    ha: CohomologyGroup
    hb: CohomologyGroup
    from_a_prev: AbHom
    from_b_prev: AbHom
    to_a: AbHom
    to_b: AbHom


def les_segment(group: FiniteGroup, complex_: TwoTermComplex, degree: int) -> LesSegment:
    assert degree in (1, 2), "the exposed segment needs degree 1 or 2"
    a, b = complex_.degree0, complex_.degree1
    i = degree
    ha_prev = cohomology(group, a, i - 1)
    hb_prev = cohomology(group, b, i - 1)
    hyper = hypercohomology(group, complex_, i)
    ha = cohomology(group, a, i)
    hb = cohomology(group, b, i)
    f_cols = sparse_from_matrix(complex_.f.matrix)
    gm_a = a.rank

    def f_pointwise(vec: Sequence[int], blocks: int) -> list[int]:
        out = [0] * (blocks * b.rank)
        for block in range(blocks):
            for j in range(gm_a):
                v = vec[block * gm_a + j]
                if v:
                    for r, w in f_cols[j].items():
                        out[block * b.rank + r] += v * w
        return out

    order = group.order

    def induced_f(src: CohomologyGroup, tgt: CohomologyGroup, deg: int) -> AbHom:
        return _class_map(src, tgt, [f_pointwise(rep, order**deg) for rep in src.representatives])

    a_dim_hyper = order**i * gm_a
    from_b_prev = _class_map(
        hb_prev, hyper, [[0] * a_dim_hyper + list(rep) for rep in hb_prev.representatives]
    )
    to_a = _class_map(hyper, ha, [rep[:a_dim_hyper] for rep in hyper.representatives])
    return LesSegment(
        ha_prev=ha_prev,
        hb_prev=hb_prev,
        hyper=hyper,
        ha=ha,
        hb=hb,
        from_a_prev=induced_f(ha_prev, hb_prev, i - 1),
        from_b_prev=from_b_prev,
        to_a=to_a,
        to_b=induced_f(ha, hb, i),
    )
