"""Seeded random instance generators and the verification suites behind
``shacalc verify``.

All randomness flows from SplitMix64 (see prng.py), so a (seed, instance
index) pair pins an instance exactly and counterexample certificates can
be replayed anywhere.  Reports are ordered by instance index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .abelian import PresentedAbelianGroup, invariant_factors, is_isomorphism
from .arith import (
    CocharacterDatum,
    IsogenyDatum,
    dual_complex,
    ext0_with_data,
    quasi_trivial_cover,
)
from .cohomology import TwoTermComplex, hypercohomology
from .errors import InternalError, StructuralError
from .gmodules import (
    GModule,
    GModuleHom,
    PermutationModule,
    direct_sum,
    dual_module,
    perm_direct_sum,
    permutation_cover,
    permutation_module,
    sign_module,
    trivial_module,
)
from .groups import FiniteGroup, Subgroup, from_permutations, is_metacyclic
from .intlinalg import (
    IntMatrix,
    Lattice,
    hermite_rows,
    preimage_kernel,
    sparse_from_matrix,
    unimodular_inverse,
)
from .prng import SplitMix64
from .sha import (
    LocalDatum,
    PlaceSelection,
    sha,
    sha_two_term,
    verify_annihilation,
    verify_shift_isomorphism,
)


@dataclass
class SuiteReport:
    """JSON-ready outcome of one verification suite."""

    lemma: str
    instances: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "instances": self.instances,
            "failures": self.failures,
        }

    def record(self, index: int, outcome: dict) -> None:
        entry = {"index": index, **outcome}
        self.instances.append(entry)
        if not outcome.get("ok", True):
            self.failures.append(entry)


# ---------------------------------------------------------------------------
# Random data
# ---------------------------------------------------------------------------


def random_unimodular(rng: SplitMix64, n: int, steps: int = 6) -> IntMatrix:
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            u[i][k] += c * u[j][k]
    return IntMatrix(u, cols=n)


def random_subgroup(g: FiniteGroup, rng: SplitMix64) -> Subgroup:
    seeds = [rng.randrange(g.order) for _ in range(rng.randint(1, 2))]
    return g.generated_subgroup([s for s in seeds if s] or [0])


def random_module(
    g: FiniteGroup,
    rng: SplitMix64,
    max_rank: int = 4,
    max_torsion_relators: int = 2,
) -> GModule:
    """A random module: a sum of structured blocks (coset modules, duals,
    rank-one twists), conjugated by a random unimodular change of basis,
    with up to ``max_torsion_relators`` action-stable torsion relators."""
    blocks: list[GModule] = []
    rank = 0
    while rank < max_rank:
        kind = rng.randrange(4)
        if kind == 0:
            blocks.append(trivial_module(g, 1))
        elif kind == 2:
            # a rank-one twist when the group admits one
            neg = [k for k in range(len(g.generators)) if rng.randrange(2)]
            try:
                blocks.append(sign_module(g, neg))
            except StructuralError:
                blocks.append(trivial_module(g, 1))
        else:
            # a coset module (kind 1) or its dual (kind 3)
            pm = permutation_module(g, random_subgroup(g, rng))
            if rank + pm.rank > max_rank:
                blocks.append(trivial_module(g, 1))
            else:
                blocks.append(dual_module(pm) if kind == 3 else pm)
        rank = sum(b.rank for b in blocks)
        if rng.randrange(3) == 0 and rank >= 1:
            break
    m = direct_sum(blocks) if len(blocks) > 1 else blocks[0]
    n = m.rank
    u = random_unimodular(rng, n)
    u_inv = unimodular_inverse(u)
    action = [u_inv.mul(a).mul(u) for a in m.action]
    relators: list[list[int]] = []
    for _ in range(rng.randint(0, max_torsion_relators)):
        v = [rng.randint(-1, 1) for _ in range(n)]
        if not any(v):
            continue
        scale = rng.choice([2, 2, 3, 4])
        relators.extend([scale * x for x in w] for w in _orbit(action, tuple(v)))
    return GModule(g, PresentedAbelianGroup(n, relators), action)


def _orbit(action: Sequence[IntMatrix], v: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The orbit {M(e) v : e in G} of a vector under the action with
    generator matrices ``action``: its closure under each generator, since
    the generators span G as a monoid.  No element matrix is formed."""
    orbit, seen = [v], {v}
    for w in orbit:
        for a in action:
            x = a.matvec(w)
            if x not in seen:
                seen.add(x)
                orbit.append(x)
    return orbit


def fixed_vectors_under(m: GModule, h: Subgroup) -> Lattice:
    """The lattice {x : (a - 1)x = 0 in m for the subgroup action}."""
    n = m.rank
    sub_gens = h.minimal_generators()
    stacked: list[list[int]] = []
    for e in sub_gens:
        a = m.element_matrix(e)
        for i in range(n):
            stacked.append([a.at(i, j) - (1 if i == j else 0) for j in range(n)])
    if not stacked:
        return hermite_rows(
            [[1 if j == i else 0 for j in range(n)] for i in range(n)], n
        )
    mat = IntMatrix(stacked, cols=n)
    # relations of the target: one copy of the module relations per block
    blocks = len(sub_gens)
    lat_rows = [
        {b * n + k: v for k, v in rel.items()}
        for b in range(blocks)
        for rel in m.underlying.relation_lattice.sparse_rows()
    ]
    return preimage_kernel(sparse_from_matrix(mat), blocks * n, lat_rows)


def random_equivariant_map(
    p: PermutationModule, target: GModule, rng: SplitMix64, bound: int = 2
) -> GModuleHom:
    """A random equivariant map out of a permutation module: each basis
    orbit is sent to a random vector fixed by its stabilizer."""
    g = p.group
    n = p.rank
    assigned: dict[int, tuple[int, ...]] = {}
    seen: set[int] = set()
    for b in range(n):
        if b in seen:
            continue
        orbit_elt = {b: 0}
        frontier = [b]
        while frontier:
            nxt = []
            for x in frontier:
                for e in range(g.order):
                    y = p.basis_action[e][x]
                    if y not in orbit_elt:
                        orbit_elt[y] = e if x == b else g.mul(e, orbit_elt[x])
                        nxt.append(y)
            frontier = nxt
        stab = Subgroup(
            g, [e for e in range(g.order) if p.basis_action[e][b] == b]
        )
        basis = fixed_vectors_under(target, stab)
        if basis:
            coeffs = [rng.randint(-bound, bound) for _ in basis]
            v = [0] * target.rank
            for c, row in zip(coeffs, basis):
                for k in range(target.rank):
                    v[k] += c * row[k]
        else:
            v = [0] * target.rank
        for y, e in orbit_elt.items():
            assigned[y] = target.element_matrix(e).matvec(v)
        seen |= set(orbit_elt)
    cols = [list(assigned[b]) for b in range(n)]
    return GModuleHom(p, target, IntMatrix.from_cols(cols, rows=target.rank))


def random_permutation_module(
    g: FiniteGroup, rng: SplitMix64, max_rank: int = 8
) -> PermutationModule:
    mods: list[PermutationModule] = []
    rank = 0
    while True:
        h = random_subgroup(g, rng)
        pm = permutation_module(g, h)
        if rank + pm.rank > max_rank:
            if mods:
                break
            pm = permutation_module(g, g.full_subgroup())
        mods.append(pm)
        rank += mods[-1].rank
        if rng.randrange(2):
            break
    return perm_direct_sum(mods)


def random_datum(g: FiniteGroup, rng: SplitMix64, max_places: int = 2) -> LocalDatum:
    places = []
    for i in range(rng.randint(0, max_places)):
        places.append((f"v{i}", random_subgroup(g, rng)))
    return LocalDatum(g, tuple(places))


def random_selection(datum: LocalDatum, rng: SplitMix64) -> PlaceSelection:
    chosen = [n for n in datum.place_names if rng.randrange(2)]
    return PlaceSelection(frozenset(chosen))


def random_free_module(
    g: FiniteGroup, rng: SplitMix64, max_rank: int = 3
) -> GModule:
    while True:
        m = random_module(g, rng, max_rank=max_rank, max_torsion_relators=0)
        if not m.underlying.relation_rows:
            return m


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

Groups = dict[str, FiniteGroup]

ANNIHILATION_GROUP_NAMES = ("V4", "Z2xZ4", "D4", "Q8", "A4", "S3", "Z6")


def builtin_groups() -> Groups:
    def cyc(n):
        return from_permutations([[(i + 1) % n for i in range(n)]])

    return {
        "Z2": cyc(2),
        "Z4": cyc(4),
        "Z6": cyc(6),
        "Z8": cyc(8),
        "V4": from_permutations([[1, 0, 2, 3], [0, 1, 3, 2]]),
        "S3": from_permutations([[1, 0, 2], [1, 2, 0]]),
        "D4": from_permutations([[1, 2, 3, 0], [0, 3, 2, 1]]),
        "Q8": from_permutations(
            [[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]]
        ),
        "Z2xZ4": from_permutations([[1, 0, 2, 3, 4, 5], [0, 1, 3, 4, 5, 2]]),
        "A4": from_permutations([[1, 2, 0, 3], [1, 0, 3, 2]]),
    }


def _run(
    lemma: str, instance, seed: int, instances: int, groups: Groups | None, names=None
) -> SuiteReport:
    """Run ``instance(g, rng) -> outcome`` for indices 0..instances-1,
    cycling through ``names`` (default: every group, sorted) of ``groups``
    (default: the builtin groups).  Each index spawns its own rng from the
    seed, and its outcome is recorded under the group's name."""
    if groups is None:
        groups = builtin_groups()
    if names is None:
        names = sorted(groups)
    report = SuiteReport(lemma=lemma)
    rng = SplitMix64(seed)
    for idx in range(instances):
        name = names[idx % len(names)]
        outcome = instance(groups[name], rng.spawn())
        outcome["group"] = name
        report.record(idx, outcome)
    return report


def _annihilation_groups(groups: Groups | None) -> tuple[Groups, list[str]]:
    """The builtin groups cycled in ANNIHILATION_GROUP_NAMES order, or the
    supplied groups sorted by name."""
    if groups is None:
        return builtin_groups(), list(ANNIHILATION_GROUP_NAMES)
    return groups, sorted(groups)


def _annihilation_instance(g: FiniteGroup, rng: SplitMix64) -> dict:
    m = random_module(g, rng)
    outcome = verify_annihilation(random_datum(g, rng), m)
    outcome["module_rank"] = m.rank
    return outcome


def annihilation_suite(seed: int, instances: int, groups: Groups | None = None) -> SuiteReport:
    """Random modules: (order/exponent of the faithful image) kills
    Sha^1_omega, and metacyclic images force outright vanishing."""
    groups, names = _annihilation_groups(groups)
    lemma = "order-over-exponent-annihilation"
    return _run(lemma, _annihilation_instance, seed, instances, groups, names)


def metacyclic_suite(seed: int, instances: int, groups: Groups | None = None) -> SuiteReport:
    """The annihilation instances on the metacyclic groups only, where
    Sha^1_omega must vanish outright."""
    groups, names = _annihilation_groups(groups)
    names = [n for n in names if is_metacyclic(groups[n])]
    if not names:
        raise StructuralError("the metacyclic suite needs at least one metacyclic group")
    return _run("metacyclic-vanishing", _annihilation_instance, seed, instances, groups, names)


def _shift_isomorphism_instance(g: FiniteGroup, rng: SplitMix64) -> dict:
    p = random_permutation_module(g, rng)
    l = random_free_module(g, rng)
    f = random_equivariant_map(p, l, rng)
    datum = random_datum(g, rng)
    selection = random_selection(datum, rng)
    outcome = verify_shift_isomorphism(datum, TwoTermComplex(f), selection)
    outcome["P_rank"] = p.rank
    outcome["L_rank"] = l.rank
    outcome["places"] = list(datum.place_names)
    outcome["noncyclic_places"] = [
        n for n, sub in datum.special_places if not sub.is_cyclic()
    ]
    outcome["excluded"] = sorted(selection.excluded)
    return outcome


def shift_isomorphism_suite(seed: int, instances: int, groups: Groups | None = None) -> SuiteReport:
    """Random permutation-to-free complexes: the degree shift
    Sha^1(L) -> Sha^2(P -> L) is a bijection, including data with
    non-cyclic special places and varying excluded sets."""
    lemma = "permutation-shift-isomorphism"
    return _run(lemma, _shift_isomorphism_instance, seed, instances, groups)


def _route_equivalence_instance(g: FiniteGroup, rng: SplitMix64) -> dict:
    g_hat = random_permutation_module(g, rng, max_rank=6)
    h_hat = random_module(g, rng, max_rank=3)
    res = random_equivariant_map(g_hat, h_hat, rng)
    datum = random_datum(g, rng)
    selection = random_selection(datum, rng)
    two = sha_two_term(datum, TwoTermComplex(res), 2, selection)
    one = sha(datum, h_hat, 1, selection)
    ok = invariant_factors(two.value) == invariant_factors(one.value)
    outcome = {
        "ok": ok,
        "degree1": str(one.value),
        "degree2": str(two.value),
        "excluded": sorted(selection.excluded),
    }
    if not ok:
        outcome["certificate"] = {
            "kind": "route-mismatch",
            "G_hat_rank": g_hat.rank,
            "H_hat_rank": h_hat.rank,
            "res": [[str(v) for v in r] for r in res.matrix.rows],
        }
    return outcome


def route_equivalence_suite(seed: int, instances: int, groups: Groups | None = None) -> SuiteReport:
    """Random stabilizer data: the obstruction group computed as degree-2
    Sha of (G_hat -> H_hat) and as degree-1 Sha of H_hat have identical
    invariant factors."""
    return _run("two-route-equivalence", _route_equivalence_instance, seed, instances, groups)


def _ext0_instance(g: FiniteGroup, rng: SplitMix64) -> dict:
    m = random_free_module(g, rng)
    res = permutation_cover(m)
    data = ext0_with_data(IsogenyDatum(TwoTermComplex(res.proj)))
    # direct route: coker of the dual of the projection, i.e. the dual
    # basis of P modulo the rows of the projection matrix
    p_dual = dual_module(res.P)
    direct = GModule(
        g,
        PresentedAbelianGroup(res.P.rank, res.proj.matrix.rows),
        list(p_dual.action),
        _trusted=True,
    )
    # natural comparison: the dual of the degree-0 projection of the
    # free replacement descends to a map between the two cokernels;
    # it must be an equivariant isomorphism
    try:
        nat = GModuleHom(direct, data.module, data.psi.transpose())
        ok = is_isomorphism(nat.abhom)
    except (StructuralError, InternalError):
        ok = False
    outcome = {
        "ok": ok,
        "ext0": str(data.module.underlying),
        "direct": str(direct.underlying),
    }
    if not ok:
        outcome["certificate"] = {
            "kind": "ext0-mismatch",
            "ext0": str(data.module.underlying),
            "direct": str(direct.underlying),
        }
    return outcome


def ext0_consistency_suite(seed: int, instances: int, groups: Groups | None = None) -> SuiteReport:
    """Toral data: the natural comparison map from the directly dualized
    lattice sequence to the Ext^0 of the cover complex is an equivariant
    isomorphism."""
    return _run("ext0-direct-route-consistency", _ext0_instance, seed, instances, groups)


def _cover_instance(g: FiniteGroup, rng: SplitMix64) -> dict:
    x_star = random_free_module(g, rng)
    # User-supplied coroots must span a G-submodule.  A scaled copy of the
    # whole lattice always does, so the coroots are either empty or
    # scale * X_*.
    n = x_star.rank
    if rng.randint(0, 1):
        scale = rng.choice([1, 2, 3])
        coroot_mat = IntMatrix(
            [[scale if i == j else 0 for j in range(n)] for i in range(n)]
        )
        src = GModule(g, PresentedAbelianGroup(n), x_star.action, _trusted=True)
        incl = GModuleHom(src, x_star, coroot_mat)
    else:
        src = GModule(
            g,
            PresentedAbelianGroup(0),
            [IntMatrix([], cols=0) for _ in g.generators],
            _trusted=True,
        )
        incl = GModuleHom(src, x_star, IntMatrix.zeros(n, 0))
    datum = CocharacterDatum(X_star=x_star, coroot_inclusion=incl)
    try:
        return {"ok": True, **quasi_trivial_cover(datum).report}
    except (StructuralError, InternalError) as exc:
        return {"ok": False, "certificate": {"kind": "cover-failure", "error": str(exc)}}


def cover_suite(seed: int, instances: int, groups: Groups | None = None) -> SuiteReport:
    """Random cocharacter data: the quasi-trivial cover construction
    passes its splitting check."""
    return _run("cover-splitting-check", _cover_instance, seed, instances, groups)


def _resolution_instance(g: FiniteGroup, rng: SplitMix64) -> dict:
    m = random_module(g, rng, max_rank=3, max_torsion_relators=1)
    datum = random_datum(g, rng)
    selection = random_selection(datum, rng)
    md1 = dual_complex(m)
    n = m.rank
    extra = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    extra.append([rng.randint(0, 1) for _ in range(n)])
    if not any(extra[-1]):
        extra.pop()
    md2 = dual_complex(m, extra)
    one = sha_two_term(datum, md1, 2, selection)
    two = sha_two_term(datum, md2, 2, selection)
    h1 = hypercohomology(g, md1, 2)
    h2 = hypercohomology(g, md2, 2)
    ok = invariant_factors(one.value) == invariant_factors(two.value) and (
        invariant_factors(h1.group_value) == invariant_factors(h2.group_value)
    )
    outcome = {"ok": ok, "sha2": str(one.value), "hyper2": str(h1.group_value)}
    if not ok:
        outcome["certificate"] = {
            "kind": "resolution-dependence",
            "first": str(one.value),
            "second": str(two.value),
        }
    return outcome


def resolution_independence_suite(
    seed: int, instances: int, groups: Groups | None = None
) -> SuiteReport:
    """Two different permutation covers of the same module give identical
    Sha^2 invariant factors for the dual complex."""
    return _run("resolution-independence", _resolution_instance, seed, instances, groups)


SUITES = {
    "s13": annihilation_suite,
    "metacyclic": metacyclic_suite,
    "sha-iso": shift_isomorphism_suite,
    "prop-sh1": route_equivalence_suite,
    "ext0": ext0_consistency_suite,
    "cover": cover_suite,
    "resolution": resolution_independence_suite,
}


def run_suite(
    name: str,
    seed: int,
    instances: int,
    groups: Groups | None = None,
) -> list[SuiteReport]:
    if instances < 1:
        raise StructuralError(f"instance count must be at least 1, got {instances}")
    if groups is not None and not groups:
        raise StructuralError("no groups to run the suite on")
    if name == "all":
        names = sorted(SUITES)
        if groups is not None and not any(is_metacyclic(g) for g in groups.values()):
            names.remove("metacyclic")  # inapplicable to the supplied group
        return [SUITES[key](seed, instances, groups) for key in names]
    if name not in SUITES:
        raise StructuralError(f"unknown suite {name!r}")
    return [SUITES[name](seed, instances, groups)]
