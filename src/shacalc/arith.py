"""The homogeneous-space layer, at lattice level.

Algebraic groups never appear as varieties here; the computations
manipulate exactly the lattice data their theory runs on, and each datum
holds only what its results read, checked once in its constructor:

* a stabilizer datum, the restriction map res: G_hat -> H_hat from a
  permutation module of characters to the character module of the
  stabilizer, whose obstruction groups are Sha groups of the two-term
  complex and, equivalently, degree-1 Sha groups of H_hat,
* cocharacter data, a cocharacter lattice X_star and an integer matrix
  whose independent columns span its coroot sublattice, defining the
  algebraic fundamental group as the cokernel,
* dual complexes M^D = (P~ -> L~) built from a permutation-cover
  resolution 0 -> L -> P -> M -> 0 by dualizing,
* quasi-trivial covers: a permutation module surjecting onto the
  fundamental group, whose kernel-side character module is recovered as
  Ext^0 of the two-term isogeny complex (``ext0_with_data``, the one
  Ext^0 entry).

The vanishing checks read the acting group only through the order and
exponent of its faithful image (``gmodules.faithful_image``); the image
is metacyclic exactly when the two agree.

Verdict vocabulary is fixed: a computed obstruction group is reported as
"VANISHES (theorem applies)" or "NONZERO (obstruction group nontrivial;
theorem silent)"; the tool never asserts an arithmetic fact about
rational points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import PresentedAbelianGroup, factors_json, present_quotient
from .cohomology import DEFAULT_COCHAIN_CAP, TwoTermComplex, _module_complex
from .errors import InternalError, StructuralError
from .gmodules import (
    GModule,
    GModuleHom,
    PermutationModule,
    dual_module,
    faithful_image,
    free_basis_presentation,
    induced_action,
    permutation_cover,
)
from .intlinalg import (
    IntMatrix,
    block_diag,
    hermite_rows,
    preimage_kernel,
    sparse_from_matrix,
    unimodular_inverse,
)
from .sha import EMPTY_SELECTION, LocalDatum, PlaceSelection, _sha_groups

VERDICT_VANISHES = "VANISHES (theorem applies)"
VERDICT_NONZERO = "NONZERO (obstruction group nontrivial; theorem silent)"


def verdict_for(group: PresentedAbelianGroup) -> str:
    return VERDICT_VANISHES if group.is_trivial() else VERDICT_NONZERO


@dataclass(frozen=True)
class HomSpaceDatum:
    """The restriction res: G_hat -> H_hat from the characters of a
    quasi-trivial ambient group, a permutation module G_hat, to the
    characters H_hat of the stabilizer."""

    datum: LocalDatum
    res: GModuleHom

    def __post_init__(self):
        if not isinstance(self.res.source, PermutationModule):
            raise StructuralError("G_hat must be a permutation module")
        if self.res.source.group is not self.datum.group:
            raise StructuralError("modules must live over the datum's group")


@dataclass(frozen=True)
class CocharacterDatum:
    """A Z-free cocharacter module X_star and its coroot lattice, spanned
    by the columns of ``coroots`` (one row per generator of X_star): the
    columns are independent, and every generator maps their span into
    itself, both in X_star, modulo its relations R.  One Hermite form of R
    and the columns decides both: its rank is rank(R) plus the number of
    columns iff they are independent modulo R, and it holds the image of
    each column iff the span is stable modulo R."""

    X_star: GModule
    coroots: IntMatrix

    def __post_init__(self):
        x, c = self.X_star, self.coroots
        if c.nrows != x.rank:
            raise StructuralError(
                f"coroot inclusion needs one row per generator of X_star ({x.rank}), got {c.nrows}"
            )
        cols, relations = [c.col(j) for j in range(c.ncols)], x.underlying.relation_rows
        span = hermite_rows(list(relations) + cols, x.rank)
        if len(span) != len(relations) + len(cols):
            raise StructuralError("coroot inclusion columns are dependent")
        if not all(span.contains(a.matvec(col)) for a in x.action for col in cols):
            raise StructuralError("coroot lattice is not stable under the action")
        if not x.is_z_free():
            raise StructuralError("cocharacter data must be Z-free")


@dataclass(frozen=True)
class CoverResult:
    """Output of the quasi-trivial cover construction."""

    Q_cochar: PermutationModule
    H_char: GModule
    report: dict


def fundamental_group(d: CocharacterDatum) -> GModule:
    """Cokernel of the coroot inclusion, as a module over the same group;
    may have torsion.  Generators are those of the cocharacter lattice
    with the coroot images appended as relators."""
    x = d.X_star
    rel = list(x.underlying.relation_rows)
    rel += [d.coroots.col(j) for j in range(d.coroots.ncols)]
    return GModule(
        x.group,
        PresentedAbelianGroup(x.rank, rel),
        x.action,
        _trusted=True,
    )


def dual_complex(m: GModule, generators=None) -> TwoTermComplex:
    """M^D = (P~ -> L~) for a permutation-cover resolution
    0 -> L -> P -> M -> 0, the dual of the inclusion placed in degree 0.

    The complex depends on the chosen resolution; every Sha and
    hypercohomology group computed from it does not (checked by the
    resolution-independence suite)."""
    res = permutation_cover(m, generators)
    p_dual = dual_module(res.P)
    l_dual = dual_module(res.L)
    f = GModuleHom(p_dual, l_dual, res.incl.matrix.transpose())
    return TwoTermComplex(f)


@dataclass(frozen=True)
class BrauerGroups:
    B_S: PresentedAbelianGroup
    B_S_quotient: PresentedAbelianGroup
    B_omega: PresentedAbelianGroup
    cross_check: dict


def brauer_obstruction_groups(
    h: HomSpaceDatum,
    selection: PlaceSelection = EMPTY_SELECTION,
    *,
    cochain_cap: int = DEFAULT_COCHAIN_CAP,
) -> BrauerGroups:
    """Obstruction groups of a stabilizer datum, computed along BOTH
    routes and cross-checked:

    (a) degree-2 Sha of the two-term complex (G_hat -> H_hat),
    (b) degree-1 Sha of H_hat alone.

    The two must have identical invariant factors (the degree-0 term is a
    permutation module); a mismatch is reported as an implementation-bug
    certificate.  The degree-1 route's groups are returned."""
    datum = h.datum
    S_omega = [selection, PlaceSelection.of(*datum.place_names)]
    route2_S, route2_omega = _sha_groups(datum, TwoTermComplex(h.res), 2, S_omega, cochain_cap)
    route1_S, route1_omega, route1_empty = _sha_groups(
        datum, _module_complex(h.res.target), 1, S_omega + [EMPTY_SELECTION], cochain_cap
    )
    checks = {
        label: (one.value.invariant_factors(), two.value.invariant_factors())
        for label, one, two in (("S", route1_S, route2_S), ("omega", route1_omega, route2_omega))
    }
    for label, (one, two) in checks.items():
        if one != two:
            raise InternalError(
                f"route cross-check failed at {label}: degree-1 gives {one}, "
                f"degree-2 gives {two} (implementation bug)",
                certificate={
                    "kind": "route-mismatch",
                    "label": label,
                    "degree1": factors_json(*one),
                    "degree2": factors_json(*two),
                },
            )
    return BrauerGroups(
        B_S=route1_S.value,
        B_S_quotient=route1_S.quotient_by(route1_empty),
        B_omega=route1_omega.value,
        cross_check={
            k: {**factors_json(*one), "routes_agree": True}
            for k, (one, _) in checks.items()
        },
    )


@dataclass(frozen=True)
class Pi1Groups:
    Sh2_S_quotient: PresentedAbelianGroup
    Sh2_omega: PresentedAbelianGroup
    verdicts: dict


def pi1_obstruction_groups(
    m: GModule,
    datum: LocalDatum,
    selection: PlaceSelection = EMPTY_SELECTION,
    *,
    cochain_cap: int = DEFAULT_COCHAIN_CAP,
) -> Pi1Groups:
    """Degree-2 Sha groups of the dual complex of a fundamental-group
    module, with verdicts.

    Internal consistency assertions: when the faithful image of the acting
    group is metacyclic the omega group must vanish, and when every
    retained condition is cyclic the S-quotient must vanish."""
    if m.group is not datum.group:
        raise StructuralError("module is not over the datum's group")
    selections = [selection, EMPTY_SELECTION, PlaceSelection.of(*datum.place_names)]
    S_group, empty, omega = _sha_groups(datum, dual_complex(m), 2, selections, cochain_cap)
    quotient = S_group.quotient_by(empty)
    order, exp = faithful_image(m)
    metacyclic = order == exp
    if metacyclic and not omega.value.is_trivial():
        raise InternalError(
            "metacyclic faithful image but nonzero omega group (implementation bug)"
        )
    excluded_all_cyclic = all(
        sub.is_cyclic()
        for name, sub in datum.special_places
        if name in selection.excluded
    )
    if excluded_all_cyclic and not quotient.is_trivial():
        raise InternalError(
            "every excluded place is cyclic but the S-quotient is nonzero "
            "(implementation bug)"
        )
    verdicts = {
        "Sh2_omega": verdict_for(omega.value),
        "Sh2_S_quotient": verdict_for(quotient),
        "metacyclic_splitting_group": metacyclic,
    }
    return Pi1Groups(Sh2_S_quotient=quotient, Sh2_omega=omega.value, verdicts=verdicts)


@dataclass(frozen=True)
class Ext0Data:
    """Ext^0 of an isogeny complex together with the free replacement it
    was computed from: phi is the degree map X' -> X of the Z-free lift,
    psi the projection of X' onto the degree-0 coordinates of the input."""

    module: GModule
    x_prime: GModule
    phi: IntMatrix
    psi: IntMatrix
    cover_rank: int


def ext0_with_data(f: TwoTermComplex) -> Ext0Data:
    """Ext^0 over Z of a two-term complex M' -> M (M' in degree 0), with
    its induced action.

    The complex is replaced by a quasi-isomorphic two-term complex of
    Z-free modules X' -> X: X is a permutation cover P of M, and X' the
    pullback of P -> M along M' -> M, which is torsion-free exactly when
    ker(M' -> M) is (anything else is rejected: it has no two-term Z-free
    replacement).  The result is coker(Hom(X, Z) -> Hom(X', Z)) with the
    contragredient action."""
    m_prime, m = f.degree0, f.degree1
    group = m_prime.group
    res = permutation_cover(m)
    p = res.P
    proj = res.proj.matrix
    # pullback lattice {(x, y) : proj x - f y lies in the relation lattice}
    cols = sparse_from_matrix(proj) + sparse_from_matrix(f.f.matrix.neg())
    basis = preimage_kernel(cols, m.rank, m.underlying.relation_lattice.sparse_rows())
    amb = p.rank + m_prime.rank
    # X' = pullback lattice modulo the relations of M' embedded in the
    # y-part, which lie in it since f preserves relations
    x_prime_presented = present_quotient(basis, [
        {p.rank + k: v for k, v in rel.items()}
        for rel in m_prime.underlying.relation_lattice.sparse_rows()
    ])
    free, tors = x_prime_presented.invariant_factors()
    if tors:
        raise StructuralError(
            "the kernel of the isogeny complex has torsion "
            f"{list(tors)}; no two-term Z-free replacement exists"
        )
    # action on the pullback: componentwise, expressed in the basis
    componentwise = [block_diag([ap, am]) for ap, am in zip(p.action, m_prime.action)]
    action_on_basis = induced_action(basis, componentwise, "pullback")
    x_prime = GModule(group, x_prime_presented, action_on_basis, _trusted=True)
    x_prime_free, _, from_free = free_basis_presentation(x_prime)
    # phi : X' -> X = P and psi : X' -> (degree-0 coordinates of the input),
    # both through the free basis
    phi_cols = []
    psi_cols = []
    for j in range(x_prime_free.rank):
        amb_vec = [0] * amb
        lift = from_free.col(j)
        for t, c in enumerate(lift):
            if c:
                for k, v in enumerate(basis.rows[t]):
                    amb_vec[k] += c * v
        phi_cols.append(amb_vec[: p.rank])
        psi_cols.append(amb_vec[p.rank :])
    phi = IntMatrix.from_cols(phi_cols, rows=p.rank)
    psi = IntMatrix.from_cols(psi_cols, rows=m_prime.rank)
    # Ext^0 = coker(phi^T) on the dual generators of X', contragredient action
    result_group = PresentedAbelianGroup(x_prime_free.rank, phi.rows)
    dual_action = [unimodular_inverse(a).transpose() for a in x_prime_free.action]
    module = GModule(group, result_group, dual_action, _trusted=True)
    return Ext0Data(
        module=module, x_prime=x_prime_free, phi=phi, psi=psi, cover_rank=p.rank
    )


def quasi_trivial_cover(d: CocharacterDatum) -> CoverResult:
    """Permutation cover of the fundamental group, with the kernel-side
    character module computed as Ext^0 of the induced isogeny complex.

    The report records the splitting check: every element acting
    trivially on the fundamental group must act trivially on the
    resulting character module (the cover is split by the same
    extension)."""
    m = fundamental_group(d)
    res = permutation_cover(m)
    h_char = ext0_with_data(TwoTermComplex(res.proj)).module
    kernel = m.action_kernel()
    failures = [e for e in kernel if not h_char.acts_trivially(e)]
    report = {
        "cover_rank": res.P.rank,
        "fundamental_group": str(m.underlying),
        "H_char": str(h_char.underlying),
        "splitting_field_acts_trivially": not failures,
        "failing_elements": failures,
    }
    if failures:
        raise InternalError(
            "cover character module is not split by the splitting extension "
            f"(elements {failures}); implementation bug"
        )
    return CoverResult(Q_cochar=res.P, H_char=h_char, report=report)
