"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they complete."""

import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from shacalc.abelian import invariant_factors
from shacalc.arith import (
    CocharacterDatum,
    VERDICT_VANISHES,
    ext0_with_data,
    quasi_trivial_cover,
)
from shacalc.cli import main as cli_main
from shacalc.cohomology import TwoTermComplex, cohomology
from shacalc.abelian import PresentedAbelianGroup
from shacalc.gmodules import (
    GModule,
    GModuleHom,
    augmentation_ideal,
    permutation_module,
    sign_module,
    trivial_module,
    zero_module,
)
from shacalc.groups import from_permutations
from shacalc.intlinalg import IntMatrix
from shacalc.sha import LocalDatum, sha_omega
from shacalc.suites import (
    annihilation_suite,
    resolution_independence_suite,
    route_equivalence_suite,
    shift_isomorphism_suite,
)

from helpers import all_subgroups, catalog, cyclic
from oracles import (
    cyclic_cohomology_invariants,
    h1_and_sha_by_enumeration,
    rational_fixed_space_is_zero,
)

GROUPS = catalog()
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def report(number: int, label: str):
    """Prints the acceptance line; FAIL is printed by the hook below."""

    def decorator(fn):
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {label}")
                raise
            print(f"ACCEPTANCE {number} PASS: {label}")

        wrapped.__name__ = fn.__name__
        return wrapped

    return decorator


@report(1, "cyclic-group oracle, n <= 12, under 10 s")
def test_criterion_1_cyclic_oracle():
    started = time.monotonic()
    for n in range(2, 13):
        g = cyclic(n)
        m = trivial_module(g, 1)
        h1 = invariant_factors(cohomology(g, m, 1).group_value)
        h2 = invariant_factors(cohomology(g, m, 2).group_value)
        oracle_h1 = cyclic_cohomology_invariants([[1]], n, 1)
        oracle_h2 = cyclic_cohomology_invariants([[1]], n, 2)
        assert h1 == (0, oracle_h1) == (0, ())
        assert h2 == (0, oracle_h2) == (0, (n,))
    assert time.monotonic() - started < 10


@report(2, "Shapiro suite over the fixed group list, zero failures")
def test_criterion_2_shapiro():
    full_both_degrees = ["Z2", "Z4", "V4", "Z6", "S3", "Z8", "D4", "Q8", "Z2^3", "Z2xZ4"]
    failures = []
    for name in full_both_degrees:
        g = GROUPS[name]
        for h in all_subgroups(g):
            sub, _ = h.as_group()
            coset = permutation_module(g, h)
            triv = trivial_module(sub, 1)
            for i in (1, 2):
                left = invariant_factors(cohomology(g, coset, i).group_value)
                right = invariant_factors(cohomology(sub, triv, i).group_value)
                if left != right:
                    failures.append((name, h.members, i, left, right))
    # A4 in degree one only (budget)
    g = GROUPS["A4"]
    for h in all_subgroups(g):
        sub, _ = h.as_group()
        left = invariant_factors(cohomology(g, permutation_module(g, h), 1).group_value)
        right = invariant_factors(cohomology(sub, trivial_module(sub, 1), 1).group_value)
        if left != right:
            failures.append(("A4", h.members, 1, left, right))
    assert not failures, failures


@report(3, "order/exponent annihilation, 100 random modules per group")
def test_criterion_3_annihilation():
    names = ["V4", "Z2xZ4", "D4", "Q8", "A4", "S3", "Z6"]
    for k, name in enumerate(names):
        rep = annihilation_suite(1000 + k, 100, {name: GROUPS[name]})
        assert rep.ok, (name, rep.failures[:1])
        assert len(rep.instances) == 100


@report(4, "biquadratic witness vs from-scratch enumeration oracle")
def test_criterion_4_biquadratic():
    g = GROUPS["V4"]
    ig = augmentation_ideal(g)
    gen_actions = [[list(r) for r in a.rows] for a in ig.action]
    all_actions = [[list(r) for r in ig.element_matrix(e).rows] for e in range(4)]
    # oracle first: fixed space vanishes rationally, then enumerate
    assert rational_fixed_space_is_zero(gen_actions, 3)
    oracle_h1, oracle_sha = h1_and_sha_by_enumeration(4, gen_actions, all_actions, [1, 2, 3])
    assert oracle_h1 == (4,)
    assert oracle_sha == (2,)
    # main path agrees with the frozen oracle values
    h1 = invariant_factors(cohomology(g, ig, 1).group_value)
    sh = invariant_factors(sha_omega(LocalDatum(g), ig, 1).value)
    assert h1 == (0, (4,))
    assert sh == (0, (2,))


@report(5, "degree-shift bijection, 50 seeded instances, zero failures")
def test_criterion_5_shift_isomorphism():
    rep = shift_isomorphism_suite(2024, 50)
    assert rep.ok, rep.failures[:1]
    assert len(rep.instances) == 50
    assert all(inst["P_rank"] <= 8 and inst["L_rank"] <= 3 for inst in rep.instances)
    noncyclic_place_instances = 0
    varying_s = set()
    for inst in rep.instances:
        varying_s.add(tuple(inst["excluded"]))
        if inst["noncyclic_places"]:
            noncyclic_place_instances += 1
    assert noncyclic_place_instances >= 3
    assert len(varying_s) >= 2


@report(6, "two-route equivalence, 25 seeded instances, zero failures")
def test_criterion_6_route_equivalence():
    rep = route_equivalence_suite(77, 25)
    assert rep.ok, rep.failures[:1]
    assert len(rep.instances) == 25


@report(7, "rank-one twisted fundamental group end to end, under 5 s")
def test_criterion_7_end_to_end():
    started = time.monotonic()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(
            [
                "pi1",
                str(PROBLEMS / "split_rank_one_torus.json"),
                "--module",
                "pi1",
                "--no-timing",
            ]
        )
    assert code == 0, err.getvalue()
    payload = json.loads(out.getvalue())
    assert payload["invariant_factors"]["Sh2_omega"] == {"free_rank": 0, "torsion": []}
    assert payload["verdicts"]["Sh2_omega"] == VERDICT_VANISHES
    assert time.monotonic() - started < 5


@report(8, "Ext0 of the rank-one central isogeny and cover splitting checks")
def test_criterion_8_ext0_and_cover():
    # the kernel of the simply-connected cover in rank one: Ext0 = Z/2,
    # trivial action
    triv = from_permutations([])
    mu2 = GModule(
        triv, PresentedAbelianGroup(1, [[2]]), [], _trusted=True
    )
    f = TwoTermComplex(GModuleHom(zero_module(triv), mu2, IntMatrix.zeros(1, 0)))
    e = ext0_with_data(f).module
    assert invariant_factors(e.underlying) == (0, (2,))
    assert e.action_kernel() == [0]  # trivial group: nothing acts

    # cover of the adjoint rank-one datum passes the splitting check
    adjoint = CocharacterDatum(X_star=trivial_module(triv, 1), coroots=IntMatrix([[2]]))
    result = quasi_trivial_cover(adjoint)
    assert result.report["splitting_field_acts_trivially"]

    # cover of the twisted rank-one torus datum passes as well
    z2 = GROUPS["Z2"]
    torus = CocharacterDatum(X_star=sign_module(z2, [0]), coroots=IntMatrix.zeros(1, 0))
    result2 = quasi_trivial_cover(torus)
    assert result2.Q_cochar.rank == 2
    assert result2.report["splitting_field_acts_trivially"]


@report(9, "resolution independence, 20 seeded modules")
def test_criterion_9_resolution_independence():
    rep = resolution_independence_suite(31, 20)
    assert rep.ok, rep.failures[:1]
    assert len(rep.instances) == 20
