"""Finite groups: construction, subgroups, Sylow theory, metacyclicity."""

import pytest

from shacalc.errors import ResourceError, StructuralError
from shacalc.groups import (
    FiniteGroup,
    Subgroup,
    _group_from_tokens,
    cyclic_subgroups,
    exponent,
    from_permutations,
    is_metacyclic,
)

from helpers import all_subgroups, catalog
from oracles import element_order, sylow_subgroups

GROUPS = catalog()


class TestConstruction:
    def test_order_two(self):
        g = from_permutations([[1, 0]])
        assert g.order == 2

    def test_s3(self):
        assert GROUPS["S3"].order == 6

    def test_klein_four(self):
        assert GROUPS["V4"].order == 4

    def test_trivial(self):
        assert from_permutations([]).order == 1

    def test_identity_is_index_zero(self):
        for g in GROUPS.values():
            assert all(g.mul(0, i) == i and g.mul(i, 0) == i for i in range(g.order))

    def test_rejects_non_bijection(self):
        with pytest.raises(StructuralError):
            from_permutations([[0, 0]])

    def test_rejects_mismatched_domains(self):
        with pytest.raises(StructuralError):
            from_permutations([[1, 0], [1, 2, 0]])

    def test_order_bound(self):
        with pytest.raises(ResourceError):
            from_permutations([[(i + 1) % 12 for i in range(12)]], order_bound=10)

    def test_table_is_group_law(self):
        # Latin-square and associativity checks run in the constructor;
        # verify associativity independently here for a non-abelian group
        g = GROUPS["D4"]
        for a in range(g.order):
            for b in range(g.order):
                for c in range(g.order):
                    assert g.mul(a, g.mul(b, c)) == g.mul(g.mul(a, b), c)

    def test_words_reproduce_elements(self):
        g = GROUPS["Q8"]
        for e in range(g.order):
            acc = 0
            for k in g.element_words[e]:
                acc = g.mul(acc, g.generators[k])
            assert acc == e

    def test_rejects_words_off_their_elements(self):
        g = GROUPS["V4"]
        words = list(g.element_words)
        with pytest.raises(StructuralError, match="identity's stored word"):
            FiniteGroup(g.table, g.generators, [(0, 0)] + words[1:])
        with pytest.raises(StructuralError, match="evaluates"):
            FiniteGroup(g.table, g.generators, words[:3] + [(1, 1)])
        FiniteGroup(g.table, g.generators, words[:3] + [(1, 0)])

    def test_determinism(self):
        g1 = from_permutations([[1, 2, 3, 0], [0, 3, 2, 1]])
        g2 = from_permutations([[1, 2, 3, 0], [0, 3, 2, 1]])
        assert g1.table == g2.table and g1.element_words == g2.element_words


class TestCyclicSubgroups:
    def test_klein_four(self):
        subs = cyclic_subgroups(GROUPS["V4"])
        # trivial + three of order 2, none larger
        assert [s.order for s in subs] == [1, 2, 2, 2]
        conj = cyclic_subgroups(GROUPS["V4"], up_to_conjugacy=True)
        assert [s.order for s in conj] == [1, 2, 2, 2]  # abelian: same list

    def test_s3(self):
        subs = cyclic_subgroups(GROUPS["S3"])
        assert [s.order for s in subs] == [1, 2, 2, 2, 3]
        conj = cyclic_subgroups(GROUPS["S3"], up_to_conjugacy=True)
        assert [s.order for s in conj] == [1, 2, 3]

    def test_trivial_group(self):
        g = from_permutations([])
        assert [s.order for s in cyclic_subgroups(g)] == [1]

    def test_conjugacy_classes_cover_everything(self):
        for name in ("S3", "D4", "Q8", "A4"):
            g = GROUPS[name]
            full = {s.members for s in cyclic_subgroups(g)}
            covered = set()
            for rep in cyclic_subgroups(g, up_to_conjugacy=True):
                for x in range(g.order):
                    covered.add(rep.conjugated_by(x).members)
            assert covered == full


class TestSylow:
    """The Sylow oracle that the metacyclic test is checked against."""

    def orders(self, g):
        return {p: len(s) for p, s in sylow_subgroups(g.table).items()}

    def test_s3(self):
        assert self.orders(GROUPS["S3"]) == {2: 2, 3: 3}

    def test_z12(self):
        assert self.orders(GROUPS["Z12"]) == {2: 4, 3: 3}

    def test_trivial(self):
        assert sylow_subgroups(from_permutations([]).table) == {}

    def test_a4(self):
        assert self.orders(GROUPS["A4"]) == {2: 4, 3: 3}

    def test_sylow_really_subgroups(self):
        for g in GROUPS.values():
            for p, s in sylow_subgroups(g.table).items():
                assert Subgroup(g, s).order == len(s)  # construction validates closure
                assert g.order % len(s) == 0 and (g.order // len(s)) % p != 0


class TestMetacyclicExponent:
    def test_s3(self):
        assert is_metacyclic(GROUPS["S3"])
        assert exponent(GROUPS["S3"]) == 6

    def test_klein_four(self):
        assert not is_metacyclic(GROUPS["V4"])
        assert exponent(GROUPS["V4"]) == 2

    def test_z8(self):
        assert is_metacyclic(GROUPS["Z8"])
        assert exponent(GROUPS["Z8"]) == 8

    def test_exponent_equals_order_iff_metacyclic(self):
        """is_metacyclic against its definition: every Sylow subgroup of
        the oracle is cyclic, that is, holds an element of its own order."""
        outcomes = set()
        for name, g in GROUPS.items():
            assert exponent(g) % 1 == 0
            assert g.order % exponent(g) == 0
            cyclic_sylows = all(
                any(element_order(g.table, x) == len(s) for x in s)
                for s in sylow_subgroups(g.table).values()
            )
            assert is_metacyclic(g) == cyclic_sylows, name
            outcomes.add(cyclic_sylows)
        assert outcomes == {True, False}


class TestSubgroupType:
    def test_validation(self):
        g = GROUPS["S3"]
        with pytest.raises(StructuralError):
            Subgroup(g, (0, 1, 2))  # two reflections, not closed

    def test_as_group_roundtrip(self):
        g = GROUPS["D4"]
        for sub in all_subgroups(g):
            sg, embed = sub.as_group()
            assert sg.order == sub.order
            # embedding is a homomorphism
            for a in range(sg.order):
                for b in range(sg.order):
                    assert embed[sg.mul(a, b)] == g.mul(embed[a], embed[b])

    def test_as_group_matches_the_checked_constructor(self):
        """The standalone group is read off the parent unchecked; the
        checked closure of the same generators gives the same group."""
        for g in GROUPS.values():
            for sub in all_subgroups(g):
                sg, embed = sub.as_group()
                ref, elements = _group_from_tokens(
                    0, sub.minimal_generators(), g.mul, sub.order + 1
                )
                assert tuple(elements) == embed
                fields = ("order", "table", "generators", "element_words", "inverse")
                assert all(getattr(sg, f) == getattr(ref, f) for f in fields)

    def test_all_subgroups_counts(self):
        # classical counts: D4 has 10 subgroups, Q8 has 6, V4 has 5
        assert len(all_subgroups(GROUPS["D4"])) == 10
        assert len(all_subgroups(GROUPS["Q8"])) == 6
        assert len(all_subgroups(GROUPS["V4"])) == 5
        assert len(all_subgroups(GROUPS["Z2^3"])) == 16
