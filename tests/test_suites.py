"""Random-instance generators and suite plumbing."""

import hashlib
import json

import pytest

from shacalc.errors import StructuralError
from shacalc.gmodules import GModule, PermutationModule
from shacalc.prng import SplitMix64
from shacalc.suites import (
    SuiteReport,
    builtin_groups,
    random_equivariant_map,
    random_free_module,
    random_module,
    random_permutation_module,
    run_suite,
)

GROUPS = builtin_groups()


def digest(reports) -> str:
    data = json.dumps([r.to_json() for r in reports], sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


class TestGenerators:
    def test_random_modules_are_valid(self):
        """The generator never produces something the validating
        constructor would reject (construction re-checks everything)."""
        rng = SplitMix64(99)
        for name in ("V4", "S3", "Q8", "A4"):
            g = GROUPS[name]
            for _ in range(10):
                m = random_module(g, rng, max_rank=4)
                assert isinstance(m, GModule)
                assert m.rank <= 4

    def test_random_free_modules_are_free(self):
        rng = SplitMix64(100)
        for _ in range(10):
            m = random_free_module(GROUPS["D4"], rng, max_rank=3)
            assert not m.underlying.relation_rows

    def test_random_permutation_modules(self):
        rng = SplitMix64(101)
        for _ in range(10):
            p = random_permutation_module(GROUPS["S3"], rng, max_rank=8)
            assert isinstance(p, PermutationModule)
            assert 1 <= p.rank <= 8

    def test_random_equivariant_maps_are_equivariant(self):
        rng = SplitMix64(102)
        for name in ("V4", "S3"):
            g = GROUPS[name]
            for _ in range(6):
                p = random_permutation_module(g, rng, max_rank=6)
                l = random_module(g, rng, max_rank=3)
                random_equivariant_map(p, l, rng)  # constructor validates

    def test_module_stream_is_pinned(self):
        """The action and relation rows of the first 40 draws per builtin
        group at seed 2010; how a module is built and checked must not
        change what is drawn."""
        h = hashlib.sha256()
        for name in sorted(GROUPS):
            rng = SplitMix64(2010)
            for _ in range(40):
                m = random_module(GROUPS[name], rng)
                rows = [[a.rows for a in m.action], m.underlying.relation_rows]
                h.update(json.dumps(rows).encode())
        assert h.hexdigest() == "851a9ab9f56c93714ab252136c1febc769d4c8916bb76e2e6967bc8bf00aca20"

    def test_seed_reproducibility(self):
        rng1 = SplitMix64(7)
        rng2 = SplitMix64(7)
        m1 = random_module(GROUPS["D4"], rng1)
        m2 = random_module(GROUPS["D4"], rng2)
        assert m1.underlying == m2.underlying
        assert m1.action == m2.action


class TestSuiteRunner:
    def test_all_suites_pass_briefly(self):
        reports = run_suite("all", seed=3, instances=3)
        assert len(reports) == 7
        for r in reports:
            assert isinstance(r, SuiteReport)
            assert r.ok, (r.lemma, r.failures)
            assert len(r.instances) == 3
        # every suite's report bytes are pinned, on the builtin groups and
        # on one supplied group
        assert digest(reports) == "ad30604400f9df160dc9b819d1761701b1413020e9c99514285314c9a03d4bc7"
        reports = run_suite("all", seed=5, instances=2, groups={"input": GROUPS["S3"]})
        assert digest(reports) == "f547933949442d3db55c05d21dde0d631b717c7b8d6fc90f2f9216e2d38a908d"

    def test_reports_ordered_by_index(self):
        (report,) = run_suite("s13", seed=5, instances=6)
        assert [inst["index"] for inst in report.instances] == list(range(6))

    def test_json_shape(self):
        (report,) = run_suite("cover", seed=5, instances=2)
        data = report.to_json()
        assert set(data) == {"lemma", "instances", "failures"}

    def test_empty_group_mapping_rejected(self):
        with pytest.raises(StructuralError, match="no groups"):
            run_suite("s13", 1, 1, {})

    def test_empty_group_mapping_rejected_for_all(self):
        with pytest.raises(StructuralError, match="no groups"):
            run_suite("all", 1, 1, {})
