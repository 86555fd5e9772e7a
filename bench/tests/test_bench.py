"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    LAYERS, PERMS, Case, abelianization, build_ladder, build_requests, build_suites,
    group_exponent,
)


@pytest.fixture(scope="module")
def sc():
    return worker.load_shacalc()


def _cheap(workload, names):
    return [c for c in workload.cases if c.name.split()[0] in names]


def _wrapped_bindings() -> list[str]:
    found = []
    for name, module in list(sys.modules.items()):
        if name == "shacalc" or name.startswith("shacalc."):
            for attr, value in vars(module).items():
                if callable(value) and hasattr(value, "__wrapped__"):
                    found.append(f"{name}.{attr}")
    return found


def test_group_facts_from_the_table(sc):
    want_ab = {"V4": (2, 2), "D4": (2, 2), "Q8": (2, 2), "A4": (3,), "D6": (2, 2),
               "S4": (2,), "S3": (2,), "Z6": (6,)}
    want_exp = {"V4": 2, "D4": 4, "Q8": 4, "A4": 6, "D6": 6, "S4": 12, "S3": 6, "Z6": 6}
    for name, perms in PERMS.items():
        g = sc.groups.from_permutations(perms)
        assert abelianization(g.table) == (0, want_ab[name]), name
        assert group_exponent(g.table) == want_exp[name], name


def test_traced_and_untraced_runs_give_identical_answers(sc, tmp_path):
    cases = (_cheap(build_ladder(sc, 1, tmp_path), {"V4", "D4"})
             + _cheap(build_suites(sc, 1, tmp_path), {"V4", "S3"})[:20]
             + build_requests(sc, 1, tmp_path / "requests").cases[:14])
    tracer = Tracer(LAYERS)
    calls = worker.Runner(limit_s=30).run_traced(cases, tracer)
    plain, traced = [c[0] for c in calls], [c[1] for c in calls]
    assert [f for _, _, f in plain] == [None] * len(cases)
    assert [f for _, _, f in traced] == [None] * len(cases)
    assert [repr(a) for _, a, _ in plain] == [repr(a) for _, a, _ in traced]
    metrics = tracer.metrics()
    assert metrics["intlinalg.sparse_kernel.calls"][0] > 0
    assert metrics["cli.calls"][0] > 0
    assert {s[4] for s in tracer.spans} == set(range(len(cases)))
    assert _wrapped_bindings() == []


def test_tracer_wraps_every_binding_and_restores_them(sc):
    tracer = Tracer(LAYERS)
    original = sc.intlinalg.sparse_kernel
    computation = sc.cohomology.cohomology
    suite = sc.suites.SUITES["s13"]
    tracer.install()
    try:
        assert sc.intlinalg.sparse_kernel.__wrapped__ is original
        assert sc.cohomology.sparse_kernel is sc.intlinalg.sparse_kernel
        # the package re-exports the function under the module's name
        assert sys.modules["shacalc"].cohomology.__wrapped__ is computation
        assert sc.suites.SUITES["s13"].__wrapped__ is suite
    finally:
        tracer.uninstall()
    assert sc.intlinalg.sparse_kernel is original
    assert sc.cohomology.sparse_kernel is original
    assert sc.suites.SUITES["s13"] is suite


def test_no_wrapper_is_installed_with_tracing_off(sc, tmp_path):
    cases = _cheap(build_ladder(sc, 1, tmp_path), {"V4"})
    worker.Runner(limit_s=30).measure(cases, 0)
    assert _wrapped_bindings() == []


def test_wrong_answer_and_time_limit_count_as_failures():
    def spin():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 10:
            pass

    def crash():
        raise ValueError("bad input")

    cases = [
        Case("right", lambda: 4, lambda a: None if a == 4 else "wrong"),
        Case("wrong", lambda: 5, lambda a: None if a == 4 else "wrong"),
        Case("slow", spin, lambda a: None),
        Case("sleepy", lambda: time.sleep(10), lambda a: None),
        Case("crash", crash, lambda a: None),
    ]
    t0 = time.perf_counter()
    calls = worker.Runner(limit_s=0.2).measure(cases, 0)
    assert time.perf_counter() - t0 < 5
    failed = {f["case"]: f["failure"] for f in worker.failures(cases, calls)}
    assert set(failed) == {"wrong", "slow", "sleepy", "crash"}
    assert "limit" in failed["slow"] and "limit" in failed["sleepy"]
    assert failed["wrong"] == "wrong"


def test_tail_percentile():
    assert worker.tail_percentile(31) == 67
    assert worker.tail_percentile(100) == 90
    assert worker.tail_percentile(777) == 90
    values = list(range(1, 32))
    assert worker.nearest_rank(values, 67) == 21  # ten values lie beyond it


def test_bracketed_time_is_on_the_reference_host():
    # A call that runs the calibration loop itself takes its step count
    # times REFERENCE_STEP_S on the reference host, whatever this host's speed.
    steps = 200
    _, seconds, step_s = worker.bracketed(lambda: worker.calibration(steps))
    scaled = seconds * worker.REFERENCE_STEP_S / step_s
    assert 0.7 < scaled / (steps * worker.REFERENCE_STEP_S) < 1.4
