"""One benchmark run of one workload, in a fresh process.

Started by ``bench/run.py``; prints its result as one JSON line.  The
process limits its own address space, builds the workload five times
(``setup_s`` is the median), then runs the cases in a closed loop: one
case at a time, each under a wall-time limit.  With ``--trace 1`` it runs
each case once untraced and once traced and reports per-layer metrics
instead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import LAYERS, Modules, build_ladder, build_requests, build_suites  # noqa: E402

ROOT = BENCH.parent
WORK = BENCH / "_work"
BUILDERS = {"ladder": build_ladder, "suites": build_suites, "requests": build_requests}
SETUPS = 5
MEMORY_LIMIT = 2 << 30  # bytes of address space for this process
# The host's speed switches between a fast and a slow state every few
# seconds, and the slow state can last most of a run.  So every timed call
# is bracketed by two short runs of a fixed pure-Python loop (see
# :func:`calibration`), and its time is scaled to a reference host on which
# one step of that loop takes REFERENCE_STEP_S.  A change to shacalc moves
# the call and not the loop, so it shows in full.  The loop runs for about
# BRACKET of the call's time, and at least CALIBRATION_STEPS steps: with 4
# steps a side, repeated calls of a light request spread 25% more than with 8.
CALIBRATION_STEPS = 8
REFERENCE_STEP_S = 5e-4
BRACKET = 0.05
# A case shorter than LIGHT_S is called again in every sweep of the run.
LIGHT_S = 0.5


class CaseTimeout(BaseException):
    """Raised by SIGALRM inside a case over its wall-time limit.  Not an
    Exception, so no handler in the package can swallow it."""


class Runner:
    def __init__(self, limit_s: float):
        self.limit_s = limit_s
        self.armed = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.armed:
            raise CaseTimeout()

    def call(self, case):
        """One timed call: (seconds, answer, failure or None)."""
        answer, failure = None, None
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        t0 = perf_counter()
        try:
            answer = case.call()
        except CaseTimeout:
            failure = f"over the {self.limit_s} s limit"
        except MemoryError:
            failure = "over the memory limit"
        except Exception as exc:  # a crash is a failed case, not a failed run
            failure = f"{type(exc).__name__}: {exc}"
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - t0
        if failure is None:
            try:
                failure = case.check(answer)
            except Exception as exc:
                failure = f"answer check raised {type(exc).__name__}: {exc}"
        return seconds, answer, failure

    def run_traced(self, cases, tracer) -> list[list[tuple]]:
        """Every case untraced and traced, back to back and in turn first,
        so that the two calls see the same host speed and the same caches:
        [[untraced, traced]] per case."""
        gc.collect()
        calls = []
        for idx, case in enumerate(cases):
            tracer.case = idx
            pair = []
            for traced in (idx % 2 == 1, idx % 2 == 0):
                if traced:
                    tracer.install()
                try:
                    pair.append(self.call(case))
                finally:
                    tracer.uninstall()
            calls.append(pair if idx % 2 == 0 else pair[::-1])
        return calls

    def measure(self, cases, seconds: float) -> list[list[tuple]]:
        """Calls per case, for about ``seconds``: one pass over every case,
        then, while time remains, one heavy case (in turn) followed by one
        sweep over the light cases.  One calibration loop runs between two
        calls and serves as the bracket of both (see :func:`bracketed`).
        Each call is (seconds on the reference host, answer, failure)."""
        started = perf_counter()
        gc.collect()
        calls = [[] for _ in cases]
        cost = [0.0] * len(cases)
        gap = (calibration(CALIBRATION_STEPS), CALIBRATION_STEPS)

        def timed(i: int) -> None:
            nonlocal gap
            t0 = perf_counter()
            spent, answer, failure = self.call(cases[i])
            steps = bracket_steps(spent)
            after = (calibration(steps), steps)
            step_s = (gap[0] + after[0]) / (gap[1] + after[1])
            gap = after
            calls[i].append((spent * REFERENCE_STEP_S / step_s, answer, failure))
            cost[i] = perf_counter() - t0

        for i in range(len(cases)):
            timed(i)
        light = [i for i, c in enumerate(calls) if c[0][0] < LIGHT_S]
        heavy = [i for i, c in enumerate(calls) if c[0][0] >= LIGHT_S]
        for k in itertools.count():
            group = ([heavy[k % len(heavy)]] if heavy else []) + light
            if not group or perf_counter() - started + sum(cost[i] for i in group) > seconds:
                return calls
            for i in group:
                timed(i)


def load_shacalc():
    """Import shacalc afresh from this checkout's ``src``."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "shacalc" or n.startswith("shacalc.")]:
        del sys.modules[name]
    package = importlib.import_module("shacalc")
    if src not in Path(package.__file__).resolve().parents:
        raise ImportError(f"shacalc was imported from {package.__file__}, not from {src}")
    return Modules()


def set_up(workload: str, seed: int):
    """Import plus workload build, SETUPS times, each timed on the
    reference host; the last build is used."""
    def build():
        return BUILDERS[workload](load_shacalc(), seed, WORK / f"{workload}-seed{seed}")

    times = []
    for _ in range(SETUPS):
        built, seconds, step_s = bracketed(build)
        times.append(seconds * REFERENCE_STEP_S / step_s)
    return times, built


# The operands of the calibration loop: two sparse integer rows.
_ROW_A = {j: (j * 2654435761) % 1_000_003 - 500_000 for j in range(0, 3000, 3)}
_ROW_B = {j: (j * 40503) % 65_537 - 32_768 for j in range(0, 3000, 2)}


def calibration(steps: int = 200) -> float:
    """Seconds for ``steps`` steps of a fixed pure-Python loop.  A step is
    one sparse row operation, the work that dominates shacalc: two rows
    held as dicts are combined entry by entry and the result is sorted.  A
    tight arithmetic loop tracked the host's speed less well, because
    contention slows dict and memory work more than arithmetic.  A run
    times 200 steps once at its start and records it beside the metrics,
    so that a slow host can be told from a regression."""
    t0 = perf_counter()
    for _ in range(steps):
        row = dict(_ROW_A)
        for k, v in _ROW_B.items():
            x = row.get(k, 0) * 3 - v * 7
            if x:
                row[k] = x
            else:
                row.pop(k, None)
        sorted(row.items())
    return perf_counter() - t0


def bracket_steps(seconds: float) -> int:
    """Calibration steps for a bracket of about BRACKET of ``seconds``."""
    return max(CALIBRATION_STEPS, round(BRACKET * seconds / REFERENCE_STEP_S))


def bracketed(fn) -> tuple:
    """fn() between two calibration loops, the first of CALIBRATION_STEPS
    steps and the second sized to fn's time: (fn's result, its wall
    seconds, the loops' seconds per step).  Wall seconds times
    REFERENCE_STEP_S over seconds per step is fn's time on the reference
    host."""
    before = calibration(CALIBRATION_STEPS)
    t0 = perf_counter()
    result = fn()
    seconds = perf_counter() - t0
    after_steps = bracket_steps(seconds)
    after = calibration(after_steps)
    return result, seconds, (before + after) / (CALIBRATION_STEPS + after_steps)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least 10 of n cases beyond it,
    capped at 90."""
    return max(50, min(90, math.floor(100 * (1 - 10 / n))))


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def summarize(cases, calls) -> tuple[dict, dict]:
    # A case is timed by the median of all its calls.  Leaving out the first
    # call as a warm-up spread the metrics more between runs (ladder wall_s
    # by 0.085 against 0.062), because a heavy case has only two to four.
    per_case = [statistics.median(t for t, _, _ in c) for c in calls]
    q = tail_percentile(len(cases))
    metrics = {
        "wall_s": (sum(per_case), "s"),
        "case_p50_s": (statistics.median(per_case), "s"),
        "case_tail_s": (nearest_rank(per_case, q), "s"),
    }
    details = {
        "tail_percentile": q,
        "case_count": len(cases),
        "calls": sum(len(c) for c in calls),
        "case_s": {c.name: t for c, t in zip(cases, per_case)},
        "calls_s": {c.name: [t for t, _, _ in cc] for c, cc in zip(cases, calls)},
    }
    return metrics, details


def failures(cases, calls) -> list[dict]:
    return [
        {"case": case.name, "failure": f}
        for case, c in zip(cases, calls)
        for _, _, f in c
        if f
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(BUILDERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    calibration_s = calibration()
    setup_times, built = set_up(args.workload, args.seed)
    cases = built.cases
    runner = Runner(built.limit_s)
    details = {"calibration_s": calibration_s, "setup_runs_s": setup_times,
               "limit_s": built.limit_s, **built.notes}

    if args.trace:
        from tracer import Tracer

        tracer = Tracer(LAYERS)
        calls = runner.run_traced(cases, tracer)
        metrics = tracer.metrics()
        untraced_s = sum(c[0][0] for c in calls)
        metrics["trace.overhead_s"] = (sum(c[1][0] for c in calls) - untraced_s, "s")
        details["untraced_wall_s"] = untraced_s
        details["answers_match"] = all(repr(a[1]) == repr(b[1]) for a, b in calls)
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        details["trace_file"] = str(trace_path.relative_to(ROOT))
        details["spans"] = len(tracer.spans)
    else:
        calls = runner.measure(cases, args.seconds)
        metrics, more = summarize(cases, calls)
        details.update(more)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    attempted = sum(len(c) for c in calls)
    failed = failures(cases, calls)
    details["fail_frac"] = len(failed) / attempted
    details["failures"] = failed[:20]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
