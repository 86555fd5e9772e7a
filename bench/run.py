"""shacalc benchmark: run one workload (or all) and print its metrics.

    python3 bench/run.py --workload ladder|suites|requests|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in a fresh worker process (``bench/worker.py``).  The
report lists every metric with its unit, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or the per-layer metrics with
``--trace 1``).  The worker's full record, with per-case times and
failures, is written under ``bench/_work/results/``.  The exit code is 0
when the run completed, whether or not its answers were right.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ladder", "suites", "requests")
WORK_RESULTS = BENCH / "_work" / "results"
DEADLINE_S = 175  # per worker

sys.path.insert(0, str(BENCH))
from workloads import DEFAULT_SEED  # noqa: E402


def run_worker(workload: str, seed: int, seconds: float, trace: int, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload}: worker still running after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: worker printed no result")
    return json.loads(lines[-1])


def report(result: dict) -> None:
    d = result["details"]
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}")
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':44s} {d['fail_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} attempted)")
    if "tail_percentile" in d:
        print(f"case_tail_s is p{d['tail_percentile']} of {d['case_count']} cases; "
              f"{d['calls']} calls")
    if "untraced_wall_s" in d:
        print(f"untraced pass {d['untraced_wall_s']:.6g} s; answers match: {d['answers_match']}; "
              f"{d['spans']} spans in {d['trace_file']}")
    print(f"calibration loop {d['calibration_s']:.4f} s (host speed, not a metric)")
    for f in d["failures"]:
        print(f"FAILED {f['case']}: {f['failure']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = run_worker(name, args.seed, args.seconds, args.trace, DEADLINE_S)
        except (RuntimeError, ValueError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        out = WORK_RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1))
        report(result)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
