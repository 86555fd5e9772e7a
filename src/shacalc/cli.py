"""Command-line front end.

    shacalc <command> <problem.json> [flags]

Commands: cohomology, sha, brauer, pi1, cover, ext0, verify.  Output is a
JSON report on stdout (``--format text`` for a human summary); errors are
machine-readable JSON on stderr.  Exit codes: 0 success, 2 a verification
suite found a counterexample, 3 input error, 4 resource budget exceeded,
5 internal error (a failed cross-check or re-verification).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .abelian import factors_json, factors_text
from .arith import (
    brauer_obstruction_groups,
    ext0_with_data,
    fundamental_group,
    pi1_obstruction_groups,
    quasi_trivial_cover,
    verdict_for,
)
from .cohomology import DEFAULT_COCHAIN_CAP, cohomology
from .errors import InputError, InternalError, ResourceError, StructuralError
from .jsonio import (
    SCHEMA_VERSION,
    ProblemFile,
    representatives_json,
    serialize_matrix,
)
from .sha import PlaceSelection, sha
from .suites import run_suite

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 2
EXIT_INPUT = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="shacalc",
        description="Exact cohomological obstruction groups for integral "
        "modules over finite groups.",
    )
    p.add_argument("command", choices=["cohomology", "sha", "brauer", "pi1", "cover", "ext0", "verify"])
    p.add_argument("problem", help="problem file (JSON, schema version 1)")
    p.add_argument("--module", help="named module from the problem file")
    p.add_argument("--degree", type=int, default=None, help="cohomological degree")
    p.add_argument("--S", default=None, help="comma-separated excluded place names")
    p.add_argument("--omega", action="store_true", help="exclude every special place")
    p.add_argument("--cochar", action="store_true", help="use the cochar section (pi1)")
    p.add_argument("--suite", default="all", help="verify: s13|metacyclic|sha-iso|prop-sh1|ext0|cover|resolution|all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--instances", type=int, default=25)
    p.add_argument("--cap", type=int, default=DEFAULT_COCHAIN_CAP, help="work cap: the equation rows (torsion, degree 0) or the width (Z-free) of each value on the relation complex, and the rank of the degree-i bar cochains read for cocycles and representatives")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--no-timing", action="store_true", help="omit the timing field")
    return p


# built once: parsing reads the parser and leaves it as it was
_PARSER = _parser()


def _selection(args, problem) -> PlaceSelection:
    """Excluded set S: --omega excludes every special place, --S lists
    names explicitly, otherwise the problem file's local_datum.S (empty
    when absent) applies."""
    if args.omega:
        return PlaceSelection(frozenset(problem.datum.place_names))
    if args.S is not None:
        return PlaceSelection(frozenset(n.strip() for n in args.S.split(",") if n.strip()))
    return PlaceSelection(problem.default_excluded)


def _need(args, flag: str):
    value = getattr(args, flag)
    if value is None:
        raise InputError(f"--{flag} is required for this command", path="$")
    return value


def run(args: argparse.Namespace) -> tuple[dict, int]:
    """Dispatch one command; returns (report, exit code)."""
    if args.cap < 1:
        raise InputError(f"--cap must be at least 1, got {args.cap}", path="$")
    try:
        with open(args.problem, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}", path="$") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(str(exc), path="$") from exc
    problem = ProblemFile(raw)
    report: dict = {"schema": SCHEMA_VERSION, "command": args.command}
    code = EXIT_OK

    if args.command == "cohomology":
        module = problem.module(_need(args, "module"))
        degree = _need(args, "degree")
        cg = cohomology(problem.group, module, degree, cochain_cap=args.cap)
        report["invariant_factors"] = factors_json(*cg.group_value.invariant_factors())
        report["representatives"] = representatives_json(
            cg.representatives, degree, problem.group.order, module.rank
        )

    elif args.command == "sha":
        module = problem.module(_need(args, "module"))
        degree = _need(args, "degree")
        selection = _selection(args, problem)
        sh = sha(problem.datum, module, degree, selection, cochain_cap=args.cap)
        report["invariant_factors"] = factors_json(*sh.value.invariant_factors())
        report["representatives"] = representatives_json(
            sh.representatives, degree, problem.group.order, module.rank
        )
        report["verdicts"] = {
            "imposed_conditions": list(sh.imposed),
            "value": verdict_for(sh.value),
        }

    elif args.command == "brauer":
        datum = problem.homspace()
        selection = _selection(args, problem)
        groups = brauer_obstruction_groups(datum, selection, cochain_cap=args.cap)
        report["invariant_factors"] = {
            "B_S": factors_json(*groups.B_S.invariant_factors()),
            "B_S_quotient": factors_json(*groups.B_S_quotient.invariant_factors()),
            "B_omega": factors_json(*groups.B_omega.invariant_factors()),
        }
        report["verdicts"] = {
            "B_omega": verdict_for(groups.B_omega),
            "B_S_quotient": verdict_for(groups.B_S_quotient),
            "route_cross_check": groups.cross_check,
        }

    elif args.command == "pi1":
        if args.cochar:
            module = fundamental_group(problem.cochar())
        else:
            module = problem.module(_need(args, "module"))
        selection = _selection(args, problem)
        groups = pi1_obstruction_groups(
            module, problem.datum, selection, cochain_cap=args.cap
        )
        report["invariant_factors"] = {
            "Sh2_S_quotient": factors_json(*groups.Sh2_S_quotient.invariant_factors()),
            "Sh2_omega": factors_json(*groups.Sh2_omega.invariant_factors()),
        }
        report["verdicts"] = groups.verdicts

    elif args.command == "cover":
        result = quasi_trivial_cover(problem.cochar())
        report["invariant_factors"] = {
            "H_char": factors_json(*result.H_char.underlying.invariant_factors()),
            "Q_cochar": factors_json(*result.Q_cochar.underlying.invariant_factors()),
        }
        report["verdicts"] = dict(result.report)
        report["details"] = {
            "H_char_action": {
                f"s{k}": serialize_matrix(a)
                for k, a in enumerate(result.H_char.action)
            }
        }

    elif args.command == "ext0":
        module = ext0_with_data(problem.isogeny()).module
        report["invariant_factors"] = factors_json(*module.underlying.invariant_factors())
        report["details"] = {
            "action": {
                f"s{k}": serialize_matrix(a) for k, a in enumerate(module.action)
            }
        }

    elif args.command == "verify":
        reports = run_suite(
            args.suite, args.seed, args.instances, {"input": problem.group}
        )
        report["reports"] = [r.to_json() for r in reports]
        report["verdicts"] = {
            r.lemma: ("ok" if r.ok else f"{len(r.failures)} counterexamples")
            for r in reports
        }
        if any(not r.ok for r in reports):
            code = EXIT_COUNTEREXAMPLE

    return report, code


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    inv = report.get("invariant_factors")

    if isinstance(inv, dict) and "free_rank" in inv:
        lines.append(f"group: {factors_text(**inv)}")
    elif isinstance(inv, dict):
        for name in sorted(inv):
            lines.append(f"{name}: {factors_text(**inv[name])}")
    for key, value in sorted(report.get("verdicts", {}).items()):
        lines.append(f"{key}: {value}")
    for suite in report.get("reports", []):
        status = "ok" if not suite["failures"] else f"{len(suite['failures'])} FAILURES"
        lines.append(f"suite {suite['lemma']}: {len(suite['instances'])} instances, {status}")
    if "timing" in report:
        lines.append(f"seconds: {report['timing']['seconds']}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.monotonic()
    try:
        report, code = run(args)
    except InputError as exc:
        _emit_error("input", str(exc), exc.path)
        return EXIT_INPUT
    except ResourceError as exc:
        _emit_error("resource", str(exc), "$", dimension=exc.dimension)
        return EXIT_RESOURCE
    except StructuralError as exc:
        _emit_error("input", str(exc), "$")
        return EXIT_INPUT
    except InternalError as exc:
        _emit_error("internal", str(exc), "$", certificate=exc.certificate)
        return EXIT_INTERNAL
    if not args.no_timing:
        report["timing"] = {"seconds": round(time.monotonic() - started, 3)}
    if args.format == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(_render_text(report))
    return code


def _emit_error(kind: str, message: str, path: str, **extra) -> None:
    payload = {"error": {"type": kind, "message": message, "path": path, **extra}}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
