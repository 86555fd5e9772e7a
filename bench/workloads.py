"""Inputs and answer checks of the three benchmark workloads.

Every builder takes the loaded shacalc modules (a :class:`Modules`), the
workload seed and a scratch directory, and returns a :class:`Workload`:
a fixed list of cases, each a call into shacalc plus an independent check
of its answer.  Cases look the shacalc functions up on the module objects
at call time, so the tracing wrappers, when installed, see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
from dataclasses import dataclass
from math import lcm
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PINNED = json.loads((Path(__file__).resolve().parent / "pinned.json").read_text())

DEFAULT_SEED = PINNED["default_seed"]

LAYERS = (
    "intlinalg", "abelian", "groups", "gmodules", "cohomology",
    "sha", "arith", "suites", "jsonio", "cli",
)

PERMS = {
    "V4": [[1, 0, 2, 3], [0, 1, 3, 2]],
    "S3": [[1, 0, 2], [1, 2, 0]],
    "Z6": [[1, 2, 3, 4, 5, 0]],
    "D4": [[1, 2, 3, 0], [0, 3, 2, 1]],
    "Q8": [[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]],
    "A4": [[1, 2, 0, 3], [1, 0, 3, 2]],
    "D6": [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]],
    "S4": [[1, 2, 3, 0], [1, 0, 2, 3]],
}

LADDER_GROUPS = ("V4", "D4", "Q8", "A4", "D6", "S4")
LADDER_COEFFICIENTS = ("Z", "I_G", "J^D")
REQUEST_GROUPS = ("V4", "S3", "D4", "Q8", "Z6", "A4")
# Modules per group of each (rank, torsion relation rows) kind in the suites
# workload, and the kinds of the random H modules per group in the requests
# workload.  Fixed counts per kind keep the case mix alike: rank and relation
# rows set the cost (on A4 about 2, 35 and 90 ms a case for 0, 1 and 2 rows).
# Kinds left out: 3 rows (100-150 ms, and never drawn on A4) and rank 4 (up
# to 2.6 s a case on A4).  The counts follow the rarest group's draw
# frequencies, so set-up needs few draws.  The modules come from a fixed
# stream, not from the workload seed: drawn from the seed, they moved the
# median case time by 12% between seeds, because it falls between the
# kinds' costs.
SUITES_SHAPE_SEED = 2010
SUITES_QUOTA = {
    (1, 0): 5, (1, 1): 8,
    (2, 0): 3, (2, 1): 3, (2, 2): 5,
    (3, 0): 8, (3, 1): 6, (3, 2): 18,
}
SUITES_MAX_RANK = 3
# (rank of H, relation rows of H, relation rows of T), one problem file each
REQUEST_SHAPE_SEED = 2010
# Two kinds keep a request workload of about 6 s, so that a 30 s run calls
# every light request about five times.
REQUEST_KINDS = ((1, 1, 0), (2, 0, 1))


class Modules:
    """The shacalc modules, imported by name (the package re-exports
    functions under the names of some modules, so attribute access on the
    package does not reach them)."""

    def __init__(self):
        for name in LAYERS + ("prng",):
            setattr(self, name, importlib.import_module(f"shacalc.{name}"))


@dataclass
class Case:
    name: str
    call: Callable[[], object]
    # returns None when the answer is right, else what is wrong with it
    check: Callable[[object], str | None]


@dataclass
class Workload:
    cases: list[Case]
    limit_s: float  # per-case wall-time limit
    notes: dict


# ---------------------------------------------------------------------------
# Independent group facts, from the multiplication table alone
# ---------------------------------------------------------------------------


def _power(table, x: int, n: int) -> int:
    out = 0
    for _ in range(n):
        out = table[out][x]
    return out


def _closure(table, seeds) -> set[int]:
    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for e in frontier:
            for s in seeds:
                c = table[e][s]
                if c not in members:
                    members.add(c)
                    nxt.append(c)
        frontier = nxt
    return members


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def abelianization(table) -> tuple[int, tuple[int, ...]]:
    """Invariant factors (free rank 0, torsion) of G/[G,G], read off the
    counts of elements killed by each prime power in the quotient."""
    n = len(table)
    inv = [row.index(0) for row in table]
    comms = {table[table[a][b]][table[inv[a]][inv[b]]] for a in range(n) for b in range(n)}
    k = _closure(table, sorted(comms))
    reps, seen = [], set()
    for e in range(n):
        if e not in seen:
            reps.append(e)
            seen |= {table[e][c] for c in k}
    m = len(reps)
    parts_by_prime = {}
    for p, a in _factor(m).items():
        # d[j] = number of cyclic p-parts of order >= p^(j+1)
        d, prev = [], 0
        for j in range(1, a + 1):
            killed = sum(1 for x in reps if _power(table, x, p**j) in k)
            s = _log(killed, p)
            d.append(s - prev)
            prev = s
        parts_by_prime[p] = sorted(
            (sum(1 for dj in d if dj >= i) for i in range(1, d[0] + 1)), reverse=True
        )
    width = max((len(v) for v in parts_by_prime.values()), default=0)
    factors = []
    for i in range(width):
        f = 1
        for p, parts in parts_by_prime.items():
            if i < len(parts):
                f *= p ** parts[i]
        factors.append(f)
    return 0, tuple(sorted(factors))


def _log(x: int, p: int) -> int:
    s = 0
    while x > 1:
        x //= p
        s += 1
    return s


def group_exponent(table) -> int:
    e = 1
    for x in range(len(table)):
        k, y = 1, x
        while y != 0:
            y = table[y][x]
            k += 1
        e = lcm(e, k)
    return e


def cyclic_value(n: int) -> tuple[int, tuple[int, ...]]:
    return (0, (n,)) if n > 1 else (0, ())


def value_str(value: tuple[int, tuple[int, ...]]) -> str:
    free, tors = value
    parts = (["Z"] if free == 1 else [f"Z^{free}"] if free else []) + [f"Z/{d}" for d in tors]
    return " x ".join(parts) or "0"


# ---------------------------------------------------------------------------
# ladder
# ---------------------------------------------------------------------------


def ladder_case_name(group: str, coef: str, degree: int) -> str:
    prefix = "HH" if coef == "J^D" else "H"
    return f"{group} {prefix}^{degree}({coef})"


def build_ladder(sc: Modules, seed: int, workdir: Path) -> Workload:
    """Fixed grid; the seed does not apply."""
    out_of_reach = set(PINNED["ladder"]["out_of_reach"])
    pinned = PINNED["ladder"]["values"]
    cases = []
    for gname in LADDER_GROUPS:
        g = sc.groups.from_permutations(PERMS[gname])
        coefficients = {
            "Z": sc.gmodules.trivial_module(g, 1),
            "I_G": sc.gmodules.augmentation_ideal(g),
            "J^D": sc.arith.dual_complex(
                sc.gmodules.augmentation_quotient(g), [[1] + [0] * (g.order - 1)]
            ),
        }
        expected = {
            ("Z", 1): (0, ()),
            ("Z", 2): abelianization(g.table),
            ("I_G", 1): cyclic_value(g.order),
            ("I_G", 2): (0, ()),
        }
        for coef in LADDER_COEFFICIENTS:
            for degree in (1, 2):
                name = ladder_case_name(gname, coef, degree)
                if name in out_of_reach:
                    continue
                want = expected.get((coef, degree))
                if want is None:
                    free, tors = pinned[name]
                    want = (free, tuple(tors))
                cases.append(Case(name, _ladder_call(sc, g, coefficients[coef], coef, degree),
                                  _value_check(want)))
    return Workload(cases, PINNED["ladder"]["limit_s"], {"out_of_reach": sorted(out_of_reach)})


def _ladder_call(sc, g, coefficients, coef, degree):
    def call():
        compute = sc.cohomology.hypercohomology if coef == "J^D" else sc.cohomology.cohomology
        # the answer is the value's invariant factors, so the call includes them
        return compute(g, coefficients, degree).group_value.invariant_factors()
    return call


def _value_check(want):
    def check(got) -> str | None:
        return None if got == want else f"value {value_str(got)}, expected {value_str(want)}"
    return check


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def build_suites(sc: Modules, seed: int, workdir: Path) -> Workload:
    """Per annihilation group: the first ``random_module`` draws of each
    (rank, torsion relation rows) kind, SUITES_QUOTA[kind] of each, with a
    ``random_datum`` each; then I_G.  The seed does not apply: everything
    is drawn from the SUITES_SHAPE_SEED stream.  (Sha^1_omega excludes
    every special place, so the datum does not change the computation.)"""
    groups = sc.suites.builtin_groups()
    rng = sc.prng.SplitMix64(SUITES_SHAPE_SEED)
    cases = []
    for gname in sc.suites.ANNIHILATION_GROUP_NAMES:
        g = groups[gname]
        grng = rng.spawn()
        drawn: dict[tuple[int, int], list] = {kind: [] for kind in SUITES_QUOTA}
        while any(len(drawn[kind]) < q for kind, q in SUITES_QUOTA.items()):
            m = sc.suites.random_module(g, grng, max_rank=SUITES_MAX_RANK)
            kind = (m.rank, len(m.underlying.relation_rows))
            if len(drawn.get(kind, ())) < SUITES_QUOTA.get(kind, 0):
                drawn[kind].append(m)
        for (rank, rows), modules in drawn.items():
            for k, m in enumerate(modules):
                datum = sc.suites.random_datum(g, grng)
                cases.append(Case(f"{gname} rank{rank} relations{rows} #{k}",
                                  _annihilation_call(sc, datum, m), _report_check(None)))
        datum = sc.suites.random_datum(g, grng)
        want = value_str(cyclic_value(g.order // group_exponent(g.table)))
        cases.append(Case(f"{gname} I_G", _annihilation_call(sc, datum, sc.gmodules.augmentation_ideal(g)),
                          _report_check(want)))
    return Workload(cases, PINNED["suites"]["limit_s"], {})


def _random_module(sc, g, rng, max_rank: int, rank: int, rows: int, tries: int = 10000):
    """The first ``random_module`` draw with the given rank and number of
    torsion relation rows."""
    for _ in range(tries):
        m = sc.suites.random_module(g, rng, max_rank=max_rank)
        if (m.rank, len(m.underlying.relation_rows)) == (rank, rows):
            return m
    raise RuntimeError(f"no rank-{rank} module with {rows} relation rows in {tries} draws")


def _annihilation_call(sc, datum, module):
    return lambda: sc.sha.verify_annihilation(datum, module)


def _report_check(want_sha: str | None):
    def check(report) -> str | None:
        if not report.get("ok"):
            return f"suite certificate {report.get('certificate')}"
        if want_sha is not None and report["sha_omega"] != want_sha:
            return f"Sha^1_omega(G, I_G) = {report['sha_omega']}, expected {want_sha}"
        return None
    return check


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


@dataclass
class Reply:
    code: int
    stdout: str
    stderr: str


def cli_call(sc: Modules, argv: list[str]) -> Callable[[], Reply]:
    def call() -> Reply:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sc.cli.main(argv)
        return Reply(code, out.getvalue(), err.getvalue())
    return call


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_requests(sc: Modules, seed: int, workdir: Path) -> Workload:
    """The bundled manifest, then generated problem files with a homspace
    section and a local datum, four CLI commands on each."""
    cases = []
    problems = ROOT / "problems"
    for entry in json.loads((problems / "manifest.json").read_text()):
        argv = [entry["args"][0], str(problems / entry["problem"])] + entry["args"][1:]
        want = (problems / entry["expected"]).read_text()
        cases.append(Case(f"manifest {entry['name']}", cli_call(sc, argv), _bytes_check(want)))

    pinned = PINNED["requests"]["digests"] if seed == DEFAULT_SEED else None
    workdir.mkdir(parents=True, exist_ok=True)
    shapes = sc.prng.SplitMix64(REQUEST_SHAPE_SEED)
    rng = sc.prng.SplitMix64(seed)
    replies: dict[str, dict] = {}  # brauer answers, read by the sha checks
    for gname in REQUEST_GROUPS:
        g = sc.groups.from_permutations(PERMS[gname])
        grng, gshapes = rng.spawn(), shapes.spawn()
        for k, kind in enumerate(REQUEST_KINDS):
            problem, excluded = generated_problem(sc, g, gname, gshapes, grng, *kind)
            path = workdir / f"{gname}-{k}.json"
            path.write_text(json.dumps(problem, indent=1, sort_keys=True))
            s_flag = ",".join(excluded)
            for label, args in (
                ("brauer", ["brauer", "--S", s_flag]),
                ("pi1", ["pi1", "--module", "T", "--S", s_flag]),
                ("sha-S", ["sha", "--module", "H", "--degree", "1", "--S", s_flag]),
                ("sha-omega", ["sha", "--module", "H", "--degree", "1", "--omega"]),
            ):
                name = f"{gname}-{k} {label}"
                argv = [args[0], str(path)] + args[1:] + ["--no-timing"]
                want = pinned[name] if pinned is not None else None
                cases.append(Case(name, cli_call(sc, argv),
                                  _generated_check(name, label, want, replies)))
    return Workload(cases, PINNED["requests"]["limit_s"], {"pinned_digests": pinned is not None})


def generated_problem(sc, g, gname: str, shapes, rng, h_rank: int, h_rows: int,
                      t_rows: int) -> tuple[dict, list[str]]:
    """A schema-1 problem file and its excluded places S.

    The shapes come from the ``shapes`` stream, which is the same for every
    workload seed: H is a ``random_module`` draw of rank ``h_rank`` with
    ``h_rows`` torsion relation rows, T a rank-one draw with ``t_rows``,
    G_hat the coset module of a subgroup of the smallest proper index, the
    decomposition groups of the two special places, and which place is in
    S.  The seed stream ``rng`` then picks the conjugate of G_hat's subgroup
    and the map res: G_hat -> H.  Seeded shapes made a request's cost
    differ up to 20-fold between seeds, a seeded basis of H up to 2-fold,
    and seeded conjugates of the places by half (a conjugate that is the
    class representative of a cyclic subgroup is not imposed twice).  T is
    rank one because pi1 of a rank-3 module costs up to 4 s."""
    index = min(d for d in range(2, g.order + 1) if g.order % d == 0 and _has_index(g, d))
    while True:
        base = sc.suites.random_subgroup(g, shapes)
        if g.order // base.order == index:
            break
    sub = base.conjugated_by(rng.randrange(g.order))
    g_hat = sc.gmodules.permutation_module(g, sub)
    h = _random_module(sc, g, shapes, 3, h_rank, h_rows)
    t = _random_module(sc, g, shapes, 1, 1, t_rows)
    res = sc.suites.random_equivariant_map(g_hat, h, rng)
    places = [(f"v{i}", sc.suites.random_subgroup(g, shapes)) for i in range(2)]
    excluded = [places[shapes.randrange(2)][0]]

    def words(members):
        return ["*".join(f"s{k}" for k in g.element_words[e]) or "e" for e in members]

    def matrix(m):
        return [[str(v) for v in row] for row in m.rows]

    def module(m):
        return {
            "rank": m.rank,
            "relations": [[str(v) for v in row] for row in m.underlying.relation_rows],
            "action": {f"s{k}": matrix(a) for k, a in enumerate(m.action)},
        }

    problem = {
        "schema": 1,
        "group": {"permutation_generators": PERMS[gname]},
        "modules": {
            "G": {"builtin": "coset", "subgroup": words(sub.minimal_generators())},
            "H": module(h),
            "T": module(t),
        },
        "local_datum": {
            "special_places": [
                {"name": name, "decomposition": words(s.minimal_generators())}
                for name, s in places
            ],
            "S": excluded,
        },
        "homspace": {"G_hat": "G", "H_hat": "H", "res": matrix(res.matrix)},
    }
    return problem, excluded


def _has_index(g, d: int) -> bool:
    # subgroups reachable by random_subgroup are generated by at most two elements
    n = g.order
    return any(
        len(_closure(g.table, [a, b])) == n // d for a in range(n) for b in range(a, n)
    )


def _bytes_check(want: str):
    def check(reply: Reply) -> str | None:
        if reply.code != 0:
            return f"exit code {reply.code}: {reply.stderr.strip()}"
        return None if reply.stdout == want else "output differs from problems/expected"
    return check


def _generated_check(name: str, label: str, want_digest: str | None, replies: dict):
    """Exit 0; the pinned digest at the default seed; and at every seed,
    brauer's B_S and B_omega equal the sha --S and sha --omega values."""
    key = name.rsplit(" ", 1)[0]

    def check(reply: Reply) -> str | None:
        if reply.code != 0:
            return f"exit code {reply.code}: {reply.stderr.strip()}"
        if want_digest is not None and digest(reply.stdout) != want_digest:
            return f"output digest {digest(reply.stdout)}, pinned {want_digest}"
        report = json.loads(reply.stdout)
        if label == "brauer":
            replies[key] = report["invariant_factors"]
        elif label.startswith("sha"):
            brauer = replies.get(key)
            field = "B_S" if label == "sha-S" else "B_omega"
            if brauer is None:
                return "no brauer answer to compare with"
            if brauer[field] != report["invariant_factors"]:
                return f"{field} of brauer {brauer[field]} != sha {report['invariant_factors']}"
        return None
    return check
