"""Command-line interface: schema validation, exit codes, determinism,
and byte-exact agreement with the committed expected outputs."""

import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from shacalc.cli import main
from shacalc.cohomology import cohomology
from shacalc.errors import ResourceError
from shacalc.intlinalg import hermite_rows

from helpers import cyclic, cyclic_group, torsion_module

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestBundledProblems:
    def test_manifest_matches_committed_outputs(self):
        """Every bundled problem runs quickly and reproduces its committed
        expected output byte for byte."""
        manifest = json.loads((PROBLEMS / "manifest.json").read_text())
        assert manifest, "manifest must not be empty"
        for entry in manifest:
            argv = [entry["args"][0], str(PROBLEMS / entry["problem"])] + entry["args"][1:]
            started = time.monotonic()
            code, out, err = run_cli(argv)
            took = time.monotonic() - started
            assert code == 0, (entry["name"], err)
            assert took < 60, (entry["name"], took)
            expected = (PROBLEMS / entry["expected"]).read_text()
            assert out == expected, entry["name"]

    def test_determinism_byte_identical(self):
        argv = [
            "sha",
            str(PROBLEMS / "biquadratic.json"),
            "--module",
            "I",
            "--degree",
            "1",
            "--omega",
            "--no-timing",
        ]
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second

    @pytest.mark.parametrize("name", ["biquadratic-brauer", "biquadratic-verify-s13"])
    def test_output_independent_of_hash_seed(self, name, monkeypatch):
        """Commands that call ``sparse_kernel`` print the committed bytes
        under two hash seeds, so no pivot choice follows set or dict
        iteration order.  ``brauer`` reaches it through the Sha preimages,
        ``verify`` also through the kernel route of the cohomology, both by
        way of ``preimage_kernel``.  Each seed needs its own interpreter."""
        entry = next(e for e in json.loads((PROBLEMS / "manifest.json").read_text())
                     if e["name"] == name)
        argv = [entry["args"][0], str(PROBLEMS / entry["problem"])] + entry["args"][1:]
        kernels = []
        module = sys.modules["shacalc.intlinalg"]
        real = module.sparse_kernel
        monkeypatch.setattr(module, "sparse_kernel", lambda *a: kernels.append(a) or real(*a))
        assert run_cli(argv)[0] == 0
        assert kernels, "the command should call sparse_kernel"
        expected = (PROBLEMS / entry["expected"]).read_text()
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            done = subprocess.run([sys.executable, "-m", "shacalc.cli"] + argv, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            assert done.stdout == expected, seed

    def test_consecutive_calls_print_what_separate_calls_print(self):
        """``main`` called again and again in one process, with --omega then
        without, --format text then json, and a failing request, gives the
        exit codes, stdout and stderr of one interpreter per call."""
        problem = str(PROBLEMS / "biquadratic_ramified.json")
        sha_argv = ["sha", problem, "--module", "I", "--degree", "1", "--no-timing"]
        calls = [
            sha_argv + ["--omega", "--format", "text"],
            sha_argv,
            sha_argv + ["--omega"],
            ["sha", problem, "--module", "nope", "--degree", "1", "--format", "text"],
            sha_argv + ["--format", "json"],
        ]
        in_process = [run_cli(argv) for argv in calls]
        assert [code for code, _, _ in in_process] == [0, 0, 0, 3, 0]
        assert in_process[1][1] == (PROBLEMS / "expected" / "biquadratic-ramified-sha.json").read_text()
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        for argv, (code, out, err) in zip(calls, in_process):
            done = subprocess.run([sys.executable, "-m", "shacalc.cli"] + argv, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stdout, done.stderr) == (code, out, err), argv

    def test_run_as_package(self):
        """``python -m shacalc`` prints the committed bytes of a manifest
        entry."""
        entry = json.loads((PROBLEMS / "manifest.json").read_text())[0]
        assert "--no-timing" in entry["args"]
        argv = [entry["args"][0], str(PROBLEMS / entry["problem"])] + entry["args"][1:]
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "shacalc"] + argv, env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == (PROBLEMS / entry["expected"]).read_text()

    def test_timing_field_toggle(self):
        argv = [
            "cohomology",
            str(PROBLEMS / "biquadratic.json"),
            "--module",
            "I",
            "--degree",
            "0",
        ]
        _, out, _ = run_cli(argv)
        assert "timing" in json.loads(out)
        _, out, _ = run_cli(argv + ["--no-timing"])
        assert "timing" not in json.loads(out)


class TestErrors:
    def test_missing_file(self):
        code, out, err = run_cli(["sha", "no-such-file.json", "--module", "I", "--degree", "1"])
        assert code == 3
        assert json.loads(err)["error"]["type"] == "input"

    @pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
    def test_unreadable_problem_file(self, tmp_path, kind):
        """A directory, or bytes that are not UTF-8, in place of the problem
        file is an input error at $, not a traceback."""
        if kind == "directory":
            p = tmp_path
        else:
            p = tmp_path / "bad.json"
            p.write_bytes(b"\xff\xfe{")
        code, out, err = run_cli(["cohomology", str(p), "--module", "M", "--degree", "1"])
        assert code == 3 and out == ""
        payload = json.loads(err)["error"]
        assert payload["type"] == "input" and payload["path"] == "$"

    def test_bad_schema_version(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": 99, "group": {"permutation_generators": []}}))
        code, _, err = run_cli(["cohomology", str(p), "--module", "M", "--degree", "1"])
        assert code == 3
        assert "$.schema" in json.loads(err)["error"]["path"]

    def test_ragged_matrix_rejected_with_path(self, tmp_path):
        p = tmp_path / "ragged.json"
        p.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "group": {"permutation_generators": [[1, 0]]},
                    "modules": {
                        "M": {
                            "rank": 2,
                            "relations": [["1", "0"], ["1"]],
                            "action": {"s0": [["1", "0"], ["0", "1"]]},
                        }
                    },
                }
            )
        )
        code, _, err = run_cli(["cohomology", str(p), "--module", "M", "--degree", "1"])
        assert code == 3
        payload = json.loads(err)["error"]
        assert "relations" in payload["path"]

    @pytest.mark.parametrize(
        "spec, path",
        [
            ({"rank": "+-1"}, "$.modules.M.rank"),
            ({"rank": "\u00b2"}, "$.modules.M.rank"),
            ({"builtin": "trivial", "rank": "+-1"}, "$.modules.M.rank"),
            ({"builtin": "sign", "negating": ["s\u00b2"]}, "$.modules.M.negating[0]"),
            ({"builtin": "sign", "negating": ["s5"]}, "$.modules.M.negating[0]"),
            ({"builtin": "coset", "subgroup": ["s\u00b2"]}, "$.modules.M.subgroup[0]"),
        ],
    )
    def test_malformed_module_rejected_with_path(self, tmp_path, spec, path):
        """Signs and digits that ``int`` rejects, and a generator the
        one-generator group lacks, are bad input at their JSON path."""
        p = tmp_path / "malformed.json"
        p.write_text(
            json.dumps({"schema": 1, "group": {"permutation_generators": [[1, 0]]}, "modules": {"M": spec}})
        )
        code, out, err = run_cli(["cohomology", str(p), "--module", "M", "--degree", "0"])
        assert code == 3 and out == ""
        payload = json.loads(err)["error"]
        assert payload["type"] == "input"
        assert payload["path"] == path

    @pytest.mark.parametrize("value", [[1], 5, "s0", True])
    @pytest.mark.parametrize("section, command", [
        ("homspace", "brauer"),
        ("cochar", "cover"),
        ("isogeny", "ext0"),
    ])
    def test_section_not_an_object_rejected(self, tmp_path, section, command, value):
        """A section of another JSON type is bad input at its path."""
        p = tmp_path / "section.json"
        p.write_text(json.dumps({"schema": 1, "group": {"permutation_generators": [[1, 0]]}, section: value}))
        code, out, err = run_cli([command, str(p)])
        assert code == 3 and out == ""
        payload = json.loads(err)["error"]
        assert (payload["type"], payload["path"]) == ("input", f"$.{section}")

    @pytest.mark.parametrize("value", [5, True, "v1", {"name": "v1"}, None])
    def test_special_places_not_an_array_rejected(self, tmp_path, value):
        """Every command parses the local datum, so each rejects a
        special_places that is not an array at its path."""
        p = tmp_path / "places.json"
        p.write_text(json.dumps({
            "schema": 1,
            "group": {"permutation_generators": [[1, 0]]},
            "modules": {"M": {"builtin": "trivial"}},
            "local_datum": {"special_places": value},
        }))
        code, out, err = run_cli(["cohomology", str(p), "--module", "M", "--degree", "0"])
        assert code == 3 and out == ""
        payload = json.loads(err)["error"]
        assert (payload["type"], payload["path"]) == ("input", "$.local_datum.special_places")

    @pytest.mark.parametrize("section,field,command", [
        ("homspace", "G_hat", "brauer"),
        ("homspace", "H_hat", "brauer"),
        ("cochar", "X_star", "cover"),
        ("isogeny", "source", "ext0"),
        ("isogeny", "target", "ext0"),
    ])
    @pytest.mark.parametrize("value", [5, ["G"], "missing"])
    def test_name_field_not_a_string_rejected(self, tmp_path, section, field, command, value):
        """A module reference that is not a JSON string, or is missing, is
        bad input at the field's own path, not an undefined module."""
        spec = {
            "homspace": {"G_hat": "G", "H_hat": "H", "res": [["1", "1"]]},
            "cochar": {"X_star": "H", "coroot_inclusion": [["2"]]},
            "isogeny": {"source": "H", "target": "H", "map": [["2"]]},
        }[section]
        if value == "missing":
            del spec[field]
        else:
            spec[field] = value
        p = tmp_path / "names.json"
        p.write_text(json.dumps({
            "schema": 1,
            "group": {"permutation_generators": [[1, 0]]},
            "modules": {"G": {"builtin": "regular"}, "H": {"builtin": "trivial", "rank": 1}},
            section: spec,
        }))
        code, out, err = run_cli([command, str(p)])
        assert code == 3 and out == ""
        payload = json.loads(err)["error"]
        assert (payload["type"], payload["path"]) == ("input", f"$.{section}.{field}")

    @pytest.mark.parametrize("datum,path", [
        ({"special_places": [{"name": 5, "decomposition": []}]}, "$.local_datum.special_places[0].name"),
        ({"special_places": [{"name": "5", "decomposition": []}], "S": [5]}, "$.local_datum.S[0]"),
        ({"special_places": [{"name": "v", "decomposition": []}], "S": ["v", ["5"]]}, "$.local_datum.S[1]"),
    ])
    def test_place_name_not_a_string_rejected(self, tmp_path, datum, path):
        """A place named by a number, and an excluded set S naming one, are
        bad input at the name's path: the number is neither accepted as the
        place "5" nor matched against it."""
        p = tmp_path / "places.json"
        p.write_text(json.dumps({
            "schema": 1,
            "group": {"permutation_generators": [[1, 0]]},
            "modules": {"M": {"builtin": "trivial"}},
            "local_datum": datum,
        }))
        code, out, err = run_cli(["cohomology", str(p), "--module", "M", "--degree", "0"])
        assert code == 3 and out == ""
        payload = json.loads(err)["error"]
        assert (payload["type"], payload["path"]) == ("input", path)

    def test_coroot_zero_modulo_relations_rejected(self, tmp_path):
        """pi1 --cochar over Z2 with X_star = Z^2 / <(1, -1)>: the coroot
        (1, -1) is zero in X_star, bad input at $.cochar."""
        p = tmp_path / "cochar.json"
        p.write_text(json.dumps({
            "schema": 1,
            "group": {"permutation_generators": [[1, 0]]},
            "modules": {"X": {"rank": 2, "relations": [["1", "-1"]],
                              "action": {"s0": [["1", "0"], ["0", "1"]]}}},
            "cochar": {"X_star": "X", "coroot_inclusion": [["1"], ["-1"]]},
        }))
        code, out, err = run_cli(["pi1", str(p), "--cochar"])
        assert code == 3 and out == ""
        payload = json.loads(err)["error"]
        assert (payload["type"], payload["path"]) == ("input", "$.cochar")
        assert "dependent" in payload["message"]

    def test_coroot_row_count_named(self, tmp_path):
        """A coroot inclusion with a row count other than the number of
        generators of X_star is bad input at $.cochar, naming both."""
        p = tmp_path / "cochar.json"
        p.write_text(json.dumps({
            "schema": 1,
            "group": {"permutation_generators": [[1, 0]]},
            "modules": {"X": {"builtin": "trivial", "rank": 1}},
            "cochar": {"X_star": "X", "coroot_inclusion": [["2"], ["0"]]},
        }))
        code, out, err = run_cli(["cover", str(p)])
        assert code == 3 and out == ""
        payload = json.loads(err)["error"]
        assert payload["path"] == "$.cochar"
        assert "one row per generator of X_star (1), got 2" in payload["message"]

    def test_unknown_module(self):
        code, _, err = run_cli(
            ["cohomology", str(PROBLEMS / "biquadratic.json"), "--module", "X", "--degree", "1"]
        )
        assert code == 3

    def test_resource_budget_exit_code(self, tmp_path):
        p = tmp_path / "big.json"
        p.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "group": {"permutation_generators": [[1, 2, 3, 0]]},
                    "modules": {"R": {"builtin": "regular"}},
                }
            )
        )
        code, _, err = run_cli(
            ["cohomology", str(p), "--module", "R", "--degree", "2", "--cap", "10"]
        )
        assert code == 4
        assert json.loads(err)["error"]["type"] == "resource"

    def test_generator_route_budget_payload(self, tmp_path):
        """H^1(Z4, Z/4) eliminates one relator row, for the one edge off the
        breadth-first tree: a cap of 0 raises the budget error with that
        row count as the dimension (the command line takes no cap below 1).
        A cap of 1 passes the value, and the read of the printed
        representatives, at the bar rank 4, exits 4 and reports that rank;
        a cap of 4 passes both."""
        g = cyclic(4)
        with pytest.raises(ResourceError) as caught:
            cohomology(g, torsion_module(g, 4), 1, cochain_cap=0)
        assert caught.value.dimension == 1
        p = tmp_path / "z4.json"
        p.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "group": {"permutation_generators": [[1, 2, 3, 0]]},
                    "modules": {"M": {"rank": 1, "relations": [[4]], "action": {"s0": [[1]]}}},
                }
            )
        )
        argv = ["cohomology", str(p), "--module", "M", "--degree", "1", "--cap"]
        code, _, err = run_cli(argv + ["1"])
        assert code == 4 and json.loads(err)["error"]["dimension"] == 4
        code, out, _ = run_cli(argv + ["4"])
        assert code == 0
        assert json.loads(out)["invariant_factors"]["torsion"] == [4]

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_rejected(self, cap):
        """A cap below 1 is an input error at the top level, not a budget
        exceeded, as a count of instances below 1 is."""
        code, out, err = run_cli(
            ["cohomology", str(PROBLEMS / "biquadratic.json"), "--module", "I", "--degree", "1", "--cap", cap]
        )
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert error["type"] == "input" and error["path"] == "$"
        assert error["message"] == f"--cap must be at least 1, got {cap}"

    def test_representatives_read_budgeted(self, tmp_path):
        """H^2(A4, I_G) at --cap 1000: the value saturates at width 143,
        and printing its representatives, at the bar rank 12^2 * 11 = 1584,
        exits 4 with that dimension in under a second."""
        p = tmp_path / "a4.json"
        p.write_text(json.dumps({
            "schema": 1,
            "group": {"permutation_generators": [[1, 2, 0, 3], [1, 0, 3, 2]]},
            "modules": {"I": {"builtin": "augmentation_ideal"}},
        }))
        start = time.perf_counter()
        code, _, err = run_cli(["cohomology", str(p), "--module", "I", "--degree", "2", "--cap", "1000"])
        assert time.perf_counter() - start < 1
        error = json.loads(err)["error"]
        assert code == 4 and error["type"] == "resource" and error["dimension"] == 1584

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _, err = run_cli(["cohomology", str(p), "--module", "M", "--degree", "1"])
        assert code == 3

    def test_non_bijective_generator(self, tmp_path):
        p = tmp_path / "perm.json"
        p.write_text(
            json.dumps({"schema": 1, "group": {"permutation_generators": [[0, 0]]}})
        )
        code, _, err = run_cli(["cohomology", str(p), "--module", "M", "--degree", "1"])
        assert code == 3
        assert "permutation" in json.loads(err)["error"]["message"]


class TestVerifyCommand:
    def test_metacyclic_suite_on_s3(self, tmp_path):
        p = tmp_path / "s3.json"
        p.write_text(
            json.dumps(
                {"schema": 1, "group": {"permutation_generators": [[1, 0, 2], [1, 2, 0]]}}
            )
        )
        code, out, _ = run_cli(
            [
                "verify",
                str(p),
                "--suite",
                "metacyclic",
                "--seed",
                "1",
                "--instances",
                "10",
                "--no-timing",
            ]
        )
        assert code == 0
        report = json.loads(out)
        suite = report["reports"][0]
        assert len(suite["instances"]) == 10
        assert suite["failures"] == []
        for inst in suite["instances"]:
            assert inst["sha_omega"] == "0"

    def test_seeded_determinism(self, tmp_path):
        p = tmp_path / "v4.json"
        p.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "group": {"permutation_generators": [[1, 0, 3, 2], [2, 3, 0, 1]]},
                }
            )
        )
        argv = ["verify", str(p), "--suite", "s13", "--seed", "42", "--instances", "6", "--no-timing"]
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second

    def test_unknown_suite(self):
        code, _, err = run_cli(
            ["verify", str(PROBLEMS / "biquadratic.json"), "--suite", "bogus"]
        )
        assert code == 3

    def test_zero_instances_rejected(self):
        code, out, err = run_cli(
            ["verify", str(PROBLEMS / "biquadratic.json"), "--suite", "s13", "--instances", "0"]
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["type"] == "input"

    def test_negative_instances_rejected(self):
        code, out, err = run_cli(
            ["verify", str(PROBLEMS / "biquadratic.json"), "--suite", "s13", "--instances", "-3"]
        )
        assert code == 3
        assert out == ""
        assert "at least 1" in json.loads(err)["error"]["message"]

    def test_counterexample_exit_code(self, monkeypatch):
        """A suite failure must surface as exit code 2 with the
        certificate in the report."""
        from shacalc import cli as cli_module
        from shacalc.suites import SuiteReport

        def fake_run_suite(name, seed, instances, groups=None):
            report = SuiteReport(lemma="fake")
            report.record(0, {"ok": False, "certificate": {"kind": "demo"}})
            return [report]

        monkeypatch.setattr(cli_module, "run_suite", fake_run_suite)
        code, out, _ = run_cli(
            ["verify", str(PROBLEMS / "biquadratic.json"), "--suite", "s13", "--no-timing"]
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["reports"][0]["failures"][0]["certificate"] == {"kind": "demo"}


    def test_internal_error_exit_code(self, monkeypatch):
        """A failed internal check exits 5 as an internal error, not 3 as
        bad input, with a certificate where the check names one."""

        def internal_error(argv):
            code, out, err = run_cli(argv)
            assert code == 5
            assert out == ""
            payload = json.loads(err)["error"]
            assert payload["type"] == "internal"
            return payload

        biquadratic = str(PROBLEMS / "biquadratic.json")
        with monkeypatch.context() as mp:
            # every image vector escapes the cocycle lattice: the value is
            # presented on a lattice that is too small
            module = sys.modules["shacalc.cohomology"]
            real = module.present_quotient
            mp.setattr(module, "present_quotient",
                       lambda basis, vectors: real(hermite_rows([], basis.width), vectors))
            payload = internal_error(["cohomology", biquadratic, "--module", "I", "--degree", "1"])
            assert "escapes the kernel lattice" in payload["message"]
            assert payload["certificate"] is None

        sha_module = sys.modules["shacalc.sha"]

        def assert_recheck_failed(payload):
            assert "survives a restriction" in payload["message"]
            cert = payload["certificate"]
            assert cert["kind"] == "sha-recheck"
            assert cert["imposed"].startswith("cyclic")
            assert cert["representative"] == 0
            # the failing cochain itself, which the index alone does not name
            assert all(isinstance(v, str) for v in cert["cocycle"])
            assert any(int(v) for v in cert["cocycle"])

        class ForgetfulEvaluation(sha_module._Evaluation):
            """The true condition, but with zero columns, which the Sha
            kernel reads."""

            def __init__(self, ambient, sub):
                super().__init__(ambient, sub)
                self.columns = [{} for _ in self.columns]

        with monkeypatch.context() as mp:
            mp.setattr(sha_module, "_Evaluation", ForgetfulEvaluation)
            payload = internal_error(["sha", biquadratic, "--module", "I", "--degree", "1", "--omega"])
            assert_recheck_failed(payload)
            # the degree-2 groups of brauer impose conditions on the complex
            # G_hat -> H_hat
            payload = internal_error(["brauer", str(PROBLEMS / "biquadratic_homspace.json")])
            assert_recheck_failed(payload)

        arith = sys.modules["shacalc.arith"]
        real_groups = arith._sha_groups

        def skewed_groups(datum, complex_, degree, selections, cochain_cap):
            """Degree-2 groups replaced by Z/7."""
            groups = real_groups(datum, complex_, degree, selections, cochain_cap)
            if degree == 2:
                groups = [dataclasses.replace(g, value=cyclic_group(7)) for g in groups]
            return groups

        with monkeypatch.context() as mp:
            mp.setattr(arith, "_sha_groups", skewed_groups)
            payload = internal_error(["brauer", str(PROBLEMS / "biquadratic_homspace.json")])
            assert "route cross-check failed at S" in payload["message"]
            cert = payload["certificate"]
            assert cert["kind"] == "route-mismatch"
            assert cert["label"] == "S"
            assert cert["degree2"] == {"free_rank": 0, "torsion": [7]}
            assert cert["degree1"] != cert["degree2"]


class TestTextFormat:
    def test_text_rendering(self):
        code, out, _ = run_cli(
            [
                "sha",
                str(PROBLEMS / "biquadratic.json"),
                "--module",
                "I",
                "--degree",
                "1",
                "--omega",
                "--format",
                "text",
                "--no-timing",
            ]
        )
        assert code == 0
        assert "group: Z/2" in out
