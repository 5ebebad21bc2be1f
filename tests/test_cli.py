"""Command-line surface: dispatch, JSON schema, exit codes, byte stability.

Most checks call run_command in-process and capture stdout; one smoke test
runs the module entry point in a subprocess to cover argv plumbing end to
end.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest

import rhocalc
from rhocalc.cli import (
    EXIT_DOMAIN,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    SCHEMA_VERSION,
    build_parser,
    main,
    run_command,
)
from rhocalc.errors import DomainError
from rhocalc.sl2z import random_hyperbolic, random_sl2z


def child_env():
    """The environment for a child interpreter that imports the same
    rhocalc as this session, also when pytest's pythonpath setting, not
    PYTHONPATH, put the source tree on the path."""
    src = os.path.dirname(os.path.dirname(rhocalc.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def run_json(capsys, argv):
    code = run_command(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out), out


class TestParsing:
    def test_usage_error_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_command(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_usage_error_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_command(["rho", "torus"])
        assert exc.value.code == EXIT_USAGE

    def test_usage_error_malformed_rational(self):
        with pytest.raises(SystemExit) as exc:
            run_command(["rho", "circle", "--degree", "x", "--chern", "3"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            # no hyperbolic matrix has entries <= 1
            ["verify", "two-path", "--max-entry", "1"],
            # no SL2(Z) matrix has entries <= 0
            ["verify", "eta-transform", "--max-entry", "0"],
            ["verify", "eta-transform-gen", "--max-entry", "0"],
            ["verify", "eta-transform", "--count", "-5"],
            ["verify", "eta-transform-gen", "--count", "-5"],
            ["verify", "two-path", "--count", "-5"],
            # (2n+1)^2 eigenvalues: the lattice cutoff is capped at 300
            ["spectrum", "torus", "--sigma", "0,1", "--nu", "0,0", "--max-norm", "-1"],
            ["spectrum", "torus", "--sigma", "0,1", "--nu", "0,0", "--max-norm", "301"],
            # the series controls exist only on the suites that read them
            ["rho", "circle", "--degree", "1", "--chern", "0", "--tail-tol", "1e-3"],
        ],
    )
    def test_usage_error_unsatisfiable_suite_sizes(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_command(argv)
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv,code",
        [
            # non-finite inputs, and results that overflow to inf or nan
            (["verify", "kronecker", "--sigma", "0,inf", "--nu", "1/2,1/2"], EXIT_DOMAIN),
            (["verify", "kronecker", "--sigma", "nan,1", "--nu", "1/2,1/2"], EXIT_DOMAIN),
            (["verify", "kronecker", "--sigma", "0,1", "--nu", "1/2,1/2", "--tail-tol", "nan"], EXIT_DOMAIN),
            (["verify", "kronecker", "--sigma", "0,1", "--nu", "1/2,1/2", "--quad-tol", "inf"], EXIT_DOMAIN),
            (["spectrum", "torus", "--sigma", "inf,1", "--nu", "0,0", "--json"], EXIT_DOMAIN),
            (["spectrum", "torus", "--sigma", "1e308,1e-308", "--nu", "0,0", "--json"], EXIT_DOMAIN),
            # ~4e150 lattice rows: over max_terms before anything is allocated
            (["verify", "kronecker", "--sigma", "0,1e-300", "--nu", "1/2,1/2"], EXIT_NUMERIC),
        ],
    )
    def test_non_finite_and_oversized_inputs_exit_cleanly(self, capsys, argv, code):
        assert run_command(argv) == code
        assert capsys.readouterr().out == ""

    def test_suite_size_minimums_are_satisfiable(self, capsys):
        for argv in (
            ["verify", "two-path", "--count", "3", "--max-entry", "2"],
            ["verify", "eta-transform", "--count", "3", "--max-entry", "1"],
            ["verify", "eta-transform-gen", "--count", "0"],
        ):
            code, _, _ = run_json(capsys, argv)
            assert code == EXIT_OK, argv
        rng = random.Random(0)
        with pytest.raises(DomainError):
            random_sl2z(rng, 0)
        with pytest.raises(DomainError):
            random_hyperbolic(rng, 1)

    def test_negative_leading_matrix_token(self, capsys):
        # "--matrix -2,1,1,-1" with the value as a separate argv token
        code, doc, _ = run_json(capsys, ["rho", "torus", "--matrix", "-2,1,1,-1", "--nu", "1/5,3/5"])
        assert code == EXIT_OK
        assert doc["inputs"]["matrix"] == "-2,1,1,-1"


class TestRhoCommands:
    def test_torus_single_value(self, capsys):
        code, doc, _ = run_json(capsys, ["rho", "torus", "--matrix", "-2,1,1,-1", "--nu", "1/5,3/5"])
        assert code == EXIT_OK
        assert doc["schema_version"] == SCHEMA_VERSION
        by_name = {r["name"]: r for r in doc["results"]}
        # what the closed six-term formula yields for this class
        assert by_name["rho_torus"]["exact"] == "-2/5"
        assert by_name["rho_torus"]["branch"] == "hyperbolic"
        assert by_name["cs_mod1"]["exact"] == "3/5"

    def test_torus_enumerate(self, capsys):
        code, doc, _ = run_json(capsys, ["rho", "torus", "--matrix", "3,2,4,3", "--enumerate"])
        assert code == EXIT_OK
        names = [r["name"] for r in doc["results"]]
        # four classes, each with a rho row and a CS row
        assert len([n for n in names if n.startswith("rho_torus[")]) == 4
        assert len([n for n in names if n.startswith("cs_mod1[")]) == 4
        by_name = {r["name"]: r for r in doc["results"]}
        assert by_name["rho_torus[1/2,1/2]"]["exact"] == "1/1"
        assert by_name["rho_torus[0/1,0/1]"]["branch"].startswith("out-of-scope")

    def test_circle_zero_degree(self, capsys):
        code, doc, _ = run_json(capsys, ["rho", "circle", "--degree", "0", "--chern", "3"])
        assert code == EXIT_OK
        assert doc["results"][0]["exact"] == "0/1"

    def test_circle_nontrivial_rows(self, capsys):
        code, doc, _ = run_json(capsys, ["rho", "circle", "--degree", "3", "--chern", "2"])
        assert code == EXIT_OK
        by_name = {r["name"]: r for r in doc["results"]}
        assert by_name["rho_circle"]["exact"] == "-1/3"
        assert by_name["eta_truncated"]["exact"] == "-1/3"
        assert by_name["dai_correction"]["exact"] == "0/1"

    def test_domain_error_exit_code(self):
        assert run_command(["rho", "torus", "--matrix", "1,0,0,2", "--nu", "0,0"]) == EXIT_DOMAIN
        assert run_command(["rho", "torus", "--matrix", "1,0,0,1", "--nu", "1/2,0"]) == EXIT_DOMAIN
        assert run_command(["rho", "torus", "--matrix", "3,2,4,3", "--nu", "0,0"]) == EXIT_DOMAIN
        assert run_command(["rho", "torus", "--matrix", "3,2,4,3", "--nu", "1/3,0"]) == EXIT_DOMAIN


class TestEtaAndDedekind:
    def test_eta_torus_elliptic(self, capsys):
        code, doc, _ = run_json(capsys, ["eta", "torus", "--matrix", "0,-1,1,1"])
        assert code == EXIT_OK
        assert doc["results"][0]["exact"] == "-4/3"

    @pytest.mark.parametrize("c", [1, -1])
    def test_eta_torus_huge_entries(self, capsys, c):
        # a 161-digit entry is beyond float(disc), a 400-digit one beyond any
        # float rendition of the value; s(a, +-1) = 0 leaves the closed form
        for digits in (161, 400):
            a, d = 10 ** (digits - 1) + 7, 5
            b = (a * d - 1) // c
            code = run_command(["eta", "torus", "--matrix", f"{a},{b},{c},{d}", "--json"])
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            expected = F(a + d, 3 * c) - (1 if c * (a + d) > 0 else -1)
            if digits == 161:
                assert code == EXIT_OK
            assert code in (EXIT_OK, EXIT_DOMAIN)
            if code == EXIT_OK:
                row = json.loads(captured.out)["results"][0]
                assert F(row["exact"]) == expected
                assert ("float" in row) == (digits == 161)

    def test_eta_torus_parabolic_rejected(self):
        assert run_command(["eta", "torus", "--matrix", "1,3,0,1"]) == EXIT_DOMAIN

    def test_dedekind_classic(self, capsys):
        code, doc, _ = run_json(capsys, ["dedekind", "classic", "--a", "3", "--c", "4"])
        assert code == EXIT_OK
        assert doc["results"][0]["exact"] == "-1/8"

    def test_dedekind_general(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["dedekind", "general", "--x", "1/2", "--y", "1/2", "--a", "3", "--c", "4"],
        )
        assert code == EXIT_OK
        assert doc["results"][0]["exact"] == "-5/16"

    def test_dedekind_rejects_non_coprime(self):
        assert run_command(["dedekind", "classic", "--a", "2", "--c", "4"]) == EXIT_DOMAIN


class TestModuliAndSpectrum:
    def test_moduli_torus_lists_enumeration(self, capsys):
        code, doc, _ = run_json(capsys, ["moduli", "torus", "--matrix", "-2,1,1,-1"])
        assert code == EXIT_OK
        by_name = {r["name"]: r for r in doc["results"]}
        assert by_name["isolated_count"]["exact"] == "5/1"
        from rhocalc import SL2ZMatrix, enumerate_torus_connections

        mod = enumerate_torus_connections(SL2ZMatrix(-2, 1, 1, -1))
        listed = set()
        for i in range(5):
            listed.add(
                (by_name[f"conn[{i}].nu1"]["exact"], by_name[f"conn[{i}].nu2"]["exact"])
            )
        expected = {
            (f"{c.nu[0].numerator}/{c.nu[0].denominator}", f"{c.nu[1].numerator}/{c.nu[1].denominator}")
            for c in mod.isolated
        }
        assert listed == expected

    def test_moduli_torus_parabolic_families(self, capsys):
        code, doc, _ = run_json(capsys, ["moduli", "torus", "--matrix", "1,3,0,1"])
        assert code == EXIT_OK
        fam_rows = [r for r in doc["results"] if r["name"].startswith("family[")]
        assert len(fam_rows) == 3
        assert all("nu2-free" in r["branch"] for r in fam_rows)

    def test_moduli_circle(self, capsys):
        code, doc, _ = run_json(capsys, ["moduli", "circle", "--genus", "2", "--degree", "3"])
        assert code == EXIT_OK
        by_name = {r["name"]: r for r in doc["results"]}
        assert by_name["torus_rank"]["exact"] == "4/1"
        assert by_name["torsion_order"]["exact"] == "3/1"

    def test_spectrum_torus(self, capsys):
        code, doc, _ = run_json(
            capsys, ["spectrum", "torus", "--sigma", "0,1", "--nu", "0,0", "--max-norm", "2"]
        )
        assert code == EXIT_OK
        rows = doc["results"]
        assert rows[0]["float"] == 0.0
        assert rows[0]["branch"] == "multiplicity=2"
        assert abs(rows[1]["float"] - 39.47841760435743) < 1e-9
        assert rows[1]["branch"] == "multiplicity=8"


class TestVerify:
    def test_kronecker_success(self, capsys):
        code, doc, _ = run_json(capsys, ["verify", "kronecker", "--sigma", "0,1", "--nu", "1/2,1/2"])
        assert code == EXIT_OK
        assert doc["diagnostics"]["achieved_tolerance"] < 1e-6

    def test_eta_transform_suites(self, capsys):
        code, doc, _ = run_json(capsys, ["verify", "eta-transform", "--count", "5"])
        assert code == EXIT_OK
        assert doc["diagnostics"]["achieved_tolerance"] < 1e-9
        code, doc, _ = run_json(capsys, ["verify", "eta-transform-gen", "--count", "5"])
        assert code == EXIT_OK
        assert doc["diagnostics"]["achieved_tolerance"] < 1e-8

    def test_two_path_and_parabolic_circle(self, capsys):
        code, doc, _ = run_json(capsys, ["verify", "two-path", "--count", "10"])
        assert code == EXIT_OK
        by_name = {r["name"]: r for r in doc["results"]}
        assert by_name["mismatches"]["exact"] == "0/1"
        code, doc, _ = run_json(capsys, ["verify", "parabolic-circle"])
        assert code == EXIT_OK
        by_name = {r["name"]: r for r in doc["results"]}
        assert by_name["mismatches"]["exact"] == "0/1"


class TestByteStability:
    def test_same_bytes_across_runs(self, capsys):
        argvs = [
            ["rho", "torus", "--matrix", "3,2,4,3", "--enumerate"],
            ["moduli", "torus", "--matrix", "-2,1,1,-1"],
            ["verify", "eta-transform", "--count", "3"],
        ]
        for argv in argvs:
            _, _, first = run_json(capsys, argv)
            _, _, second = run_json(capsys, argv)
            assert first == second, argv


class TestEnvironmentTolerance:
    def test_invalid_tolerance_rejected(self, monkeypatch):
        monkeypatch.setenv("RHO_CALC_TOL", "banana")
        assert (
            run_command(["verify", "kronecker", "--sigma", "0,1", "--nu", "1/2,1/2"])
            == EXIT_DOMAIN
        )

    def test_valid_tolerance_accepted(self, monkeypatch, capsys):
        monkeypatch.setenv("RHO_CALC_TOL", "1e-8")
        code, doc, _ = run_json(capsys, ["verify", "kronecker", "--sigma", "0,1", "--nu", "1/3,2/3"])
        assert code == EXIT_OK

    def test_flag_wins_over_environment(self, monkeypatch, capsys):
        # an explicit --quad-tol bypasses the env entirely, so even a
        # malformed RHO_CALC_TOL cannot break the invocation
        monkeypatch.setenv("RHO_CALC_TOL", "banana_ignored_when_flag_present")
        code = run_command(
            ["verify", "kronecker", "--sigma", "0,1", "--nu", "1/2,1/2", "--quad-tol", "1e-8"]
        )
        capsys.readouterr()
        assert code == EXIT_OK


class TestSubprocessSmoke:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rhocalc", "rho", "circle", "--degree", "0", "--chern", "3", "--json"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["results"][0]["exact"] == "0/1"

    def test_main_callable_directly(self, capsys):
        assert main(["rho", "circle", "--degree", "0", "--chern", "3"]) == EXIT_OK
        capsys.readouterr()

    def test_exact_commands_load_neither_numpy_nor_scipy(self):
        # a fresh interpreter, since this test session has loaded both already
        script = textwrap.dedent(
            """
            import contextlib, io, json, sys

            import rhocalc
            from rhocalc import cli

            exact = [
                ["rho", "circle", "--degree", "3", "--chern", "2"],
                ["rho", "torus", "--matrix", "3,2,4,3", "--enumerate"],
                ["eta", "torus", "--matrix", "2,1,1,1"],
                ["dedekind", "classic", "--a", "3", "--c", "4"],
                ["dedekind", "general", "--x", "1/2", "--y", "1/2", "--a", "3", "--c", "4"],
                ["moduli", "torus", "--matrix", "1,3,0,1"],
                ["moduli", "circle", "--genus", "2", "--degree", "3"],
                ["verify", "two-path", "--count", "20"],
                ["verify", "parabolic-circle"],
            ]
            codes = []
            for argv in exact:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(cli.run_command(argv + ["--json"]))
            loaded = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
            with contextlib.redirect_stdout(io.StringIO()):
                kronecker = cli.run_command(
                    ["verify", "kronecker", "--sigma", "0,1", "--nu", "1/2,1/2", "--json"]
                )
            print(json.dumps({
                "codes": codes,
                "loaded_by_exact": loaded,
                "kronecker": kronecker,
                "loaded_after": sorted(m for m in ("numpy", "scipy") if m in sys.modules),
            }))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["codes"] == [EXIT_OK] * 9
        assert out["loaded_by_exact"] == []
        assert out["kronecker"] == EXIT_OK
        assert out["loaded_after"] == ["numpy", "scipy"]


class TestParserHelp:
    def test_parser_builds_and_lists_groups(self):
        parser = build_parser()
        text = parser.format_help()
        for group in ("rho", "eta", "dedekind", "moduli", "spectrum", "verify"):
            assert group in text
