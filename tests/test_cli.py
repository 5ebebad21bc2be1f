"""Command-line surface: dispatch, JSON schema, exit codes, byte stability.

Most checks call run_command in-process and capture stdout; one smoke test
runs the module entry point in a subprocess to cover argv plumbing end to
end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import textwrap
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rhocalc
from conftest import child_env
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
from rhocalc.errors import ConvergenceError, DomainError
from rhocalc.rho import RhoValue
from rhocalc.sl2z import SL2ZMatrix, UpperHalfPoint, random_hyperbolic, random_sl2z


def run_json(capsys, argv):
    code = run_command(list(argv) + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out), out


#: inputs within Python's int-to-str limit whose exact result, or whose
#: admissibility error, holds a number past it; C has 4,299 digits
C = 10**4298
PAST_STR_LIMIT = {
    "rho-circle-result": ["rho", "circle", "--degree", str(C), "--chern", "1"],
    "dedekind-classic-result": ["dedekind", "classic", "--a", "3", "--c", str(C)],
    "rho-torus-admissibility-message": [
        "rho", "torus", "--matrix", f"3,2,{C},{(1 + 2 * C) // 3}", "--nu", f"1/{'7' * 2000},1/{'3' * 2001}",
    ],
}


class TestParsing:
    def test_usage_error_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_command(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_usage_error_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_command(["rho", "torus"])
        assert exc.value.code == EXIT_USAGE

    def test_usage_error_malformed_rational(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_command(["rho", "circle", "--degree", "x", "--chern", "3"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()
        # --gauge-lambda and --x are the rational flags
        for argv in (
            ["rho", "torus", "--matrix", "0,-1,1,0", "--nu", "0,0", "--gauge-lambda", "1/0"],
            ["dedekind", "general", "--x", "banana", "--y", "0", "--a", "1", "--c", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                run_command(argv)
            assert exc.value.code == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == "" and "not a rational" in err, argv

    @pytest.mark.parametrize(
        "argv",
        [
            # no hyperbolic matrix has entries <= 1
            ["verify", "two-path", "--max-entry", "1"],
            # no SL2(Z) matrix has entries <= 0
            ["verify", "eta-transform", "--max-entry", "0"],
            ["verify", "eta-transform-gen", "--max-entry", "0"],
            # the eta suites cap --max-entry at 150 and 30, where their series
            # can pass: above, the log-eta series runs past max_terms (exit 3)
            ["verify", "eta-transform", "--count", "20", "--max-entry", "1000"],
            ["verify", "eta-transform", "--count", "20", "--max-entry", "10000"],
            ["verify", "eta-transform-gen", "--count", "20", "--max-entry", "1000"],
            ["verify", "eta-transform", "--max-entry", "151"],
            ["verify", "eta-transform", "--count", "5", "--max-entry", "10000000"],
            ["verify", "eta-transform-gen", "--max-entry", "31"],
            # random_sl2z draws about --max-entry candidates per matrix: capped at 10^4
            ["verify", "two-path", "--max-entry", "10001"],
            ["verify", "two-path", "--max-entry", str(10**300)],
            ["verify", "eta-transform", "--count", "-5"],
            ["verify", "eta-transform-gen", "--count", "-5"],
            ["verify", "two-path", "--count", "-5"],
            # (2n+1)^2 eigenvalues: the lattice cutoff is capped at 300
            ["spectrum", "torus", "--sigma", "0,1", "--nu", "0,0", "--max-norm", "-1"],
            ["spectrum", "torus", "--sigma", "0,1", "--nu", "0,0", "--max-norm", "301"],
            # the series controls exist only on the suites that read them
            ["rho", "circle", "--degree", "1", "--chern", "0", "--tail-tol", "1e-3"],
            ["verify", "eta-transform", "--count", "2", "--quad-tol", "1e-9"],
            ["verify", "eta-transform", "--count", "2", "--poisson-switch", "1"],
            ["verify", "eta-transform-gen", "--count", "2", "--quad-tol", "nan"],
            ["verify", "eta-transform-gen", "--count", "2", "--poisson-switch", "1"],
            # exactly one of --nu and --enumerate; lambda belongs to one class
            ["rho", "torus", "--matrix", "3,2,4,3"],
            ["rho", "torus", "--matrix", "3,2,4,3", "--enumerate", "--nu", "1/2,1/2"],
            ["rho", "torus", "--matrix", "0,-1,1,0", "--enumerate", "--gauge-lambda", "1/2"],
        ],
    )
    def test_usage_error_unsatisfiable_suite_sizes(self, argv):
        with pytest.raises(SystemExit) as exc:
            run_command(argv)
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("suite", ["eta-transform", "eta-transform-gen", "two-path"])
    def test_max_entry_cap_exits_before_sampling(self, capsys, monkeypatch, suite):
        import rhocalc.cli

        cap = {"eta-transform": 150, "eta-transform-gen": 30, "two-path": 10**4}[suite]

        def no_draw(*args):
            raise AssertionError("a matrix was drawn")

        monkeypatch.setattr(rhocalc.cli, "random_sl2z", no_draw)
        monkeypatch.setattr(rhocalc.cli, "random_hyperbolic", no_draw)
        with pytest.raises(SystemExit) as exc:
            run_command(["verify", suite, "--max-entry", str(cap + 1)])
        assert exc.value.code == EXIT_USAGE
        assert f"must be at most {cap}" in capsys.readouterr().err
        assert run_command(["verify", suite, "--count", "0", "--max-entry", str(cap)]) == EXIT_OK

    @pytest.mark.parametrize("flag", ["--tail-tol", "--quad-tol"])
    @pytest.mark.parametrize("value", ["0", "-1e-3"])
    def test_nonpositive_series_tolerance_is_a_domain_error(self, capsys, flag, value):
        assert run_command(["verify", "kronecker", "--sigma", "0,1", "--nu", "1/2,1/2", flag, value]) == EXIT_DOMAIN
        assert capsys.readouterr().out == ""

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
            # a nonzero nu1 whose q_z rounds to 1 in double precision
            (["verify", "kronecker", "--sigma", "0,1", "--nu", "1/100000000000000000000,0"], EXIT_DOMAIN),
            # and one just below 1, whose float is 1.0
            (["verify", "kronecker", "--sigma", "0,1", "--nu", "-1/100000000000000000000,0"], EXIT_DOMAIN),
            # below 1 but apart from it in float: (q_sigma/q_z)^n hardly decays
            (["verify", "kronecker", "--sigma", "0,1", "--nu", "-1/100000000,0"], EXIT_NUMERIC),
        ],
    )
    def test_non_finite_and_oversized_inputs_exit_cleanly(self, capsys, argv, code):
        assert run_command(argv) == code
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", PAST_STR_LIMIT.values(), ids=list(PAST_STR_LIMIT))
    def test_values_past_the_int_to_str_limit_exit_2(self, capsys, argv):
        assert run_command(argv) == EXIT_DOMAIN
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert f"more than {sys.get_int_max_str_digits()} digits" in err

    @pytest.mark.parametrize("nu", ["1/2,0", "1/3,1/2", "99/100,0"])
    def test_q_z_that_underflows_to_zero_ends_cleanly(self, capsys, nu):
        # 2 pi nu1 Im(sigma) > 745: q_z is 0.0 in double, while
        # q_sigma/q_z = e^{2 pi i (sigma - z)} is finite
        code = run_command(["verify", "kronecker", "--sigma", "0,400", "--nu", nu])
        assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_NUMERIC)
        assert "Traceback" not in capsys.readouterr().err

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
        # every flag takes a negative-leading value, not only a listed few
        code, doc, _ = run_json(capsys, ["dedekind", "general", "--x", "-1/3", "--y", "1/2", "--a", "3", "--c", "4"])
        assert code == EXIT_OK
        assert doc["inputs"]["x"] == "-1/3"
        code, doc, _ = run_json(
            capsys, ["rho", "torus", "--matrix", "0,-1,1,0", "--nu", "0,0", "--gauge-lambda", "-1/3"]
        )
        assert code == EXIT_OK
        assert doc["inputs"]["gauge_lambda"] == "-1/3"


SERIES_ARGV = ["--tail-tol", "1e-14", "--max-terms", "1000000"]
SERIES_INPUTS = {"tail_tol": 1e-14, "max_terms": 1000000}
QUAD_ARGV = [*SERIES_ARGV, "--quad-tol", "1e-9", "--poisson-switch", "1"]
QUAD_INPUTS = {**SERIES_INPUTS, "quad_tol": 1e-9, "poisson_switch": 1.0}
SUITE_INPUTS = {"count": 2, "max_entry": 20, "seed": 20260822}

# per subcommand: a valid argv that sets or defaults every argument, and
# the inputs it must echo, in canonical text
INPUTS_CASES = {
    "rho circle": (["--degree", "3", "--chern", "2"], {"degree": 3, "chern": 2, "trivial": False}),
    "rho torus": (
        ["--matrix", "0,-1,1,0", "--nu", "0,0", "--gauge-lambda", "5/2"],
        {"matrix": "0,-1,1,0", "nu": "0/1,0/1", "gauge_lambda": "5/2", "enumerate": False},
    ),
    "eta torus": (["--matrix", "2,1,1,1"], {"matrix": "2,1,1,1"}),
    "dedekind classic": (["--a", "3", "--c", "4"], {"a": 3, "c": 4}),
    "dedekind general": (
        ["--x", "2/4", "--y", "1/2", "--a", "3", "--c", "4"],
        {"x": "1/2", "y": "1/2", "a": 3, "c": 4},
    ),
    "moduli torus": (["--matrix", "1,3,0,1"], {"matrix": "1,3,0,1"}),
    "moduli circle": (["--genus", "2", "--degree", "3"], {"genus": 2, "degree": 3}),
    "spectrum torus": (["--sigma", "0,1", "--nu", "0,0"], {"sigma": "0.0,1.0", "nu": "0/1,0/1", "max_norm": 3}),
    "verify kronecker": (
        ["--sigma", "0,1", "--nu", "1/2,1/2", *QUAD_ARGV],
        {"sigma": "0.0,1.0", "nu": "1/2,1/2", **QUAD_INPUTS},
    ),
    "verify eta-transform": (["--count", "2", *SERIES_ARGV], {**SUITE_INPUTS, **SERIES_INPUTS}),
    "verify eta-transform-gen": (["--count", "2", *SERIES_ARGV], {**SUITE_INPUTS, **SERIES_INPUTS}),
    "verify two-path": (["--count", "2"], {**SUITE_INPUTS, "max_entry": 30}),
    "verify parabolic-circle": ([], {}),
}


def leaf_parsers():
    """Every subcommand parser of build_parser(), keyed "group target"."""

    def choices(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    return {
        f"{group} {target}": leaf
        for group, group_parser in choices(build_parser()).items()
        for target, leaf in choices(group_parser).items()
    }


class TestInputsEcho:
    def test_every_argument_is_echoed(self, capsys):
        leaves = leaf_parsers()
        assert set(leaves) == set(INPUTS_CASES)
        for subcommand, leaf in leaves.items():
            argv, echoed = INPUTS_CASES[subcommand]
            dests = {a.dest for a in leaf._actions} - {"help", "json"}
            assert set(echoed) == dests, subcommand
            code, doc, _ = run_json(capsys, subcommand.split() + argv)
            assert code == EXIT_OK, subcommand
            assert doc["inputs"] == {"subcommand": subcommand, **echoed}, subcommand

    def test_unset_optional_arguments_are_left_out(self, capsys):
        _, doc, _ = run_json(capsys, ["rho", "torus", "--matrix", "3,2,4,3", "--enumerate"])
        assert doc["inputs"] == {"subcommand": "rho torus", "matrix": "3,2,4,3", "enumerate": True}
        _, doc, _ = run_json(capsys, ["verify", "eta-transform", "--count", "2"])
        assert doc["inputs"] == {"subcommand": "verify eta-transform", **SUITE_INPUTS}


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

    @pytest.mark.parametrize("matrix,families", [("1,7,0,1", 7), ("-5,12,-3,7", 3)])
    def test_enumerate_one_normal_form_per_matrix(self, monkeypatch, capsys, matrix, families):
        # the class is kept on the matrix: the enumeration and rho_torus on
        # every family's class share one classification and normal form
        import rhocalc.sl2z

        calls = []
        real = rhocalc.sl2z.parabolic_normal_form

        def counting(mat):
            calls.append(mat)
            return real(mat)

        monkeypatch.setattr(rhocalc.sl2z, "parabolic_normal_form", counting)
        code, doc, _ = run_json(capsys, ["rho", "torus", "--matrix", matrix, "--enumerate"])
        assert code == EXIT_OK
        assert len([r for r in doc["results"] if r["name"].startswith("rho_torus[family")]) == families
        assert len(calls) == 1

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

    def test_dedekind_at_huge_modulus_is_fast(self, capsys):
        c = str(10**50 + 1)
        for argv in (
            ["dedekind", "classic", "--a", "3", "--c", c],
            ["dedekind", "general", "--x", "1/3", "--y", "2/7", "--a", "3", "--c", c],
        ):
            t0 = time.perf_counter()
            code, doc, _ = run_json(capsys, argv)
            assert code == EXIT_OK and time.perf_counter() - t0 < 1.0, argv
            assert F(doc["results"][0]["exact"]).denominator > 10**50

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

    def test_spectrum_torus_huge_nu(self, capsys):
        # nu1 = 10^400/3 overflows a float; it is reduced mod 1 first
        argv = ["spectrum", "torus", "--sigma", "0,1", "--max-norm", "1", "--nu"]
        code, huge, _ = run_json(capsys, argv + [f"{10**400}/3,0"])
        assert code == EXIT_OK
        _, small, _ = run_json(capsys, argv + ["1/3,0"])
        assert huge["results"] == small["results"]

    def test_spectrum_torus_huge_sigma1(self, capsys):
        # sigma1 = 1e17 = 1 (mod 3) is an integer: the lattice of sigma1 = 0,
        # with nu2 moved by -10^17/3 = 2/3 (mod 1)
        tail = ["--max-norm", "2"]
        code, huge, _ = run_json(capsys, ["spectrum", "torus", "--sigma", "1e17,1", "--nu", "1/3,0"] + tail)
        assert code == EXIT_OK
        _, zero, _ = run_json(capsys, ["spectrum", "torus", "--sigma", "0,1", "--nu", "1/3,2/3"] + tail)
        assert huge["results"] == zero["results"]

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

    def test_kronecker_at_huge_sigma1(self, capsys):
        # sigma1 = 1e300 is an even integer, so F_nu and E_nu equal those at
        # sigma1 = 0 with nu2 moved by an integer
        code, huge, _ = run_json(capsys, ["verify", "kronecker", "--sigma", "1e300,1", "--nu", "1/2,1/2"])
        assert code == EXIT_OK
        _, zero, _ = run_json(capsys, ["verify", "kronecker", "--sigma", "0,1", "--nu", "1/2,1/2"])
        assert huge["results"] == zero["results"]

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

    @pytest.mark.parametrize("suite", ["eta-transform", "eta-transform-gen"])
    def test_a_non_converging_draw_is_named_so_it_replays(self, capsys, suite):
        code = run_command(["verify", suite, "--count", "3", "--max-terms", "20"])
        out, err = capsys.readouterr()
        assert code == EXIT_NUMERIC and out == ""
        found = re.fullmatch(
            r"error: draw (\d+): M = (\S+), sigma = (\S+)(?:, g = (\S+), h = (\S+))?: (.*)\n", err
        )
        assert found, err
        draw, matrix, sigma, g, h, message = found.groups()
        assert int(draw) < 3 and (g is not None) == (suite == "eta-transform-gen")
        M = SL2ZMatrix(*map(int, matrix.split(",")))
        sp = UpperHalfPoint(*map(float, sigma.split(",")))
        params = rhocalc.SeriesParams(max_terms=20)
        with pytest.raises(ConvergenceError) as exc:
            if g is None:
                rhocalc.transform_defect(M, sp, params)
            else:
                rhocalc.transform_defect_gen(M, F(g), F(h), sp, params)
        assert str(exc.value) == message

    @pytest.mark.parametrize("suite", ["eta-transform", "eta-transform-gen"])
    def test_eta_suites_do_not_read_the_quadrature_tolerance(self, monkeypatch, capsys, suite):
        # no quadrature runs there, so RHO_CALC_TOL, even malformed, is not read
        monkeypatch.setenv("RHO_CALC_TOL", "banana")
        code, doc, _ = run_json(capsys, ["verify", suite, "--count", "2"])
        assert code == EXIT_OK
        assert doc["inputs"] == {"subcommand": f"verify {suite}", **SUITE_INPUTS}

    def test_failed_suite_exits_3_with_its_document(self, monkeypatch, capsys):
        # a planted disagreement between the two paths fails the suite
        real = rhocalc.rho.rho_hyperbolic_prep

        def off_by_one(mat, conn):
            value = real(mat, conn)
            return RhoValue(value.value + 1, value.branch)

        monkeypatch.setattr(rhocalc.rho, "rho_hyperbolic_prep", off_by_one)
        code, doc, _ = run_json(capsys, ["verify", "two-path", "--count", "3"])
        assert code == EXIT_NUMERIC
        by_name = {r["name"]: r for r in doc["results"]}
        assert by_name["mismatches"]["exact"] == by_name["pairs_checked"]["exact"] != "0/1"
        assert doc["diagnostics"]["achieved_tolerance"] is None


# flags of the fuzzed subcommands, by the kind of value each takes (None: a switch)
FUZZ_FLAGS = [
    ("rho circle", {"--degree": "int", "--chern": "int", "--trivial": None}),
    ("rho torus", {"--matrix": "matrix", "--nu": "pair", "--gauge-lambda": "rational"}),
    ("rho torus", {"--matrix": "matrix", "--enumerate": None}),
    ("eta torus", {"--matrix": "matrix"}),
    ("dedekind classic", {"--a": "modulus", "--c": "modulus"}),
    ("dedekind general", {"--x": "rational", "--y": "rational", "--a": "modulus", "--c": "modulus"}),
    ("moduli torus", {"--matrix": "matrix"}),
    ("moduli circle", {"--genus": "int", "--degree": "int"}),
    ("spectrum torus", {"--sigma": "sigma", "--nu": "pair", "--max-norm": "max_norm"}),
    ("verify parabolic-circle", {}),
    ("verify kronecker", {"--sigma": "sigma_kronecker", "--nu": "pair"}),
]
FOREIGN_FLAGS = sorted({flag for _, flags in FUZZ_FLAGS for flag in flags} | {"--json", "--tail-tol"})
FUZZ_JUNK = st.sampled_from(
    ["", " ", ",", "x", "-", "--", "-x", "1/0", "1/", "/2", "1/2/3", "1,2,3", "1,,2",
     "1.5", "-1.5", "1e400", "nan", "-inf", "0x10", "-1/3", "-2,1,1,-1", "1.5,0,0,1"]
)


def fuzz_values():
    """Well-formed values by kind.  Dedekind moduli and twists reach 10^50,
    since the sums cost O(log |c|); matrix entries stay within 10^3, since
    the enumeration lists |2 - tr M| classes."""
    small = st.integers(-1000, 1000)
    # about 10^e for e up to 50, so every size shows in a few hundred draws
    huge = st.builds(
        lambda e, k, sign: sign * (10**e + k), st.integers(0, 50), small, st.sampled_from((1, -1))
    )
    rational = st.builds(lambda p, q: f"{p}/{q}", small, st.integers(1, 50)) | small.map(str)
    any_rational = rational | st.builds(lambda p, q: f"{p}/{abs(q) or 1}", huge, huge)
    matrix = (
        st.sampled_from(["3,2,4,3", "-2,1,1,-1", "1,7,0,1", "-5,12,-3,7", "0,-1,1,0", "2,1,1,1", "1,0,0,1", "-1,0,0,-1"])
        | st.tuples(*[st.integers(-3, 3)] * 4).map(lambda t: ",".join(map(str, t)))
        | st.tuples(*[small] * 4).map(lambda t: ",".join(map(str, t)))
    )
    real = st.floats(-1e3, 1e3).map(repr) | st.sampled_from(["0", "1", "1e-300", "inf", "nan", "-0.5"])
    return {
        "int": small.map(str),
        "modulus": huge.map(str),
        "rational": rational,
        "pair": st.builds(lambda a, b: f"{a},{b}", any_rational, any_rational),
        "matrix": matrix,
        "sigma": st.builds(lambda a, b: f"{a},{b}", real, real),
        # Im(sigma) up to ~500, where q_z underflows to 0 for most nu1
        "sigma_kronecker": st.builds(lambda a, b: f"{a!r},{b!r}", st.floats(-2, 2), st.floats(0.5, 500)),
        "max_norm": st.sampled_from(["-1", "0", "1", "3", "301", "1.5"]),
    }


def rarely(draw, n: int) -> bool:
    """True about once in n draws (hypothesis favours the ends of a range)."""
    return draw(st.integers(0, n - 1)) == n // 2


@st.composite
def fuzz_argv(draw):
    values = fuzz_values()
    subcommand, own = draw(st.sampled_from(FUZZ_FLAGS))
    flags = [f for f in own if not rarely(draw, 10)]
    if rarely(draw, 5):
        flags.append(draw(st.sampled_from(FOREIGN_FLAGS)))  # a foreign or repeated flag
    argv = subcommand.split()
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        kind = own.get(flag, "int")
        if kind is None or rarely(draw, 20):
            continue  # a switch, or a value left out
        argv.append(draw(FUZZ_JUNK if rarely(draw, 4) else values[kind]))
    if rarely(draw, 20):
        argv.append(draw(FUZZ_JUNK))  # a stray token
    return argv


class TestArgvFuzz:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(argv=fuzz_argv())
    def test_every_argv_ends_in_a_documented_exit_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run_command(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_NUMERIC, EXIT_USAGE), (argv, code)
        if code in (EXIT_DOMAIN, EXIT_USAGE):
            assert out.getvalue() == "", argv
        assert "Traceback" not in err.getvalue()


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

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["rho", "torus", "--matrix", "1,-999,1,-998", "--enumerate", "--json"],
                "27b8f63fbc48505eb215b3d1df77272046b5ef5d3b7659a5984398afceddb7b1",
            ),
            (
                ["rho", "torus", "--matrix", "1,-999,1,-998", "--enumerate"],
                "cc7f21c4d950c1b52ba50723b5d34324f3c25ac3cc45adc251c83cfa136e3371",
            ),
            (
                ["moduli", "torus", "--matrix", "1,-999,1,-998", "--json"],
                "e7b1666a249108dd6b8096ea6f844d9c32b33e0114d337ea5e53ce0c31685317",
            ),
        ],
        ids=["rho-json", "rho-text", "moduli-json"],
    )
    def test_many_class_output_is_pinned(self, capsys, argv, digest):
        # 999 classes, sha256 of stdout as the enumeration that built
        # every record through the public constructor printed it
        assert run_command(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_documents_are_indent_2_sorted_json(self, capsys):
        # the C-encoder writer gives the bytes of json.dumps(indent=2, sort_keys=True)
        for argv in (
            ["rho", "torus", "--matrix", "3,2,4,3", "--enumerate"],
            ["rho", "torus", "--matrix", "1,7,0,1", "--enumerate"],
            ["moduli", "torus", "--matrix", "20,1,19,1"],
            ["verify", "kronecker", "--sigma", "0.1,1.2", "--nu", "1/2,1/3"],
            ["rho", "circle", "--degree", "3", "--chern", "6", "--trivial"],
        ):
            _, doc, out = run_json(capsys, argv)
            assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n", argv

    def test_writer_matches_json_dumps_on_any_shape(self):
        from rhocalc.cli import _json

        rng = random.Random(7)
        # strings that look like the row break, with and without a raw newline
        scalars = [None, True, False, 0, -3, 2.5, 1e300, float("nan"), "", "é", "}\n", "},\n      {", "a\"b"]

        def value(depth):
            pick = rng.random()
            if depth > 3 or pick < 0.4:
                return rng.choice(scalars)
            if pick < 0.7:
                return {rng.choice("abcdef"): value(depth + 1) for _ in range(rng.randint(0, 4))}
            items = [value(depth + 1) for _ in range(rng.randint(0, 4))]
            return tuple(items) if pick < 0.8 else items

        def rows():
            return [{rng.choice("abc"): value(4) for _ in range(rng.randint(0, 3))} for _ in range(rng.randint(1, 5))]

        shapes = [value(0) for _ in range(3000)] + [rows() for _ in range(500)] + [{"r": rows()} for _ in range(500)]
        for shape in shapes:
            assert _json(shape) == json.dumps(shape, indent=2, sort_keys=True), shape


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

    def test_environment_tolerance_is_echoed(self, monkeypatch, capsys):
        # it changes the results, so the document records it; without the
        # variable the document is as before
        argv = ["verify", "kronecker", "--sigma", "0,1", "--nu", "1/3,1/2"]
        monkeypatch.delenv("RHO_CALC_TOL", raising=False)
        code, plain, _ = run_json(capsys, argv)
        assert code == EXIT_OK
        assert "RHO_CALC_TOL" not in plain["inputs"]
        monkeypatch.setenv("RHO_CALC_TOL", "1e-3")
        code, loose, _ = run_json(capsys, argv)
        assert code == EXIT_OK
        assert loose["inputs"] == {**plain["inputs"], "RHO_CALC_TOL": 1e-3}
        assert loose["diagnostics"]["achieved_tolerance"] != plain["diagnostics"]["achieved_tolerance"]
        # an explicit --quad-tol wins and is the one echoed
        code, flagged, _ = run_json(capsys, argv + ["--quad-tol", "1e-9"])
        assert code == EXIT_OK
        assert "RHO_CALC_TOL" not in flagged["inputs"]
        assert flagged["inputs"]["quad_tol"] == 1e-9

    def test_flag_wins_over_environment(self, monkeypatch, capsys):
        # an explicit --quad-tol bypasses the env entirely, so even a
        # malformed RHO_CALC_TOL cannot break the invocation
        monkeypatch.setenv("RHO_CALC_TOL", "banana_ignored_when_flag_present")
        code = run_command(
            ["verify", "kronecker", "--sigma", "0,1", "--nu", "1/2,1/2", "--quad-tol", "1e-8"]
        )
        capsys.readouterr()
        assert code == EXIT_OK


#: modules that no exact command needs: the float layer and its
#: quadrature, numpy, scipy (which no path of the package loads), and
#: dataclasses and inspect
FLOAT_ONLY_MODULES = ("rhocalc.analytic", "rhocalc._quadrature", "numpy", "scipy", "dataclasses", "inspect")


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
        # a fresh interpreter, since this test session has loaded all of
        # FLOAT_ONLY_MODULES already
        script = textwrap.dedent(
            f"""
            import contextlib, io, json, sys

            import rhocalc
            from rhocalc import cli

            watched = {FLOAT_ONLY_MODULES!r}
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
            loaded = sorted(m for m in watched if m in sys.modules)
            floats = [
                ["verify", "kronecker", "--sigma", "0,1", "--nu", "1/2,1/2"],
                ["verify", "eta-transform", "--count", "3"],
                ["verify", "eta-transform-gen", "--count", "3"],
                ["spectrum", "torus", "--sigma", "0,1", "--nu", "1/3,0", "--max-norm", "2"],
            ]
            float_codes = []
            for argv in floats:
                with contextlib.redirect_stdout(io.StringIO()):
                    float_codes.append(cli.run_command(argv + ["--json"]))
            # the one float path that no command reaches
            from rhocalc import SL2ZMatrix, eta_untwisted_numeric, eta_untwisted_torus

            M = SL2ZMatrix(4, 1, 3, 1)
            eta = eta_untwisted_numeric(M) - float(eta_untwisted_torus(M))
            print(json.dumps({{
                "codes": codes,
                "loaded_by_exact": loaded,
                "float_codes": float_codes,
                "eta": eta,
                "loaded_after": sorted(m for m in watched if m in sys.modules),
            }}))
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
        assert out["float_codes"] == [EXIT_OK] * 4
        assert abs(out["eta"]) < 1e-6
        # the float layer runs on numpy alone: scipy is a test oracle only
        assert {"numpy", "rhocalc.analytic", "rhocalc._quadrature"} <= set(out["loaded_after"])
        assert "scipy" not in out["loaded_after"]

    def test_exact_cli_call_imports_no_float_module(self):
        # the whole import report of one exact call, interpreter start included
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "rhocalc", "eta", "torus", "--matrix", "2,1,1,1", "--json"],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env(),
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["results"][0]["exact"] == "0/1"
        imported = {
            line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")
        }
        assert "rhocalc.cli" in imported
        assert imported.isdisjoint(FLOAT_ONLY_MODULES)

    def test_closed_stdout_ends_without_a_traceback(self):
        # the reader closes its end before the document is written
        read_end, write_end = os.pipe()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rhocalc", "spectrum", "torus", "--sigma", "0,1", "--nu", "1/3,0",
             "--max-norm", "30", "--json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=child_env(),
        )
        os.close(write_end)
        os.close(read_end)
        _, err = proc.communicate(timeout=120)
        assert b"Traceback" not in err and b"Exception ignored" not in err, err
        assert proc.returncode == EXIT_OK

    def test_more_classes_than_the_cap_exit_2(self):
        # 10^8 classes would need hundreds of GB: the child's address space
        # is limited to 1 GiB, so a missing cap ends in a MemoryError
        def limit():
            import resource

            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        proc = subprocess.run(
            [sys.executable, "-m", "rhocalc", "moduli", "torus", "--matrix", "100000000,1,99999999,1"],
            capture_output=True,
            text=True,
            timeout=120,
            env=child_env(),
            preexec_fn=limit,
        )
        assert proc.returncode == EXIT_DOMAIN, proc.stderr
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert "99999999 classes" in proc.stderr


def readme_commands():
    """The lines of the sh block under README.md's "## Command line", as argv."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


class TestReadme:
    def test_command_line_block_runs(self, capsys):
        # a flag that is gone, or a value above a cap, fails here
        commands = readme_commands()
        assert len(commands) >= 14
        for argv in commands:
            assert argv[0] == "rhocalc", argv
            try:
                code, doc, _ = run_json(capsys, argv[1:])
            except SystemExit as exc:
                pytest.fail(f"{' '.join(argv)}: usage error {exc.code}: {capsys.readouterr().err}")
            assert code == EXIT_OK, argv
            assert doc["schema_version"] == SCHEMA_VERSION
            assert doc["inputs"]["subcommand"] == " ".join(argv[1:3]), argv


class TestParserHelp:
    def test_parser_builds_and_lists_groups(self):
        parser = build_parser()
        text = parser.format_help()
        for group in ("rho", "eta", "dedekind", "moduli", "spectrum", "verify"):
            assert group in text
