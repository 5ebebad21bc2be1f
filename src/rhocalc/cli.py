"""Command-line surface: invariants, moduli listings, verification suites.

Output is either an aligned text table or a JSON ResultDocument with
schema_version "1" (see docs/result_schema.md).  Exact rationals are
serialized canonically as "p/q" with q > 0, floats as their shortest
round-trip decimal, so JSON output is byte-stable across runs.

Exit codes: 0 success, 2 domain or admissibility error (a non-finite
float among the inputs or the results included), 3 numeric
non-convergence or a verification suite missing its tolerance, 64 usage.
The environment variable RHO_CALC_TOL overrides the default quadrature
tolerance; explicit flags win over the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import analytic, dedekind, moduli, rho
from .analytic import SeriesParams
from .errors import ConvergenceError, DomainError
from .sl2z import SL2ZMatrix, UpperHalfPoint, random_hyperbolic, random_sl2z

__all__ = ["main", "run_command"]

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

KRONECKER_TOL = 1e-6
ETA_TRANSFORM_TOL = 1e-9
ETA_TRANSFORM_GEN_TOL = 1e-8

_VALUE_FLAGS = {
    "--matrix",
    "--nu",
    "--sigma",
    "--gauge-lambda",
    "--x",
    "--y",
    "--a",
    "--c",
    "--degree",
    "--chern",
    "--genus",
}


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 64."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational 'p/q': {text!r}") from exc


def _parse_rational_pair(text: str) -> Tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'p/q,p/q': {text!r}")
    return _parse_rational(parts[0]), _parse_rational(parts[1])


def _parse_matrix(text: str) -> Tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected 'a,b,c,d': {text!r}")
    try:
        a, b, c, d = (int(p.strip()) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"matrix entries must be integers: {text!r}") from exc
    return a, b, c, d


def _parse_sigma(text: str) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 're,im': {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"sigma components must be reals: {text!r}") from exc


def _bounded_int(minimum: int, maximum: Optional[int] = None) -> Callable[[str], int]:
    """argparse type for an integer flag in [minimum, maximum] (no cap if None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"expected an integer: {text!r}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


def _exact_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _entry(
    name: str,
    exact: Optional[Fraction] = None,
    float_value: Union[float, Fraction, None] = None,
    branch: Optional[str] = None,
) -> Dict[str, object]:
    row: Dict[str, object] = {"name": name}
    if exact is not None:
        row["exact"] = _exact_str(exact)
    if float_value is not None:
        try:
            row["float"] = float(float_value)
        except OverflowError:
            pass  # an exact value beyond double range has no float rendition
        else:
            if not math.isfinite(row["float"]):
                raise DomainError(f"{name} is not finite: {row['float']}")
    if branch is not None:
        row["branch"] = branch
    return row


def _document(
    inputs: Dict[str, object],
    results: List[Dict[str, object]],
    terms_used: int = 0,
    achieved_tolerance: Optional[float] = None,
) -> Dict[str, object]:
    return {
        "schema_version": SCHEMA_VERSION,
        "inputs": inputs,
        "results": results,
        "diagnostics": {
            "terms_used": terms_used,
            "achieved_tolerance": achieved_tolerance,
        },
    }


def _emit(doc: Dict[str, object], as_json: bool) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    rows = doc["results"]
    print(f"{'name':<40} {'exact':<14} {'float':<24} branch")
    for row in rows:
        exact = row.get("exact", "-")
        fval = repr(row["float"]) if "float" in row else "-"
        branch = row.get("branch", "-")
        print(f"{row['name']:<40} {exact:<14} {fval:<24} {branch}")
    diag = doc["diagnostics"]
    print(
        f"diagnostics: terms_used={diag['terms_used']} "
        f"achieved_tolerance={diag['achieved_tolerance']}"
    )


def _series_params(args: argparse.Namespace) -> SeriesParams:
    quad_tol = 1e-9
    if args.quad_tol is not None:
        quad_tol = args.quad_tol
    else:
        env = os.environ.get("RHO_CALC_TOL")
        if env is not None:
            try:
                quad_tol = float(env)
            except ValueError:
                raise DomainError(
                    f"RHO_CALC_TOL must be a positive real, got {env!r}"
                )
    kwargs = {"quad_tolerance": quad_tol}
    if args.tail_tol is not None:
        kwargs["tail_tolerance"] = args.tail_tol
    if args.max_terms is not None:
        kwargs["max_terms"] = args.max_terms
    if args.poisson_switch is not None:
        kwargs["poisson_switch_u"] = args.poisson_switch
    return SeriesParams(**kwargs)


def _matrix(args: argparse.Namespace) -> SL2ZMatrix:
    a, b, c, d = args.matrix
    return SL2ZMatrix(a, b, c, d)


def _sigma_point(args: argparse.Namespace) -> UpperHalfPoint:
    re, im = args.sigma
    return UpperHalfPoint(re, im)


# -- subcommand implementations --------------------------------------------


def _cmd_rho_circle(args: argparse.Namespace) -> int:
    conn = moduli.CircleFlatConnection(args.degree, args.chern, args.trivial)
    value = rho.rho_circle(conn)
    results = [
        _entry("rho_circle", exact=value.value, float_value=value.value, branch=value.branch.value)
    ]
    if args.degree != 0:
        results.append(
            _entry("eta_truncated", exact=rho.eta_truncated_circle(conn), branch=value.branch.value)
        )
        results.append(
            _entry(
                "dai_correction",
                exact=Fraction(rho.dai_correction_circle(args.degree, args.trivial)),
            )
        )
    inputs = {"subcommand": "rho circle", "degree": args.degree, "chern": args.chern, "trivial": args.trivial}
    _emit(_document(inputs, results), args.json)
    return EXIT_OK


def _family_connection(M: SL2ZMatrix, nu1_prime: Fraction) -> moduli.TorusFlatConnection:
    # generic representative of a parabolic family: nu2' = 1/2 keeps it twisted
    nu = moduli.transport_nu_from_normal_form(M, (nu1_prime, Fraction(1, 2)))
    return moduli.connection_from_nu(M, nu)


def _cmd_rho_torus(args: argparse.Namespace) -> int:
    M = _matrix(args)
    inputs: Dict[str, object] = {
        "subcommand": "rho torus",
        "matrix": ",".join(str(x) for x in args.matrix),
    }
    results: List[Dict[str, object]] = []
    if args.enumerate:
        inputs["enumerate"] = True
        mod = moduli.enumerate_torus_connections(M)
        for conn in mod.isolated:
            tag = f"{_exact_str(conn.nu[0])},{_exact_str(conn.nu[1])}"
            try:
                value = rho.rho_torus(M, conn)
                results.append(
                    _entry(
                        f"rho_torus[{tag}]",
                        exact=value.value,
                        float_value=value.value,
                        branch=value.branch.value,
                    )
                )
            except DomainError as exc:
                results.append({"name": f"rho_torus[{tag}]", "branch": f"out-of-scope: {exc}"})
            results.append(_entry(f"cs_mod1[{tag}]", exact=rho.chern_simons_mod1(M, conn)))
        for family in mod.families:
            conn = _family_connection(M, family.nu1)
            value = rho.rho_torus(M, conn)
            tag = f"family nu1'={_exact_str(family.nu1)}"
            results.append(
                _entry(
                    f"rho_torus[{tag}]",
                    exact=value.value,
                    float_value=value.value,
                    branch=value.branch.value + " (nu2 free)",
                )
            )
            results.append(_entry(f"cs_mod1[{tag}]", exact=rho.chern_simons_mod1(M, conn)))
    else:
        if args.nu is None:
            raise DomainError("rho torus needs --nu or --enumerate")
        inputs["nu"] = f"{_exact_str(args.nu[0])},{_exact_str(args.nu[1])}"
        if args.gauge_lambda is not None:
            inputs["gauge_lambda"] = _exact_str(args.gauge_lambda)
        conn = moduli.connection_from_nu(M, args.nu, gauge_lambda=args.gauge_lambda)
        value = rho.rho_torus(M, conn)
        results.append(
            _entry("rho_torus", exact=value.value, float_value=value.value, branch=value.branch.value)
        )
        results.append(_entry("cs_mod1", exact=rho.chern_simons_mod1(M, conn)))
    _emit(_document(inputs, results), args.json)
    return EXIT_OK


def _cmd_eta_torus(args: argparse.Namespace) -> int:
    M = _matrix(args)
    value = rho.eta_untwisted_torus(M)
    inputs = {"subcommand": "eta torus", "matrix": ",".join(str(x) for x in args.matrix)}
    _emit(_document(inputs, [_entry("eta_untwisted", exact=value, float_value=value)]), args.json)
    return EXIT_OK


def _cmd_dedekind_classic(args: argparse.Namespace) -> int:
    value = dedekind.classical_sum(args.a, args.c)
    inputs = {"subcommand": "dedekind classic", "a": args.a, "c": args.c}
    _emit(_document(inputs, [_entry("classical_sum", exact=value, float_value=value)]), args.json)
    return EXIT_OK


def _cmd_dedekind_general(args: argparse.Namespace) -> int:
    value = dedekind.generalized_sum(args.x, args.y, args.a, args.c)
    inputs = {
        "subcommand": "dedekind general",
        "x": _exact_str(args.x),
        "y": _exact_str(args.y),
        "a": args.a,
        "c": args.c,
    }
    _emit(_document(inputs, [_entry("generalized_sum", exact=value, float_value=value)]), args.json)
    return EXIT_OK


def _cmd_moduli_torus(args: argparse.Namespace) -> int:
    M = _matrix(args)
    mod = moduli.enumerate_torus_connections(M)
    results: List[Dict[str, object]] = [
        _entry("isolated_count", exact=Fraction(len(mod.isolated)))
    ]
    for i, conn in enumerate(mod.isolated):
        results.append(_entry(f"conn[{i}].nu1", exact=conn.nu[0], branch="isolated"))
        results.append(_entry(f"conn[{i}].nu2", exact=conn.nu[1], branch="isolated"))
        results.append(_entry(f"conn[{i}].m1", exact=Fraction(conn.m[0])))
        results.append(_entry(f"conn[{i}].m2", exact=Fraction(conn.m[1])))
    for j, family in enumerate(mod.families):
        results.append(
            _entry(f"family[{j}].nu1", exact=family.nu1, branch="nu2-free (normal-form coordinates)")
        )
    inputs = {"subcommand": "moduli torus", "matrix": ",".join(str(x) for x in args.matrix)}
    _emit(_document(inputs, results), args.json)
    return EXIT_OK


def _cmd_moduli_circle(args: argparse.Namespace) -> int:
    summary = moduli.circle_moduli_summary(args.genus, args.degree)
    results = [
        _entry("torus_rank", exact=Fraction(summary.torus_rank)),
        _entry("torsion_order", exact=Fraction(summary.torsion_order)),
    ]
    inputs = {"subcommand": "moduli circle", "genus": args.genus, "degree": args.degree}
    _emit(_document(inputs, results), args.json)
    return EXIT_OK


def _cmd_spectrum_torus(args: argparse.Namespace) -> int:
    sigma = _sigma_point(args)
    spectrum = analytic.torus_spectrum(sigma, args.nu, args.max_norm)
    results = [
        _entry(f"eig[{i}]", float_value=lam, branch=f"multiplicity={mult}")
        for i, (lam, mult) in enumerate(spectrum)
    ]
    inputs = {
        "subcommand": "spectrum torus",
        "sigma": f"{sigma.sigma1},{sigma.sigma2}",
        "nu": f"{_exact_str(args.nu[0])},{_exact_str(args.nu[1])}",
        "max_norm": args.max_norm,
    }
    count = (2 * args.max_norm + 1) ** 2
    _emit(_document(inputs, results, terms_used=count), args.json)
    return EXIT_OK


def _cmd_verify_kronecker(args: argparse.Namespace) -> int:
    params = _series_params(args)
    sigma = _sigma_point(args)
    integral, info = analytic.kronecker_integral_info(sigma, args.nu, params)
    closed = analytic.kronecker_closed(sigma, args.nu, params)
    diff = abs(integral.as_complex() - closed.as_complex())
    results = [
        _entry("kronecker_integral.re", float_value=integral.re),
        _entry("kronecker_integral.im", float_value=integral.im),
        _entry("kronecker_closed.re", float_value=closed.re),
        _entry("kronecker_closed.im", float_value=closed.im),
        _entry("abs_difference", float_value=diff),
    ]
    inputs = {
        "subcommand": "verify kronecker",
        "sigma": f"{sigma.sigma1},{sigma.sigma2}",
        "nu": f"{_exact_str(args.nu[0])},{_exact_str(args.nu[1])}",
    }
    _emit(
        _document(inputs, results, terms_used=int(info["neval"]), achieved_tolerance=diff),
        args.json,
    )
    return EXIT_OK if diff < KRONECKER_TOL else EXIT_NUMERIC


def _cmd_verify_eta_transform(args: argparse.Namespace) -> int:
    params = _series_params(args)
    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(args.count):
        while True:
            M = random_sl2z(rng, args.max_entry)
            if M.c != 0:
                break
        sigma = UpperHalfPoint(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        defect = analytic.transform_defect(M, sigma, params)
        worst = max(worst, abs(defect.as_complex()))
    results = [
        _entry("count", exact=Fraction(args.count)),
        _entry("max_defect", float_value=worst),
    ]
    inputs = {"subcommand": "verify eta-transform", "count": args.count, "seed": args.seed}
    _emit(_document(inputs, results, achieved_tolerance=worst), args.json)
    return EXIT_OK if worst < ETA_TRANSFORM_TOL else EXIT_NUMERIC


def _cmd_verify_eta_transform_gen(args: argparse.Namespace) -> int:
    params = _series_params(args)
    rng = random.Random(args.seed)
    worst = 0.0
    for _ in range(args.count):
        while True:
            M = random_sl2z(rng, args.max_entry)
            if M.c != 0:
                break
        while True:
            g = Fraction(rng.randint(0, 11), rng.randint(1, 12))
            h = Fraction(rng.randint(-11, 11), rng.randint(1, 12))
            if g.denominator != 1 or h.denominator != 1:
                break
        sigma = UpperHalfPoint(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        defect = analytic.transform_defect_gen(M, g, h, sigma, params)
        worst = max(worst, abs(defect.as_complex()))
    results = [
        _entry("count", exact=Fraction(args.count)),
        _entry("max_defect", float_value=worst),
    ]
    inputs = {"subcommand": "verify eta-transform-gen", "count": args.count, "seed": args.seed}
    _emit(_document(inputs, results, achieved_tolerance=worst), args.json)
    return EXIT_OK if worst < ETA_TRANSFORM_GEN_TOL else EXIT_NUMERIC


def _cmd_verify_two_path(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    checked = 0
    mismatches = 0
    for _ in range(args.count):
        M = random_hyperbolic(rng, args.max_entry)
        for conn in moduli.enumerate_torus_connections(M).isolated:
            if conn.restriction_trivial:
                continue
            direct = rho.rho_torus(M, conn).value
            prep = rho.rho_hyperbolic_prep(M, conn).value
            checked += 1
            if direct != prep:
                mismatches += 1
    results = [
        _entry("pairs_checked", exact=Fraction(checked)),
        _entry("mismatches", exact=Fraction(mismatches)),
    ]
    inputs = {
        "subcommand": "verify two-path",
        "count": args.count,
        "max_entry": args.max_entry,
        "seed": args.seed,
    }
    _emit(_document(inputs, results, achieved_tolerance=0.0 if mismatches == 0 else None), args.json)
    return EXIT_OK if mismatches == 0 else EXIT_NUMERIC


def _cmd_verify_parabolic_circle(args: argparse.Namespace) -> int:
    checked = 0
    mismatches = 0
    for l in range(-12, 13):
        if l == 0:
            continue
        M = SL2ZMatrix(1, l, 0, 1)
        for k in range(abs(l)):
            conn = moduli.connection_from_nu(M, (Fraction(k, l), Fraction(1, 2)))
            torus_value = rho.rho_torus(M, conn).value
            circle_value = rho.rho_circle(moduli.CircleFlatConnection(l, k)).value
            checked += 1
            if torus_value != circle_value:
                mismatches += 1
    results = [
        _entry("pairs_checked", exact=Fraction(checked)),
        _entry("mismatches", exact=Fraction(mismatches)),
    ]
    inputs = {"subcommand": "verify parabolic-circle"}
    _emit(_document(inputs, results, achieved_tolerance=0.0 if mismatches == 0 else None), args.json)
    return EXIT_OK if mismatches == 0 else EXIT_NUMERIC


# -- parser wiring ----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit a JSON ResultDocument")


def _add_series(parser: argparse.ArgumentParser) -> None:
    """--json plus the series controls that _series_params reads."""
    _add_common(parser)
    parser.add_argument("--tail-tol", type=float, default=None, help="series tail tolerance")
    parser.add_argument("--max-terms", type=int, default=None, help="series term cap")
    parser.add_argument("--quad-tol", type=float, default=None, help="quadrature tolerance")
    parser.add_argument("--poisson-switch", type=float, default=None, help="u below which the Poisson form is used")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rhocalc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    top = parser.add_subparsers(dest="command", required=True)

    p_rho = top.add_parser("rho", help="rho invariants")
    rho_sub = p_rho.add_subparsers(dest="target", required=True)
    p_rc = rho_sub.add_parser("circle", help="circle bundle over a surface")
    p_rc.add_argument("--degree", type=int, required=True)
    p_rc.add_argument("--chern", type=int, required=True)
    p_rc.add_argument("--trivial", action="store_true", help="use the trivial connection")
    _add_common(p_rc)
    p_rc.set_defaults(func=_cmd_rho_circle)
    p_rt = rho_sub.add_parser("torus", help="torus mapping torus")
    p_rt.add_argument("--matrix", type=_parse_matrix, required=True)
    p_rt.add_argument("--nu", type=_parse_rational_pair, default=None)
    p_rt.add_argument("--gauge-lambda", type=_parse_rational, default=None)
    p_rt.add_argument("--enumerate", action="store_true", help="all flat classes at once")
    _add_common(p_rt)
    p_rt.set_defaults(func=_cmd_rho_torus)

    p_eta = top.add_parser("eta", help="untwisted eta invariants")
    eta_sub = p_eta.add_subparsers(dest="target", required=True)
    p_et = eta_sub.add_parser("torus")
    p_et.add_argument("--matrix", type=_parse_matrix, required=True)
    _add_common(p_et)
    p_et.set_defaults(func=_cmd_eta_torus)

    p_ded = top.add_parser("dedekind", help="Dedekind sums")
    ded_sub = p_ded.add_subparsers(dest="target", required=True)
    p_dc = ded_sub.add_parser("classic")
    p_dc.add_argument("--a", type=int, required=True)
    p_dc.add_argument("--c", type=int, required=True)
    _add_common(p_dc)
    p_dc.set_defaults(func=_cmd_dedekind_classic)
    p_dg = ded_sub.add_parser("general")
    p_dg.add_argument("--x", type=_parse_rational, required=True)
    p_dg.add_argument("--y", type=_parse_rational, required=True)
    p_dg.add_argument("--a", type=int, required=True)
    p_dg.add_argument("--c", type=int, required=True)
    _add_common(p_dg)
    p_dg.set_defaults(func=_cmd_dedekind_general)

    p_mod = top.add_parser("moduli", help="flat connection moduli")
    mod_sub = p_mod.add_subparsers(dest="target", required=True)
    p_mt = mod_sub.add_parser("torus")
    p_mt.add_argument("--matrix", type=_parse_matrix, required=True)
    _add_common(p_mt)
    p_mt.set_defaults(func=_cmd_moduli_torus)
    p_mc = mod_sub.add_parser("circle")
    p_mc.add_argument("--genus", type=int, required=True)
    p_mc.add_argument("--degree", type=int, required=True)
    _add_common(p_mc)
    p_mc.set_defaults(func=_cmd_moduli_circle)

    p_spectrum = top.add_parser("spectrum", help="flat-torus Laplace spectrum")
    spectrum_sub = p_spectrum.add_subparsers(dest="target", required=True)
    p_st = spectrum_sub.add_parser("torus")
    p_st.add_argument("--sigma", type=_parse_sigma, required=True)
    p_st.add_argument("--nu", type=_parse_rational_pair, required=True)
    # (2n+1)^2 lattice eigenvalues: n = 300 already takes about half a second
    p_st.add_argument("--max-norm", type=_bounded_int(0, 300), default=3)
    _add_common(p_st)
    p_st.set_defaults(func=_cmd_spectrum_torus)

    p_ver = top.add_parser("verify", help="numerical verification suites")
    ver_sub = p_ver.add_subparsers(dest="target", required=True)
    p_vk = ver_sub.add_parser("kronecker")
    p_vk.add_argument("--sigma", type=_parse_sigma, required=True)
    p_vk.add_argument("--nu", type=_parse_rational_pair, required=True)
    _add_series(p_vk)
    p_vk.set_defaults(func=_cmd_verify_kronecker)
    p_ve = ver_sub.add_parser("eta-transform")
    p_ve.add_argument("--count", type=_bounded_int(0), default=100)
    p_ve.add_argument("--max-entry", type=_bounded_int(1), default=20)
    p_ve.add_argument("--seed", type=int, default=20260822)
    _add_series(p_ve)
    p_ve.set_defaults(func=_cmd_verify_eta_transform)
    p_vg = ver_sub.add_parser("eta-transform-gen")
    p_vg.add_argument("--count", type=_bounded_int(0), default=100)
    p_vg.add_argument("--max-entry", type=_bounded_int(1), default=20)
    p_vg.add_argument("--seed", type=int, default=20260822)
    _add_series(p_vg)
    p_vg.set_defaults(func=_cmd_verify_eta_transform_gen)
    p_vt = ver_sub.add_parser("two-path")
    p_vt.add_argument("--count", type=_bounded_int(0), default=500)
    # the smallest hyperbolic matrices, such as [[2, 1], [1, 1]], need entries up to 2
    p_vt.add_argument("--max-entry", type=_bounded_int(2), default=30)
    p_vt.add_argument("--seed", type=int, default=20260822)
    _add_common(p_vt)
    p_vt.set_defaults(func=_cmd_verify_two_path)
    p_vp = ver_sub.add_parser("parabolic-circle")
    _add_common(p_vp)
    p_vp.set_defaults(func=_cmd_verify_parabolic_circle)

    return parser


def _preprocess(argv: Sequence[str]) -> List[str]:
    # join "--flag -2,1,1,-1" into "--flag=-2,1,1,-1" so negative-leading
    # values survive argparse's option detection
    out: List[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (
            tok in _VALUE_FLAGS
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and any(ch.isdigit() for ch in argv[i + 1])
        ):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run_command(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(_preprocess(argv))
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    return run_command(argv)


if __name__ == "__main__":
    raise SystemExit(main())
