"""Command-line surface: invariants, moduli listings, verification suites.

Output is either an aligned text table or a JSON ResultDocument with
schema_version "1" (see docs/result_schema.md).  Exact rationals are
serialized canonically as "p/q" with q > 0, floats as their shortest
round-trip decimal, so JSON output is byte-stable across runs.

Exit codes: 0 success, 2 domain or admissibility error (a non-finite
float among the inputs or the results included), 3 numeric
non-convergence or a verification suite missing its tolerance, 64 usage.
Series controls exist only where a series reads them: --tail-tol and
--max-terms on the three float suites; --quad-tol, --poisson-switch and
the environment variable RHO_CALC_TOL (the default quadrature tolerance,
echoed in inputs; --quad-tol wins over it) on `verify kronecker` alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import dedekind, moduli, rho
from .errors import ConvergenceError, DomainError, _past_str_limit
from .sl2z import SL2ZMatrix, UpperHalfPoint, random_hyperbolic, random_sl2z

if TYPE_CHECKING:
    from .analytic import SeriesParams

__all__ = ["main", "run_command"]

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

KRONECKER_TOL = 1e-6
ETA_TRANSFORM_TOL = 1e-9
ETA_TRANSFORM_GEN_TOL = 1e-8

_Row = Dict[str, object]
_Outcome = Tuple[List[_Row], Dict[str, object]]

# argparse bookkeeping, and the output switch: never echoed under inputs
_NOT_INPUTS = {"command", "target", "func", "json"}


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


def _comma_tuple(convert: Callable[[str], object], form: str) -> Callable[[str], tuple]:
    """argparse type for comma-separated values shaped like form, each read by convert."""

    def parse(text: str) -> tuple:
        parts = text.split(",")
        try:
            if len(parts) == form.count(",") + 1:
                return tuple(map(convert, parts))
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"expected {form!r}: {text!r}")

    return parse


_parse_matrix = _comma_tuple(int, "a,b,c,d")
_parse_rational_pair = _comma_tuple(Fraction, "p/q,p/q")
_parse_sigma = _comma_tuple(float, "re,im")


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


def _text(value: object) -> object:
    """Canonical text of a parsed value: "p/q" for a rational, comma-joined
    entries for a matrix or a pair; other values pass through."""
    if isinstance(value, Fraction):
        try:
            return f"{value.numerator}/{value.denominator}"
        except ValueError:
            raise DomainError(f"an exact value has {_past_str_limit()}") from None
    if isinstance(value, tuple):
        return ",".join(str(_text(v)) for v in value)
    return value


def _entry(
    name: str,
    exact: Optional[Fraction] = None,
    float_value: Union[float, Fraction, None] = None,
    branch: Optional[str] = None,
) -> _Row:
    row: _Row = {"name": name}
    if exact is not None:
        row["exact"] = _text(exact if type(exact) is Fraction else Fraction(exact))
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


#: the types that json writes as scalars
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _json(value: object, level: int = 0) -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for dict
    keys that are strings, written by json's C encoder (with indent set,
    json falls back to its pure-Python encoder).

    A non-empty container of scalars is one C call whose item separator
    carries the newline and the indent.  So is a list of non-empty dicts
    of scalars, such as the results rows: "}" + separator + "{" then
    stands only between two rows, since a JSON string never holds a raw
    newline, and each is widened to the row break of indent=2.
    """
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        return json.dumps(value)
    opening, closing = "{}" if is_dict else "[]"
    if not value:
        return opening + closing
    items = value.values() if is_dict else value
    pad, inner = "\n" + "  " * level, "\n" + "  " * (level + 1)
    if _SCALARS.issuperset(map(type, items)):
        text = json.dumps(value, sort_keys=True, separators=("," + inner, ": "))
        return opening + inner + text[1:-1] + pad + closing
    if (
        not is_dict
        and set(map(type, value)) == {dict}
        and all(value)
        and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, value))))
    ):
        row = inner + "  "
        text = json.dumps(value, sort_keys=True, separators=("," + row, ": "))
        body = text[2:-2].replace("}," + row + "{", inner + "}," + inner + "{" + row)
        return "[" + inner + "{" + row + body + inner + "}" + pad + "]"
    if is_dict:
        parts = [f"{json.dumps(k)}: {_json(v, level + 1)}" for k, v in sorted(value.items())]
    else:
        parts = [_json(v, level + 1) for v in value]
    return opening + inner + ("," + inner).join(parts) + pad + closing


def _emit(doc: Dict[str, object], as_json: bool) -> None:
    if as_json:
        print(_json(doc))
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
    """The series controls of args; on verify kronecker, a RHO_CALC_TOL
    that stands in for an unset --quad-tol is put on args for inputs."""
    from .analytic import SeriesParams

    kwargs = {"tail_tolerance": args.tail_tol, "max_terms": args.max_terms}
    if "quad_tol" in args:  # verify kronecker, the one quadrature suite
        quad_tol, env = args.quad_tol, os.environ.get("RHO_CALC_TOL")
        if quad_tol is None and env is not None:
            try:
                quad_tol = args.RHO_CALC_TOL = float(env)
            except ValueError:
                raise DomainError(f"RHO_CALC_TOL must be a positive real, got {env!r}") from None
        kwargs.update(quad_tolerance=quad_tol, poisson_switch_u=args.poisson_switch)
    return SeriesParams(**{k: v for k, v in kwargs.items() if v is not None})


# -- subcommand implementations --------------------------------------------
#
# Each returns (results, diagnostics); diagnostics may hold terms_used,
# achieved_tolerance and, for a verification suite, passed.


def _cmd_rho_circle(args: argparse.Namespace) -> _Outcome:
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
    return results, {}


def _torus_rows(
    M: SL2ZMatrix, conn: moduli.TorusFlatConnection, tag: str = "", qualifier: str = ""
) -> List[_Row]:
    """The rho_torus row (out of scope if rho_torus rejects an enumerated
    class) and the cs_mod1 row of one class."""
    try:
        value = rho.rho_torus(M, conn)
    except DomainError as exc:
        if not tag:  # a single class: its error is the command's
            raise
        row: _Row = {"name": f"rho_torus{tag}", "branch": f"out-of-scope: {exc}"}
    else:
        row = _entry(
            f"rho_torus{tag}",
            exact=value.value,
            float_value=value.value,
            branch=value.branch.value + qualifier,
        )
    return [row, _entry(f"cs_mod1{tag}", exact=rho.chern_simons_mod1(M, conn))]


def _cmd_rho_torus(args: argparse.Namespace) -> _Outcome:
    if args.enumerate and args.gauge_lambda is not None:
        raise argparse.ArgumentError(None, "argument --gauge-lambda: not allowed with argument --enumerate")
    M = SL2ZMatrix(*args.matrix)
    if not args.enumerate:
        conn = moduli.connection_from_nu(M, args.nu, gauge_lambda=args.gauge_lambda)
        return _torus_rows(M, conn), {}
    results: List[_Row] = []
    mod = moduli.enumerate_torus_connections(M)
    for conn in mod.isolated:
        results += _torus_rows(M, conn, f"[{_text(conn.nu)}]")
    for family in mod.families:
        tag = f"[family nu1'={_text(family.nu1)}]"
        results += _torus_rows(M, family.representative, tag, " (nu2 free)")
    return results, {}


def _cmd_eta_torus(args: argparse.Namespace) -> _Outcome:
    value = rho.eta_untwisted_torus(SL2ZMatrix(*args.matrix))
    return [_entry("eta_untwisted", exact=value, float_value=value)], {}


def _cmd_dedekind_classic(args: argparse.Namespace) -> _Outcome:
    value = dedekind.classical_sum(args.a, args.c)
    return [_entry("classical_sum", exact=value, float_value=value)], {}


def _cmd_dedekind_general(args: argparse.Namespace) -> _Outcome:
    value = dedekind.generalized_sum(args.x, args.y, args.a, args.c)
    return [_entry("generalized_sum", exact=value, float_value=value)], {}


def _cmd_moduli_torus(args: argparse.Namespace) -> _Outcome:
    mod = moduli.enumerate_torus_connections(SL2ZMatrix(*args.matrix))
    results = [_entry("isolated_count", exact=Fraction(len(mod.isolated)))]
    for i, conn in enumerate(mod.isolated):
        results.append(_entry(f"conn[{i}].nu1", exact=conn.nu[0], branch="isolated"))
        results.append(_entry(f"conn[{i}].nu2", exact=conn.nu[1], branch="isolated"))
        results.append(_entry(f"conn[{i}].m1", exact=Fraction(conn.m[0])))
        results.append(_entry(f"conn[{i}].m2", exact=Fraction(conn.m[1])))
    for j, family in enumerate(mod.families):
        results.append(
            _entry(f"family[{j}].nu1", exact=family.nu1, branch="nu2-free (normal-form coordinates)")
        )
    return results, {}


def _cmd_moduli_circle(args: argparse.Namespace) -> _Outcome:
    summary = moduli.circle_moduli_summary(args.genus, args.degree)
    results = [
        _entry("torus_rank", exact=Fraction(summary.torus_rank)),
        _entry("torsion_order", exact=Fraction(summary.torsion_order)),
    ]
    return results, {}


def _cmd_spectrum_torus(args: argparse.Namespace) -> _Outcome:
    from . import analytic

    spectrum = analytic.torus_spectrum(UpperHalfPoint(*args.sigma), args.nu, args.max_norm)
    results = [
        _entry(f"eig[{i}]", float_value=lam, branch=f"multiplicity={mult}")
        for i, (lam, mult) in enumerate(spectrum)
    ]
    return results, {"terms_used": (2 * args.max_norm + 1) ** 2}


def _cmd_verify_kronecker(args: argparse.Namespace) -> _Outcome:
    from . import analytic

    params = _series_params(args)
    sigma = UpperHalfPoint(*args.sigma)
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
    return results, {
        "terms_used": int(info["neval"]),
        "achieved_tolerance": diff,
        "passed": diff < KRONECKER_TOL,
    }


def _cmd_verify_eta_transform(args: argparse.Namespace) -> _Outcome:
    """The eta transformation law on random M and sigma; eta-transform-gen
    also draws a non-integral twist (g, h) after each M."""
    from . import analytic

    params = _series_params(args)
    general = args.target == "eta-transform-gen"
    rng = random.Random(args.seed)
    worst = 0.0
    for draw in range(args.count):
        while True:
            M = random_sl2z(rng, args.max_entry)
            if M.c != 0:
                break
        while general:
            g = Fraction(rng.randint(0, 11), rng.randint(1, 12))
            h = Fraction(rng.randint(-11, 11), rng.randint(1, 12))
            if g.denominator != 1 or h.denominator != 1:
                break
        sigma = UpperHalfPoint(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        try:
            if general:
                defect = analytic.transform_defect_gen(M, g, h, sigma, params)
            else:
                defect = analytic.transform_defect(M, sigma, params)
        except ConvergenceError as exc:
            # name the draw, so that it can be replayed
            where = f"draw {draw}: M = {_text((M.a, M.b, M.c, M.d))}, sigma = {sigma.sigma1!r},{sigma.sigma2!r}"
            if general:
                where += f", g = {_text(g)}, h = {_text(h)}"
            raise ConvergenceError(f"{where}: {exc}") from None
        worst = max(worst, abs(defect.as_complex()))
    results = [
        _entry("count", exact=Fraction(args.count)),
        _entry("max_defect", float_value=worst),
    ]
    tol = ETA_TRANSFORM_GEN_TOL if general else ETA_TRANSFORM_TOL
    return results, {"achieved_tolerance": worst, "passed": worst < tol}


def _agreement(pairs: Iterable[Tuple[Fraction, Fraction]]) -> _Outcome:
    """pairs_checked and mismatches over pairs of values that must agree."""
    checked = mismatches = 0
    for first, second in pairs:
        checked += 1
        mismatches += first != second
    results = [
        _entry("pairs_checked", exact=Fraction(checked)),
        _entry("mismatches", exact=Fraction(mismatches)),
    ]
    passed = mismatches == 0
    return results, {"achieved_tolerance": 0.0 if passed else None, "passed": passed}


def _cmd_verify_two_path(args: argparse.Namespace) -> _Outcome:
    def pairs():
        rng = random.Random(args.seed)
        for _ in range(args.count):
            M = random_hyperbolic(rng, args.max_entry)
            for conn in moduli.enumerate_torus_connections(M).isolated:
                if not conn.restriction_trivial:
                    yield rho.rho_torus(M, conn).value, rho.rho_hyperbolic_prep(M, conn).value

    return _agreement(pairs())


def _cmd_verify_parabolic_circle(args: argparse.Namespace) -> _Outcome:
    def pairs():
        for l in range(-12, 13):
            if l == 0:
                continue
            M = SL2ZMatrix(1, l, 0, 1)
            for k in range(abs(l)):
                conn = moduli.connection_from_nu(M, (Fraction(k, l), Fraction(1, 2)))
                yield rho.rho_torus(M, conn).value, rho.rho_circle(moduli.CircleFlatConnection(l, k)).value

    return _agreement(pairs())


# -- parser wiring ----------------------------------------------------------


def _leaf(group, name: str, func: Callable[[argparse.Namespace], _Outcome], **kwargs):
    """The parser of one subcommand: it runs func and takes --json."""
    parser = group.add_parser(name, **kwargs)
    parser.set_defaults(func=func)
    parser.add_argument("--json", action="store_true", help="emit a JSON ResultDocument")
    return parser


def _add_series(parser: argparse.ArgumentParser) -> None:
    """The series controls of every float suite, which _series_params reads."""
    parser.add_argument("--tail-tol", type=float, default=None, help="series tail tolerance")
    parser.add_argument("--max-terms", type=int, default=None, help="series term cap")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rhocalc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    top = parser.add_subparsers(dest="command", required=True)

    def group(name: str, help: str):
        return top.add_parser(name, help=help).add_subparsers(dest="target", required=True)

    rho_sub = group("rho", "rho invariants")
    p = _leaf(rho_sub, "circle", _cmd_rho_circle, help="circle bundle over a surface")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--chern", type=int, required=True)
    p.add_argument("--trivial", action="store_true", help="use the trivial connection")
    p = _leaf(rho_sub, "torus", _cmd_rho_torus, help="torus mapping torus")
    p.add_argument("--matrix", type=_parse_matrix, required=True)
    one_or_all = p.add_mutually_exclusive_group(required=True)
    one_or_all.add_argument("--nu", type=_parse_rational_pair, default=None)
    one_or_all.add_argument("--enumerate", action="store_true", help="all flat classes at once")
    p.add_argument("--gauge-lambda", type=_parse_rational, default=None, help="gauge phase when nu = 0")

    p = _leaf(group("eta", "untwisted eta invariants"), "torus", _cmd_eta_torus)
    p.add_argument("--matrix", type=_parse_matrix, required=True)

    ded_sub = group("dedekind", "Dedekind sums")
    p = _leaf(ded_sub, "classic", _cmd_dedekind_classic)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p = _leaf(ded_sub, "general", _cmd_dedekind_general)
    p.add_argument("--x", type=_parse_rational, required=True)
    p.add_argument("--y", type=_parse_rational, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--c", type=int, required=True)

    mod_sub = group("moduli", "flat connection moduli")
    p = _leaf(mod_sub, "torus", _cmd_moduli_torus)
    p.add_argument("--matrix", type=_parse_matrix, required=True)
    p = _leaf(mod_sub, "circle", _cmd_moduli_circle)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)

    p = _leaf(group("spectrum", "flat-torus Laplace spectrum"), "torus", _cmd_spectrum_torus)
    p.add_argument("--sigma", type=_parse_sigma, required=True)
    p.add_argument("--nu", type=_parse_rational_pair, required=True)
    # (2n+1)^2 lattice eigenvalues: n = 300 already takes about half a second
    p.add_argument("--max-norm", type=_bounded_int(0, 300), default=3)

    ver_sub = group("verify", "numerical verification suites")
    p = _leaf(ver_sub, "kronecker", _cmd_verify_kronecker)
    p.add_argument("--sigma", type=_parse_sigma, required=True)
    p.add_argument("--nu", type=_parse_rational_pair, required=True)
    _add_series(p)
    p.add_argument("--quad-tol", type=float, default=None, help="quadrature tolerance")
    p.add_argument("--poisson-switch", type=float, default=None, help="u below which the Poisson form is used")
    # --max-entry N is capped where log eta at M^op sigma meets its tail
    # bound in 10^6 terms: in eta-transform Im(M^op sigma) >= 2/(17 N^2),
    # 6.6e5 terms at N = 150; in eta-transform-gen g' = a g - c h can have
    # denominator 132 and decay 132x slower, so 30 is empirical (50 fails)
    for name, cap in (("eta-transform", 150), ("eta-transform-gen", 30)):
        p = _leaf(ver_sub, name, _cmd_verify_eta_transform)
        p.add_argument("--count", type=_bounded_int(0), default=100)
        p.add_argument("--max-entry", type=_bounded_int(1, cap), default=20)
        p.add_argument("--seed", type=int, default=20260822)
        _add_series(p)
    p = _leaf(ver_sub, "two-path", _cmd_verify_two_path)
    p.add_argument("--count", type=_bounded_int(0), default=500)
    # random_sl2z draws about --max-entry candidates per matrix: capped at
    # 10^4; the smallest hyperbolic matrices, such as [[2, 1], [1, 1]], need 2
    p.add_argument("--max-entry", type=_bounded_int(2, 10**4), default=30)
    p.add_argument("--seed", type=int, default=20260822)
    _leaf(ver_sub, "parabolic-circle", _cmd_verify_parabolic_circle)

    return parser


def _preprocess(argv: Sequence[str]) -> List[str]:
    # join "--flag -2,1,1,-1" into "--flag=-2,1,1,-1" so negative-leading
    # values survive argparse's option detection
    out: List[str] = []
    for tok in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and "=" not in flag and tok.startswith("-") and any(map(str.isdigit, tok)):
            out[-1] = f"{flag}={tok}"
        else:
            out.append(tok)
    return out


def run_command(argv: Sequence[str]) -> int:
    """Parse argv, run the subcommand and print its ResultDocument.

    inputs echoes every parsed argument that is not None; the exit code
    is 3 when a verification suite did not pass.  A reader that closed
    standard output early does not change the exit code.
    """
    parser = build_parser()
    args = parser.parse_args(_preprocess(argv))
    try:
        results, diagnostics = args.func(args)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    inputs = {k: _text(v) for k, v in vars(args).items() if v is not None and k not in _NOT_INPUTS}
    inputs["subcommand"] = f"{args.command} {args.target}"
    doc = {
        "schema_version": SCHEMA_VERSION,
        "inputs": inputs,
        "results": results,
        "diagnostics": {
            "terms_used": diagnostics.get("terms_used", 0),
            "achieved_tolerance": diagnostics.get("achieved_tolerance"),
        },
    }
    try:
        _emit(doc, args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; stdout on devnull keeps the interpreter's
        # final flush from reporting the closed pipe once more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if diagnostics.get("passed", True) else EXIT_NUMERIC


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    return run_command(argv)


if __name__ == "__main__":
    raise SystemExit(main())
