"""Bernoulli polynomials, their periodic extensions, and special zeta values.

Everything in this module is exact: inputs are integers or
`fractions.Fraction`, outputs are `Fraction`, each built once from an
integer numerator and denominator.  Float approximations of the same
quantities live in the numerical layer, never here.  One rule for
rational input holds in the whole exact layer, :func:`_fraction`'s: a
Fraction or an int that is not a bool; a float, bool, string or
anything else raises DomainError.  Integer data (a modulus, a matrix
entry, a degree) follows :func:`_require_ints`: an int that is not a bool;
a flag is a bool.  A rational mod 1 is the pair (p, q) of :func:`_mod1`,
x - floor(x) = p/q in lowest terms; a caller builds a Fraction from it
only where a record needs one, and the float layer divides p by q.

Conventions.  Bernoulli numbers use B_1 = -1/2, so

    B_n(x) = sum_{k=0}^{n} C(n, k) B_k x^{n-k}

and the periodic extension P_n(x) = B_n(x - floor(x)) is patched to 0 at
integer x for odd n (the symmetric, Fourier-side convention: P_1 is the
sawtooth with midpoint value 0).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Tuple, Union

from .errors import DomainError

__all__ = [
    "RationalLike",
    "bernoulli_number",
    "bernoulli_poly",
    "periodic_bernoulli",
    "hurwitz_zeta_nonpos",
    "periodic_eta_zero",
    "periodic_zeta_at",
]

RationalLike = Union[Fraction, int]


def sgn(x) -> int:
    """Sign of a real number as -1, 0 or 1."""
    return (x > 0) - (x < 0)


def _fraction(x: RationalLike) -> Fraction:
    """x as a Fraction: a Fraction as it is, since Fraction(x) would copy
    it, and an int that is not a bool converted.  Raises DomainError for
    anything else: a float or a string would pass Fraction() inexactly or
    by parsing, and a bool is not a number here."""
    if type(x) is Fraction:
        return x
    if type(x) is int or isinstance(x, Fraction):
        return Fraction(x)
    raise DomainError(f"expected a Fraction or an int, got {x!r}")


def _require_ints(what: str, *values: object) -> None:
    """Raise DomainError unless every value is an int that is not a bool."""
    for v in values:
        if type(v) is not int:
            raise DomainError(f"{what} requires int arguments, got {v!r}")


def _mod1(x: RationalLike) -> Tuple[int, int]:
    """(p, q) with x - floor(x) = p/q in lowest terms, so 0 <= p < q, for x
    under :func:`_fraction`'s rule; (0, 1) for an int, with no Fraction built."""
    if type(x) is int:
        return 0, 1
    x = _fraction(x)
    q = x.denominator
    return x.numerator % q, q


@lru_cache(maxsize=None, typed=True)
def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2) as an exact Fraction.

    Uses the recursion sum_{k=0}^{n} C(n+1, k) B_k = 0 coming from the
    generating function t/(e^t - 1); values are memoized, keyed by type
    as well, so a cached B_1 never answers for True.
    """
    _require_ints("bernoulli_number", n)
    if n < 0:
        raise DomainError("bernoulli_number requires n >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * bernoulli_number(k)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def _poly_int_coeffs(n: int) -> Tuple[int, Tuple[int, ...]]:
    """(L, e): e[k] = L C(n, k) B_k in Z, the coefficient of x^{n-k} in L B_n(x)."""
    coeffs = [comb(n, k) * bernoulli_number(k) for k in range(n + 1)]
    L = lcm(*(f.denominator for f in coeffs))
    return L, tuple(int(f * L) for f in coeffs)


def _poly_num(n: int, p: int, q: int) -> Tuple[int, int]:
    """(sum_k e[k] p^{n-k} q^k, L q^n) = B_n(p/q) as a pair, by Horner's rule."""
    L, e = _poly_int_coeffs(n)
    acc, qk = e[0], 1
    for ek in e[1:]:
        qk *= q
        acc = acc * p + ek * qk
    return acc, L * qk


def bernoulli_poly(n: int, x: RationalLike) -> Fraction:
    """Bernoulli polynomial B_n(x), exactly.

    B_n(x) = sum_{k=0}^{n} C(n, k) B_k x^{n-k}.
    """
    _require_ints("bernoulli_poly", n)
    if n < 0:
        raise DomainError("bernoulli_poly requires n >= 0")
    x = _fraction(x)
    return Fraction(*_poly_num(n, x.numerator, x.denominator))


def periodic_bernoulli(n: int, x: RationalLike) -> Fraction:
    """Periodic Bernoulli function P_n(x) = B_n(x - floor(x)), exactly.

    For odd n the value at integer x is 0 (for n = 1 this is the sawtooth
    midpoint convention; for odd n >= 3 it agrees with B_n(0) = 0 anyway).
    """
    _require_ints("periodic_bernoulli", n)
    if n < 1:
        raise DomainError("periodic_bernoulli requires n >= 1")
    p, q = _mod1(x)
    if n % 2 == 1 and p == 0:
        return Fraction(0)
    return Fraction(*_poly_num(n, p, q))


def hurwitz_zeta_nonpos(n: int, q: RationalLike) -> Fraction:
    """Hurwitz zeta value zeta(-n, q) = -B_{n+1}(q) / (n+1), exactly.

    Requires n >= 0 and 0 < q <= 1, the range on which the analytic
    continuation in the first argument is taken with the standard branch.
    No package code calls it; it stays public for acceptance criterion 12,
    the special values, which checks it against bernoulli_poly.
    """
    _require_ints("hurwitz_zeta_nonpos", n)
    if n < 0:
        raise DomainError("hurwitz_zeta_nonpos requires n >= 0")
    q = _fraction(q)
    if not 0 < q <= 1:
        raise DomainError("hurwitz_zeta_nonpos requires 0 < q <= 1")
    return -bernoulli_poly(n + 1, q) / (n + 1)


def periodic_eta_zero(q: RationalLike) -> Fraction:
    """Value at s = 0 of the periodic eta series for parameter q: 2 P_1(q).
    No package code calls it; it stays public for acceptance criterion 12,
    the special values."""
    return 2 * periodic_bernoulli(1, q)


def periodic_zeta_at(s0: int, q: RationalLike) -> Fraction:
    """Periodic zeta function of parameter q at s0 in {0, -1}, exactly.

    At s0 = 0 the value is 0 for q not an integer and -1 for integer q;
    at s0 = -1 it is -P_2(q).  Other evaluation points are not supported.
    No package code calls it; it stays public for acceptance criterion 12,
    the special values.
    """
    _require_ints("periodic_zeta_at", s0)
    q = _fraction(q)
    if s0 == 0:
        return Fraction(-1) if q.denominator == 1 else Fraction(0)
    if s0 == -1:
        return -periodic_bernoulli(2, q)
    raise DomainError("periodic_zeta_at supports only s0 in {0, -1}")
