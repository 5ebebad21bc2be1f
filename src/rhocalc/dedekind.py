"""Classical and generalized Dedekind sums, exactly, plus their finite
Fourier toolkit.

The three exact sums have private numerator forms (_classical_num,
_generalized_num, _difference_num) that sum in integers over one common
denominator and return (num, den), so moduli of order 10^4 stay cheap
and denominators can grow past machine-word size without harm.  The
public sums build one Fraction from them; :mod:`rhocalc.rho` assembles
the pairs in integers.  The module owns every Dedekind-type sum.
Float paths (cotangent formula, discrete Fourier transforms) are strictly
separate and never feed back into exact results; they import numpy
themselves, so the exact sums run without it.

Notation.  P_1 is the sawtooth from :mod:`rhocalc.bernoulli`,

    s(a, c)       = sum_{k=1}^{|c|-1} P_1(a k / c) P_1(k / c)
    s_{x,y}(a, c) = sum_{k=0}^{|c|-1} P_1(a (k+x)/c + y) P_1((k+x)/c)

and d denotes the inverse of a modulo c, least nonnegative residue.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Tuple

from .bernoulli import RationalLike, periodic_bernoulli
from .errors import DomainError
from .moduli import _admissible_m
from .sl2z import SL2ZMatrix

__all__ = [
    "CoprimePair",
    "PeriodicFunctionTable",
    "classical_sum",
    "generalized_sum",
    "cotangent_sum",
    "finite_fourier_transform",
    "p1_closed_fourier",
    "sum_difference_closed",
]


def _inverse_mod(a: int, c: int) -> int:
    """Least nonnegative d with a*d = 1 (mod |c|)."""
    m = abs(c)
    if m == 1:
        return 0
    return pow(a % m, -1, m)


@dataclass(frozen=True)
class CoprimePair:
    """A pair (a, c) with c != 0 and gcd(a, c) = 1; carries d = a^{-1} mod c."""

    a: int
    c: int
    d: int = field(init=False)

    def __post_init__(self) -> None:
        if self.c == 0:
            raise DomainError("CoprimePair requires c != 0")
        if gcd(self.a, self.c) != 1:
            raise DomainError("CoprimePair requires gcd(a, c) = 1")
        object.__setattr__(self, "d", _inverse_mod(self.a, self.c))


@dataclass(frozen=True)
class PeriodicFunctionTable:
    """A function on Z/|c| given by its |c| sampled complex values.

    The signed modulus c is retained: the transform below uses the root
    of unity exp(2*pi*i/c), whose orientation depends on sign(c).
    """

    c: int
    values: Tuple[complex, ...]

    def __post_init__(self) -> None:
        if self.c == 0:
            raise DomainError("PeriodicFunctionTable requires c != 0")
        vals = tuple(complex(v) for v in self.values)
        if len(vals) != abs(self.c):
            raise DomainError(
                "PeriodicFunctionTable requires exactly |c| values"
            )
        object.__setattr__(self, "values", vals)

    def __call__(self, k: int) -> complex:
        return self.values[k % abs(self.c)]


def _p1_int(n: int, den: int) -> Tuple[int, bool]:
    """2*den*P_1(n/den) as an integer, plus an is-integer flag (den > 0)."""
    r = n % den
    if r == 0:
        return 0, True
    return 2 * r - den, False


def _classical_num(a: int, c: int) -> Tuple[int, int]:
    """(num, den) with s(a, c) = num/den.

    Equal to s(a, |c|) (both sawtooth factors flip sign with c), so the
    loop runs over the positive modulus.
    """
    if c == 0:
        raise DomainError("classical_sum requires a nonzero modulus c")
    if gcd(a, c) != 1:
        raise DomainError("classical_sum requires gcd(a, c) = 1")
    m = abs(c)
    a0 = a % m
    acc = 0
    for k in range(1, m):
        # both arguments are nonintegral: gcd(a0, m) = 1 and 0 < k < m
        acc += (2 * ((a0 * k) % m) - m) * (2 * k - m)
    return acc, 4 * m * m


def classical_sum(a: int, c: int) -> Fraction:
    """Classical Dedekind sum s(a, c), exactly."""
    return Fraction(*_classical_num(a, c))


def generalized_sum(x: RationalLike, y: RationalLike, a: int, c: int) -> Fraction:
    """Generalized Dedekind sum s_{x,y}(a, c), exactly; (x, y) matters only mod Z^2."""
    return Fraction(*_generalized_num(Fraction(x), Fraction(y), a, c))


def _generalized_num(x: RationalLike, y: RationalLike, a: int, c: int) -> Tuple[int, int]:
    """(num, den) with s_{x,y}(a, c) = num/den, for Fraction or int x, y;
    the loop runs over |c|*den(x) and |c|*den(x)*den(y)."""
    if c == 0:
        raise DomainError("generalized_sum requires a nonzero modulus c")
    if gcd(a, c) != 1:
        raise DomainError("generalized_sum requires gcd(a, c) = 1")
    m = abs(c)
    s = 1 if c > 0 else -1
    qx, qy = x.denominator, y.denominator
    px, py = x.numerator % qx, y.numerator % qy  # (x, y) reduced mod Z^2
    den1 = m * qx           # (k+x)/c = s*(k*qx + px) / den1
    den2 = m * qx * qy      # a(k+x)/c + y = s*(a*qy*(k*qx+px) + c*qx*py) / den2
    acc = 0
    cqxpy = c * qx * py
    for k in range(m):
        n1 = s * (k * qx + px)
        n2 = s * (a * qy * (k * qx + px) + cqxpy)
        v1, int1 = _p1_int(n1, den1)
        if int1:
            continue
        v2, int2 = _p1_int(n2, den2)
        if int2:
            continue
        acc += v1 * v2
    return acc, 4 * den1 * den2


def cotangent_sum(a: int, c: int) -> float:
    """Dedekind sum via the cotangent formula, in double precision.

    (1/(4|c|)) * sum_{p=1}^{|c|-1} cot(pi d p / c) cot(pi p / c); the two
    sign flips for c < 0 cancel, so the positive modulus is used.
    """
    import numpy as np

    pair = CoprimePair(a, c)
    m = abs(c)
    if m == 1:
        return 0.0
    p = np.arange(1, m, dtype=np.float64)
    ang = np.pi * p / m
    base = np.cos(ang) / np.sin(ang)
    # cot(pi d p / c) = cot(pi ((d p) mod |c|) / |c|) by pi-periodicity;
    # (d p) mod |c| is never 0 since gcd(d, c) = 1 and 0 < p < |c|
    idx = (pair.d * np.arange(1, m, dtype=np.int64)) % m
    lhs = np.cos(np.pi * idx / m) / np.sin(np.pi * idx / m)
    return float(np.dot(lhs, base) / (4.0 * m))


def finite_fourier_transform(table: PeriodicFunctionTable) -> PeriodicFunctionTable:
    """Finite Fourier transform: fhat(p) = sum_k f(k) xi^{-kp}, xi = e^{2 pi i/c}.

    The sign of c is honored through xi, so tables on c and -c transform
    with opposite orientation.
    """
    import numpy as np

    m = abs(table.c)
    k = np.arange(m)
    vals = np.asarray(table.values, dtype=np.complex128)
    xi_pow = np.exp(-2j * np.pi * np.outer(k, k) / table.c)
    hat = xi_pow.T @ vals  # row p: sum_k f(k) xi^{-kp}
    return PeriodicFunctionTable(table.c, tuple(hat.tolist()))


def p1_closed_fourier(
    x: RationalLike, y: RationalLike, a: int, c: int, p: int
) -> complex:
    """Closed form of the Fourier transform of k -> P_1(a(k+x)/c + y).

    With x' = a x + c y, d = a^{-1} mod c and xi = exp(2 pi i / c):

        p = 0 (mod c):  sgn(c) * P_1(x')
        otherwise:      sgn(c)/2 * (i cot(pi d p / c) - [x' not in Z]) * xi^{d floor(x') p}
    """
    pair = CoprimePair(a, c)
    x = Fraction(x)
    y = Fraction(y)
    xp = a * x + c * y
    sign = 1.0 if c > 0 else -1.0
    if p % abs(c) == 0:
        return complex(sign * float(periodic_bernoulli(1, xp)))
    delta = 0.0 if xp.denominator == 1 else 1.0
    cot = 1.0 / math.tan(math.pi * pair.d * p / c)
    phase = cmath.exp(2j * math.pi * pair.d * math.floor(xp) * p / c)
    return sign * 0.5 * (1j * cot - delta) * phase


def sum_difference_closed(x: RationalLike, y: RationalLike, M: SL2ZMatrix) -> Fraction:
    """Exact closed form of s_{x,y}(a, c) - s(a, c) for admissible (x, y).

    Requires x in [0,1) and (x - x', y - y') = (Id - M^t)(x, y) in Z^2,
    where (x', y') is the transpose action (a x + c y, b x + d y); writes
    m = x - x' and reduces m to r in {0, ..., |c|-1}.  Summed in integers
    over one denominator, it is

        (P_2(x) - 1/6)/|c| + sum_{k=1}^{|c|-r} P_1(d k/|c|) + P_1(d m/|c|)/2
        + [x not in Z] * (P_1(m/|c|) - P_1(d m/|c|))/2
        + [x not in Z] * (1 - [m/|c| not in Z])/4
    """
    return Fraction(*_difference_num(Fraction(x), Fraction(y), M))


def _difference_num(x: RationalLike, y: RationalLike, M: SL2ZMatrix) -> Tuple[int, int]:
    """(num, den = 4 q^2 |c|) for sum_difference_closed at Fraction or int x = p/q, y."""
    a, c = M.a, M.c
    if c == 0:
        raise DomainError("sum_difference_closed requires c != 0")
    if gcd(a, c) != 1:
        raise DomainError("sum_difference_closed requires gcd(a, c) = 1")
    p, q = x.numerator, x.denominator
    py, qy = y.numerator, y.denominator
    if not 0 <= p < q:
        raise DomainError("sum_difference_closed requires x in [0, 1)")
    m_int, _ = _admissible_m(M, p * qy, py * q, q * qy)  # (x - x', y - y')
    cabs = abs(c)
    d = _inverse_mod(a, c)
    r = m_int % cabs
    # every term over the common denominator 4 q^2 |c| (x = p/q): on [0, 1)
    # P_2(x) - 1/6 = x (x - 1), and d k/|c| is integral only at k = |c|
    acc = 0
    for k in range(1, min(cabs - r, cabs - 1) + 1):
        acc += 2 * ((d * k) % cabs) - cabs
    if q == 1:
        tail = _p1_int(d * m_int, cabs)[0]
    else:
        # the two P_1(d m/|c|) terms cancel; at m/|c| in Z the 1/4 stands in
        p1_m, m_in_z = _p1_int(m_int, cabs)
        tail = cabs if m_in_z else p1_m
    return 4 * p * (p - q) + q * q * (2 * acc + tail), 4 * q * q * cabs
