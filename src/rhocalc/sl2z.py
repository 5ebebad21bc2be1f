"""SL(2, Z) matrices: classification, parabolic normal form, and seeded
random matrices for the verification suites.

Everything here is exact and accepts entries far beyond double range.
The float side of a matrix (kappa, alpha and beta of a hyperbolic class,
the op-action and the invariant path) lives in :mod:`rhocalc.analytic`.
Only the point type :class:`UpperHalfPoint` stays, as the benchmark
harness reads ``rhocalc.sl2z.UpperHalfPoint``; a test exempts it by name.

What depends only on M is computed once per matrix object, on first
read, and kept on it: its class, with the parabolic normal form, and the
integers that the per-class formulas of :mod:`rhocalc.dedekind` and
:mod:`rhocalc.rho` share.  So walking the flat classes of one M costs
one classification, not one per class.  Nothing that depends on a class
is kept, and the cache takes no part in equality, hash or repr.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Dict, Tuple, Union

from ._record import Record
from .errors import DomainError, UnsupportedClassError

__all__ = [
    "SL2ZMatrix",
    "UpperHalfPoint",
    "Elliptic",
    "Parabolic",
    "Hyperbolic",
    "Identity",
    "MonodromyClass",
    "classify",
    "parabolic_normal_form",
    "random_sl2z",
    "random_hyperbolic",
]

#: exact elliptic rotation numbers, keyed by trace
_ELLIPTIC_THETA = {1: Fraction(1, 6), 0: Fraction(1, 4), -1: Fraction(1, 3)}


def _inverse_mod(a: int, c: int) -> int:
    """Least nonnegative d with a*d = 1 (mod |c|)."""
    m = abs(c)
    if m == 1:
        return 0
    return pow(a % m, -1, m)


class SL2ZMatrix(Record):
    """[[a, b], [c, d]] with int entries and determinant 1.

    The private cached properties below hold what depends only on M; each
    is computed on its first read, at most once per matrix object.
    """

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        if not type(a) is type(b) is type(c) is type(d) is int:
            raise DomainError(f"SL2ZMatrix requires int entries, got {(a, b, c, d)!r}")
        if a * d - b * c != 1:
            raise DomainError("SL2ZMatrix requires determinant ad - bc = 1")
        self.__dict__.update(a=a, b=b, c=c, d=d)

    @classmethod
    def identity(cls) -> "SL2ZMatrix":
        return cls(1, 0, 0, 1)

    @property
    def trace(self) -> int:
        return self.a + self.d

    @property
    def discriminant(self) -> int:
        """(tr M)^2 - 4, the classifying quantity."""
        return self.trace * self.trace - 4

    @cached_property
    def _class(self) -> MonodromyClass:
        """The classification that :func:`classify` returns."""
        if self.b == self.c == 0 and self.a == self.d in (1, -1):
            return Identity(self.a)
        disc = self.discriminant
        if disc < 0:
            return Elliptic(_ELLIPTIC_THETA[self.trace])
        if disc == 0:
            return Parabolic(*parabolic_normal_form(self))
        return Hyperbolic(self)

    @cached_property
    def _trace_c(self) -> Tuple[int, int, int, int]:
        """(tr M, |c|, sgn c, sgn(c tr M))."""
        tr, c = self.a + self.d, self.c
        return tr, abs(c), (c > 0) - (c < 0), (c * tr > 0) - (c * tr < 0)

    @cached_property
    def _inverse_a(self) -> int:
        """a^{-1} mod |c|, least nonnegative; needs c != 0."""
        return _inverse_mod(self.a, self.c)

    @cached_property
    def _classical(self) -> Tuple[int, int]:
        """(num, den) with s(a, c) = num/den, the classical Dedekind sum."""
        from .dedekind import _classical_num  # dedekind imports this module

        return _classical_num(self.a, self.c)

    @cached_property
    def _sawtooth(self) -> Dict[int, int]:
        """The closed Dedekind difference's partial sawtooth sums, keyed by
        r = m_1 mod |c|; filled by :func:`rhocalc.dedekind._difference_num`,
        so it holds at most min(|c|, |2 - tr M|) entries."""
        return {}

    def op(self) -> "SL2ZMatrix":
        """The op-involution M -> [[d, b], [c, a]]."""
        return SL2ZMatrix(self.d, self.b, self.c, self.a)

    def __matmul__(self, other: "SL2ZMatrix") -> "SL2ZMatrix":
        return SL2ZMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "SL2ZMatrix":
        return SL2ZMatrix(self.d, -self.b, -self.c, self.a)

    def neg(self) -> "SL2ZMatrix":
        return SL2ZMatrix(-self.a, -self.b, -self.c, -self.d)

    def transpose_apply(self, v: Tuple[Fraction, Fraction]) -> Tuple[Fraction, Fraction]:
        """M^t v for a rational column vector v."""
        return (self.a * v[0] + self.c * v[1], self.b * v[0] + self.d * v[1])


class UpperHalfPoint(Record):
    """A point sigma = sigma1 + i*sigma2 of the upper half-plane."""

    sigma1: float
    sigma2: float

    def __init__(self, sigma1: float, sigma2: float) -> None:
        if not (math.isfinite(sigma1) and math.isfinite(sigma2)):
            raise DomainError("UpperHalfPoint requires finite sigma1 and sigma2")
        if not sigma2 > 0:
            raise DomainError("UpperHalfPoint requires sigma2 > 0")
        self.__dict__.update(sigma1=sigma1, sigma2=sigma2)

    def as_complex(self) -> complex:
        return complex(self.sigma1, self.sigma2)


class Elliptic(Record):
    theta: Fraction

    def __init__(self, theta: Fraction) -> None:
        self.__dict__.update(theta=theta)


class Parabolic(Record):
    epsilon: int
    l: int
    conjugator: SL2ZMatrix

    def __init__(self, epsilon: int, l: int, conjugator: SL2ZMatrix) -> None:
        self.__dict__.update(epsilon=epsilon, l=l, conjugator=conjugator)


class Hyperbolic(Record):
    """A hyperbolic class, holding its exact matrix."""

    matrix: SL2ZMatrix

    def __init__(self, matrix: SL2ZMatrix) -> None:
        self.__dict__.update(matrix=matrix)


class Identity(Record):
    epsilon: int

    def __init__(self, epsilon: int) -> None:
        self.__dict__.update(epsilon=epsilon)


MonodromyClass = Union[Elliptic, Parabolic, Hyperbolic, Identity]


def parabolic_normal_form(M: SL2ZMatrix) -> Tuple[int, int, SL2ZMatrix]:
    """Conjugate a parabolic M != +-Id into eps * [[1, l], [0, 1]].

    Returns (eps, l, g) with g in SL2Z and g^{-1} M g = eps*[[1, l], [0, 1]].
    The conjugator's first column spans the unique fixed line of eps*M:
    for trace-2 N, the column (p, q) = ((a - d)/g0, 2c/g0) with
    g0 = gcd(a - d, 2c) is killed by N - Id, and any SL2Z extension of it
    triangularizes N.
    """
    tr = M.trace
    if tr * tr != 4:
        raise UnsupportedClassError("parabolic_normal_form requires a parabolic matrix")
    eps = 1 if tr == 2 else -1
    N = M if eps == 1 else M.neg()
    if N.b == N.c == 0:
        raise UnsupportedClassError("parabolic_normal_form requires M != +-Id")
    if N.c == 0:
        # already upper triangular (c = 0 and trace 2 force a = d = 1)
        return eps, N.b, SL2ZMatrix.identity()
    g0 = gcd(N.a - N.d, 2 * N.c)
    p, q = (N.a - N.d) // g0, (2 * N.c) // g0
    # q != 0 and p*r = 1 (mod q): [[p, (p*r - 1)/q], [q, r]] is integral, det 1
    r = pow(p, -1, q)
    conj = SL2ZMatrix(p, (p * r - 1) // q, q, r)
    normal = conj.inverse() @ N @ conj
    if normal.c != 0 or normal.a != 1 or normal.d != 1:
        raise AssertionError("parabolic normal form failed to triangularize")
    return eps, normal.b, conj


def classify(M: SL2ZMatrix) -> MonodromyClass:
    """Monodromy classification of M by the sign of (tr M)^2 - 4.

    Exact for every entry size.  Elliptic rotation numbers come from the
    exact trace lookup {1: 1/6, 0: 1/4, -1: 1/3}.  Computed once per
    matrix object and kept on it, with the normal form of a parabolic M.
    """
    return M._class


def random_sl2z(rng: random.Random, bound: int) -> SL2ZMatrix:
    """A uniform-ish random element of SL2(Z) with |entries| <= bound.

    Rejection sampling: draw a, b, c and solve a d - b c = 1 for d.  The
    draw order is fixed, so a seeded rng always yields the same matrices.
    """
    if bound < 1:
        raise DomainError("random_sl2z requires bound >= 1")
    while True:
        a = rng.randint(-bound, bound)
        b = rng.randint(-bound, bound)
        c = rng.randint(-bound, bound)
        if a == 0:
            if b * c == -1:
                return SL2ZMatrix(a, b, c, rng.randint(-bound, bound))
            continue
        num = 1 + b * c
        if num % a != 0:
            continue
        d = num // a
        if abs(d) <= bound:
            return SL2ZMatrix(a, b, c, d)


def random_hyperbolic(rng: random.Random, bound: int) -> SL2ZMatrix:
    """A random hyperbolic element (|trace| > 2) with |entries| <= bound."""
    if bound < 2:
        raise DomainError("random_hyperbolic requires bound >= 2")
    while True:
        m = random_sl2z(rng, bound)
        if abs(m.a + m.d) > 2:
            return m
