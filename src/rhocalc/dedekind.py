"""Classical and generalized Dedekind sums, exactly.

The three exact sums have private numerator forms (_classical_num,
_generalized_num, _difference_num) that work in integers over one common
denominator and return (num, den).  None of them loops over the |c|
terms of its sum: each runs O(log |c|) Euclid steps, so a modulus of
10^50 costs about as much as one of 10.  The classical and generalized
sums telescope the reciprocity laws of Rademacher-Grosswald (Dedekind
Sums, 1972) and Rademacher (Some remarks on certain generalized Dedekind
sums, Acta Arith. 9, 1964); the closed difference counts its partial
sawtooth sum with a floor sum instead.  So the two hyperbolic rho routes
of :mod:`rhocalc.rho` share no sum code.  The public sums build one
Fraction from the numerator forms; :mod:`rhocalc.rho` assembles the
pairs in integers.  The module owns every exact Dedekind-type sum; their
finite Fourier toolkit is float code and lives in :mod:`rhocalc.analytic`.
Only :func:`cotangent_sum` and its table stay here, as the benchmark
harness reads ``rhocalc.dedekind.cotangent_sum``; they import numpy
themselves, and a test exempts them by name from the no-float rule.

Notation.  P_1 is the sawtooth from :mod:`rhocalc.bernoulli`,

    s(a, c)       = sum_{k=1}^{|c|-1} P_1(a k / c) P_1(k / c)
    s_{x,y}(a, c) = sum_{k=0}^{|c|-1} P_1(a (k+x)/c + y) P_1((k+x)/c)

and d denotes the inverse of a modulo c, least nonnegative residue.
Every sum, exact or float, checks c != 0 and gcd(a, c) = 1 in one place,
:func:`rhocalc.sl2z._unit`, which also gives |c|, a mod |c| and d.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Tuple

from .bernoulli import RationalLike, _fraction, _require_ints
from .errors import DomainError
from .moduli import _admissible_m
from .sl2z import SL2ZMatrix, _unit

__all__ = [
    "classical_sum",
    "generalized_sum",
    "cotangent_sum",
    "sum_difference_closed",
]


def _p1_int(n: int, den: int) -> Tuple[int, bool]:
    """2*den*P_1(n/den) as an integer, plus an is-integer flag (den > 0)."""
    r = n % den
    if r == 0:
        return 0, True
    return 2 * r - den, False


def _classical_num(a: int, c: int) -> Tuple[int, int]:
    """(num, den) with s(a, c) = num/den, in O(log |c|) Euclid steps.

    s(a, c) = s(h, |c|) with h = a mod |c| (both sawtooth factors flip
    sign with c).  Reciprocity s(h, m) + s(m, h) = -1/4 + (h/m + 1/(hm)
    + m/h)/12, telescoped along Euclid's quotients q_0, q_1, ... of
    (m, h) (Rademacher-Grosswald, Dedekind Sums, ch. 3), gives

        12 m s(h, m) = m (q_0 - q_1 + q_2 - ... - e) + h + h'

    with h' = h^{-1} mod m in [0, m) and e = 3 for an odd number of
    quotients, 1 for an even one.
    """
    m, h, t = _unit("classical_sum", a, c)
    if m == 1:
        return 0, 1
    alt, odd, r0, r1 = 0, False, m, h
    while r1:
        q, r = divmod(r0, r1)
        alt += -q if odd else q
        odd = not odd
        r0, r1 = r1, r
    # after the loop, odd says whether the number of quotients is odd
    return m * (alt - (3 if odd else 1)) + h + t, 12 * m


def classical_sum(a: int, c: int) -> Fraction:
    """Classical Dedekind sum s(a, c), exactly."""
    _require_ints("classical_sum", a, c)
    return Fraction(*_classical_num(a, c))


def generalized_sum(x: RationalLike, y: RationalLike, a: int, c: int) -> Fraction:
    """Generalized Dedekind sum s_{x,y}(a, c), exactly; (x, y) matters only mod Z^2."""
    _require_ints("generalized_sum", a, c)
    return Fraction(*_generalized_num(_fraction(x), _fraction(y), a, c))


def _p2_num(u: int, den: int) -> int:
    """6*den^2*P_2(u/den) as an integer (den > 0)."""
    r = u % den
    return 6 * r * (r - den) + den * den


def _generalized_num(x: RationalLike, y: RationalLike, a: int, c: int) -> Tuple[int, int]:
    """(num, den = 12 |c| L^2) with s_{x,y}(a, c) = num/den, for Fraction
    or int x, y and L = lcm(den x, den y), in O(log |c|) Euclid steps.

    In Rademacher's notation (Some remarks on certain generalized
    Dedekind sums, Acta Arith. 9, 1964),

        s(b, c; X, Y) = sum_{mu mod c} P_1(b (mu+Y)/c + X) P_1((mu+Y)/c),

    s_{x,y}(a, c) = s(a, m; sgn(c) y, x) with m = |c|.  The shift
    s(b + q c, c; X, Y) = s(b, c; X + q Y, Y) brings a to h = a mod m,
    and the reciprocity law

        s(b, c; X, Y) + s(c, b; Y, X) = P_1(X) P_1(Y) - [X, Y in Z]/4
            + (b/c P_2(Y) + P_2(b Y + c X)/(b c) + c/b P_2(X))/2

    walks Euclid's steps (b, c) -> (c mod b, b) down to the base
    s(0, 1; X, Y) = P_1(X) P_1(Y).  Along the walk b Y + c X = W is
    fixed, the c/b P_2(X) term of one step and the b/c P_2(Y) term of the
    next add up to q P_2(X), and the alternating sum of 1/(b c) is t/m
    with t = h^{-1} mod m, less m for an even number of steps.  So with
    X = u/L and Y = v/L,

        12 m L^2 s = h B(v_0) + t B(W) + m sum_i (-1)^i (q_i B(u_i)
                     + 3 S(u_i) S(v_i) - 3 L^2 [u_i = v_i = 0]) + (-1)^n 3 m S(u_n) S(v_n)

    where B(u) = 6 L^2 P_2(u/L) and S(u) = 2 L P_1(u/L) are integers.
    """
    m, h, t = _unit("generalized_sum", a, c)
    (px, qx), (py, qy) = x.as_integer_ratio(), y.as_integer_ratio()
    den = qx // gcd(qx, qy) * qy
    den2 = den * den
    v = px * (den // qx) % den                     # L * Y
    u = py * (den // qy)                           # L * X before the shift
    u = ((u if c > 0 else -u) + (a // m) * v) % den
    if m == 1:
        return 3 * _p1_int(u, den)[0] * _p1_int(v, den)[0], 12 * den2
    head = h * _p2_num(v, den)
    w = h * v + m * u                              # L * W
    alt, odd, b, r0 = 0, False, h, m
    # u, v stay reduced mod L, so S and B are written out in the loop
    sv = 2 * v - den if v else 0
    while b:
        q, r = divmod(r0, b)
        su = 2 * u - den if u else 0
        step = q * (6 * u * (u - den) + den2) + 3 * su * sv
        if not (u or v):
            step -= 3 * den2
        alt += -step if odd else step
        odd = not odd
        u, v, sv = (v + q * u) % den, u, su
        r0, b = b, r
    last = 3 * (2 * u - den if u else 0) * sv
    alt += -last if odd else last
    if not odd:
        t -= m
    return head + t * _p2_num(w, den) + m * alt, 12 * m * den2


@lru_cache(maxsize=1)
def _cot_table(m: int):
    """cot(pi p / m) for p = 1, ..., m - 1, as a read-only float64 array:
    the cache hands the same array to every caller."""
    import numpy as np

    p = np.arange(1, m, dtype=np.float64)
    ang = np.pi * p / m
    table = np.cos(ang) / np.sin(ang)
    table.flags.writeable = False
    return table


def cotangent_sum(a: int, c: int) -> float:
    """Dedekind sum via the cotangent formula, in double precision.

    (1/(4|c|)) * sum_{p=1}^{|c|-1} cot(pi d p / c) cot(pi p / c); the two
    sign flips for c < 0 cancel, so the positive modulus is used.  Both
    factors are read from one table of cot(pi p / |c|), and the table of
    the last modulus is cached, so a sweep over the units mod |c| builds
    it once.
    """
    import numpy as np

    _require_ints("cotangent_sum", a, c)
    m, _, d = _unit("cotangent_sum", a, c)
    if m == 1:
        return 0.0
    base = _cot_table(m)
    # cot(pi d p / c) = cot(pi ((d p) mod |c|) / |c|) by pi-periodicity;
    # (d p) mod |c| is never 0 since gcd(d, c) = 1 and 0 < p < |c|
    idx = (d * np.arange(1, m, dtype=np.int64)) % m
    return float(np.dot(base[idx - 1], base) / (4.0 * m))


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{k=0}^{n-1} floor((a k + b)/m) for n >= 0, m > 0, a, b >= 0.

    The Euclid-like floor sum of the AtCoder Library: O(log m) steps, each
    peeling off the whole parts of a/m and b/m and then swapping the roles
    of m and a by counting lattice points under the line from the other
    axis.
    """
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


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
    x, y = _fraction(x), _fraction(y)
    (p, q), (py, qy) = x.as_integer_ratio(), y.as_integer_ratio()
    if M.c == 0:
        raise DomainError("sum_difference_closed requires c != 0")
    if not 0 <= p < q:
        raise DomainError("sum_difference_closed requires x in [0, 1)")
    m1, _ = _admissible_m(M, p * qy, py * q, q * qy)
    return Fraction(*_difference_num(p, q, m1, M))


def _difference_num(p: int, q: int, m1: int, M: SL2ZMatrix) -> Tuple[int, int]:
    """(num, den = 4 q^2 |c|) for sum_difference_closed at x = p/q in [0, 1),
    c != 0, with m1 = x - x' the first component of (Id - M^t)(x, y).

    d = a^{-1} mod |c| and the partial sawtooth sum of each residue r are
    read from M's own cache, so the classes of one M share them."""
    cabs, _, d = M._unit_a
    r = m1 % cabs
    # every term over the common denominator 4 q^2 |c| (x = p/q): on [0, 1)
    # P_2(x) - 1/6 = x (x - 1), and d k/|c| is integral only at k = |c|
    table = M._sawtooth
    acc = table.get(r)
    if acc is None:
        n = min(cabs - r, cabs - 1)
        # sum_{k=1}^{n} (2 (d k mod |c|) - |c|), with the residues summed as
        # d n (n+1)/2 - |c| sum_{k<=n} floor(d k/|c|)
        acc = table[r] = d * n * (n + 1) - 2 * cabs * _floor_sum(n + 1, cabs, d, 0) - cabs * n
    if q == 1:
        tail = _p1_int(d * m1, cabs)[0]
    else:
        # the two P_1(d m/|c|) terms cancel; at m/|c| in Z the 1/4 stands in
        p1_m, m_in_z = _p1_int(m1, cabs)
        tail = cabs if m_in_z else p1_m
    return 4 * p * (p - q) + q * q * (2 * acc + tail), 4 * q * q * cabs
