"""Exact Bernoulli / Hurwitz-zeta layer.

Oracle strategy: small Bernoulli numbers and polynomials are checked
against hand-computed literals; the structural identities (difference
equation, reflection, periodicity) then pin the rest of the range.  The
library evaluates B_n(p/q) in integers; `oracle_bernoulli_poly` is the
term-by-term Fraction sum it replaced.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from math import comb, floor

import pytest

from rhocalc import (
    DomainError,
    bernoulli_number,
    bernoulli_poly,
    hurwitz_zeta_nonpos,
    periodic_bernoulli,
    periodic_eta_zero,
    periodic_zeta_at,
)


KNOWN_BERNOULLI = {
    0: F(1),
    1: F(-1, 2),
    2: F(1, 6),
    3: F(0),
    4: F(-1, 30),
    6: F(1, 42),
    8: F(-1, 30),
    10: F(5, 66),
    12: F(-691, 2730),
}


def oracle_bernoulli_poly(n: int, x) -> F:
    """B_n(x) = sum_{k=0}^{n} C(n, k) B_k x^{n-k}, summed in Fractions."""
    x = F(x)
    acc = F(0)
    power = F(1)
    # accumulate highest power first: coefficient of x^{n-k} is C(n,k) B_k
    for k in range(n, -1, -1):
        acc += comb(n, k) * bernoulli_number(k) * power
        if k > 0:
            power *= x
    return acc


def test_integer_evaluation_matches_fraction_oracle():
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(0, 8)
        x = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        assert bernoulli_poly(n, x) == oracle_bernoulli_poly(n, x), (n, x)
        if n >= 1:
            frac = x - floor(x)
            want = F(0) if n % 2 == 1 and frac == 0 else oracle_bernoulli_poly(n, frac)
            assert periodic_bernoulli(n, x) == want, (n, x)
    for n in range(9):
        for x in (0, 1, -3, F(1, 2), F(-7, 3)):
            assert bernoulli_poly(n, x) == oracle_bernoulli_poly(n, x), (n, x)


def test_bernoulli_numbers_known_values():
    for n, want in KNOWN_BERNOULLI.items():
        assert bernoulli_number(n) == want


def test_bernoulli_numbers_odd_vanish():
    for n in range(3, 40, 2):
        assert bernoulli_number(n) == 0


def test_bernoulli_number_rejects_negative():
    with pytest.raises(DomainError):
        bernoulli_number(-1)


def test_bernoulli_poly_low_degree_closed_forms():
    rng = random.Random(1)
    for _ in range(50):
        x = F(rng.randint(-40, 40), rng.randint(1, 12))
        assert bernoulli_poly(0, x) == 1
        assert bernoulli_poly(1, x) == x - F(1, 2)
        assert bernoulli_poly(2, x) == x * x - x + F(1, 6)
        assert bernoulli_poly(3, x) == x**3 - F(3, 2) * x * x + F(1, 2) * x


def test_bernoulli_poly_difference_equation():
    # B_n(x + 1) - B_n(x) = n x^{n-1}
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 9)
        x = F(rng.randint(-30, 30), rng.randint(1, 11))
        assert bernoulli_poly(n, x + 1) - bernoulli_poly(n, x) == n * x ** (n - 1)


def test_bernoulli_poly_reflection():
    # B_n(1 - x) = (-1)^n B_n(x)
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(0, 9)
        x = F(rng.randint(-30, 30), rng.randint(1, 11))
        assert bernoulli_poly(n, 1 - x) == (-1) ** n * bernoulli_poly(n, x)


def test_bernoulli_poly_at_zero_is_bernoulli_number():
    for n in range(0, 12):
        assert bernoulli_poly(n, 0) == bernoulli_number(n)


def test_periodic_bernoulli_periodicity_and_pins():
    assert periodic_bernoulli(1, 0) == 0
    assert periodic_bernoulli(1, 7) == 0
    assert periodic_bernoulli(1, F(1, 4)) == F(-1, 4)
    assert periodic_bernoulli(2, F(1, 5)) == F(1, 150)
    assert periodic_bernoulli(2, F(1, 3)) == F(-1, 18)
    assert periodic_bernoulli(2, F(1, 2)) == F(-1, 12)
    rng = random.Random(4)
    for _ in range(80):
        n = rng.randint(1, 6)
        x = F(rng.randint(-30, 30), rng.randint(1, 11))
        k = rng.randint(-5, 5)
        assert periodic_bernoulli(n, x + k) == periodic_bernoulli(n, x)


def test_periodic_bernoulli_odd_integer_convention():
    # P_1 vanishes at integers (sawtooth midpoint); odd n >= 3 also vanish.
    for n in (1, 3, 5):
        for k in (-2, 0, 5):
            assert periodic_bernoulli(n, k) == 0


def test_periodic_bernoulli_rejects_n_zero():
    with pytest.raises(DomainError):
        periodic_bernoulli(0, F(1, 2))


def test_hurwitz_zeta_nonpos_matches_polynomials():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(0, 6)
        q = F(rng.randint(1, 12), 12)
        assert hurwitz_zeta_nonpos(n, q) == -bernoulli_poly(n + 1, q) / (n + 1)
    assert hurwitz_zeta_nonpos(0, F(1, 3)) == F(1, 2) - F(1, 3)


def test_hurwitz_zeta_nonpos_domain():
    with pytest.raises(DomainError):
        hurwitz_zeta_nonpos(0, F(0))
    with pytest.raises(DomainError):
        hurwitz_zeta_nonpos(0, F(3, 2))
    with pytest.raises(DomainError):
        hurwitz_zeta_nonpos(-1, F(1, 2))


def test_periodic_eta_and_zeta_special_values():
    rng = random.Random(6)
    for _ in range(100):
        q = F(rng.randint(-60, 60), rng.randint(1, 13))
        assert periodic_eta_zero(q) == 2 * periodic_bernoulli(1, q)
        assert periodic_zeta_at(0, q) in (F(0), F(-1))
        assert periodic_zeta_at(0, q) == (F(-1) if q.denominator == 1 else F(0))
        assert periodic_zeta_at(-1, q) == -periodic_bernoulli(2, q)
    with pytest.raises(DomainError):
        periodic_zeta_at(1, F(1, 2))


def test_generating_recursion_consistency():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1 (independent restatement)
    for n in range(1, 20):
        acc = sum(comb(n + 1, k) * bernoulli_number(k) for k in range(n + 1))
        assert acc == 0
