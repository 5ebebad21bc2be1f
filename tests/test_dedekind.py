"""Exact Dedekind sums, the finite-Fourier oracle, and the closed difference.

Oracle strategy: the library computes every exact sum in O(log |c|)
Euclid steps (reciprocity, a floor sum).  Two slow oracles share none of
that code: the brute-force sums restated in terms of periodic_bernoulli
on Fractions, and the O(|c|) integer loops over one common denominator
below, fast enough to sweep every coprime pair up to a modulus of a few
hundred.  At huge moduli, where no loop can follow, the classical laws
(reciprocity, inversion, oddness, integrality, periodicity) stand in,
and so does Rademacher's Phi, computed from a word in S and T without
any Dedekind sum.  The finite-Fourier toolkit is float code and lives in
rhocalc.analytic; its tests stay here, beside the sums it checks.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest

from conftest import random_hyperbolic, random_sl2z
from dedekind_batch import dedekind_batch_exact
from rhocalc import (
    DomainError,
    SL2ZMatrix,
    classical_sum,
    cotangent_sum,
    dedekind,
    eta_untwisted_torus,
    generalized_sum,
    periodic_bernoulli,
    sum_difference_closed,
)
from rhocalc.analytic import PeriodicFunctionTable, finite_fourier_transform, p1_closed_fourier
from rhocalc.bernoulli import sgn
from rhocalc.sl2z import _unit


def oracle_classical(a: int, c: int) -> F:
    return sum(
        (
            periodic_bernoulli(1, F(k, c)) * periodic_bernoulli(1, F(a * k, c))
            for k in range(1, abs(c))
        ),
        F(0),
    )


def oracle_generalized(x, y, a: int, c: int) -> F:
    x, y = F(x), F(y)
    return sum(
        (
            periodic_bernoulli(1, F(k + x, 1) / c)
            * periodic_bernoulli(1, a * (k + x) / c + y)
            for k in range(abs(c))
        ),
        F(0),
    )


def _saw2(n: int, den: int) -> int:
    """2*den*P_1(n/den) as an integer (den > 0)."""
    r = n % den
    return 2 * r - den if r else 0


def loop_classical_num(a: int, c: int):
    """(num, 4 c^2) with s(a, c) = num/4c^2, summed over the |c| terms."""
    m = abs(c)
    a0 = a % m
    return sum((2 * (a0 * k % m) - m) * (2 * k - m) for k in range(1, m)), 4 * m * m


def loop_generalized_num(x: F, y: F, a: int, c: int):
    """(num, den) with s_{x,y}(a, c) = num/den, summed over the |c| terms."""
    m, s = abs(c), (1 if c > 0 else -1)
    qx, qy = x.denominator, y.denominator
    px, py = x.numerator % qx, y.numerator % qy
    den1, den2 = m * qx, m * qx * qy  # (k+x)/c and a(k+x)/c + y over these
    acc = 0
    for k in range(m):
        n1 = s * (k * qx + px)
        n2 = s * (a * qy * (k * qx + px) + c * qx * py)
        acc += _saw2(n1, den1) * _saw2(n2, den2)
    return acc, 4 * den1 * den2


def loop_difference_num(x: F, M: SL2ZMatrix, m1: int):
    """(num, den) for sum_difference_closed at x = p/q with m1 = x - x',
    the partial sawtooth sum taken over its |c| - (m1 mod |c|) terms."""
    p, q = x.numerator, x.denominator
    cabs = abs(M.c)
    d = pow(M.a, -1, cabs) if cabs > 1 else 0
    r = m1 % cabs
    acc = sum(_saw2(d * k, cabs) for k in range(1, cabs - r + 1))
    if q == 1:
        tail = _saw2(d * m1, cabs)
    else:
        tail = cabs if m1 % cabs == 0 else _saw2(m1, cabs)
    return 4 * p * (p - q) + q * q * (2 * acc + tail), 4 * q * q * cabs


def random_coprime(rng: random.Random, bound: int):
    while True:
        a = rng.randint(-bound, bound)
        c = rng.randint(-bound, bound)
        if c != 0 and gcd(a, c) == 1:
            return a, c


class TestUnit:
    """sl2z._unit, the one check of a unit a mod c behind every Dedekind sum."""

    def test_inverse_residue(self):
        rng = random.Random(13)
        pairs = [(3, 4), (2, -7), (0, 1), (5, -1), (-3, 10)]
        pairs += [random_coprime(rng, 60) for _ in range(100)]
        pairs += [random_coprime(rng, 10**40) for _ in range(100)]
        for a, c in pairs:
            m, h, d = _unit("test", a, c)
            assert m == abs(c) and 0 <= h < m and (h - a) % m == 0
            assert 0 <= d < m and (a * d - 1) % m == 0

    def test_rejects_bad_input(self):
        for a, c, message in [(2, 4, "gcd(a, c) = 1"), (0, 3, "gcd(a, c) = 1"), (1, 0, "a nonzero modulus c")]:
            with pytest.raises(DomainError, match=rf"^what requires {re.escape(message)}$"):
                _unit("what", a, c)


class TestClassicalSum:
    def test_pins(self):
        assert classical_sum(1, 3) == F(1, 18)
        assert classical_sum(3, 4) == F(-1, 8)
        assert classical_sum(1, 1) == 0
        assert classical_sum(0, 1) == 0

    def test_against_oracle(self):
        rng = random.Random(10)
        for _ in range(120):
            a, c = random_coprime(rng, 40)
            assert classical_sum(a, c) == oracle_classical(a, c)

    def test_symmetry_relations(self):
        # s(a, c) = s(a, |c|) = s(d, c) with d = a^{-1} mod c
        rng = random.Random(11)
        for _ in range(500):
            a, c = random_coprime(rng, 60)
            s = classical_sum(a, c)
            assert s == classical_sum(a, abs(c))
            d = pow(a, -1, abs(c))
            assert s == classical_sum(d, c)

    def test_oddness_in_a(self):
        rng = random.Random(12)
        for _ in range(80):
            a, c = random_coprime(rng, 50)
            assert classical_sum(-a, c) == -classical_sum(a, c)

    def test_every_coprime_pair_up_to_300_against_loops(self):
        # the batch loop gives 4 m^2 s(a, m) for all residues a at once;
        # each pair is also checked shifted by a multiple of m and at -m
        rng = random.Random(21)
        for m in range(1, 301):
            residues = np.array([a for a in range(m) if gcd(a, m) == 1], dtype=np.int64)
            for a, num in zip(residues.tolist(), dedekind_batch_exact(residues, m).tolist()):
                want = F(num, 4 * m * m)
                assert classical_sum(a, m) == want, (a, m)
                assert classical_sum(a + rng.randint(-2, 2) * m, -m) == want, (a, -m)

    def test_seeded_pairs_against_integer_loop(self):
        rng = random.Random(22)
        for _ in range(300):
            a, c = random_coprime(rng, 1000)
            assert classical_sum(a, c) == F(*loop_classical_num(a, c)), (a, c)


def huge_coprime(rng: random.Random, digits: int):
    """(a, c) coprime with 0 < a, c < 10^digits."""
    while True:
        a, c = rng.randrange(1, 10**digits), rng.randrange(2, 10**digits)
        if gcd(a, c) == 1:
            return a, c


@pytest.mark.parametrize("digits", [12, 50])
class TestLawsAtHugeModulus:
    """Laws that hold at any modulus, at |c| far past any loop."""

    def test_reciprocity(self, digits):
        rng = random.Random(digits)
        for _ in range(100):
            a, c = huge_coprime(rng, digits)
            want = F(-1, 4) + (F(a, c) + F(1, a * c) + F(c, a)) / 12
            assert classical_sum(a, c) + classical_sum(c, a) == want

    def test_inverse_oddness_and_sign_of_c(self, digits):
        rng = random.Random(digits + 1)
        for _ in range(100):
            a, c = huge_coprime(rng, digits)
            s = classical_sum(a, c)
            assert classical_sum(pow(a, -1, c), c) == s
            assert classical_sum(-a, c) == -s
            assert classical_sum(a, -c) == s
            assert (6 * c * s).denominator == 1

    def test_generalized_periodicity_and_classical_limit(self, digits):
        rng = random.Random(digits + 2)
        for _ in range(100):
            a, c = huge_coprime(rng, digits)
            c *= rng.choice((1, -1))
            x = F(rng.randrange(10**6), rng.randrange(1, 10**6))
            y = F(rng.randrange(-(10**6), 10**6), rng.randrange(1, 10**6))
            k, l = rng.randrange(-(10**30), 10**30), rng.randrange(-(10**30), 10**30)
            assert generalized_sum(x + k, y + l, a, c) == generalized_sum(x, y, a, c)
            assert generalized_sum(k, l, a, c) == classical_sum(a, c)


def rademacher_phi(M: SL2ZMatrix) -> F:
    """Rademacher's Phi(M), from M written as a word in T and S.

    M = T^q S M' with q = round(a/c), a' = a - q c, b' = b - q d and
    M' = [[c, d], [-a', -b']]; the cocycle Phi(AB) = Phi(A) + Phi(B)
    - 3 sgn(c_A c_B c_AB), Phi(T^q) = q and Phi(S) = 0 give
    Phi(M) = q + 3 sgn(a' c) + Phi(M'), and Phi = b/d once c = 0
    (Rademacher-Grosswald, Dedekind Sums, 1972, ch. 4).  The nearest
    integer quotient halves |c| at each step, so the word has O(log |c|)
    letters, and no Dedekind sum is used.
    """
    a, b, c, d = M.a, M.b, M.c, M.d
    total = 0
    while c:
        q = (2 * a + c) // (2 * c)  # floor(a/c + 1/2), exactly
        a, b = a - q * c, b - q * d
        total += q + 3 * sgn(a * c)
        a, b, c, d = c, d, -a, -b
    return total + F(b, d)


def phi_matrices(scale: str):
    """Seeded matrices of one size class: small random hyperbolic ones,
    |c| of 7, 12 or 50 digits with either sign, or c = +-1 with entries of
    161 and 400 digits (the huge-entry inputs of the CLI tests)."""
    if scale == "entries<=60":
        rng = random.Random(60)
        return [random_hyperbolic(rng, 60) for _ in range(400)]
    if scale == "c=+-1":
        out = []
        for c in (1, -1):
            for digits in (161, 400):
                a, d = 10 ** (digits - 1) + 7, 5
                out.append(SL2ZMatrix(a, (a * d - 1) // c, c, d))
        return out
    digits = int(scale.split("~1e")[1])
    rng = random.Random(digits)
    out = []
    while len(out) < 60:
        a, c = huge_coprime(rng, digits)
        a, c = a * rng.choice((1, -1)), c * rng.choice((1, -1))
        d = pow(a, -1, abs(c)) + rng.randint(-2, 2) * abs(c)
        M = SL2ZMatrix(a, (a * d - 1) // c, c, d)
        if abs(M.a + M.d) > 2 and abs(c) > 10 ** (digits - 1):
            out.append(M)
    return out


@pytest.mark.parametrize("scale", ["entries<=60", "|c|~1e7", "|c|~1e12", "|c|~1e50", "c=+-1"])
class TestRademacherPhi:
    """Phi against the reciprocity routine behind classical_sum and
    eta_untwisted_torus, at moduli far past the integer loops."""

    def test_eta_untwisted_torus(self, scale):
        for M in phi_matrices(scale):
            want = rademacher_phi(M) / 3 - sgn(M.c * (M.a + M.d))
            assert eta_untwisted_torus(M) == want, M

    def test_classical_sum(self, scale):
        for M in phi_matrices(scale):
            want = F(M.a + M.d, M.c) - 12 * sgn(M.c) * classical_sum(M.d, M.c)
            assert rademacher_phi(M) == want, M

    def test_psi_is_a_class_function(self, scale):
        rng = random.Random(7)

        def psi(M):
            return rademacher_phi(M) - 3 * sgn(M.c * (M.a + M.d))

        for M in phi_matrices(scale)[:40]:
            g = random_sl2z(rng, 30)
            assert psi(g @ M @ g.inverse()) == psi(M), (M, g)


class TestGeneralizedSum:
    def test_pins(self):
        assert generalized_sum(F(1, 2), F(0), 3, 4) == F(3, 16)
        assert generalized_sum(F(1, 2), F(1, 2), 3, 4) == F(-5, 16)
        assert generalized_sum(F(0), F(1, 2), 3, 4) == F(1, 8)

    def test_reduces_to_classical(self):
        rng = random.Random(13)
        for _ in range(60):
            a, c = random_coprime(rng, 40)
            assert generalized_sum(0, 0, a, c) == classical_sum(a, c)

    def test_against_oracle(self):
        rng = random.Random(14)
        for _ in range(100):
            a, c = random_coprime(rng, 25)
            x = F(rng.randint(0, 11), rng.randint(1, 12))
            y = F(rng.randint(-11, 11), rng.randint(1, 12))
            assert generalized_sum(x, y, a, c) == oracle_generalized(x, y, a, c)

    def test_every_coprime_pair_up_to_40_against_loop(self):
        # seeded (x, y) of five kinds at each pair, a shifted by a
        # multiple of |c|: generic, x integral, y integral, x = y = 0,
        # and unreduced values outside [0, 1)
        rng = random.Random(23)

        def rational(lo, hi):
            return F(rng.randint(lo, hi), rng.randint(1, 30))

        for c in [c for c in range(-40, 41) if c]:
            for a in range(abs(c)):
                if gcd(a, c) != 1:
                    continue
                a += rng.randint(-2, 2) * abs(c)
                for x, y in (
                    (rational(0, 29), rational(0, 29)),
                    (F(rng.randint(-3, 3)), rational(-29, 29)),
                    (rational(-29, 29), F(rng.randint(-3, 3))),
                    (F(0), F(0)),
                    (rational(-200, 200), rational(-200, 200)),
                ):
                    want = F(*loop_generalized_num(x, y, a, c))
                    assert generalized_sum(x, y, a, c) == want, (x, y, a, c)

    def test_seeded_pairs_up_to_300_against_loop(self):
        rng = random.Random(24)
        for _ in range(300):
            a, c = random_coprime(rng, 300)
            x = F(rng.randint(-50, 50), rng.randint(1, 1000))
            y = F(rng.randint(-50, 50), rng.randint(1, 1000))
            assert generalized_sum(x, y, a, c) == F(*loop_generalized_num(x, y, a, c)), (x, y, a, c)

    def test_periodicity_in_x_and_y(self):
        rng = random.Random(15)
        for _ in range(60):
            a, c = random_coprime(rng, 20)
            x = F(rng.randint(0, 11), rng.randint(1, 12))
            y = F(rng.randint(-11, 11), rng.randint(1, 12))
            assert generalized_sum(x + 1, y, a, c) == generalized_sum(x, y, a, c)
            assert generalized_sum(x, y + 1, a, c) == generalized_sum(x, y, a, c)


def test_vanishing_mean_full_residue_system():
    # sum_{k=1}^{|c|-1} P_1(k/c) = 0, exactly
    for c in list(range(2, 201)) + list(range(-200, -1)):
        total = sum((periodic_bernoulli(1, F(k, c)) for k in range(1, abs(c))), F(0))
        assert total == 0


def two_table_cotangent(a: int, c: int) -> float:
    """The cotangent formula with cot(pi d p / c) computed as its own
    table, not read from the table of cot(pi p / c)."""
    m = abs(c)
    d = pow(a, -1, m)
    ang = np.pi * np.arange(1, m, dtype=np.float64) / m
    base = np.cos(ang) / np.sin(ang)
    idx = (d * np.arange(1, m, dtype=np.int64)) % m
    lhs = np.cos(np.pi * idx / m) / np.sin(np.pi * idx / m)
    return float(np.dot(lhs, base) / (4.0 * m))


def units(m: int):
    return [a for a in range(1, m) if gcd(a, m) == 1]


class TestCotangentSum:
    @pytest.mark.parametrize("m", [2, 3, 7, 97, 499, 1000])
    def test_one_table_equals_two_tables_bitwise(self, m):
        for c in (m, -m):
            for a in units(m):
                assert cotangent_sum(a, c).hex() == two_table_cotangent(a, c).hex(), (a, c)

    def test_cached_table_is_read_only(self):
        before = cotangent_sum(3, 7)
        table = dedekind._cot_table(7)
        with pytest.raises(ValueError):
            table[0] = 1.0
        assert cotangent_sum(3, 7) == before

    def test_interleaved_moduli_equal_fresh_calls(self):
        def fresh(a, c):
            dedekind._cot_table.cache_clear()
            return cotangent_sum(a, c)

        sweep = [(a, c) for c in (499, -433, 499) for a in units(abs(c))]
        want = [fresh(a, c) for a, c in sweep]
        dedekind._cot_table.cache_clear()
        assert [cotangent_sum(a, c) for a, c in sweep] == want

    def test_unit_modulus_and_bad_input(self):
        assert cotangent_sum(0, 1) == 0.0
        assert cotangent_sum(5, -1) == 0.0
        dedekind._cot_table.cache_clear()
        for a, c in ((1, 0), (2, 4), (6, -9)):
            with pytest.raises(DomainError):
                cotangent_sum(a, c)
        assert dedekind._cot_table.cache_info().misses == 0

    def test_matches_classical_small(self):
        rng = random.Random(16)
        for _ in range(80):
            a, c = random_coprime(rng, 80)
            assert abs(cotangent_sum(a, c) - float(classical_sum(a, c))) < 1e-10

    def test_matches_classical_moderate_modulus(self):
        rng = random.Random(17)
        for _ in range(30):
            c = rng.choice([401, -433, 467, -499])
            a = rng.randint(1, abs(c) - 1)
            if gcd(a, c) != 1:
                continue
            assert abs(cotangent_sum(a, c) - float(classical_sum(a, c))) < 1e-9


class TestFiniteFourier:
    def test_transform_of_delta_is_constant(self):
        c = 7
        delta = PeriodicFunctionTable(c, tuple([1.0] + [0.0] * (c - 1)))
        hat = finite_fourier_transform(delta)
        assert all(abs(v - 1.0) < 1e-12 for v in hat.values)

    def test_inversion(self):
        rng = random.Random(18)
        for c in (5, -5, 8, -11):
            vals = tuple(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(abs(c))
            )
            table = PeriodicFunctionTable(c, vals)
            hat = finite_fourier_transform(table)
            m = abs(c)
            xi = np.exp(2j * np.pi / c)
            for k in range(m):
                recon = sum(hat(p) * xi ** (p * k) for p in range(m)) / m
                assert abs(recon - table(k)) < 1e-10

    def test_fourier_mult_relation(self):
        # g(k) = f(ak)  =>  ghat(p) = fhat(dp)
        rng = random.Random(19)
        for c in (7, -9, 11):
            a = 4 if gcd(4, c) == 1 else 5
            d = pow(a, -1, abs(c))
            vals = tuple(
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(abs(c))
            )
            f = PeriodicFunctionTable(c, vals)
            g = PeriodicFunctionTable(c, tuple(f(a * k) for k in range(abs(c))))
            fhat = finite_fourier_transform(f)
            ghat = finite_fourier_transform(g)
            for p in range(abs(c)):
                assert abs(ghat(p) - fhat(d * p)) < 1e-10

    @pytest.mark.parametrize("c", [3, -3, 5, -7, 9, -11, 13, -15, 17, -17])
    def test_convolution_identities(self, c):
        rng = random.Random(100 + c)
        m = abs(c)
        fv = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m))
        gv = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(m))
        f = PeriodicFunctionTable(c, fv)
        g = PeriodicFunctionTable(c, gv)
        fhat = finite_fourier_transform(f)
        ghat = finite_fourier_transform(g)
        xi = np.exp(2j * np.pi / c)
        # (f*g)(k) = (1/|c|) sum_p fhat(p) ghat(p) xi^{pk}
        for k in range(m):
            conv = sum(f(l) * g(k - l) for l in range(m))
            inv = sum(fhat(p) * ghat(p) * xi ** (p * k) for p in range(m)) / m
            assert abs(conv - inv) < 1e-10
        # (fhat*ghat)(p) = |c| sum_k f(k) g(k) xi^{-pk}
        for p in range(m):
            conv = sum(fhat(l) * ghat(p - l) for l in range(m))
            rhs = m * sum(f(k) * g(k) * xi ** (-p * k) for k in range(m))
            assert abs(conv - rhs) < 1e-10


class TestP1ClosedFourier:
    def test_zero_mode_is_signed_mean(self):
        for a, c in [(1, 5), (1, -5), (3, 7)]:
            # f(k) = P_1(a k / c) has mean 0 over a full residue system
            assert p1_closed_fourier(0, 0, a, c, 0) == 0

    @pytest.mark.parametrize(
        "x,y,a,c",
        [
            (F(1, 2), F(0), 1, 4),
            (F(1, 2), F(1, 2), 3, 4),
            (F(1, 3), F(1, 5), 2, 7),
            (F(0), F(1, 2), 3, -4),
            (F(2, 5), F(-1, 3), 5, -9),
        ],
    )
    def test_matches_dft_of_sampled_table(self, x, y, a, c):
        m = abs(c)
        vals = tuple(
            complex(periodic_bernoulli(1, a * (F(k) + x) / c + y)) for k in range(m)
        )
        hat = finite_fourier_transform(PeriodicFunctionTable(c, vals))
        for p in range(m):
            assert abs(p1_closed_fourier(x, y, a, c, p) - hat(p)) < 1e-12

    def test_d_residue_invariance(self):
        # the closed form only uses d through P_1-periodic expressions, so
        # replacing d by d + c must not change the value
        x, y, a, c = F(1, 2), F(1, 3), 3, 7
        d = pow(a, -1, abs(c))
        for p in range(1, abs(c)):
            v = p1_closed_fourier(x, y, a, c, p)
            d2 = d + abs(c)
            cot = 1.0 / math.tan(math.pi * d2 * p / c)
            cot1 = 1.0 / math.tan(math.pi * d * p / c)
            assert abs(cot - cot1) < 1e-9
            assert v == v  # value well-defined (no NaN)


class TestSumDifferenceClosed:
    def test_trivial_pin(self):
        m = SL2ZMatrix(3, 2, 4, 3)
        assert sum_difference_closed(0, 0, m) == 0

    def test_half_half_pin(self):
        m = SL2ZMatrix(3, 2, 4, 3)
        assert sum_difference_closed(F(1, 2), F(1, 2), m) == F(-3, 16)

    def test_matches_oracle_on_random_admissible(self):
        # admissible: (x, y) with (Id - M^t)(x, y) integral, taken from the
        # enumerated moduli of random matrices
        from rhocalc import enumerate_torus_connections

        rng = random.Random(20)
        checked = 0
        while checked < 100:
            m = random_sl2z(rng, 30)
            if m.c == 0 or abs(m.a + m.d) == 2:
                continue
            for conn in enumerate_torus_connections(m).isolated:
                x, y = conn.nu
                got = sum_difference_closed(x, y, m)
                want = generalized_sum(x, y, m.a, m.c) - classical_sum(m.a, m.c)
                assert got == want, (m, x, y)
                checked += 1

    def test_matches_integer_loop_on_admissible_classes(self):
        # up to 20 classes each of random hyperbolic matrices with |c| up
        # to 300, both signs of c, x = 0 and m_1 = 0 mod |c| among them
        from rhocalc import enumerate_torus_connections

        rng = random.Random(25)
        seen = set()
        for _ in range(150):
            M = random_hyperbolic(rng, 300)
            for conn in enumerate_torus_connections(M).isolated[:20]:
                x, y = conn.nu
                got = sum_difference_closed(x, y, M)
                assert got == F(*loop_difference_num(x, M, conn.m[0])), (M, x, y)
                seen.add((M.c < 0, x == 0, conn.m[0] % abs(M.c) == 0))
        assert {s[0] for s in seen} == {s[1] for s in seen} == {s[2] for s in seen} == {True, False}

    def test_rejects_inadmissible(self):
        m = SL2ZMatrix(3, 2, 4, 3)
        with pytest.raises(DomainError):
            sum_difference_closed(F(1, 3), F(1, 3), m)
        with pytest.raises(DomainError):
            sum_difference_closed(F(3, 2), F(1, 2), m)

    @pytest.mark.parametrize("x,y", [(F(1, 4), F(1, 4)), (F(1, 3), F(1, 3))])
    def test_rejects_each_nonintegral_component(self, x, y):
        # on [[3, 2], [4, 3]]: x - x' = -2x - 4y and y - y' = -2x - 2y;
        # (1/4, 1/4) fails only the first, (1/3, 1/3) only the second
        with pytest.raises(DomainError):
            sum_difference_closed(x, y, SL2ZMatrix(3, 2, 4, 3))
