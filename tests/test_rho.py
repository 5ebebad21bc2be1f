"""Rho, eta, and Chern-Simons invariants, every monodromy class.

Hyperbolic reference values are asserted against the closed theorems, with
the defining formulas restated locally as oracles.  The `±2/5` anchors
below for the degree-five example are the values of criterion 1's
reference table; the acceptance suite gives the amphichirality and
float-route evidence for them.
"""

from __future__ import annotations

import ast
import random
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from conftest import random_hyperbolic, random_parabolic, random_sl2z
from rhocalc import (
    CircleFlatConnection,
    DomainError,
    EigenphaseData,
    Hyperbolic,
    RhoBranch,
    SL2ZMatrix,
    TorusFlatConnection,
    UnsupportedClassError,
    chern_simons_mod1,
    classical_sum,
    classify,
    connection_from_nu,
    dai_correction_circle,
    enumerate_torus_connections,
    eta_truncated_circle,
    eta_untwisted_torus,
    generalized_sum,
    periodic_bernoulli,
    rho_circle,
    rho_finite_order_generic,
    rho_hyperbolic_prep,
    rho_torus,
    sum_difference_closed,
    transport_nu_from_normal_form,
)
from rhocalc.bernoulli import sgn
from test_moduli import oracle_enumerate, oracle_matrices


def _p1(x):
    return periodic_bernoulli(1, x)


def huge_sl2z(rng: random.Random, digits: int) -> SL2ZMatrix:
    """[[p, r], [q, s]] in SL(2, Z) with p, q of the given number of digits
    and 0 <= s < q, so every entry is about that size."""
    while True:
        p, q = rng.randrange(10 ** (digits - 1), 10**digits), rng.randrange(10 ** (digits - 1), 10**digits)
        if gcd(p, q) == 1:
            break
    s = pow(p, -1, q)
    g = SL2ZMatrix(p, (p * s - 1) // q, q, s)
    return g if rng.random() < 0.5 else g @ SL2ZMatrix(0, -1, 1, 0)


def oracle_sixterm(M: SL2ZMatrix, nu1: F, m1: int) -> F:
    """The hyperbolic rho as the paper's six-term form, term by term in
    Fractions, with r = m_1 mod |c|:

        (2(a+d) - 4)/c * (P_2(nu_1) - 1/6) - 4 * sum_{k=1}^{|c|-r} P_1(d k / c)
        + sgn(c (a+d)) - sgn(c) [nu_1 not in Z] (1 - [m_1/c not in Z])
        - 2 P_1(d m_1 / c) - 2 [nu_1 not in Z] (P_1(m_1/c) - P_1(d m_1/c))
    """
    a, c, d = M.a, M.c, M.d
    cabs = abs(c)
    r = m1 % cabs
    delta_nu1 = nu1.denominator != 1
    value = F(2 * (a + d) - 4, c) * (periodic_bernoulli(2, nu1) - F(1, 6))
    value -= 4 * sum(
        (_p1(F(d * k, c)) for k in range(1, cabs - r + 1)), F(0)
    )
    value += sgn(c * (a + d))
    if delta_nu1 and m1 % c == 0:
        value -= sgn(c)
    value -= 2 * _p1(F(d * m1, c))
    if delta_nu1:
        value -= 2 * (_p1(F(m1, c)) - _p1(F(d * m1, c)))
    return value


class TestRhoCircle:
    def test_zero_degree(self):
        v = rho_circle(CircleFlatConnection(0, 3))
        assert v.value == 0
        assert v.branch == RhoBranch.CIRCLE_ZERO_DEGREE

    def test_trivial_connection(self):
        v = rho_circle(CircleFlatConnection(3, 6, is_trivial=True))
        assert v.value == 0
        assert v.branch == RhoBranch.CIRCLE_TRIVIAL

    def test_nontrivial_closed_form(self):
        # 2l(P_2(k/l) - 1/6) + sgn(l)
        v = rho_circle(CircleFlatConnection(3, 2))
        want = 2 * 3 * (periodic_bernoulli(2, F(2, 3)) - F(1, 6)) + 1
        assert v.value == want == F(-1, 3)
        assert v.branch == RhoBranch.CIRCLE_NONTRIVIAL
        v = rho_circle(CircleFlatConnection(-3, 2))
        want = 2 * -3 * (periodic_bernoulli(2, F(-2, 3)) - F(1, 6)) - 1
        assert v.value == want
        v = rho_circle(CircleFlatConnection(5, 1))
        assert v.value == 2 * 5 * (periodic_bernoulli(2, F(1, 5)) - F(1, 6)) + 1

    def test_integer_holonomy_nontrivial(self):
        # q integral but connection not marked trivial: P_2 term is B_2
        v = rho_circle(CircleFlatConnection(3, 6))
        assert v.value == sgn(3)


class TestEtaTruncatedCircle:
    def test_closed_form(self):
        assert eta_truncated_circle(CircleFlatConnection(3, 2)) == 2 * 3 * periodic_bernoulli(2, F(2, 3))
        assert eta_truncated_circle(CircleFlatConnection(-4, 3)) == -8 * periodic_bernoulli(2, F(-3, 4))

    def test_rejects_degree_zero(self):
        with pytest.raises(DomainError):
            eta_truncated_circle(CircleFlatConnection(0, 1))


class TestDaiCorrectionCircle:
    def test_values(self):
        assert dai_correction_circle(3, True) == -1
        assert dai_correction_circle(-3, True) == 1
        assert dai_correction_circle(3, False) == 0
        with pytest.raises(DomainError):
            dai_correction_circle(0, True)


class TestRhoTorusElliptic:
    @pytest.mark.parametrize(
        "mat,theta",
        [
            (SL2ZMatrix(0, -1, 1, 1), F(1, 6)),
            (SL2ZMatrix(0, -1, 1, 0), F(1, 4)),
            (SL2ZMatrix(-1, -1, 1, 0), F(1, 3)),
        ],
    )
    def test_twisted_closed_form(self, mat, theta):
        for conn in enumerate_torus_connections(mat).isolated:
            if conn.nu == (F(0), F(0)):
                continue
            v = rho_torus(mat, conn)
            assert v.value == (2 - 4 * theta) * sgn(mat.c)
            assert v.branch == RhoBranch.ELLIPTIC_TWISTED

    def test_twisted_negative_c(self):
        mat = SL2ZMatrix(0, 1, -1, 1)  # inverse-type element with c < 0
        cls = classify(mat)
        for conn in enumerate_torus_connections(mat).isolated:
            if conn.nu == (F(0), F(0)):
                continue
            v = rho_torus(mat, conn)
            assert v.value == (2 - 4 * cls.theta) * sgn(mat.c)

    def test_trivial_restriction_branches(self):
        mat = SL2ZMatrix(0, -1, 1, 0)  # theta = 1/4
        conn = connection_from_nu(mat, (F(0), F(0)), gauge_lambda=F(1, 3))
        # dist(1/3, Z) = 1/3 > 1/4: rho = 0
        assert rho_torus(mat, conn).value == 0
        conn = connection_from_nu(mat, (F(0), F(0)), gauge_lambda=F(1, 4))
        # dist = theta: sgn(c)
        assert rho_torus(mat, conn).value == 1
        conn = connection_from_nu(mat, (F(0), F(0)), gauge_lambda=F(1, 5))
        # dist = 1/5 < 1/4: 2 sgn(c)
        assert rho_torus(mat, conn).value == 2

    def test_lambda_outside_unit_interval(self):
        # lambda = 5/2 once reached the comparison unreduced and gave
        # 2 sgn(c); its class is lambda = 1/2, with dist 1/2 > theta = 1/4
        mat = SL2ZMatrix(0, -1, 1, 0)
        with pytest.raises(DomainError):
            TorusFlatConnection((F(0), F(0)), (0, 0), F(5, 2))
        conn = connection_from_nu(mat, (F(0), F(0)), gauge_lambda=F(5, 2))
        assert conn.gauge_lambda == F(1, 2)
        assert rho_torus(mat, conn).value == 0

    def test_trivial_restriction_requires_lambda(self):
        mat = SL2ZMatrix(0, -1, 1, 0)
        conn = connection_from_nu(mat, (F(0), F(0)))
        with pytest.raises(DomainError):
            rho_torus(mat, conn)


class TestRhoTorusParabolic:
    def test_closed_form_positive_eps(self):
        mat = SL2ZMatrix(1, 3, 0, 1)
        # families: nu1 in {0, 1/3, 2/3}, nu2 free; choose nu2 = 1/2
        for j in range(3):
            nu = (F(j, 3), F(1, 2))
            if j == 0:
                # nu1 = 0 with nu2 not integral is still twisted
                conn = connection_from_nu(mat, nu)
                v = rho_torus(mat, conn)
                assert v.value == 2 * 3 * (periodic_bernoulli(2, F(0)) - F(1, 6)) + 1
                continue
            conn = connection_from_nu(mat, nu)
            v = rho_torus(mat, conn)
            assert v.value == 2 * 3 * (periodic_bernoulli(2, F(j, 3)) - F(1, 6)) + 1
            assert v.branch == RhoBranch.PARABOLIC

    def test_negative_eps_no_unit_term(self):
        mat = SL2ZMatrix(-1, 5, 0, -1)
        mod = enumerate_torus_connections(mat)
        for conn in mod.isolated:
            if conn.nu == (F(0), F(0)):
                continue
            v = rho_torus(mat, conn)
            cls = classify(mat)
            _, l, nu_prime = (cls.epsilon, cls.l, None)
            assert v.branch == RhoBranch.PARABOLIC

    def test_normal_form_computed_once_per_matrix(self, monkeypatch):
        # the class, with its conjugator, is kept on the matrix object: the
        # enumeration and every rho_torus call on it share one normal form
        import rhocalc.sl2z

        calls = []
        real = rhocalc.sl2z.parabolic_normal_form

        def counting(mat):
            calls.append(mat)
            return real(mat)

        monkeypatch.setattr(rhocalc.sl2z, "parabolic_normal_form", counting)
        g = SL2ZMatrix(2, 1, 1, 1)
        minus = g @ SL2ZMatrix(-1, -3, 0, -1) @ g.inverse()
        plus = g @ SL2ZMatrix(1, 3, 0, 1) @ g.inverse()
        conns = [c for c in enumerate_torus_connections(minus).isolated if not c.restriction_trivial]
        assert conns
        for conn in conns:
            rho_torus(minus, conn)
        assert calls == [minus]
        calls.clear()
        families = enumerate_torus_connections(plus).families
        assert len(families) == 3
        for family in families:
            rho_torus(plus, family.representative)
        assert calls == [plus]

    def test_rejects_untwisted(self):
        mat = SL2ZMatrix(1, 3, 0, 1)
        conn = connection_from_nu(mat, (F(0), F(0)))
        with pytest.raises(UnsupportedClassError):
            rho_torus(mat, conn)

    def test_conjugation_invariance(self):
        rng = random.Random(50)
        for _ in range(30):
            mat = random_parabolic(rng, 5, 4)
            cls = classify(mat)
            if cls.epsilon != 1:
                continue
            from rhocalc import transport_nu_from_normal_form

            for j in range(1, abs(cls.l)):
                nu_prime = (F(j, abs(cls.l)), F(1, 2))
                nu = transport_nu_from_normal_form(mat, nu_prime)
                conn = connection_from_nu(mat, nu)
                v = rho_torus(mat, conn)
                want = 2 * cls.l * (
                    periodic_bernoulli(2, nu_prime[0]) - F(1, 6)
                ) + sgn(cls.l)
                assert v.value == want


class TestRhoTorusHyperbolic:
    def test_degree_five_closed_form_anchors(self):
        # the ± pairs that amphichirality demands (P M P^-1 = M^-1 with
        # P = [[-3, -5], [2, 3]]); integer parts from the float route in
        # test_analytic.py; both are laid out in test_acceptance.py
        mat = SL2ZMatrix(-2, 1, 1, -1)
        values = {}
        for conn in enumerate_torus_connections(mat).isolated:
            if conn.nu == (F(0), F(0)):
                continue
            values[conn.nu] = rho_torus(mat, conn).value
        assert values == {
            (F(1, 5), F(3, 5)): F(-2, 5),
            (F(2, 5), F(1, 5)): F(2, 5),
            (F(3, 5), F(4, 5)): F(2, 5),
            (F(4, 5), F(2, 5)): F(-2, 5),
        }

    def test_trace_six_anchors(self):
        mat = SL2ZMatrix(3, 2, 4, 3)
        got = {
            conn.nu: rho_torus(mat, conn).value
            for conn in enumerate_torus_connections(mat).isolated
            if conn.nu != (F(0), F(0))
        }
        assert got == {
            (F(0), F(1, 2)): F(0),
            (F(1, 2), F(0)): F(-1),
            (F(1, 2), F(1, 2)): F(1),
        }

    def test_two_path_identity(self):
        rng = random.Random(51)
        checked = 0
        while checked < 200:
            mat = random_hyperbolic(rng, 30)
            for conn in enumerate_torus_connections(mat).isolated:
                if conn.nu == (F(0), F(0)):
                    continue
                a = rho_torus(mat, conn)
                b = rho_hyperbolic_prep(mat, conn)
                assert a.value == b.value, (mat, conn.nu)
                checked += 1

    def test_conjugation_and_two_path_at_huge_modulus(self):
        # g M g^-1 with |entries of g| near 10^25 has |c| near 10^50; its
        # class g^-t nu carries the same rho, and the floor-sum route of
        # rho_torus meets the reciprocity route of rho_hyperbolic_prep
        rng = random.Random(54)
        checked = 0
        while checked < 160:
            mat = random_hyperbolic(rng, 6)
            g = huge_sl2z(rng, 25)
            big = g @ mat @ g.inverse()
            assert abs(big.c) > 10**40
            for conn in enumerate_torus_connections(mat).isolated:
                if conn.nu == (F(0), F(0)):
                    continue
                nu = g.inverse().transpose_apply(conn.nu)
                moved = connection_from_nu(big, (nu[0] % 1, nu[1] % 1))
                want = rho_torus(mat, conn).value
                assert rho_torus(big, moved).value == want, (mat, g, conn.nu)
                assert rho_hyperbolic_prep(big, moved).value == want, (mat, g, conn.nu)
                checked += 1

    def test_matches_sixterm_oracle(self):
        # the two-path identity above only checks the Dedekind difference;
        # the shared assembly is checked here against the literal form
        rng = random.Random(53)
        mats = [SL2ZMatrix(3, -2, -4, 3), SL2ZMatrix(2, 1, 1, 1)]
        mats += [random_hyperbolic(rng, 30) for _ in range(60)]
        seen = set()
        for mat in mats:
            for conn in enumerate_torus_connections(mat).isolated:
                if conn.nu == (F(0), F(0)):
                    continue
                want = oracle_sixterm(mat, conn.nu[0], conn.m[0])
                assert rho_torus(mat, conn).value == want, (mat, conn.nu)
                seen.add((mat.c < 0, conn.m[0] % abs(mat.c) == 0, abs(mat.c) == 1))
        # c < 0, r = m_1 mod |c| = 0 and |c| = 1 all occur
        assert {s[0] for s in seen} == {s[1] for s in seen} == {True, False}
        assert (False, True, True) in seen

    def test_integer_assembly_on_oracle_classes(self):
        # both integer assemblies against the Fraction six-term form, on
        # every twisted hyperbolic class of the enumeration oracle's matrices
        checked = 0
        for mat in oracle_matrices():
            if mat.trace * mat.trace <= 4:
                continue
            for conn in oracle_enumerate(mat):
                if conn.restriction_trivial:
                    continue
                want = oracle_sixterm(mat, conn.nu[0], conn.m[0])
                assert rho_torus(mat, conn).value == want, (mat, conn.nu)
                assert rho_hyperbolic_prep(mat, conn).value == want, (mat, conn.nu)
                checked += 1
        assert checked > 3000

    def test_prep_path_formula_shape(self):
        # prep path equals the assembled Dedekind-difference expression
        mat = SL2ZMatrix(3, 2, 4, 3)
        conn = connection_from_nu(mat, (F(1, 2), F(1, 2)))
        v = rho_hyperbolic_prep(mat, conn)
        a, c, d = mat.a, mat.c, mat.d
        want = (
            F(2 * (a + d), c) * (periodic_bernoulli(2, F(1, 2)) - F(1, 6))
            - 4 * sgn(c) * (generalized_sum(F(1, 2), F(1, 2), a, c) - classical_sum(a, c))
            + sgn(c * (a + d))
        )
        assert v.value == want

    def test_rejects_untwisted(self):
        mat = SL2ZMatrix(3, 2, 4, 3)
        conn = connection_from_nu(mat, (F(0), F(0)))
        with pytest.raises(UnsupportedClassError):
            rho_torus(mat, conn)
        with pytest.raises(UnsupportedClassError):
            rho_hyperbolic_prep(mat, conn)

    def test_nu_periodicity(self):
        rng = random.Random(52)
        for _ in range(20):
            mat = random_hyperbolic(rng, 20)
            for conn in enumerate_torus_connections(mat).isolated:
                if conn.nu == (F(0), F(0)):
                    continue
                shifted = connection_from_nu(
                    mat, (conn.nu[0] + 3, conn.nu[1] - 2)
                )
                assert rho_torus(mat, shifted).value == rho_torus(mat, conn).value


class TestRhoTorusRejections:
    def test_identity_rejected(self):
        conn_mat = SL2ZMatrix(1, 0, 0, 1)
        with pytest.raises(UnsupportedClassError):
            rho_torus(conn_mat, connection_from_nu(conn_mat, (F(0), F(0))))

    def test_minus_identity_rejected(self):
        mat = SL2ZMatrix(-1, 0, 0, -1)
        conn = connection_from_nu(mat, (F(1, 2), F(1, 2)))
        with pytest.raises(UnsupportedClassError):
            rho_torus(mat, conn)


class TestEtaUntwisted:
    @pytest.mark.parametrize(
        "mat,want",
        [
            (SL2ZMatrix(0, -1, 1, 1), F(-4, 3)),
            (SL2ZMatrix(-1, -1, 1, 0), F(-2, 3)),
            (SL2ZMatrix(0, -1, 1, 0), F(-1)),
        ],
    )
    def test_elliptic_pins(self, mat, want):
        assert eta_untwisted_torus(mat) == want

    def test_hyperbolic_closed_form(self):
        rng = random.Random(53)
        for _ in range(50):
            mat = random_hyperbolic(rng, 25)
            a, c, d = mat.a, mat.c, mat.d
            want = F(a + d, 3 * c) - 4 * sgn(c) * classical_sum(a, c) - sgn(c * (a + d))
            assert eta_untwisted_torus(mat) == want

    def test_hyperbolic_pin_vanishes(self):
        assert eta_untwisted_torus(SL2ZMatrix(3, 2, 4, 3)) == 0

    def test_hyperbolic_beyond_double_range(self):
        # the exact value needs no float; the float payload refuses cleanly
        from rhocalc.analytic import _kappa_alpha_beta

        a, c, d = 10**160 + 3, -1, 7
        mat = SL2ZMatrix(a, (a * d - 1) // c, c, d)
        assert eta_untwisted_torus(mat) == F(a + d, 3 * c) - sgn(c * (a + d))
        assert isinstance(classify(mat), Hyperbolic)
        with pytest.raises(DomainError):
            _kappa_alpha_beta(mat)

    def test_parabolic_rejected(self):
        with pytest.raises(UnsupportedClassError):
            eta_untwisted_torus(SL2ZMatrix(1, 3, 0, 1))


class TestChernSimons:
    def test_congruence_hyperbolic(self):
        rng = random.Random(54)
        checked = 0
        while checked < 150:
            mat = random_hyperbolic(rng, 25)
            for conn in enumerate_torus_connections(mat).isolated:
                if conn.nu == (F(0), F(0)):
                    continue
                rho = rho_torus(mat, conn).value
                cs = chern_simons_mod1(mat, conn)
                assert (rho - cs).denominator == 1, (mat, conn.nu)
                assert 0 <= cs < 1
                checked += 1

    def test_congruence_parabolic(self):
        rng = random.Random(55)
        checked = 0
        while checked < 60:
            mat = random_parabolic(rng, 6, 5)
            mod = enumerate_torus_connections(mat)
            for conn in mod.isolated:
                if conn.nu == (F(0), F(0)):
                    continue
                rho = rho_torus(mat, conn).value
                cs = chern_simons_mod1(mat, conn)
                assert (rho - cs).denominator == 1
                checked += 1
            cls = classify(mat)
            if cls.epsilon == 1:
                from rhocalc import transport_nu_from_normal_form

                for j in range(1, abs(cls.l)):
                    nu = transport_nu_from_normal_form(
                        mat, (F(j, abs(cls.l)), F(1, 2))
                    )
                    conn = connection_from_nu(mat, nu)
                    rho = rho_torus(mat, conn).value
                    cs = chern_simons_mod1(mat, conn)
                    assert (rho - cs).denominator == 1
                    checked += 1

    def test_parabolic_normal_form_value(self):
        # CS = 2 l nu1^2 mod 1 for the shear itself
        mat = SL2ZMatrix(1, 3, 0, 1)
        conn = connection_from_nu(mat, (F(1, 3), F(1, 2)))
        cs = chern_simons_mod1(mat, conn)
        want = 2 * 3 * F(1, 3) ** 2
        assert cs == want - (want // 1)

    def test_hand_built_connections_are_checked(self):
        # nu = (6/5, 3/5) with m = (0, 0) once gave rho_hyperbolic_prep -2/5
        # and chern_simons_mod1 0 while rho_torus raised; such a connection
        # can no longer be built, so no route computes from it
        mat = SL2ZMatrix(-2, 1, 1, -1)
        with pytest.raises(DomainError):
            TorusFlatConnection((F(6, 5), F(3, 5)), (0, 0))
        # nu in range but m != (Id - M^t) nu: chern_simons_mod1 reads m
        good = connection_from_nu(mat, (F(1, 5), F(3, 5)))
        assert good.m != (0, 0)
        bad = TorusFlatConnection(good.nu, (0, 0))
        with pytest.raises(DomainError):
            chern_simons_mod1(mat, bad)
        assert chern_simons_mod1(mat, good) == F(3, 5)
        # inadmissible classes that once got a value: 2/49 from
        # rho_hyperbolic_prep, 1 from the elliptic and 13/49 from the
        # parabolic branch of rho_torus, and 2/49 from chern_simons_mod1
        # for a non-integral m that passed its check
        cases = [
            (mat, (F(1, 7), F(0)), (0, 0), "Id - M"),
            (SL2ZMatrix(0, -1, 1, 0), (F(1, 3), F(0)), (0, 0), "Id - M"),
            (SL2ZMatrix(1, 3, 0, 1), (F(1, 7), F(1, 2)), (0, 0), "Id - M"),
            (mat, (F(1, 7), F(0)), (F(3, 7), F(-1, 7)), "pair of ints"),
        ]
        for matrix, nu, m, why in cases:
            for route in (rho_torus, rho_hyperbolic_prep, chern_simons_mod1):
                with pytest.raises(DomainError, match=why):
                    route(matrix, TorusFlatConnection(nu, m))


class TestParabolicCircleCoincidence:
    def test_all_shears_small_degree(self):
        for l in range(-6, 7):
            if l == 0:
                continue
            mat = SL2ZMatrix(1, l, 0, 1)
            for k in range(abs(l)):
                nu = (F(k, l) - (F(k, l) // 1), F(1, 2))
                conn = connection_from_nu(mat, nu)
                torus_value = rho_torus(mat, conn).value
                circle_conn = CircleFlatConnection(l, k, is_trivial=False)
                circle_value = rho_circle(circle_conn).value
                assert torus_value == circle_value, (l, k)


class TestFiniteOrderGeneric:
    def test_matches_elliptic_closed_form(self):
        for theta in (F(1, 6), F(1, 4), F(1, 3)):
            # c > 0 orientation: untwisted phase theta
            data = EigenphaseData(
                plus_phases=(), minus_phases=(), untwisted_plus_phases=(theta,), rank_k=1
            )
            assert rho_finite_order_generic(data) == 2 - 4 * theta
            # c < 0 orientation: untwisted phase 1 - theta
            data = EigenphaseData(
                plus_phases=(),
                minus_phases=(),
                untwisted_plus_phases=(1 - theta,),
                rank_k=1,
            )
            assert rho_finite_order_generic(data) == 4 * theta - 2

    def test_twisted_phases_contribute(self):
        data = EigenphaseData(
            plus_phases=(F(1, 3),),
            minus_phases=(F(1, 4),),
            untwisted_plus_phases=(),
            rank_k=1,
        )
        want = (2 * F(1, 3) - 1) - (2 * F(1, 4) - 1)
        assert rho_finite_order_generic(data) == want

    def test_validation(self):
        with pytest.raises(DomainError):
            EigenphaseData(
                plus_phases=(F(1, 3),),
                minus_phases=(),
                untwisted_plus_phases=(),
                rank_k=1,
            )
        with pytest.raises(DomainError):
            EigenphaseData(
                plus_phases=(), minus_phases=(), untwisted_plus_phases=(F(3, 2),), rank_k=1
            )


class TestOrientationReversal:
    def test_inverse_negates_rho_pin(self):
        mat = SL2ZMatrix(3, 2, 4, 3)
        inv = mat.inverse()
        nu = (F(1, 2), F(1, 2))
        v = rho_torus(mat, connection_from_nu(mat, nu)).value
        w = rho_torus(inv, connection_from_nu(inv, nu)).value
        assert v == 1 and w == -1

    def test_inverse_negates_rho_random(self):
        rng = random.Random(56)
        for _ in range(40):
            mat = random_hyperbolic(rng, 20)
            inv = mat.inverse()
            for conn in enumerate_torus_connections(mat).isolated:
                if conn.nu == (F(0), F(0)):
                    continue
                v = rho_torus(mat, conn).value
                w = rho_torus(inv, connection_from_nu(inv, conn.nu)).value
                assert w == -v, (mat, conn.nu)


class TestNuNegation:
    """rho and CS of the class -nu equal those of nu: complex conjugation
    maps the flat connection with twist nu to the one with twist -nu."""

    @staticmethod
    def twisted_classes(mat):
        mod = enumerate_torus_connections(mat)
        yield from (c for c in mod.isolated if not c.restriction_trivial)
        yield from (f.representative for f in mod.families)

    def test_rho_and_cs_even_in_nu(self):
        rng = random.Random(57)
        kinds, checked = set(), 0
        for _ in range(300):
            mat = random_sl2z(rng, 30)
            kind = type(classify(mat)).__name__
            if kind == "Identity":
                continue
            for conn in self.twisted_classes(mat):
                neg = connection_from_nu(mat, (-conn.nu[0], -conn.nu[1]))
                assert rho_torus(mat, neg) == rho_torus(mat, conn), (mat, conn.nu)
                assert chern_simons_mod1(mat, neg) == chern_simons_mod1(mat, conn), (mat, conn.nu)
                kinds.add(kind)
                checked += 1
        assert kinds == {"Elliptic", "Parabolic", "Hyperbolic"}
        assert checked > 1000

    def test_closed_difference_matches_prep_on_hyperbolic_classes(self):
        # the same matrices: rho_torus hands its m_1 to the closed Dedekind
        # difference, rho_hyperbolic_prep sums the two Dedekind sums
        rng = random.Random(57)
        checked = 0
        for _ in range(300):
            mat = random_sl2z(rng, 30)
            if type(classify(mat)).__name__ != "Hyperbolic":
                continue
            for conn in self.twisted_classes(mat):
                assert rho_torus(mat, conn).value == rho_hyperbolic_prep(mat, conn).value, (mat, conn.nu)
                checked += 1
        assert checked > 1000


class TestTransferLaw:
    """The whole-group transfer law, an exact oracle for the twisted
    closed form at every |c|:

        sum over the twisted classes nu of rho(M, nu) = (sgn delta - D) eta(M)

    for hyperbolic M, with delta = det(Id - M) = 2 - tr M and D = |delta|.

    Derivation.  L = (Id - M)Z^2 has index D in Z^2, and M acts trivially
    on Z^2/L (Mx - x lies in L), so M descends to R^2/L and its mapping
    torus is a regular D-fold cover of that of M on R^2/Z^2, with deck
    group Z^2/L.  The characters of Z^2/L are the nu with <nu, L> in Z,
    that is (Id - M^t) nu in Z^2: the D isolated classes, trivial along the
    base circle.  Eta invariants add up over the characters of a finite
    cover's deck group (Atiyah-Patodi-Singer, Spectral asymmetry and
    Riemannian geometry II, 1975), so eta(cover) = sum_nu eta_nu(M), and
    rho = eta_nu - eta gives sum_nu rho(M, nu) = eta(cover) - D eta(M).
    The basis B = Id - M of L identifies R^2/L with R^2/Z^2 and conjugates
    M to B^{-1} M B = M; it reverses the fiber's orientation when
    delta < 0, so eta(cover) = sgn(delta) eta(M).  The trivial class
    nu = 0 has rho 0 and is left out of the sum.

    The right side needs only classical sums; the left side goes through
    the floor sum of the closed Dedekind difference, and a class missing
    from or doubled in the enumeration breaks the sum.
    """

    @staticmethod
    def word_conjugate(rng: random.Random, mat: SL2ZMatrix) -> SL2ZMatrix:
        # g = prod T^k S = prod [[k, -1], [1, 0]], up to about 90 digits
        g = SL2ZMatrix.identity()
        for _ in range(rng.randint(1, 90)):
            g = g @ SL2ZMatrix(rng.choice((-1, 1)) * rng.randint(1, 12), -1, 1, 0)
        return g @ mat @ g.inverse()

    @staticmethod
    def rho_sum(mat: SL2ZMatrix) -> F:
        classes = enumerate_torus_connections(mat).isolated
        return sum((rho_torus(mat, c).value for c in classes if not c.restriction_trivial), F(0))

    def test_whole_group_law(self):
        rng = random.Random(58)
        signs, digits = set(), 0
        for _ in range(200):
            base = random_hyperbolic(rng, 12)
            for mat in (base, self.word_conjugate(rng, base)):
                delta = 2 - mat.trace
                assert self.rho_sum(mat) == (sgn(delta) - abs(delta)) * eta_untwisted_torus(mat), mat
                signs.add((sgn(mat.c), sgn(mat.trace)))
                digits = max(digits, len(str(abs(mat.c))))
        assert signs == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        assert digits > 50


class TestPerMatrixCache:
    """What depends only on M (its class, |c|, the signs, a^{-1} mod |c|,
    s(a, c), the partial sawtooth sums) is computed once per matrix object
    and kept on it.  Nothing of that cache shows from outside, and each
    part of it is computed at most once per matrix."""

    @staticmethod
    def matrices(seed: int, count: int):
        rng = random.Random(seed)
        mats = []
        for _ in range(count):
            base = random_hyperbolic(rng, 12)
            mats += [base, TestTransferLaw.word_conjugate(rng, base)]
        return mats

    def test_cache_is_invisible(self):
        signs, digits = set(), 0
        for mat in self.matrices(20, 40):
            entries = (mat.a, mat.b, mat.c, mat.d)
            before = (repr(mat), hash(mat))
            classes = enumerate_torus_connections(mat).isolated
            assert classes == enumerate_torus_connections(SL2ZMatrix(*entries)).isolated
            for conn in classes:
                if conn.restriction_trivial:
                    continue
                nu1, nu2 = conn.nu
                # the cached M against a fresh copy per call
                assert rho_torus(mat, conn) == rho_torus(SL2ZMatrix(*entries), conn)
                assert rho_hyperbolic_prep(mat, conn) == rho_hyperbolic_prep(SL2ZMatrix(*entries), conn)
                assert chern_simons_mod1(mat, conn) == chern_simons_mod1(SL2ZMatrix(*entries), conn)
                assert sum_difference_closed(nu1, nu2, mat) == sum_difference_closed(
                    nu1, nu2, SL2ZMatrix(*entries)
                )
            assert eta_untwisted_torus(mat) == eta_untwisted_torus(SL2ZMatrix(*entries))
            assert classify(mat) is classify(mat)
            assert len(vars(mat)) > 4  # the cache is filled
            copy = SL2ZMatrix(*entries)
            assert len(vars(copy)) == 4
            assert mat == copy and copy == mat and hash(mat) == hash(copy) and repr(mat) == repr(copy)
            assert len({mat, copy}) == 1
            assert (repr(mat), hash(mat)) == before
            for name in ("a", "_class", "_sawtooth"):
                with pytest.raises(AttributeError):
                    setattr(mat, name, None)
            signs.add((sgn(mat.c), sgn(mat.trace)))
            digits = max(digits, len(str(abs(mat.c))))
        assert signs == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        assert digits > 50

    def test_per_matrix_work_runs_once(self, monkeypatch):
        import rhocalc.dedekind
        import rhocalc.moduli
        import rhocalc.rho
        import rhocalc.sl2z

        counts = {}
        for home, name in (
            (rhocalc.sl2z, "_inverse_mod"),
            (rhocalc.dedekind, "_classical_num"),
            (rhocalc.sl2z, "parabolic_normal_form"),
        ):

            def counting(*args, name=name, real=getattr(home, name)):
                counts[name] = counts.get(name, 0) + 1
                return real(*args)

            # every module that holds the name, so no route escapes the count
            for module in (rhocalc.sl2z, rhocalc.dedekind, rhocalc.moduli, rhocalc.rho):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        real_floor_sum = rhocalc.dedekind._floor_sum
        floor_sums = []
        monkeypatch.setattr(
            rhocalc.dedekind, "_floor_sum", lambda *args: floor_sums.append(args) or real_floor_sum(*args)
        )
        rng = random.Random(21)
        mats = self.matrices(22, 40)
        mats += [random_parabolic(rng, 9, 12) for _ in range(40)]
        mats += [SL2ZMatrix(0, -1, 1, 0), SL2ZMatrix(1, -1, 1, 0), SL2ZMatrix(-1, -1, 1, 0)]
        seen = set()
        for mat in mats:
            counts.clear()
            floor_sums.clear()
            mod = enumerate_torus_connections(mat)
            conns = list(mod.isolated) + [f.representative for f in mod.families]
            hyperbolic = abs(mat.trace) > 2
            for conn in conns:
                if conn.restriction_trivial:
                    continue
                rho_torus(mat, conn)
                chern_simons_mod1(mat, conn)
                if hyperbolic:
                    rho_hyperbolic_prep(mat, conn)
                    sum_difference_closed(*conn.nu, mat)
            if hyperbolic:
                eta_untwisted_torus(mat)
            elif abs(mat.trace) == 2:
                transport_nu_from_normal_form(mat, (F(1, 3), F(1, 2)))
            classify(mat)
            assert all(n == 1 for n in counts.values()), (mat, counts)
            assert len(floor_sums) <= min(abs(mat.c), len(conns)), mat
            seen.update(counts)
        assert seen == {"_inverse_mod", "_classical_num", "parabolic_normal_form"}


#: the exact layer's math names: integer functions only
EXACT_MATH_NAMES = {"comb", "floor", "lcm", "gcd"}

#: the only float code left in the exact modules: top-level definitions
#: that the benchmark harness reads as attributes of an exact module, each
#: with the perfbench/workloads.py line that pins it and the text on that
#: line.  They move to rhocalc.analytic with the next benchmark change.
PINNED_FLOAT_DEFINITIONS = {
    ("dedekind", "cotangent_sum"): (377, "D.cotangent_sum"),
    ("dedekind", "_cot_table"): (377, "D.cotangent_sum"),  # cotangent_sum's cached table
    ("sl2z", "UpperHalfPoint"): (108, "R.sl2z.UpperHalfPoint"),
}


def float_uses(node):
    """What in this AST node breaks the exact layer's no-float rule."""

    def names(module, attrs):
        return [f"{module}.{a}" for a in attrs if module == "cmath" or a not in EXACT_MATH_NAMES]

    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return [f"float literal {node.value!r}"]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "complex"):
        return [f"call to {node.func.id}"]
    if isinstance(node, ast.Import):
        return [f"import {a.name}" for a in node.names if a.name.split(".")[0] in ("cmath", "numpy")]
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
        return [f"from {node.module} import"]
    if isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
        return names(node.module, [a.name for a in node.names])
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("math", "cmath"):
        return names(node.value.id, [node.attr])
    return []


def top_level_definitions(module):
    """(name or None, node) for each top-level statement of an exact module."""
    import rhocalc

    path = Path(rhocalc.__file__).with_name(f"{module}.py")
    return [(getattr(top, "name", None), top) for top in ast.parse(path.read_text(), str(path)).body]


def all_float_uses(top):
    return [f"{use} at line {node.lineno}" for node in ast.walk(top) for use in float_uses(node)]


@pytest.mark.parametrize("module", ["rho", "moduli", "bernoulli", "dedekind", "sl2z", "errors"])
def test_exact_module_holds_no_float(module):
    found = [
        use
        for name, top in top_level_definitions(module)
        if (module, name) not in PINNED_FLOAT_DEFINITIONS
        for use in all_float_uses(top)
    ]
    assert found == []


@pytest.mark.parametrize("module,name", sorted(PINNED_FLOAT_DEFINITIONS))
def test_each_exemption_is_float_code_the_benchmark_reads(module, name):
    # an exemption that holds no float, or that no benchmark line reads,
    # is stale and leaves the list
    line, text = PINNED_FLOAT_DEFINITIONS[module, name]
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    assert text in workloads.read_text().splitlines()[line - 1]
    assert all_float_uses(dict(top_level_definitions(module))[name]) != []
