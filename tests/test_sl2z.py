"""SL2(Z) classification, normal forms, and the invariant path.

The float side of a matrix (kappa, alpha, beta, the op-action and the
invariant path) lives in rhocalc.analytic and is imported from there."""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

import pytest

from conftest import random_hyperbolic, random_parabolic, random_sl2z
from rhocalc import (
    DomainError,
    Elliptic,
    Hyperbolic,
    Identity,
    Parabolic,
    SL2ZMatrix,
    UnsupportedClassError,
    UpperHalfPoint,
    classify,
    parabolic_normal_form,
)
from rhocalc.analytic import _kappa_alpha_beta, invariant_path_sigma, moebius_op_action


class TestSL2ZMatrix:
    def test_determinant_enforced(self):
        with pytest.raises(DomainError):
            SL2ZMatrix(1, 0, 0, 2)
        with pytest.raises(DomainError):
            SL2ZMatrix(2, 1, 1, 1 - 1)

    def test_group_operations(self):
        rng = random.Random(30)
        for _ in range(50):
            m = random_sl2z(rng, 20)
            n = random_sl2z(rng, 20)
            prod = m @ n
            assert prod.a * prod.d - prod.b * prod.c == 1
            inv = m.inverse()
            assert (m @ inv).a == 1 and (m @ inv).d == 1
            assert (m @ inv).b == 0 and (m @ inv).c == 0

    def test_op_involution(self):
        # M^op = [[d, b], [c, a]]; applying it twice restores M
        m = SL2ZMatrix(3, 2, 4, 3)
        op = m.op()
        assert (op.a, op.b, op.c, op.d) == (3, 2, 4, 3)
        m = SL2ZMatrix(2, 1, 1, 1)
        op = m.op()
        assert (op.a, op.b, op.c, op.d) == (1, 1, 1, 2)
        assert m.op().op() == m

    def test_trace_and_discriminant(self):
        m = SL2ZMatrix(3, 2, 4, 3)
        assert m.trace == 6
        assert m.discriminant == 32


class TestUpperHalfPoint:
    def test_requires_positive_imaginary_part(self):
        with pytest.raises(DomainError):
            UpperHalfPoint(0.0, 0.0)
        with pytest.raises(DomainError):
            UpperHalfPoint(0.0, -1.0)

    @pytest.mark.parametrize(
        "s1,s2", [(0.0, math.inf), (math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan)]
    )
    def test_rejects_non_finite(self, s1, s2):
        with pytest.raises(DomainError):
            UpperHalfPoint(s1, s2)

    def test_as_complex(self):
        assert UpperHalfPoint(0.5, 2.0).as_complex() == 0.5 + 2.0j


class TestClassify:
    def test_identity(self):
        assert classify(SL2ZMatrix(1, 0, 0, 1)) == Identity(1)
        assert classify(SL2ZMatrix(-1, 0, 0, -1)) == Identity(-1)

    def test_elliptic_pins(self):
        assert classify(SL2ZMatrix(0, -1, 1, 0)) == Elliptic(F(1, 4))
        assert classify(SL2ZMatrix(0, -1, 1, 1)).theta == F(1, 6)
        assert classify(SL2ZMatrix(-1, -1, 1, 0)).theta == F(1, 3)

    def test_elliptic_theta_range_and_trace(self):
        for m in (SL2ZMatrix(0, -1, 1, 0), SL2ZMatrix(0, -1, 1, 1), SL2ZMatrix(-1, -1, 1, 0)):
            cls = classify(m)
            assert isinstance(cls, Elliptic)
            assert 0 < cls.theta < F(1, 2)
            assert abs(2 * math.cos(2 * math.pi * float(cls.theta)) - m.trace) < 1e-12

    def test_elliptic_orders(self):
        # order 6, 4, 3 (up to sign) for theta = 1/6, 1/4, 1/3
        def power(m, n):
            acc = SL2ZMatrix(1, 0, 0, 1)
            for _ in range(n):
                acc = acc @ m
            return acc

        cases = {F(1, 6): 6, F(1, 4): 4, F(1, 3): 3}
        identity = SL2ZMatrix(1, 0, 0, 1)
        for m in (SL2ZMatrix(0, -1, 1, 1), SL2ZMatrix(0, -1, 1, 0), SL2ZMatrix(-1, -1, 1, 0)):
            cls = classify(m)
            n = cases[cls.theta]
            assert power(m, n) == identity
            for smaller in range(1, n):
                assert power(m, smaller) != identity

    def test_parabolic_pins(self):
        cls = classify(SL2ZMatrix(1, 5, 0, 1))
        assert (cls.epsilon, cls.l) == (1, 5)
        cls = classify(SL2ZMatrix(1, -3, 0, 1))
        assert (cls.epsilon, cls.l) == (1, -3)
        cls = classify(SL2ZMatrix(-1, 0, 7, -1))
        assert cls.epsilon == -1 and cls.l != 0

    def test_parabolic_conjugator_property(self):
        rng = random.Random(31)
        for _ in range(60):
            m = random_parabolic(rng, 8, 6)
            cls = classify(m)
            assert isinstance(cls, Parabolic)
            g = cls.conjugator
            n = g.inverse() @ m @ g
            assert (n.a, n.b, n.c, n.d) == (
                cls.epsilon,
                cls.epsilon * cls.l,
                0,
                cls.epsilon,
            )

    def test_hyperbolic_pin(self):
        m = SL2ZMatrix(3, 2, 4, 3)
        assert isinstance(classify(m), Hyperbolic)
        cls_kappa, cls_alpha, cls_beta = _kappa_alpha_beta(m)
        kappa = (6 + math.sqrt(32)) / 2
        assert abs(cls_kappa - kappa) < 1e-12
        assert abs(cls_alpha - (kappa - 3) / 4) < 1e-12
        assert abs(cls_beta - (1 / kappa - 3) / 4) < 1e-12

    def test_hyperbolic_eigenvalue_relations(self):
        rng = random.Random(32)
        for _ in range(100):
            m = random_hyperbolic(rng, 30)
            assert isinstance(classify(m), Hyperbolic)
            kappa, alpha, beta = _kappa_alpha_beta(m)
            assert abs(kappa) > 1
            assert (kappa > 1) == (m.trace > 2)
            assert abs(kappa * (1 / kappa) - 1) < 1e-12
            assert abs(kappa + 1 / kappa - m.trace) < 1e-12
            assert alpha != beta

    def test_hyperbolic_fixed_points(self):
        # extended Moebius op-action on the real line fixes alpha and beta
        rng = random.Random(33)
        for _ in range(100):
            m = random_hyperbolic(rng, 30)
            _, alpha, beta = _kappa_alpha_beta(m)
            for x in (alpha, beta):
                denom = m.c * x + m.a
                assert abs(denom) > 1e-9
                image = (m.d * x + m.b) / denom
                assert abs(image - x) < 1e-9 * max(1.0, abs(x))

    def test_conjugation_invariance(self):
        rng = random.Random(34)
        for _ in range(200):
            m = random_sl2z(rng, 10)
            g = random_sl2z(rng, 10)
            conj = g @ m @ g.inverse()
            c1, c2 = classify(m), classify(conj)
            assert type(c1) is type(c2)
            if isinstance(c1, Elliptic):
                assert c1.theta == c2.theta
            elif isinstance(c1, Parabolic):
                assert (c1.epsilon, c1.l) == (c2.epsilon, c2.l)
            elif isinstance(c1, Hyperbolic):
                k1, k2 = _kappa_alpha_beta(m)[0], _kappa_alpha_beta(conj)[0]
                assert abs(k1 - k2) < 1e-9 * abs(k1)
            else:
                assert c1 == c2


class TestParabolicNormalForm:
    def test_upper_triangular_already(self):
        eps, l, g = parabolic_normal_form(SL2ZMatrix(1, 5, 0, 1))
        assert (eps, l) == (1, 5)
        n = g.inverse() @ SL2ZMatrix(1, 5, 0, 1) @ g
        assert (n.a, n.b, n.c, n.d) == (eps, eps * l, 0, eps)

    def test_rejects_non_parabolic(self):
        with pytest.raises(DomainError):
            parabolic_normal_form(SL2ZMatrix(3, 2, 4, 3))

    @pytest.mark.parametrize("eps", [1, -1])
    def test_rejects_plus_minus_identity(self, eps):
        # trace +-2 but no fixed line of its own: classify calls it Identity
        with pytest.raises(UnsupportedClassError):
            parabolic_normal_form(SL2ZMatrix(eps, 0, 0, eps))

    @pytest.mark.parametrize("c", [1, -1, 7, -12])
    def test_lower_triangular(self, c):
        # a = d gives the first column (0, +-1) of the conjugator
        for eps in (1, -1):
            m = SL2ZMatrix(eps, 0, eps * c, eps)
            e, l, g = parabolic_normal_form(m)
            n = g.inverse() @ m @ g
            assert e == eps and (n.a, n.b, n.c, n.d) == (eps, eps * l, 0, eps)
            assert abs(l) == abs(c)


class TestInvariantPath:
    def test_endpoints_related_by_op_action(self):
        # sigma(1) = M^op sigma(0), the defining property of the path
        rng = random.Random(35)
        for _ in range(40):
            m = random_hyperbolic(rng, 20)
            s0 = invariant_path_sigma(m, 0.0)
            s1 = invariant_path_sigma(m, 1.0)
            image = moebius_op_action(m, s0)
            assert abs(image.as_complex() - s1.as_complex()) < 1e-12 * max(
                1.0, abs(s1.as_complex())
            )

    def test_shift_by_one_anywhere_on_path(self):
        m = SL2ZMatrix(3, 2, 4, 3)
        for t in (-0.5, 0.0, 0.25, 0.7, 1.3):
            s_t = invariant_path_sigma(m, t)
            s_t1 = invariant_path_sigma(m, t + 1.0)
            image = moebius_op_action(m, s_t)
            assert abs(image.as_complex() - s_t1.as_complex()) < 1e-12

    def test_path_stays_in_upper_half_plane(self):
        rng = random.Random(36)
        for _ in range(30):
            m = random_hyperbolic(rng, 15)
            for t in (0.0, 0.2, 0.5, 0.9, 1.0):
                p = invariant_path_sigma(m, t)
                assert p.sigma2 > 0

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(DomainError):
            invariant_path_sigma(SL2ZMatrix(1, 1, 0, 1), 0.0)


class TestMoebiusOpAction:
    def test_identity_acts_trivially(self):
        p = UpperHalfPoint(0.3, 1.7)
        q = moebius_op_action(SL2ZMatrix(1, 0, 0, 1), p)
        assert abs(q.as_complex() - p.as_complex()) < 1e-15

    def test_composition(self):
        # op reverses products, (MN)^op = N^op M^op, so the op-action
        # composes in reverse: (MN)^op sigma = N^op (M^op sigma)
        rng = random.Random(37)
        p = UpperHalfPoint(0.1, 0.9)
        for _ in range(40):
            m = random_sl2z(rng, 12)
            n = random_sl2z(rng, 12)
            lhs = moebius_op_action(m @ n, p)
            rhs = moebius_op_action(n, moebius_op_action(m, p))
            assert abs(lhs.as_complex() - rhs.as_complex()) < 1e-9
