"""Flat-connection moduli: enumeration, triviality, transport.

The library builds the classes as integer numerators over D = |2 - tr M|
from the columns of adj(Id - M^t); `oracle_enumerate` finds them by brute
force over the whole D x D grid of numerators, and `oracle_matrices` are
the seeded matrices both are run on.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_hyperbolic, random_parabolic, random_sl2z
from rhocalc import (
    AdmissibilityError,
    CircleFlatConnection,
    DomainError,
    Elliptic,
    Hyperbolic,
    Parabolic,
    SL2ZMatrix,
    TorusFlatConnection,
    chern_simons_mod1,
    circle_moduli_summary,
    classify,
    connection_from_nu,
    enumerate_torus_connections,
    is_bundle_trivial,
    rho_hyperbolic_prep,
    rho_torus,
    parabolic_normal_form,
    transport_nu_from_normal_form,
)
from rhocalc.moduli import MAX_CLASSES, _numerators


def transport_nu_to_normal_form(M: SL2ZMatrix, nu):
    """A connection on the mapping torus of parabolic M moved to the
    normal-form coordinates, as (eps, l, nu').

    With g the conjugator (g^{-1} M g = N the normal form), constant
    1-forms pull back through the transpose, so nu' = g^t nu mod Z^2;
    then (Id - N^t) nu' = g^t (Id - M^t) nu, and admissibility carries
    over.
    """
    eps, l, conj = parabolic_normal_form(M)
    nup = conj.transpose_apply(nu)
    return eps, l, (nup[0] % 1, nup[1] % 1)


def det2(A):
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def oracle_enumerate(M: SL2ZMatrix):
    """The isolated classes of M (tr M != 2) by brute force: every n in
    {0, ..., D-1}^2 with (Id - M^t) n = 0 mod D, D = |2 - tr M|, made a
    class nu = n/D by connection_from_nu, sorted by nu."""
    D = abs(2 - M.trace)
    n1, n2 = np.meshgrid(np.arange(D, dtype=np.int64), np.arange(D, dtype=np.int64), indexing="ij")
    on = (((1 - M.a) * n1 - M.c * n2) % D == 0) & ((-M.b * n1 + (1 - M.d) * n2) % D == 0)
    conns = [connection_from_nu(M, (F(int(p), D), F(int(q), D))) for p, q in zip(n1[on], n2[on])]
    assert len(conns) == D
    conns.sort(key=lambda conn: conn.nu)
    return tuple(conns)


def _with_trace_near(a: int, c: int, t: int) -> SL2ZMatrix:
    """[[a, b], [c, d]] in SL(2, Z) with d = a^{-1} mod c and trace near t."""
    d = pow(a, -1, abs(c)) + abs(c) * ((t - a) // abs(c))
    return SL2ZMatrix(a, (a * d - 1) // c, c, d)


def oracle_matrices():
    """Seeded matrices with tr != 2: the three elliptic traces, parabolic
    with trace -2, hyperbolic with c < 0, and |2 - tr M| up to ~1,000."""
    rng = random.Random(47)
    mats = [SL2ZMatrix(0, -1, 1, 0), SL2ZMatrix(1, -1, 1, 0), SL2ZMatrix(-1, -1, 1, 0)]
    mats += [SL2ZMatrix(3, 2, 4, 3), SL2ZMatrix(3, -2, -4, 3), SL2ZMatrix(-2, 1, 1, -1)]
    mats.append(SL2ZMatrix(2, -289, -7, 1012))
    for _ in range(8):
        g = random_sl2z(rng, 6)
        mats.append(g @ mats[rng.randrange(3)] @ g.inverse())
        l = rng.choice((-5, -3, -1, 1, 2, 4))
        mats.append(g @ SL2ZMatrix(-1, -l, 0, -1) @ g.inverse())
    for _ in range(12):
        mats.append(random_hyperbolic(rng, 30))
    for t in (-998, -401, -150, 152, 403, 1000):
        a, c = rng.choice([(2, -7), (3, 7), (-4, 9), (5, -11), (1, 1), (1, -1)])
        mats.append(_with_trace_near(a, c, t))
    return [m for m in mats if m.trace != 2]


class TestEnumeration:
    def test_verbatim_example_trace_minus_three(self):
        m = SL2ZMatrix(-2, 1, 1, -1)
        mod = enumerate_torus_connections(m)
        nus = {conn.nu for conn in mod.isolated}
        assert nus == {
            (F(0), F(0)),
            (F(1, 5), F(3, 5)),
            (F(2, 5), F(1, 5)),
            (F(3, 5), F(4, 5)),
            (F(4, 5), F(2, 5)),
        }
        ms = {conn.m for conn in mod.isolated}
        assert ms == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)}
        assert mod.families == ()

    def test_verbatim_example_trace_six(self):
        m = SL2ZMatrix(3, 2, 4, 3)
        mod = enumerate_torus_connections(m)
        nus = {conn.nu for conn in mod.isolated}
        assert nus == {
            (F(0), F(0)),
            (F(0), F(1, 2)),
            (F(1, 2), F(0)),
            (F(1, 2), F(1, 2)),
        }
        by_nu = {conn.nu: conn for conn in mod.isolated}
        assert by_nu[(F(0), F(1, 2))].m == (-2, -1)
        assert by_nu[(F(1, 2), F(0))].m == (-1, -1)
        assert by_nu[(F(1, 2), F(1, 2))].m == (-3, -2)

    def test_admissibility_and_uniqueness(self):
        rng = random.Random(41)
        for _ in range(100):
            m = random_sl2z(rng, 30)
            if m.trace == 2:
                continue
            mod = enumerate_torus_connections(m)
            seen = set()
            for conn in mod.isolated:
                n1, n2 = conn.nu
                # (Id - M^t) nu integral
                v1 = (1 - m.a) * n1 - m.c * n2
                v2 = -m.b * n1 + (1 - m.d) * n2
                assert v1.denominator == 1 and v2.denominator == 1
                assert 0 <= n1 < 1 and 0 <= n2 < 1
                key = (n1, n2)
                assert key not in seen
                seen.add(key)

    def test_count_law(self):
        rng = random.Random(42)
        for _ in range(200):
            m = random_sl2z(rng, 50)
            if m.trace == 2:
                continue
            mod = enumerate_torus_connections(m)
            assert len(mod.isolated) == abs(2 - m.trace)

    def test_parabolic_families(self):
        rng = random.Random(43)
        for _ in range(40):
            m = random_parabolic(rng, 6, 5)
            cls = classify(m)
            assert isinstance(cls, Parabolic)
            mod = enumerate_torus_connections(m)
            if cls.epsilon == 1:
                # nu1 = j/|l| in normal-form coordinates, nu2 free
                assert len(mod.families) == abs(cls.l)
                nus = sorted(fam.nu1 for fam in mod.families)
                assert nus == [F(j, abs(cls.l)) for j in range(abs(cls.l))]
            else:
                assert len(mod.isolated) == abs(2 - m.trace)

    def test_family_representative_is_the_twisted_class_at_half(self):
        # built from the conjugator classify returned; the same class as the
        # transport that recomputes the normal form
        rng = random.Random(44)
        checked = 0
        for _ in range(40):
            m = random_parabolic(rng, 6, 5)
            for fam in enumerate_torus_connections(m).families:
                rep = fam.representative
                assert rep == connection_from_nu(m, transport_nu_from_normal_form(m, (fam.nu1, F(1, 2))))
                assert not rep.restriction_trivial
                assert transport_nu_to_normal_form(m, rep.nu)[2] == (fam.nu1, F(1, 2))
                checked += 1
        assert checked > 20

    def test_integer_enumeration_matches_fraction_oracle(self):
        mats = oracle_matrices()
        for m in mats:
            # record equality: nu, m, lambda, the derived flag, and the order
            assert enumerate_torus_connections(m).isolated == oracle_enumerate(m), m
        kinds = {(type(classify(m)), m.c < 0) for m in mats}
        assert {(Elliptic, False), (Parabolic, False), (Hyperbolic, True)} <= kinds
        assert max(abs(2 - m.trace) for m in mats) >= 1000

    def test_every_class_is_checked_against_m(self, monkeypatch):
        # numerators with their coordinates swapped lie off the lattice of
        # (Id - M^t) nu in Z^2; each class is checked, so this raises
        monkeypatch.setattr(
            "rhocalc.moduli._numerators",
            lambda M, D: [(n2, n1) for n1, n2 in _numerators(M, D)],
        )
        with pytest.raises(AdmissibilityError):
            enumerate_torus_connections(SL2ZMatrix(-2, 1, 1, -1))

    def test_trace_two_shear_has_no_isolated_classes(self):
        mod = enumerate_torus_connections(SL2ZMatrix(1, 3, 0, 1))
        assert mod.isolated == ()
        assert len(mod.families) == 3

    @pytest.mark.parametrize(
        "M,kind",
        [
            # |2 - tr M| = 100001 isolated classes
            (SL2ZMatrix(100002, 1, 100001, 1), "classes"),
            # the trace-2 shear with l = 100001: that many families
            (SL2ZMatrix(1, 100001, 0, 1), "families"),
        ],
    )
    def test_more_classes_than_the_cap_raise(self, M, kind):
        with pytest.raises(DomainError, match=f"100001 {kind} .* at most {MAX_CLASSES}"):
            enumerate_torus_connections(M)


class TestConnectionFromNu:
    def test_m_vector_matches_definition(self):
        m = SL2ZMatrix(3, 2, 4, 3)
        conn = connection_from_nu(m, (F(1, 2), F(1, 2)))
        assert conn.m == (-3, -2)
        assert conn.restriction_trivial is False

    def test_rejects_inadmissible(self):
        m = SL2ZMatrix(3, 2, 4, 3)
        with pytest.raises(DomainError):
            connection_from_nu(m, (F(1, 3), F(1, 3)))

    def test_rejects_lambda_on_twisted_class(self):
        with pytest.raises(DomainError):
            connection_from_nu(SL2ZMatrix(3, 2, 4, 3), (F(1, 2), F(1, 2)), gauge_lambda=F(1, 3))

    def test_lambda_on_a_twisted_class_is_refused_by_the_one_door(self):
        # connection_from_nu builds its record through TorusFlatConnection
        message = "gauge phase lambda is only defined when nu is integral"
        with pytest.raises(DomainError, match=message):
            connection_from_nu(SL2ZMatrix(3, 2, 4, 3), (F(1, 2), F(1, 2)), gauge_lambda=F(1, 3))
        with pytest.raises(DomainError, match=message):
            TorusFlatConnection((F(1, 2), F(1, 2)), (-3, -2), F(1, 3))

    def test_admissibility_is_checked_before_lambda(self):
        with pytest.raises(AdmissibilityError):
            connection_from_nu(SL2ZMatrix(3, 2, 4, 3), (F(1, 3), F(1, 3)), gauge_lambda=F(1, 3))

    @pytest.mark.parametrize(
        "nu,lam",
        [
            ((0.5, 0.5), None), ((F(1, 2), 0.5), None), ((0, 0), 0.3), (("1/2", F(1, 2)), None), ((0, 0), True),
            # nu must be a pair: a third component is not dropped
            ((F(1, 2), F(1, 2), F(1, 3)), None), ((F(1, 2),), None), (None, None),
        ],
    )
    def test_rejects_float_nu_or_lambda(self, nu, lam):
        with pytest.raises(DomainError):
            connection_from_nu(SL2ZMatrix(3, 2, 4, 3), nu, gauge_lambda=lam)

    def test_restriction_trivial_flag(self):
        m = SL2ZMatrix(3, 2, 4, 3)
        conn = connection_from_nu(m, (F(0), F(0)))
        assert conn.restriction_trivial is True

    def test_bundle_trivial_matches_smith_form(self):
        # for det(Id - M^t) != 0, A z = m = A nu has the single rational
        # solution z = nu, so the bundle is trivial iff nu = 0; the Smith
        # form lattice test must agree on every isolated class
        rng = random.Random(45)
        checked = trivial = 0
        for _ in range(300):
            m = random_sl2z(rng, 12)
            if m.trace == 2:
                continue  # Id and the trace-2 circles: det(Id - M^t) = 0
            for conn in enumerate_torus_connections(m).isolated:
                assert is_bundle_trivial(m, conn.m) == conn.restriction_trivial, (m, conn.nu)
                checked += 1
                trivial += conn.restriction_trivial
        assert 0 < trivial < checked


class TestTorusFlatConnection:
    # fixed ids keep the names these cases had when the constructor took five fields
    @pytest.mark.parametrize(
        "nu,lam",
        [
            pytest.param((F(1, 5), F(-2, 5)), None, id="nu0-False-None"),
            pytest.param((F(0), F(1)), None, id="nu1-False-None"),
            pytest.param((F(1, 2), F(1, 2)), F(1, 3), id="nu4-False-lam4"),
        ],
    )
    def test_rejects_inconsistent_fields(self, nu, lam):
        with pytest.raises(DomainError):
            TorusFlatConnection(nu, (0, 0), lam)

    @pytest.mark.parametrize("m", [(F(1), 0), (0.0, 0), (0, 0, 0), (True, 0)])
    def test_rejects_m_not_a_pair_of_ints(self, m):
        with pytest.raises(DomainError):
            TorusFlatConnection((F(1, 7), F(0)), m)

    @pytest.mark.parametrize(
        "nu", [(0.5, 0.25), (F(1, 2), 0.25), (False, F(1, 2)), ("1/2", F(0)), (F(1, 2),), None, (F(1, 2), 0, 0)]
    )
    def test_rejects_nu_not_a_pair_of_fractions(self, nu):
        with pytest.raises(DomainError):
            TorusFlatConnection(nu, (0, 0))

    def test_accepts_int_nu(self):
        conn = TorusFlatConnection((0, 0), (0, 0))
        assert conn.nu == (F(0), F(0))

    def test_list_built_record_equals_and_hashes_like_tuple_built(self):
        from_lists = TorusFlatConnection([F(1, 2), F(0)], [0, 0])
        from_tuples = TorusFlatConnection((F(1, 2), F(0)), (0, 0))
        assert from_lists == from_tuples
        assert hash(from_lists) == hash(from_tuples)
        assert from_lists.nu == (F(1, 2), F(0)) and from_lists.m == (0, 0)

    @pytest.mark.parametrize("nu", [(0, F(1, 2)), (F(99, 100), 0), (F(0), 0)])
    def test_accepts_mixed_int_and_fraction_nu(self, nu):
        assert TorusFlatConnection(nu, (0, 0)).nu == nu

    @pytest.mark.parametrize(
        "nu",
        [(True, 0), (0, False), (1, 0), (0, -1), (F(1), F(0)), (F(0), F(-1, 3)), (F(4, 3), F(1, 2)), (10**40, 0)],
    )
    def test_rejects_bool_or_out_of_range_nu(self, nu):
        # the range is tested on numerator and denominator, for ints too
        with pytest.raises(DomainError):
            TorusFlatConnection(nu, (0, 0))

    def test_restriction_trivial_is_derived(self):
        assert TorusFlatConnection((0, 0), (0, 0), F(1, 3)).restriction_trivial is True
        assert TorusFlatConnection((F(1, 2), F(0)), (1, 0)).restriction_trivial is False
        with pytest.raises(TypeError):
            TorusFlatConnection((0, 0), (0, 0), None, True)

    @pytest.mark.parametrize("lam", [F(5, 2), F(-1, 3), F(1), 1, 0.3, True, "1/3"])
    def test_rejects_lambda_not_in_unit_interval(self, lam):
        with pytest.raises(DomainError):
            TorusFlatConnection((0, 0), (0, 0), lam)

    @pytest.mark.parametrize("lam", [0, F(0), F(1, 2), F(99, 100)])
    def test_accepts_lambda_in_unit_interval(self, lam):
        assert TorusFlatConnection((0, 0), (0, 0), lam).gauge_lambda == lam


@st.composite
def sl2z_not_pm_identity(draw, bound=30):
    """M in SL(2, Z), M != +-Id, |entries| <= bound: a first column (a, c),
    then one second column (b, d) in the box with a d - b c = 1."""
    a = draw(st.integers(-bound, bound))
    c = draw(st.integers(-bound, bound))
    cols = [(b, d) for b in range(-bound, bound + 1) for d in range(-bound, bound + 1) if a * d - b * c == 1]
    assume(cols)
    b, d = draw(st.sampled_from(cols))
    assume(not (b == c == 0 and a == d))
    return SL2ZMatrix(a, b, c, d)


@st.composite
def nu_over_q(draw, max_q=12):
    q = draw(st.integers(1, max_q))
    return F(draw(st.integers(0, q - 1)), q), F(draw(st.integers(0, q - 1)), q)


class TestAdmissibilityProperty:
    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(sl2z_not_pm_identity(), nu_over_q(), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    def test_admissible_iff_m_integral(self, mat, nu, m):
        # decided here with Fractions, apart from the library's integer routine
        nu1, nu2 = nu
        want = ((1 - mat.a) * nu1 - mat.c * nu2, -mat.b * nu1 + (1 - mat.d) * nu2)
        admissible = want[0].denominator == want[1].denominator == 1
        if admissible:
            assert connection_from_nu(mat, nu).m == want
        else:
            with pytest.raises(AdmissibilityError):
                connection_from_nu(mat, nu)
        if not admissible or m != want:
            conn = TorusFlatConnection(nu, m)
            for route in (rho_torus, rho_hyperbolic_prep, chern_simons_mod1):
                with pytest.raises(DomainError, match="Id - M"):
                    route(mat, conn)


class TestEnumerationProperty:
    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(sl2z_not_pm_identity())
    def test_classes_are_the_brute_force_subgroup(self, mat):
        assume(mat.trace != 2)
        classes = enumerate_torus_connections(mat).isolated
        # record equality: nu, m, lambda, the derived flag, and the order
        assert classes == oracle_enumerate(mat)
        # closed under nu + nu' and -nu mod Z^2, read on the numerators D nu
        D = abs(2 - mat.trace)
        nums = {(int(nu1 * D), int(nu2 * D)) for nu1, nu2 in (conn.nu for conn in classes)}
        for n1, n2 in nums:
            assert (-n1 % D, -n2 % D) in nums
            for k1, k2 in nums:
                assert ((n1 + k1) % D, (n2 + k2) % D) in nums


class TestBundleTrivial:
    def test_pins(self):
        assert is_bundle_trivial(SL2ZMatrix(1, 2, 0, 1), (0, 1)) is False
        assert is_bundle_trivial(SL2ZMatrix(3, 2, 4, 3), (-3, -2)) is False
        # m = 0 is always in the image
        assert is_bundle_trivial(SL2ZMatrix(3, 2, 4, 3), (0, 0)) is True

    def test_against_brute_force(self):
        # brute-force search for integral w with (Id - M^t) w = m
        rng = random.Random(44)
        for _ in range(60):
            m = random_sl2z(rng, 6)
            det = det2(((1 - m.a, -m.c), (-m.b, 1 - m.d)))
            if abs(det) > 30:
                continue
            for _ in range(10):
                vec = (rng.randint(-8, 8), rng.randint(-8, 8))
                got = is_bundle_trivial(m, vec)
                found = False
                for w1 in range(-20, 21):
                    for w2 in range(-20, 21):
                        if (
                            (1 - m.a) * w1 - m.c * w2 == vec[0]
                            and -m.b * w1 + (1 - m.d) * w2 == vec[1]
                        ):
                            found = True
                            break
                    if found:
                        break
                if det != 0 and not found:
                    # the brute-force window is guaranteed to contain the
                    # solution only when one exists; for det != 0 solve over Q
                    q1 = F(vec[0] * (1 - m.d) + vec[1] * m.c, det)
                    q2 = F((1 - m.a) * vec[1] + m.b * vec[0], det)
                    found = q1.denominator == 1 and q2.denominator == 1
                assert got is found, (m, vec)

    def test_rank_at_most_one_branch_is_exact(self):
        # det(Id - M^t) = 0 for Id and trace 2: the image of A = Id - M^t is
        # g Z u, u primitive along A's columns and g the gcd of A's entries
        # (A = 0 for Id); -Id, whose image is 2 Z^2, rides along.  The
        # shears give A a zero column, where one of x1, x2 is always 0
        rng = random.Random(48)
        mats = [SL2ZMatrix(1, 0, 0, 1), SL2ZMatrix(-1, 0, 0, -1)]
        mats += [SL2ZMatrix(1, k, 0, 1) for k in (-3, -1, 1, 4)] + [SL2ZMatrix(1, 0, k, 1) for k in (-4, -1, 1, 3)]
        while len(mats) < 110:
            m = random_parabolic(rng, 6, 5)
            if m.trace == 2:
                mats.append(m)
        on_line = 0
        for m in mats:
            A = ((1 - m.a, -m.c), (-m.b, 1 - m.d))
            g = gcd(*A[0], *A[1])
            if m.trace != 2 or g == 0:
                offsets = [(1, 0), (0, 1), (1, 1)]
            else:
                col = (A[0][0], A[1][0]) if (A[0][0], A[1][0]) != (0, 0) else (A[0][1], A[1][1])
                u = (col[0] // gcd(*col), col[1] // gcd(*col))
                t, k = rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-9, 9)
                # off the image line, and on it at multiples of u that g does not divide
                offsets = [(-t * u[1] + k * u[0], t * u[0] + k * u[1])]
                offsets += [(j * u[0], j * u[1]) for j in range(1, g)]
                on_line += g - 1
            for _ in range(5):
                z = (rng.randint(-50, 50), rng.randint(-50, 50))
                image = (A[0][0] * z[0] + A[0][1] * z[1], A[1][0] * z[0] + A[1][1] * z[1])
                assert is_bundle_trivial(m, image) is True, (m, image)
                for e in offsets:
                    vec = (image[0] + e[0], image[1] + e[1])
                    assert is_bundle_trivial(m, vec) is False, (m, vec)
        assert on_line > 100


class TestCircleModuli:
    def test_pins(self):
        s = circle_moduli_summary(2, 3)
        assert (s.torus_rank, s.torsion_order) == (4, 3)
        s = circle_moduli_summary(0, 0)
        assert (s.torus_rank, s.torsion_order) == (0, 0)
        s = circle_moduli_summary(1, -5)
        assert (s.torus_rank, s.torsion_order) == (2, 5)

    def test_rejects_negative_genus(self):
        with pytest.raises(DomainError):
            circle_moduli_summary(-1, 3)


class TestCircleFlatConnection:
    def test_trivial_flag_validation(self):
        CircleFlatConnection(3, 6, is_trivial=True)  # q = 2 integral, fine
        with pytest.raises(DomainError):
            CircleFlatConnection(3, 2, is_trivial=True)

    def test_q_property(self):
        assert CircleFlatConnection(3, 2).q == F(2, 3)
        with pytest.raises(DomainError):
            CircleFlatConnection(0, 2).q


class TestTransport:
    def test_round_trip(self):
        rng = random.Random(45)
        for _ in range(40):
            m = random_parabolic(rng, 6, 5)
            mod = enumerate_torus_connections(m)
            cls = classify(m)
            for fam in mod.families:
                nu_prime = (fam.nu1, F(1, 2))
                nu = transport_nu_from_normal_form(m, nu_prime)
                eps, l, back = transport_nu_to_normal_form(m, nu)
                assert (eps, l) == (cls.epsilon, cls.l)
                # same class mod Z^2
                assert (back[0] - nu_prime[0]).denominator == 1
                assert (back[1] - nu_prime[1]).denominator == 1

    def test_transport_preserves_admissibility(self):
        rng = random.Random(46)
        for _ in range(40):
            m = random_parabolic(rng, 6, 5)
            cls = classify(m)
            n = SL2ZMatrix(
                cls.epsilon, cls.epsilon * cls.l, 0, cls.epsilon
            )
            for j in range(abs(cls.l)):
                nu_prime = (F(j, abs(cls.l)), F(1, 3))
                # admissible for the normal form when eps = +1
                if cls.epsilon == 1:
                    v1 = (1 - n.a) * nu_prime[0] - n.c * nu_prime[1]
                    v2 = -n.b * nu_prime[0] + (1 - n.d) * nu_prime[1]
                    assert v1.denominator == 1 and v2.denominator == 1
                    nu = transport_nu_from_normal_form(m, nu_prime)
                    w1 = (1 - m.a) * nu[0] - m.c * nu[1]
                    w2 = -m.b * nu[0] + (1 - m.d) * nu[1]
                    assert w1.denominator == 1 and w2.denominator == 1
