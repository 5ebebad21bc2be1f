"""Acceptance gate: one test per shipped criterion, each printing a
single CRITERION n: PASS/FAIL line (run with -s to see them live).

Criterion 1 compares the closed form with a seven-row reference table
for two hyperbolic monodromies.  Five rows of the table as first
transcribed (8/5, 12/5, 12/5, 8/5 and 0 for (1/2, 0)) were wrong.  Both
monodromies are conjugate to their own inverses, P M P^-1 = M^-1, so
their mapping tori are amphichiral.  Rho changes sign under orientation
reversal (Atiyah-Patodi-Singer II), so every value must satisfy
rho(M, nu) = -rho(M, P^-t nu).  The old rows broke that law under every
matching of classes; the closed form keeps it.  The law fixes the
fractional parts, and for the trace-6 row also the integer part (via
the Chern-Simons congruence).  The integer parts of the degree-five rows
come from the float route 2 * eta-form integral - untwisted eta, which
shares no code with the six-term form or the Dedekind sums
(tests/test_analytic.py).  The criterion checks the law on the table and
on rho_torus, so putting back an old row fails it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest

from conftest import random_hyperbolic, random_parabolic, random_sl2z
from dedekind_batch import dedekind_batch_cot, dedekind_batch_exact
from rhocalc import (
    CircleFlatConnection,
    EigenphaseData,
    SL2ZMatrix,
    UpperHalfPoint,
    bernoulli_poly,
    chern_simons_mod1,
    classical_sum,
    classify,
    connection_from_nu,
    cotangent_sum,
    enumerate_torus_connections,
    eta_untwisted_numeric,
    eta_untwisted_torus,
    finite_fourier_transform,
    generalized_sum,
    hurwitz_zeta_nonpos,
    kronecker_closed,
    kronecker_integral,
    p1_closed_fourier,
    periodic_bernoulli,
    periodic_eta_zero,
    periodic_zeta_at,
    rho_circle,
    rho_finite_order_generic,
    rho_form_hyp_numeric,
    rho_hyperbolic_prep,
    rho_torus,
    transport_nu_from_normal_form,
    transform_defect,
    transform_defect_gen,
)
from rhocalc.bernoulli import sgn
from rhocalc.dedekind import PeriodicFunctionTable


def report(n: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail and not ok else ""
    print(f"CRITERION {n}: {status}{suffix}")


def test_criterion_01_hyperbolic_reference_tables():
    # exact equality demanded, < 1 ms per value (best of 5 timed calls),
    # and the amphichirality law on both the table and rho_torus
    table = {
        (SL2ZMatrix(-2, 1, 1, -1), (F(1, 5), F(3, 5))): F(-2, 5),
        (SL2ZMatrix(-2, 1, 1, -1), (F(2, 5), F(1, 5))): F(2, 5),
        (SL2ZMatrix(-2, 1, 1, -1), (F(3, 5), F(4, 5))): F(2, 5),
        (SL2ZMatrix(-2, 1, 1, -1), (F(4, 5), F(2, 5))): F(-2, 5),
        (SL2ZMatrix(3, 2, 4, 3), (F(0), F(1, 2))): F(0),
        (SL2ZMatrix(3, 2, 4, 3), (F(1, 2), F(0))): F(-1),
        (SL2ZMatrix(3, 2, 4, 3), (F(1, 2), F(1, 2))): F(1),
    }
    # P with P M P^-1 = M^-1: both mapping tori are amphichiral, so
    # rho(M, nu) = -rho(M, P^-t nu)
    conjugator = {
        SL2ZMatrix(-2, 1, 1, -1): SL2ZMatrix(-3, -5, 2, 3),
        SL2ZMatrix(3, 2, 4, 3): SL2ZMatrix(-1, -1, 2, 1),
    }
    mismatches = []
    law_breaks = []
    slow = []
    for (mat, nu), want in table.items():
        p = conjugator[mat]
        assert p @ mat @ p.inverse() == mat.inverse()
        partner = tuple(x % 1 for x in p.inverse().transpose_apply(nu))
        if table[mat, partner] != -want:
            law_breaks.append(f"table: nu={nu} has {want}, nu={partner} has {table[mat, partner]}")
        conn = connection_from_nu(mat, nu)
        rho_torus(mat, conn)  # warm any caches before timing
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            got = rho_torus(mat, conn).value
            best = min(best, time.perf_counter() - t0)
        if best >= 1e-3:
            slow.append((nu, best))
        if got != want:
            mismatches.append(f"nu={nu}: table says {want}, closed form gives {got}")
        mirrored = rho_torus(mat, connection_from_nu(mat, partner)).value
        if mirrored != -got:
            law_breaks.append(f"rho_torus: nu={nu} gives {got}, nu={partner} gives {mirrored}")
    ok = not mismatches and not law_breaks and not slow
    report(1, ok, "; ".join(mismatches + law_breaks + [f"slow {s}" for s in slow]))
    assert not slow, slow
    assert not law_breaks, "rho(M, nu) != -rho(M, P^-t nu): " + "; ".join(law_breaks)
    assert not mismatches, "closed form differs from the table: " + "; ".join(mismatches)


def test_criterion_02_elliptic_untwisted_eta():
    cases = [
        (SL2ZMatrix(0, -1, 1, 1), F(-4, 3)),
        (SL2ZMatrix(-1, -1, 1, 0), F(-2, 3)),
        (SL2ZMatrix(0, -1, 1, 0), F(-1)),
    ]
    bad = [
        (mat, got, want)
        for mat, want in cases
        if (got := eta_untwisted_torus(mat)) != want
    ]
    report(2, not bad, str(bad))
    assert not bad


def test_criterion_03_two_path_identity():
    rng = random.Random(300)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(500):
        mat = random_hyperbolic(rng, 30)
        for conn in enumerate_torus_connections(mat).isolated:
            if conn.nu == (F(0), F(0)):
                continue
            a = rho_torus(mat, conn).value
            b = rho_hyperbolic_prep(mat, conn).value
            assert a == b, (mat, conn.nu, a, b)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0 and checked > 0
    report(3, ok, f"{checked} pairs in {elapsed:.2f}s")
    assert ok


def test_criterion_04_closed_difference_identity():
    from rhocalc import sum_difference_closed

    rng = random.Random(400)
    t0 = time.perf_counter()
    checked = 0
    while checked < 500:
        mat = random_sl2z(rng, 30)
        if mat.c == 0 or abs(mat.trace) == 2:
            continue
        for conn in enumerate_torus_connections(mat).isolated:
            x, y = conn.nu
            got = sum_difference_closed(x, y, mat)
            want = generalized_sum(x, y, mat.a, mat.c) - classical_sum(mat.a, mat.c)
            assert got == want, (mat, x, y)
            checked += 1
            if checked >= 500:
                break
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report(4, ok, f"{checked} triples in {elapsed:.2f}s")
    assert ok


def test_criterion_05_cotangent_vs_classical_full_sweep():
    # all coprime (a, c) with |c| <= 500, via the batch helpers; they
    # are anchored to the public scalar functions on random pairs
    rng = random.Random(500)
    t0 = time.perf_counter()
    worst = 0.0
    for c in range(2, 501):
        a_arr = np.array([a for a in range(1, c) if gcd(a, c) == 1], dtype=np.int64)
        exact4 = dedekind_batch_exact(a_arr, c)
        cotbase = np.concatenate([[0.0], 1.0 / np.tan(np.pi * np.arange(1, c) / c)])
        cot = dedekind_batch_cot(a_arr, c, cotbase)
        diff = float(np.max(np.abs(exact4.astype(np.float64) / (4.0 * c * c) - cot)))
        worst = max(worst, diff)
        assert diff < 1e-9, (c, diff)
    # anchor the helpers to the public functions (and cover negative c there)
    spot = 0
    while spot < 200:
        c = rng.randint(2, 500) * rng.choice((1, -1))
        a = rng.randint(1, abs(c) - 1)
        if gcd(a, c) != 1:
            continue
        spot += 1
        s = classical_sum(a, c)
        assert abs(cotangent_sum(a, c) - float(s)) < 1e-9, (a, c)
        if c > 0:
            arr = dedekind_batch_exact(np.array([a], dtype=np.int64), c)
            assert F(int(arr[0]), 4 * c * c) == s
    elapsed = time.perf_counter() - t0
    ok = elapsed < 20.0
    report(5, ok, f"worst |diff| {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_06_closed_fourier_vs_dft():
    rng = random.Random(600)
    worst = 0.0
    done = 0
    while done < 200:
        c = rng.randint(2, 60) * rng.choice((1, -1))
        a = rng.randint(-60, 60)
        if gcd(a, c) != 1:
            continue
        x = F(rng.randint(0, 11), rng.randint(1, 12))
        y = F(rng.randint(-11, 11), rng.randint(1, 12))
        done += 1
        m = abs(c)
        vals = tuple(
            complex(periodic_bernoulli(1, a * (F(k) + x) / c + y)) for k in range(m)
        )
        hat = finite_fourier_transform(PeriodicFunctionTable(c, vals))
        for p in range(m):
            err = abs(p1_closed_fourier(x, y, a, c, p) - hat(p))
            worst = max(worst, err)
    ok = worst < 1e-9
    report(6, ok, f"max error {worst:.2e}")
    assert ok


def test_criterion_07_chern_simons_congruence():
    rng = random.Random(700)
    checked = 0
    for _ in range(500):
        mat = random_hyperbolic(rng, 30)
        for conn in enumerate_torus_connections(mat).isolated:
            if conn.nu == (F(0), F(0)):
                continue
            rho = rho_torus(mat, conn).value
            cs = chern_simons_mod1(mat, conn)
            assert (rho - cs).denominator == 1, (mat, conn.nu)
            checked += 1
    for _ in range(100):
        mat = random_parabolic(rng, 6, 5)
        cls = classify(mat)
        mod = enumerate_torus_connections(mat)
        for conn in mod.isolated:
            if conn.nu == (F(0), F(0)):
                continue
            rho = rho_torus(mat, conn).value
            cs = chern_simons_mod1(mat, conn)
            assert (rho - cs).denominator == 1, (mat, conn.nu)
            checked += 1
        if cls.epsilon == 1:
            for fam in mod.families:
                nu = transport_nu_from_normal_form(mat, (fam.nu1, F(1, 2)))
                conn = connection_from_nu(mat, nu)
                if conn.nu == (F(0), F(0)):
                    continue
                rho = rho_torus(mat, conn).value
                cs = chern_simons_mod1(mat, conn)
                assert (rho - cs).denominator == 1, (mat, nu)
                checked += 1
    report(7, True, "")
    print(f"  (criterion 7: {checked} congruences verified)")


def test_criterion_08_parabolic_circle_coincidence():
    bad = []
    for l in range(-12, 13):
        if l == 0:
            continue
        mat = SL2ZMatrix(1, l, 0, 1)
        for k in range(abs(l)):
            nu1 = F(k, l) - (F(k, l) // 1)
            conn = connection_from_nu(mat, (nu1, F(1, 2)))
            torus_value = rho_torus(mat, conn).value
            circle_value = rho_circle(CircleFlatConnection(l, k)).value
            if torus_value != circle_value:
                bad.append((l, k, torus_value, circle_value))
    report(8, not bad, str(bad[:3]))
    assert not bad


def test_criterion_09_kronecker_limit_identity():
    t0 = time.perf_counter()
    sigmas = [UpperHalfPoint(0.0, 1.0), UpperHalfPoint(0.5, 1.0), UpperHalfPoint(1 / 3, 2.0)]
    nus = [(F(0), F(0)), (F(1, 2), F(0)), (F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))]
    worst = 0.0
    for sp in sigmas:
        for nu in nus:
            diff = abs(
                kronecker_integral(sp, nu).as_complex()
                - kronecker_closed(sp, nu).as_complex()
            )
            worst = max(worst, diff)
            assert diff < 1e-6, (sp, nu, diff)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report(9, ok, f"worst |diff| {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_10_eta_transformation_defects():
    rng = random.Random(1000)
    t0 = time.perf_counter()
    worst_classic = 0.0
    done = 0
    while done < 100:
        mat = random_sl2z(rng, 20)
        if mat.c == 0:
            continue
        sp = UpperHalfPoint(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        worst_classic = max(worst_classic, abs(transform_defect(mat, sp).as_complex()))
        done += 1
    worst_gen = 0.0
    done = 0
    while done < 100:
        mat = random_sl2z(rng, 20)
        if mat.c == 0:
            continue
        g = F(rng.randint(0, 11), rng.randint(1, 12))
        h = F(rng.randint(-11, 11), rng.randint(1, 12))
        if g.denominator == 1 and h.denominator == 1:
            continue
        sp = UpperHalfPoint(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        worst_gen = max(worst_gen, abs(transform_defect_gen(mat, g, h, sp).as_complex()))
        done += 1
    elapsed = time.perf_counter() - t0
    ok = worst_classic < 1e-9 and worst_gen < 1e-8 and elapsed < 30.0
    report(10, ok, f"classic {worst_classic:.2e}, gen {worst_gen:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_11_hyperbolic_end_to_end_numerics():
    rng = random.Random(1100)
    t0 = time.perf_counter()
    worst_rho = worst_eta = 0.0
    for _ in range(50):
        mat = random_hyperbolic(rng, 12)
        eta_err = abs(eta_untwisted_numeric(mat) - float(eta_untwisted_torus(mat)))
        worst_eta = max(worst_eta, eta_err)
        assert eta_err < 1e-6, mat
        for conn in enumerate_torus_connections(mat).isolated:
            if conn.nu == (F(0), F(0)):
                continue
            exact = F(mat.a + mat.d, mat.c) * periodic_bernoulli(2, conn.nu[0]) - 2 * sgn(
                mat.c
            ) * generalized_sum(conn.nu[0], conn.nu[1], mat.a, mat.c)
            err = abs(rho_form_hyp_numeric(mat, conn.nu) - float(exact))
            worst_rho = max(worst_rho, err)
            assert err < 1e-6, (mat, conn.nu)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(11, ok, f"worst rho {worst_rho:.2e}, worst eta {worst_eta:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_12_special_values():
    rng = random.Random(1200)
    for _ in range(200):
        q = F(rng.randint(-120, 120), rng.randint(1, 30))
        assert periodic_eta_zero(q) == 2 * periodic_bernoulli(1, q)
        assert periodic_zeta_at(0, q) in (F(0), F(-1))
        assert periodic_zeta_at(-1, q) == -periodic_bernoulli(2, q)
        q_unit = q - (q // 1)
        if q_unit == 0:
            q_unit = F(1)
        for n in range(0, 7):
            assert hurwitz_zeta_nonpos(n, q_unit) == -bernoulli_poly(n + 1, q_unit) / (
                n + 1
            )
    report(12, True, "")


def test_criterion_13_eigenphase_cross_check():
    bad = []
    for theta in (F(1, 6), F(1, 4), F(1, 3)):
        for c_sign in (1, -1):
            phase = theta if c_sign > 0 else 1 - theta
            data = EigenphaseData(
                plus_phases=(),
                minus_phases=(),
                untwisted_plus_phases=(phase,),
                rank_k=1,
            )
            got = rho_finite_order_generic(data)
            want = (2 - 4 * theta) * c_sign
            if got != want:
                bad.append((theta, c_sign, got, want))
    # cross-anchor against actual elliptic monodromies of both orientations
    # (trace 0 and trace -1: the trace 1 class has no twisted connection)
    for mat in (
        SL2ZMatrix(0, -1, 1, 0),
        SL2ZMatrix(0, 1, -1, 0),
        SL2ZMatrix(-1, -1, 1, 0),
        SL2ZMatrix(0, 1, -1, -1),
    ):
        cls = classify(mat)
        phase = cls.theta if mat.c > 0 else 1 - cls.theta
        data = EigenphaseData(
            plus_phases=(), minus_phases=(), untwisted_plus_phases=(phase,), rank_k=1
        )
        conn = next(
            c
            for c in enumerate_torus_connections(mat).isolated
            if c.nu != (F(0), F(0))
        )
        if rho_finite_order_generic(data) != rho_torus(mat, conn).value:
            bad.append((mat, "vs rho_torus"))
    report(13, not bad, str(bad))
    assert not bad


def test_criterion_14_moduli_enumeration():
    rng = random.Random(1400)
    done = 0
    while done < 200:
        mat = random_sl2z(rng, 50)
        if mat.trace == 2:
            continue
        mod = enumerate_torus_connections(mat)
        assert len(mod.isolated) == abs(2 - mat.trace), mat
        done += 1
    mod = enumerate_torus_connections(SL2ZMatrix(-2, 1, 1, -1))
    assert {c.nu for c in mod.isolated} == {
        (F(0), F(0)),
        (F(1, 5), F(3, 5)),
        (F(2, 5), F(1, 5)),
        (F(3, 5), F(4, 5)),
        (F(4, 5), F(2, 5)),
    }
    assert {c.m for c in mod.isolated} == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)}
    mod = enumerate_torus_connections(SL2ZMatrix(3, 2, 4, 3))
    by_nu = {c.nu: c.m for c in mod.isolated}
    assert by_nu == {
        (F(0), F(0)): (0, 0),
        (F(0), F(1, 2)): (-2, -1),
        (F(1, 2), F(0)): (-1, -1),
        (F(1, 2), F(1, 2)): (-3, -2),
    }
    report(14, True, "")
