"""Documented error branches and the input rules of the exact layer.

Each precondition a docstring names raises the package's error for it:
one table row per branch, each row the smallest input that violates that
precondition alone.  The exact layer takes rational input as a Fraction
or an int that is not a bool, and integer data (matrix entries, the a and
c of a Dedekind sum, a circle bundle's genus, l and k, a rank) as an int
that is not a bool, and a flag (a circle connection's triviality) as a
bool, never an int; anything else raises DomainError before any value
is computed.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import numpy as np
import pytest

from rhocalc import (
    CircleFlatConnection,
    ConvergenceError,
    DomainError,
    EigenphaseData,
    PeriodicFunctionTable,
    QuadratureError,
    SeriesParams,
    SL2ZMatrix,
    UnsupportedClassError,
    UpperHalfPoint,
    bernoulli_number,
    bernoulli_poly,
    circle_moduli_summary,
    classical_sum,
    connection_from_nu,
    cotangent_sum,
    dai_correction_circle,
    e_series,
    enumerate_torus_connections,
    eta_untwisted_numeric,
    generalized_sum,
    hurwitz_zeta_nonpos,
    log_eta_gen,
    moebius_op_action,
    p1_closed_fourier,
    periodic_bernoulli,
    periodic_zeta_at,
    random_hyperbolic,
    random_sl2z,
    rho_hyperbolic_prep,
    sum_difference_closed,
    torus_spectrum,
    transform_defect,
    transform_defect_gen,
    transport_nu_from_normal_form,
)
from rhocalc._quadrature import gauss_kronrod
from rhocalc.analytic import e_series_with_count
from rhocalc.sl2z import _unit

SIGMA_I = UpperHalfPoint(0.0, 1.0)
S = SL2ZMatrix(0, -1, 1, 0)  # elliptic
T = SL2ZMatrix(1, 1, 0, 1)  # parabolic, c = 0
HYP = SL2ZMatrix(3, 2, 4, 3)
HUGE = SL2ZMatrix(10**400, 10**400 - 1, 1, 1)  # beyond double range


def _double_sum(sigma2: float, max_terms: int):
    # nu1 = 0 skips the single sum, so the nested sum meets the cap first
    return e_series_with_count(
        UpperHalfPoint(0.0, sigma2), (F(0), F(1, 3)), SeriesParams(max_terms=max_terms), method="double-sum"
    )


DOCUMENTED_BRANCHES = [
    # analytic
    pytest.param(lambda: _double_sum(1.0, 8), ConvergenceError, "double sum", id="e_series-double-sum-outer-cap"),
    pytest.param(lambda: _double_sum(0.05, 3), ConvergenceError, "inner sum", id="e_series-double-sum-inner-cap"),
    pytest.param(lambda: transform_defect_gen(HYP, 1, 0, SIGMA_I), DomainError, "not in Z", id="transform_defect_gen-lattice-point"),
    pytest.param(lambda: torus_spectrum(SIGMA_I, (F(1, 2), 0), -1), DomainError, "nonnegative", id="torus_spectrum-negative-norm"),
    pytest.param(lambda: eta_untwisted_numeric(T), UnsupportedClassError, "hyperbolic", id="eta_untwisted_numeric-parabolic"),
    pytest.param(lambda: moebius_op_action(HUGE, UpperHalfPoint(0.1, 1.0)), DomainError, "exceed double range", id="moebius_op_action-huge-entry"),
    pytest.param(lambda: transform_defect(HUGE, SIGMA_I), DomainError, "exceed double range", id="transform_defect-huge-entry"),
    pytest.param(lambda: transform_defect_gen(HUGE, F(1, 2), 0, SIGMA_I), DomainError, "exceed double range", id="transform_defect_gen-huge-entry"),
    pytest.param(lambda: p1_closed_fourier(0, 0, 1, 0, 1), DomainError, "nonzero modulus", id="p1_closed_fourier-zero-c"),
    pytest.param(lambda: p1_closed_fourier(0, 0, 2, 4, 1), DomainError, "gcd", id="p1_closed_fourier-not-coprime"),
    # _quadrature
    pytest.param(
        lambda: gauss_kronrod(lambda u: np.full(u.shape, np.nan), 0.0, 1.0, 1e-9, 1e-12),
        QuadratureError,
        "not finite",
        id="gauss_kronrod-nan-integrand",
    ),
    # bernoulli
    pytest.param(lambda: bernoulli_poly(-1, 0), DomainError, "n >= 0", id="bernoulli_poly-negative-n"),
    # dedekind
    pytest.param(lambda: PeriodicFunctionTable(0, ()), DomainError, "c != 0", id="PeriodicFunctionTable-zero-c"),
    pytest.param(lambda: PeriodicFunctionTable(3, (1, 2)), DomainError, "exactly", id="PeriodicFunctionTable-wrong-length"),
    pytest.param(lambda: classical_sum(1, 0), DomainError, "nonzero modulus", id="classical_sum-zero-c"),
    pytest.param(lambda: cotangent_sum(1, 0), DomainError, "nonzero modulus", id="cotangent_sum-zero-c"),
    pytest.param(lambda: cotangent_sum(2, 4), DomainError, "gcd", id="cotangent_sum-not-coprime"),
    pytest.param(lambda: cotangent_sum(1, 10**19 + 1), DomainError, "<= 1000000", id="cotangent_sum-huge-c"),
    pytest.param(lambda: generalized_sum(F(1, 2), 0, 1, 0), DomainError, "nonzero modulus", id="generalized_sum-zero-c"),
    pytest.param(lambda: generalized_sum(F(1, 2), 0, 2, 4), DomainError, "gcd", id="generalized_sum-not-coprime"),
    pytest.param(lambda: sum_difference_closed(0, 0, T), DomainError, "c != 0", id="sum_difference_closed-zero-c"),
    # moduli
    pytest.param(lambda: enumerate_torus_connections(SL2ZMatrix(1, 0, 0, 1)), UnsupportedClassError, "Id", id="enumerate-identity"),
    pytest.param(lambda: enumerate_torus_connections(SL2ZMatrix(-1, 0, 0, -1)), UnsupportedClassError, "Id", id="enumerate-minus-identity"),
    pytest.param(lambda: transport_nu_from_normal_form(SL2ZMatrix(-1, 0, 0, -1), (0, F(1, 2))), UnsupportedClassError, "parabolic", id="transport-minus-identity"),
    pytest.param(lambda: transport_nu_from_normal_form(HYP, (0, F(1, 2))), UnsupportedClassError, "parabolic", id="transport-hyperbolic"),
    # rho
    pytest.param(lambda: EigenphaseData([], [], [], 0), DomainError, "rank_k", id="EigenphaseData-rank-zero"),
    pytest.param(
        lambda: rho_hyperbolic_prep(S, connection_from_nu(S, (F(1, 2), F(1, 2)))),
        UnsupportedClassError,
        "hyperbolic",
        id="rho_hyperbolic_prep-elliptic",
    ),
]


@pytest.mark.parametrize("call,error,match", DOCUMENTED_BRANCHES)
def test_documented_error_branch(call, error, match):
    with pytest.raises(error, match=match):
        call()


NOT_RATIONAL = [
    pytest.param(lambda: generalized_sum(0.1, 0, 3, 7), id="generalized_sum-float"),
    pytest.param(lambda: generalized_sum("1/2", 0, 3, 7), id="generalized_sum-str"),
    pytest.param(lambda: generalized_sum(F(1, 2), True, 3, 7), id="generalized_sum-bool"),
    pytest.param(lambda: periodic_bernoulli(2, "1/3"), id="periodic_bernoulli-str"),
    pytest.param(lambda: bernoulli_poly(2, 0.5), id="bernoulli_poly-float"),
    pytest.param(lambda: sum_difference_closed(0.5, 0.5, HYP), id="sum_difference_closed-float"),
    pytest.param(lambda: EigenphaseData(["1/4"], ["1/2"], [], 1), id="EigenphaseData-str-phases"),
    pytest.param(lambda: EigenphaseData([0.25], [F(1, 2)], [], 1), id="EigenphaseData-float-phase"),
    # the float layer reduces nu by the same rule
    pytest.param(lambda: e_series(SIGMA_I, (0.5, F(1, 3))), id="e_series-float-nu"),
    pytest.param(lambda: log_eta_gen(F(1, 2), 0.5, SIGMA_I), id="log_eta_gen-float-h"),
]


@pytest.mark.parametrize("call", NOT_RATIONAL)
def test_rational_input_is_a_fraction_or_an_int(call):
    with pytest.raises(DomainError, match="Fraction or an int"):
        call()


NOT_INT = [
    pytest.param(lambda: SL2ZMatrix(2.0, 1, 1, 1), id="SL2ZMatrix-float"),
    pytest.param(lambda: SL2ZMatrix(True, 0, 0, True), id="SL2ZMatrix-bool"),
    pytest.param(lambda: SL2ZMatrix(1, F(0), 0, 1), id="SL2ZMatrix-fraction"),
    pytest.param(lambda: CircleFlatConnection(3, 1.5), id="CircleFlatConnection-float-k"),
    pytest.param(lambda: CircleFlatConnection(True, 0), id="CircleFlatConnection-bool-l"),
    pytest.param(lambda: EigenphaseData([], [], [F(1, 4)], 1.5), id="EigenphaseData-float-rank"),
    pytest.param(lambda: EigenphaseData([], [], [F(1, 4)], True), id="EigenphaseData-bool-rank"),
    pytest.param(lambda: classical_sum(2.0, 7), id="classical_sum-float-a"),
    pytest.param(lambda: classical_sum(True, 7), id="classical_sum-bool-a"),
    pytest.param(lambda: classical_sum(2, 7.0), id="classical_sum-float-c"),
    pytest.param(lambda: generalized_sum(F(1, 2), 0, 3.0, 7), id="generalized_sum-float-a"),
    pytest.param(lambda: generalized_sum(F(1, 2), 0, 3, True), id="generalized_sum-bool-c"),
    pytest.param(lambda: cotangent_sum(2.0, 7), id="cotangent_sum-float-a"),
    pytest.param(lambda: cotangent_sum(2, True), id="cotangent_sum-bool-c"),
    pytest.param(lambda: p1_closed_fourier(0, 0, True, 1, 0), id="p1_closed_fourier-bool-a"),
    pytest.param(lambda: p1_closed_fourier(0, 0, 2, 7.0, 1), id="p1_closed_fourier-float-c"),
    pytest.param(lambda: p1_closed_fourier(0, 0, 2, 7, 1.0), id="p1_closed_fourier-float-p"),
    pytest.param(lambda: PeriodicFunctionTable(2.0, (1, 2j)), id="PeriodicFunctionTable-float-c"),
    pytest.param(lambda: PeriodicFunctionTable(True, (1,)), id="PeriodicFunctionTable-bool-c"),
    pytest.param(lambda: dai_correction_circle(1.5, True), id="dai_correction_circle-float-l"),
    pytest.param(lambda: circle_moduli_summary(1.5, 2), id="circle_moduli_summary-float-genus"),
    pytest.param(lambda: circle_moduli_summary(1, 2.0), id="circle_moduli_summary-float-l"),
    # B_1 cached first, by keyword, where an untyped cache key of True equals that of 1
    pytest.param(lambda: (bernoulli_number(n=1), bernoulli_number(n=True)), id="bernoulli_number-bool-n"),
    pytest.param(lambda: bernoulli_number(2.5), id="bernoulli_number-float-n"),
    pytest.param(lambda: bernoulli_poly(2.0, F(1, 3)), id="bernoulli_poly-float-n"),
    pytest.param(lambda: periodic_bernoulli(True, F(1, 3)), id="periodic_bernoulli-bool-n"),
    pytest.param(lambda: periodic_bernoulli(2.5, F(1, 3)), id="periodic_bernoulli-float-n"),
    pytest.param(lambda: hurwitz_zeta_nonpos(1.5, F(1, 2)), id="hurwitz_zeta_nonpos-float-n"),
    pytest.param(lambda: periodic_zeta_at(-1.0, F(1, 3)), id="periodic_zeta_at-float-s0"),
    pytest.param(lambda: periodic_zeta_at(False, F(1, 3)), id="periodic_zeta_at-bool-s0"),
    pytest.param(lambda: torus_spectrum(SIGMA_I, (F(1, 2), 0), 1.5), id="torus_spectrum-float-norm"),
    pytest.param(lambda: torus_spectrum(SIGMA_I, (F(1, 2), 0), True), id="torus_spectrum-bool-norm"),
    pytest.param(lambda: random_sl2z(random.Random(0), 2.5), id="random_sl2z-float-bound"),
    pytest.param(lambda: random_sl2z(random.Random(0), True), id="random_sl2z-bool-bound"),
    pytest.param(lambda: random_hyperbolic(random.Random(0), 2.5), id="random_hyperbolic-float-bound"),
    pytest.param(lambda: SeriesParams(max_terms=2.5), id="SeriesParams-float-max_terms"),
]


@pytest.mark.parametrize("call", NOT_INT)
def test_integer_data_is_an_int(call):
    with pytest.raises(DomainError):
        call()


NOT_BOOL = [
    pytest.param(lambda: CircleFlatConnection(3, 3, "no"), id="CircleFlatConnection-str-flag"),
    pytest.param(lambda: CircleFlatConnection(3, 1, "no"), id="CircleFlatConnection-str-flag-fractional-q"),
    pytest.param(lambda: CircleFlatConnection(3, 3, 1), id="CircleFlatConnection-int-1-flag"),
    pytest.param(lambda: CircleFlatConnection(3, 1, 0), id="CircleFlatConnection-int-0-flag"),
    pytest.param(lambda: dai_correction_circle(3, "no"), id="dai_correction_circle-str-flag"),
    pytest.param(lambda: dai_correction_circle(3, 1), id="dai_correction_circle-int-1-flag"),
    pytest.param(lambda: dai_correction_circle(3, 0), id="dai_correction_circle-int-0-flag"),
]


@pytest.mark.parametrize("call", NOT_BOOL)
def test_flag_is_a_bool(call):
    # checked before the value is read: "no" is truthy, and 0 and 1 are not bools
    with pytest.raises(DomainError, match="requires a bool"):
        call()


@pytest.mark.parametrize("a,c", [(2, 7), (-3, 10), (1, 1), (5, -12)])
def test_int_rule_runs_once_per_pair(monkeypatch, a, c):
    # one check of (a, c) per public call; the numerator forms get ints
    import rhocalc.bernoulli
    import rhocalc.dedekind

    calls = []
    real = rhocalc.bernoulli._require_ints

    def counting(what, *values):
        calls.append(values)
        return real(what, *values)

    monkeypatch.setattr(rhocalc.dedekind, "_require_ints", counting)
    classical_sum(a, c)
    generalized_sum(F(1, 3), F(1, 2), a, c)
    assert calls == [(a, c), (a, c)]


def test_ints_and_fractions_still_accepted():
    assert generalized_sum(0, F(1, 2), 3, 7) == generalized_sum(F(0), F(1, 2), 3, 7)
    assert periodic_bernoulli(2, 1) == F(1, 6)
    assert EigenphaseData([0], [F(1, 2)], [], 1).plus_phases == (F(0),)
    assert CircleFlatConnection(3, 1).q == F(1, 3)
    assert classical_sum(2, 7) == F(1, 14)
    assert _unit("test", 2, -7) == (7, 2, 4)
    assert dai_correction_circle(-3, True) == 1
    assert dai_correction_circle(3, False) == 0
    assert CircleFlatConnection(3, 3, True).is_trivial is True
    assert circle_moduli_summary(2, -3) == circle_moduli_summary(2, 3)
