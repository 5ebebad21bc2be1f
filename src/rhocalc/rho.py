"""Closed-form Rho, Eta and Chern-Simons invariants.

Circle bundles over surfaces and torus mapping tori, the latter split by
monodromy class.  Everything here is exact rational arithmetic.

Sign conventions.  For a hyperbolic mapping torus with monodromy
M = [[a, b], [c, d]] and admissible twist nu (so m = (Id - M^t) nu is
integral, nu not integral), the invariant is

    rho = 2(a+d)/c * (P_2(nu_1) - 1/6) - 4 sgn(c) * Delta + sgn(c (a+d))

with Delta = s_{nu_1,nu_2}(a, c) - s(a, c) the difference of the
generalized and the classical Dedekind sum, assembled in integers over
q^2 |c| den for nu_1 = p/q and Delta = num/den as given by the numerator
forms of :mod:`rhocalc.dedekind`.  :func:`rho_torus` takes Delta from
the closed form of :func:`~rhocalc.dedekind.sum_difference_closed`;
written out, that assembly is the paper's six-term form.
:func:`rho_hyperbolic_prep` takes Delta as the two sums themselves, so
the two-path equality the tests enforce checks exactly the difference
identity; the shared assembly is pinned by the reference tables, the
float route and a literal six-term oracle in the tests.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Tuple

from ._record import Record
from .bernoulli import _fraction, _mod1, _require_ints, periodic_bernoulli, sgn
from .dedekind import _difference_num, _generalized_num
from .errors import DomainError, UnsupportedClassError
from .moduli import CircleFlatConnection, TorusFlatConnection, _admissible_nu
from .sl2z import Elliptic, Hyperbolic, Identity, Parabolic, SL2ZMatrix, classify

__all__ = [
    "RhoBranch",
    "RhoValue",
    "EigenphaseData",
    "rho_circle",
    "eta_truncated_circle",
    "dai_correction_circle",
    "rho_torus",
    "rho_hyperbolic_prep",
    "eta_untwisted_torus",
    "rho_finite_order_generic",
    "chern_simons_mod1",
]


class RhoBranch(str, Enum):
    """Names the theorem branch that produced a RhoValue."""

    CIRCLE_ZERO_DEGREE = "circle-zero-degree"
    CIRCLE_TRIVIAL = "circle-trivial"
    CIRCLE_NONTRIVIAL = "circle-nontrivial"
    ELLIPTIC_TWISTED = "elliptic-twisted"
    ELLIPTIC_TRIVIAL_RESTRICTION = "elliptic-trivial-restriction"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"
    HYPERBOLIC_PREP = "hyperbolic-prep"


class RhoValue(Record):
    value: Fraction
    branch: RhoBranch

    def __init__(self, value: Fraction, branch: RhoBranch) -> None:
        self.__dict__.update(value=value, branch=branch)


class EigenphaseData(Record):
    """Eigenphase input for the generic finite-order mapping-torus formula.

    plus_phases / minus_phases are the phases (in [0,1)) of the unitarized
    pullback on the two chirality halves of the twisted harmonic 1-forms;
    untwisted_plus_phases are the phases of the plain pullback on the
    untwisted half; rank_k is the rank of the flat bundle.  No package
    code builds one; it stays public as the input of
    rho_finite_order_generic, for acceptance criterion 13.
    """

    plus_phases: Tuple[Fraction, ...]
    minus_phases: Tuple[Fraction, ...]
    untwisted_plus_phases: Tuple[Fraction, ...]
    rank_k: int

    def __init__(
        self,
        plus_phases: Tuple[Fraction, ...],
        minus_phases: Tuple[Fraction, ...],
        untwisted_plus_phases: Tuple[Fraction, ...],
        rank_k: int,
    ) -> None:
        self.__dict__.update(
            plus_phases=tuple(map(_fraction, plus_phases)),
            minus_phases=tuple(map(_fraction, minus_phases)),
            untwisted_plus_phases=tuple(map(_fraction, untwisted_plus_phases)),
            rank_k=rank_k,
        )
        for name in ("plus_phases", "minus_phases", "untwisted_plus_phases"):
            if any(not 0 <= p < 1 for p in getattr(self, name)):
                raise DomainError(f"{name} must lie in [0, 1)")
        if len(self.plus_phases) != len(self.minus_phases):
            raise DomainError(
                "eigenphase data requires equally many plus and minus phases"
            )
        if type(rank_k) is not int or rank_k < 1:
            raise DomainError("rank_k must be a positive integer")


def rho_circle(conn: CircleFlatConnection) -> RhoValue:
    """Rho invariant of a flat U(1) connection on a circle bundle over a
    surface, degree l with fiber holonomy exponent q = k/l.

    Zero degree (a product) and the trivial connection both give 0;
    otherwise 2l(P_2(q) - 1/6) + sgn(l).
    """
    l = conn.degree_l
    if l == 0:
        return RhoValue(Fraction(0), RhoBranch.CIRCLE_ZERO_DEGREE)
    if conn.is_trivial:
        return RhoValue(Fraction(0), RhoBranch.CIRCLE_TRIVIAL)
    p, q = _mod1(conn.q)  # P_2(p/q) - 1/6 = p (p - q)/q^2
    return RhoValue(Fraction(2 * l * p * (p - q), q * q) + sgn(l), RhoBranch.CIRCLE_NONTRIVIAL)


def eta_truncated_circle(conn: CircleFlatConnection) -> Fraction:
    """Eta invariant of the even truncated signature operator: 2 l P_2(k/l)."""
    if conn.degree_l == 0:
        raise DomainError("eta_truncated_circle requires degree l != 0")
    return 2 * conn.degree_l * periodic_bernoulli(2, conn.q)


def dai_correction_circle(degree_l: int, connection_trivial: bool) -> int:
    """Topological correction term over a circle bundle: -sgn(l) for the
    trivial connection, 0 otherwise."""
    _require_ints("dai_correction_circle", degree_l)
    if type(connection_trivial) is not bool:
        raise DomainError(f"dai_correction_circle requires a bool connection_trivial, got {connection_trivial!r}")
    if degree_l == 0:
        raise DomainError("dai_correction_circle requires degree l != 0")
    return -sgn(degree_l) if connection_trivial else 0


def _rho_hyperbolic(M: SL2ZMatrix, p: int, q: int, num: int, den: int) -> Fraction:
    """2(a+d)/c (P_2(nu_1) - 1/6) - 4 sgn(c) num/den + sgn(c(a+d)) for
    nu_1 = p/q in [0, 1), with num/den the Dedekind-sum difference
    s_{nu_1,nu_2}(a,c) - s(a,c); one integer numerator over q^2 |c| den."""
    tr, cabs, sc, sct = M._trace_c
    qqc = q * q * cabs  # P_2(p/q) - 1/6 = p(p - q)/q^2
    top = (2 * tr * p * (p - q) * den - 4 * num * qqc) * sc + sct * qqc * den
    return Fraction(top, qqc * den)


def _require_twisted(conn: TorusFlatConnection, what: str) -> None:
    if conn.restriction_trivial:
        raise UnsupportedClassError(
            f"{what} has no closed form for nu in Z^2 (out of scope)"
        )


def rho_torus(M: SL2ZMatrix, conn: TorusFlatConnection) -> RhoValue:
    """Rho invariant of the mapping torus of M with flat twist conn.

    Dispatches on the monodromy class:

    * elliptic, nu not integral: (2 - 4 theta) sgn(c);
    * elliptic, trivial restriction with gauge phase lambda:
      0, sgn(c) or 2 sgn(c) according as dist(lambda, Z) <, =, > theta
      (exact rational comparison standing in for Re(u) vs Re(kappa)), so
      the trivial connection, lambda = 0, has rho 0; the base-cover
      identity fixes both strict sides, and leaves sgn(c) at equality
      unconstrained;
    * parabolic: transported to the normal form eps*[[1, l], [0, 1]],
      then 2l(P_2(nu_1) - 1/6) plus sgn(l) for eps = +1;
    * hyperbolic: the assembly of the module docstring over the closed
      form :func:`~rhocalc.dedekind.sum_difference_closed`.
    """
    p1, q1, p2, q2 = _admissible_nu(M, conn, "rho_torus")
    cls = classify(M)
    if isinstance(cls, Identity):
        raise UnsupportedClassError("rho_torus is undefined for M = +-Id")
    if isinstance(cls, Elliptic):
        sc = sgn(M.c)
        if not conn.restriction_trivial:
            return RhoValue((2 - 4 * cls.theta) * sc, RhoBranch.ELLIPTIC_TWISTED)
        lam = conn.gauge_lambda
        if lam is None:
            raise DomainError(
                "elliptic trivial-restriction rho requires the gauge phase lambda"
            )
        dist = min(lam, 1 - lam)
        if dist < cls.theta:
            value = Fraction(0)
        elif dist == cls.theta:
            value = Fraction(sc)
        else:
            value = Fraction(2 * sc)
        return RhoValue(value, RhoBranch.ELLIPTIC_TRIVIAL_RESTRICTION)
    if isinstance(cls, Parabolic):
        _require_twisted(conn, "parabolic rho_torus")
        # nu' = g^t nu mod Z^2 in the coordinates of the normal form
        # eps*[[1, l], [0, 1]] = g^{-1} M g; nu1' = p/q over q = q1 q2, and
        # P_2(p/q) - 1/6 = p (p - q)/q^2 on [0, 1)
        g, q = cls.conjugator, q1 * q2
        p = (g.a * p1 * q2 + g.c * p2 * q1) % q
        value = Fraction(2 * cls.l * p * (p - q), q * q)
        if cls.epsilon == 1:
            value += sgn(cls.l)
        return RhoValue(value, RhoBranch.PARABOLIC)
    _require_twisted(conn, "hyperbolic rho_torus")
    value = _rho_hyperbolic(M, p1, q1, *_difference_num(p1, q1, conn.m[0], M))
    return RhoValue(value, RhoBranch.HYPERBOLIC)


def rho_hyperbolic_prep(M: SL2ZMatrix, conn: TorusFlatConnection) -> RhoValue:
    """Hyperbolic rho with the Dedekind-sum difference taken from the sums.

    The assembly of the module docstring over generalized_sum(nu) -
    classical_sum, rather than over the closed form.  Must equal
    :func:`rho_torus` exactly, which checks the difference identity.
    """
    p1, q1, _, _ = _admissible_nu(M, conn, "rho_hyperbolic_prep")
    cls = classify(M)
    if not isinstance(cls, Hyperbolic):
        raise UnsupportedClassError("rho_hyperbolic_prep requires a hyperbolic matrix")
    _require_twisted(conn, "rho_hyperbolic_prep")
    g, dg = _generalized_num(*conn.nu, M.a, M.c)
    k, dk = M._classical
    value = _rho_hyperbolic(M, p1, q1, g * dk - k * dg, dg * dk)
    return RhoValue(value, RhoBranch.HYPERBOLIC_PREP)


def eta_untwisted_torus(M: SL2ZMatrix) -> Fraction:
    """Untwisted Eta invariant of the mapping torus of M.

    Elliptic: (4 theta - 2) sgn(c); hyperbolic:
    (a+d)/(3c) - 4 sgn(c) s(a,c) - sgn(c(a+d)).  No closed form is
    available for parabolic or +-Id monodromy.
    """
    cls = classify(M)
    if isinstance(cls, Elliptic):
        assert M.c != 0  # elliptic trace forces c != 0
        return (4 * cls.theta - 2) * sgn(M.c)
    if isinstance(cls, Hyperbolic):
        tr, _, sc, sct = M._trace_c
        num, den = M._classical
        return Fraction(tr * den - 3 * M.c * (4 * sc * num + sct * den), 3 * M.c * den)
    raise UnsupportedClassError(
        "eta_untwisted_torus supports only elliptic and hyperbolic monodromy"
    )


def rho_finite_order_generic(data: EigenphaseData) -> Fraction:
    """Generic eigenphase formula for mapping tori of finite-order maps.

    2 sum(theta+) - #{theta+ != 0} - 2 sum(theta-) + #{theta- != 0}
    - 4k sum(theta0) + 2k #{theta0 != 0},  all phases in [0, 1).

    No package code calls it; it stays public for acceptance criterion 13,
    which checks it against rho_torus on the elliptic classes.
    """
    k = data.rank_k
    value = 2 * sum(data.plus_phases, Fraction(0))
    value -= sum(1 for p in data.plus_phases if p != 0)
    value -= 2 * sum(data.minus_phases, Fraction(0))
    value += sum(1 for p in data.minus_phases if p != 0)
    value -= 4 * k * sum(data.untwisted_plus_phases, Fraction(0))
    value += 2 * k * sum(1 for p in data.untwisted_plus_phases if p != 0)
    return Fraction(value)


def chern_simons_mod1(M: SL2ZMatrix, conn: TorusFlatConnection) -> Fraction:
    """Chern-Simons invariant 2(nu_2 m_1 - nu_1 m_2) mod Z, in [0, 1).

    Raises DomainError unless m = (Id - M^t) nu.  The value is an integer
    over the common denominator q1 q2 of nu = (p1/q1, p2/q2).
    """
    p1, q1, p2, q2 = _admissible_nu(M, conn, "chern_simons_mod1")
    m1, m2 = conn.m
    return Fraction(2 * (p2 * q1 * m1 - p1 * q2 * m2) % (q1 * q2), q1 * q2)
