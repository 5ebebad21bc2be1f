"""Moduli of flat U(1) connections: torus mapping tori and circle bundles.

A gauge class on the mapping torus of M is a pair nu in [0,1)^2 with
(Id - M^t) nu integral; the integer vector m = (Id - M^t) nu classifies
the restriction to a fiber-transverse torus, and m lying in the integer
image of (Id - M^t) decides triviality of the flat bundle itself.
Whether nu is admissible is decided in one place, :func:`_admissible_m`,
in integers over one denominator.

The lattice work is two facts about A = Id - M^t = [[1 - a, -c], [-b, 1 - d]],
whose determinant is 2 - tr M:

- Classes.  For D = |2 - tr M| > 0 the numerators n = D nu of the classes
  are the subgroup of (Z/D)^2 spanned by the columns c1, c2 of
  adj A = [[1 - d, c], [b, 1 - a]], since A nu = z in Z^2 iff
  nu = adj(A) z / det A.  The subgroup has |Z^2 / A Z^2| = D elements;
  c1 has order o = D / gcd(D, c1) and c2 generates the quotient by <c1>,
  so each class is i c1 + j c2 mod D for exactly one 0 <= i < o,
  0 <= j < D/o.
- Triviality.  Let x_k = det[a_k | m] for the columns a_k of A.  When
  det A != 0, m = A z has an integer solution iff det A divides x1 and
  x2, by Cramer's rule z = (-x2, x1) / det A.  When det A = 0, it has one
  iff x1 = x2 = 0 and g divides m, g the gcd of the entries of A (g = 0
  leaves only m = 0): the columns are t_k u for one primitive u, so the
  image is gcd(t1, t2) Z u = g Z u.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Optional, Tuple

from ._record import Record
from .bernoulli import RationalLike, _fraction, _mod1, _require_ints
from .errors import AdmissibilityError, DomainError, UnsupportedClassError, _past_str_limit
from .sl2z import Identity, Parabolic, SL2ZMatrix, classify

__all__ = [
    "TorusFlatConnection",
    "CircleFlatConnection",
    "ParabolicFamily",
    "TorusModuliSet",
    "CircleModuliSummary",
    "enumerate_torus_connections",
    "connection_from_nu",
    "is_bundle_trivial",
    "circle_moduli_summary",
    "transport_nu_from_normal_form",
]

#: the most classes, or trace-2 families, enumerate_torus_connections lists;
#: the cost grows linearly in the count: at D = 99,999, `moduli torus --json`
#: takes about 1.6 s and 272 MB peak RSS, `rho torus --enumerate --json`
#: about 2.0 s and 178 MB (2 CPUs, Python 3.11)
MAX_CLASSES = 10**5


def _admissible_m(M: SL2ZMatrix, n1: int, n2: int, den: int) -> Tuple[int, int]:
    """m = (Id - M^t) nu for nu = (n1, n2)/den, den > 0, in integers.

    Raises AdmissibilityError unless m is integral.
    """
    m1, r1 = divmod((1 - M.a) * n1 - M.c * n2, den)
    m2, r2 = divmod((1 - M.d) * n2 - M.b * n1, den)
    if r1 or r2:
        try:
            got = (
                f"({Fraction(m1 * den + r1, den)}, {Fraction(m2 * den + r2, den)}) "
                f"for nu = ({Fraction(n1, den)}, {Fraction(n2, den)})"
            )
        except ValueError:
            got = f"an entry of {_past_str_limit()}"
        raise AdmissibilityError(f"connection requires (Id - M^t) nu in Z^2; got {got}")
    return m1, m2


def _admissible_nu(M: SL2ZMatrix, conn: TorusFlatConnection, what: str) -> Tuple[int, int, int, int]:
    """(p1, q1, p2, q2) with nu = (p1/q1, p2/q2), after checking that
    m = (Id - M^t) nu; raises DomainError otherwise.

    The checked-once rule: a record that connection_from_nu or the
    enumeration built keeps the matrix object it was checked against, and
    this check skips the integer test when it is given that very object.
    That is safe because records and matrices are immutable and the test
    is identity, not equality: a hand-built record, or any other matrix
    object, even an equal one, is checked in full.  The matrix is kept
    outside the record's fields, so equality, hash and repr do not see it.
    """
    nu1, nu2 = conn.nu
    (p1, q1), (p2, q2) = nu1.as_integer_ratio(), nu2.as_integer_ratio()
    if conn._checked_against is not M and _admissible_m(M, p1 * q2, p2 * q1, q1 * q2) != conn.m:
        raise DomainError(f"{what} requires m = (Id - M^t) nu")
    return p1, q1, p2, q2


class TorusFlatConnection(Record):
    """A gauge class of flat U(1) connections on the mapping torus of M.

    Data: the twist nu, a pair of Fractions in [0,1)^2; the integer pair
    m; and the gauge phase lambda, a Fraction in [0, 1) that only a class
    with nu = 0 carries.  nu and lambda may be given as ints, and nu and m
    as any pair; they are stored as Fractions and tuples.  Derived:
    restriction_trivial, set from nu (nu = 0).  The constructor checks
    what it can without M.  Whether m = (Id - M^t) nu is checked where M
    is known: by connection_from_nu and the enumeration, which compute m,
    and on entry to rho_torus, rho_hyperbolic_prep and chern_simons_mod1,
    under the checked-once rule of :func:`_admissible_nu`.
    """

    nu: Tuple[Fraction, Fraction]
    m: Tuple[int, int]
    gauge_lambda: Optional[Fraction]
    restriction_trivial: bool
    # not a field: the matrix object m was checked against (see _admissible_nu)
    _checked_against = None

    def __init__(
        self, nu: Tuple[Fraction, Fraction], m: Tuple[int, int], gauge_lambda: Optional[Fraction] = None
    ) -> None:
        try:
            nu1, nu2 = nu
        except (TypeError, ValueError):
            raise DomainError(f"TorusFlatConnection requires nu to be a pair, got {nu!r}") from None
        nu1, nu2, m = _fraction(nu1), _fraction(nu2), tuple(m)
        if len(m) != 2 or type(m[0]) is not int or type(m[1]) is not int:
            raise DomainError(f"TorusFlatConnection requires m to be a pair of ints, got {m!r}")
        # 0 <= nu_i < 1 in integers: Fraction comparisons cost more
        if not (0 <= nu1.numerator < nu1.denominator and 0 <= nu2.numerator < nu2.denominator):
            raise DomainError(f"TorusFlatConnection requires nu in [0, 1)^2, got ({nu1}, {nu2})")
        trivial = nu1 == 0 and nu2 == 0
        if gauge_lambda is not None:
            gauge_lambda = _fraction(gauge_lambda)
            if not 0 <= gauge_lambda < 1:
                raise DomainError(f"TorusFlatConnection requires lambda in [0, 1), got {gauge_lambda}")
            if not trivial:
                raise DomainError("gauge phase lambda is only defined when nu is integral")
        self.__dict__.update(nu=(nu1, nu2), m=m, gauge_lambda=gauge_lambda, restriction_trivial=trivial)


def _checked(M: SL2ZMatrix, nu: Tuple[Fraction, Fraction], n1: int, n2: int, den: int) -> TorusFlatConnection:
    """The class nu = (n1, n2)/den in [0, 1)^2 of M, without lambda, stored
    without __init__'s checks: m is computed and checked here, so the
    record is marked as checked against M."""
    m = _admissible_m(M, n1, n2, den)
    conn = object.__new__(TorusFlatConnection)
    conn.__dict__.update(nu=nu, m=m, gauge_lambda=None, restriction_trivial=not (n1 or n2), _checked_against=M)
    return conn


class CircleFlatConnection(Record):
    """A flat U(1) connection datum on a degree-l circle bundle.

    The fiber holonomy is e^{2 pi i q} with q = chern_k / degree_l; the
    connection can only be trivial when that holonomy is 1, i.e. q in Z
    (or l = 0 with the trivial base holonomy).
    """

    degree_l: int
    chern_k: int
    is_trivial: bool

    def __init__(self, degree_l: int, chern_k: int, is_trivial: bool = False) -> None:
        _require_ints("CircleFlatConnection", degree_l, chern_k)
        if type(is_trivial) is not bool:
            raise DomainError(f"CircleFlatConnection requires a bool is_trivial, got {is_trivial!r}")
        if degree_l != 0 and is_trivial and chern_k % degree_l != 0:
            raise DomainError(
                "CircleFlatConnection cannot be trivial with fractional q = k/l"
            )
        self.__dict__.update(degree_l=degree_l, chern_k=chern_k, is_trivial=is_trivial)

    @property
    def q(self) -> Fraction:
        if self.degree_l == 0:
            raise DomainError("q = k/l is undefined for degree 0")
        return Fraction(self.chern_k, self.degree_l)


class ParabolicFamily(Record):
    """One connected family nu1 = const, nu2 free (normal-form coordinates).

    representative is its twisted class at nu2 = 1/2, in M's coordinates.
    """

    nu1: Fraction
    representative: TorusFlatConnection

    def __init__(self, nu1: Fraction, representative: TorusFlatConnection) -> None:
        self.__dict__.update(nu1=nu1, representative=representative)


class TorusModuliSet(Record):
    isolated: Tuple[TorusFlatConnection, ...]
    families: Tuple[ParabolicFamily, ...]

    def __init__(
        self, isolated: Tuple[TorusFlatConnection, ...], families: Tuple[ParabolicFamily, ...]
    ) -> None:
        self.__dict__.update(isolated=isolated, families=families)


class CircleModuliSummary(Record):
    torus_rank: int
    torsion_order: int

    def __init__(self, torus_rank: int, torsion_order: int) -> None:
        self.__dict__.update(torus_rank=torus_rank, torsion_order=torsion_order)


def is_bundle_trivial(M: SL2ZMatrix, m: Tuple[int, int]) -> bool:
    """Is m in the image of (Id - M^t) acting on Z^2?  The rule and its
    proof are in the module docstring.  No package code calls it; it stays
    public because it answers for any integer m, where a
    TorusFlatConnection answers only for its own class."""
    p, q, r, s = 1 - M.a, -M.c, -M.b, 1 - M.d
    m1, m2 = m
    x1, x2 = p * m2 - r * m1, q * m2 - s * m1
    det = p * s - q * r
    if det:
        return x1 % det == 0 and x2 % det == 0
    # gcd(g, m1, m2) == g: g divides m, and for g = 0, m = 0
    g = gcd(p, q, r, s)
    return x1 == x2 == 0 and gcd(g, m1, m2) == g


def connection_from_nu(
    M: SL2ZMatrix,
    nu: Tuple[RationalLike, RationalLike],
    gauge_lambda: Optional[RationalLike] = None,
) -> TorusFlatConnection:
    """Validate and normalize a connection datum on the mapping torus of M.

    nu and lambda are Fractions or ints, reduced into [0, 1); the
    admissibility condition is that m = (Id - M^t) nu is integral.  The
    constant gauge phase lambda only exists when the fiber restriction is
    trivial (nu in Z^2).
    """
    try:
        nu1, nu2 = nu
    except (TypeError, ValueError):
        raise DomainError(f"connection_from_nu requires nu to be a pair, got {nu!r}") from None
    (p1, q1), (p2, q2) = _mod1(nu1), _mod1(nu2)
    m = _admissible_m(M, p1 * q2, p2 * q1, q1 * q2)
    if gauge_lambda is not None:
        gauge_lambda = Fraction(*_mod1(gauge_lambda))
    conn = TorusFlatConnection((Fraction(p1, q1), Fraction(p2, q2)), m, gauge_lambda)
    conn.__dict__["_checked_against"] = M
    return conn


def _numerators(M: SL2ZMatrix, D: int) -> List[Tuple[int, int]]:
    """The numerators n = D nu of the isolated classes of M, D = |2 - tr M|
    > 0, sorted: i c1 + j c2 mod D over the columns of adj(Id - M^t)."""
    c1, c2 = ((1 - M.d) % D, M.b % D), (M.c % D, (1 - M.a) % D)
    o = D // gcd(D, *c1)
    return sorted(
        ((i * c1[0] + j * c2[0]) % D, (i * c1[1] + j * c2[1]) % D) for i in range(o) for j in range(D // o)
    )


def enumerate_torus_connections(M: SL2ZMatrix) -> TorusModuliSet:
    """All gauge classes of flat U(1) connections on the mapping torus of M.

    For tr M != 2 the classes are the D = |2 - tr M| isolated solutions
    of (Id - M^t) nu in Z^2, built as integer numerators over D from the
    columns of adj(Id - M^t) (see the module docstring) and listed in
    [0,1)^2, sorted by nu.  For a parabolic M with trace 2 the solution
    set is a disjoint union of circles; the returned families are
    expressed in the coordinates of the normal form eps*[[1, l], [0, 1]]
    as nu1 = j/|l| with nu2 free, each with its class at nu2 = 1/2 moved
    back by the conjugator classify returned.  More than MAX_CLASSES
    classes or families raise DomainError before any is built.
    """
    cls = classify(M)
    if isinstance(cls, Identity):
        raise UnsupportedClassError(
            "enumerate_torus_connections requires M != +-Id"
        )
    # trace 2: det(Id - M^t) = 2 - tr M = 0, and |l| circles
    circles = isinstance(cls, Parabolic) and cls.epsilon == 1
    count = abs(cls.l) if circles else abs(2 - M.trace)
    if count > MAX_CLASSES:
        raise DomainError(
            f"the mapping torus of M has {count} {'families' if circles else 'classes'} of flat connections; "
            f"enumerate_torus_connections lists at most {MAX_CLASSES}"
        )
    if circles:
        l, den = count, 2 * count
        families = []
        for j in range(l):
            # nu' = (j/l, 1/2) = (2j, l)/den moved back to M's coordinates;
            # nu2' = 1/2, so the class is twisted
            n1, n2 = _from_normal_form(cls.conjugator, 2 * j, l, den)
            rep = _checked(M, (Fraction(n1, den), Fraction(n2, den)), n1, n2, den)
            families.append(ParabolicFamily(Fraction(j, l), rep))
        return TorusModuliSet(isolated=(), families=tuple(families))
    # each class is checked once, here, and stored as it is; its numerators
    # lie in [0, D), and the classes share one Fraction per numerator, built
    # after the numerators (built before them, they raised the peak RSS of
    # `rho torus --enumerate --json` at D = 99,999 by about 1 MB)
    numerators = _numerators(M, count)
    nus = [Fraction(n, count) for n in range(count)]
    conns = tuple(_checked(M, (nus[n1], nus[n2]), n1, n2, count) for n1, n2 in numerators)
    return TorusModuliSet(isolated=conns, families=())


def circle_moduli_summary(genus: int, degree_l: int) -> CircleModuliSummary:
    """Moduli of flat U(1) connections on a degree-l circle bundle over a
    genus-g surface: U(1)^{2g} x Z_{|l|} (torsion order 0 encodes the
    extra free circle factor at l = 0)."""
    _require_ints("circle_moduli_summary", genus, degree_l)
    if genus < 0:
        raise DomainError("circle_moduli_summary requires genus >= 0")
    return CircleModuliSummary(torus_rank=2 * genus, torsion_order=abs(degree_l))


def transport_nu_from_normal_form(
    M: SL2ZMatrix, nu_prime: Tuple[Fraction, Fraction]
) -> Tuple[Fraction, Fraction]:
    """Transport nu' from the normal-form coordinates of parabolic M back to
    M's: with g the conjugator (g^{-1} M g = N the normal form), constant
    1-forms pull back through the transpose, so nu = g^{-t} nu' mod Z^2.
    No package code calls it; it stays public for acceptance criterion 7,
    which draws parabolic classes in normal-form coordinates."""
    cls = classify(M)
    if not isinstance(cls, Parabolic):
        raise UnsupportedClassError("transport_nu_from_normal_form requires a parabolic M != +-Id")
    (p1, q1), (p2, q2) = (_fraction(v).as_integer_ratio() for v in nu_prime)
    den = q1 * q2
    n1, n2 = _from_normal_form(cls.conjugator, p1 * q2, p2 * q1, den)
    return Fraction(n1, den), Fraction(n2, den)


def _from_normal_form(conj: SL2ZMatrix, n1: int, n2: int, den: int) -> Tuple[int, int]:
    """Numerators over den of nu = g^{-t} nu' mod Z^2, for nu' = (n1, n2)/den
    and g the conjugator of the normal form."""
    return (conj.d * n1 - conj.c * n2) % den, (conj.a * n2 - conj.b * n1) % den
