"""Moduli of flat U(1) connections: torus mapping tori and circle bundles.

A gauge class on the mapping torus of M is a pair nu in [0,1)^2 with
(Id - M^t) nu integral; the integer vector m = (Id - M^t) nu classifies
the restriction to a fiber-transverse torus, and m lying in the integer
image of (Id - M^t) decides triviality of the flat bundle itself.
Whether nu is admissible is decided in one place, :func:`_admissible_m`,
in integers over one denominator.  All lattice work runs through one
Smith-normal-form kernel with the unimodular transforms retained.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Tuple

from ._record import Record
from .bernoulli import RationalLike, _reduce_mod1
from .errors import AdmissibilityError, DomainError, UnsupportedClassError
from .sl2z import Identity, Parabolic, SL2ZMatrix, classify, parabolic_normal_form

__all__ = [
    "TorusFlatConnection",
    "CircleFlatConnection",
    "ParabolicFamily",
    "TorusModuliSet",
    "CircleModuliSummary",
    "smith_normal_form",
    "enumerate_torus_connections",
    "connection_from_nu",
    "is_bundle_trivial",
    "circle_moduli_summary",
    "transport_nu_from_normal_form",
]

Mat2 = Tuple[Tuple[int, int], Tuple[int, int]]


def _one_minus_mt(M: SL2ZMatrix) -> Mat2:
    """(Id - M^t) as an integer matrix."""
    return ((1 - M.a, -M.c), (-M.b, 1 - M.d))


def _admissible_m(M: SL2ZMatrix, n1: int, n2: int, den: int) -> Tuple[int, int]:
    """m = (Id - M^t) nu for nu = (n1, n2)/den, den > 0, in integers.

    Raises AdmissibilityError unless m is integral.
    """
    m1, r1 = divmod((1 - M.a) * n1 - M.c * n2, den)
    m2, r2 = divmod((1 - M.d) * n2 - M.b * n1, den)
    if r1 or r2:
        raise AdmissibilityError(
            "connection requires (Id - M^t) nu in Z^2; got "
            f"({Fraction(m1 * den + r1, den)}, {Fraction(m2 * den + r2, den)}) "
            f"for nu = ({Fraction(n1, den)}, {Fraction(n2, den)})"
        )
    return m1, m2


def _is_rational(v) -> bool:
    """Is v a Fraction or an int (not a bool, float or string)?"""
    return isinstance(v, Fraction) or type(v) is int


def smith_normal_form(A: Mat2) -> Tuple[Mat2, Mat2, Mat2]:
    """Smith normal form of an integer 2x2 matrix.

    Returns (U, S, V) with U, V in GL(2, Z), S = U A V = diag(d1, d2),
    d1, d2 >= 0 and d1 | d2.
    """
    a = [list(A[0]), list(A[1])]
    u = [[1, 0], [0, 1]]
    v = [[1, 0], [0, 1]]

    def row_op(i, j, k):  # row_i += k * row_j, tracked in U
        for t in range(2):
            a[i][t] += k * a[j][t]
            u[i][t] += k * u[j][t]

    def col_op(i, j, k):  # col_i += k * col_j, tracked in V
        for t in range(2):
            a[t][i] += k * a[t][j]
            v[t][i] += k * v[t][j]

    def row_swap():
        a[0], a[1] = a[1], a[0]
        u[0], u[1] = u[1], u[0]

    def col_swap():
        for t in range(2):
            a[t][0], a[t][1] = a[t][1], a[t][0]
            v[t][0], v[t][1] = v[t][1], v[t][0]

    def reduce_once() -> None:
        # Euclidean clearing of the off-diagonal entries around pivot (0,0);
        # terminates because every swap strictly shrinks |pivot|
        while True:
            if a[0][0] == 0:
                if a[1][0] != 0:
                    row_swap()
                elif a[0][1] != 0:
                    col_swap()
                elif a[1][1] != 0:
                    row_swap()
                    col_swap()
                else:
                    return
                continue
            if a[1][0] != 0:
                row_op(1, 0, -(a[1][0] // a[0][0]))
                if a[1][0] != 0:
                    row_swap()
                continue
            if a[0][1] != 0:
                col_op(1, 0, -(a[0][1] // a[0][0]))
                if a[0][1] != 0:
                    col_swap()
                continue
            return

    reduce_once()
    # enforce d1 | d2 (0 % d == 0, so a zero corner needs no fix)
    if a[0][0] != 0 and a[1][1] % a[0][0] != 0:
        col_op(0, 1, 1)
        reduce_once()

    # sign normalization of the diagonal, pushed into V
    for i in range(2):
        if a[i][i] < 0:
            for t in range(2):
                a[t][i] = -a[t][i]
                v[t][i] = -v[t][i]

    assert a[0][1] == 0 and a[1][0] == 0
    assert a[1][1] == 0 or (a[0][0] != 0 and a[1][1] % a[0][0] == 0)

    U = (tuple(u[0]), tuple(u[1]))
    S = (tuple(a[0]), tuple(a[1]))
    V = (tuple(v[0]), tuple(v[1]))
    return U, S, V


class TorusFlatConnection(Record):
    """A gauge class of flat U(1) connections on the mapping torus of M.

    Data: the twist nu, a pair of Fractions or ints in [0,1)^2; the
    integer pair m; and the gauge phase lambda, a Fraction or int in
    [0, 1) that only a class with nu = 0 carries.  Derived:
    restriction_trivial, set from nu (nu = 0).  The constructor checks
    what it can without M.  Whether m = (Id - M^t) nu is checked where M
    is known: by connection_from_nu, which computes m, and on entry to
    rho_torus, rho_hyperbolic_prep and chern_simons_mod1.
    """

    nu: Tuple[Fraction, Fraction]
    m: Tuple[int, int]
    gauge_lambda: Optional[Fraction]
    restriction_trivial: bool

    def __init__(
        self, nu: Tuple[Fraction, Fraction], m: Tuple[int, int], gauge_lambda: Optional[Fraction] = None
    ) -> None:
        try:
            nu1, nu2 = nu
        except (TypeError, ValueError):
            raise DomainError(f"TorusFlatConnection requires nu to be a pair, got {nu!r}") from None
        if not all(map(_is_rational, nu)):
            raise DomainError(f"TorusFlatConnection requires nu to be a pair of Fractions or ints, got {nu!r}")
        if tuple(map(type, m)) != (int, int):
            raise DomainError(f"TorusFlatConnection requires m to be a pair of ints, got {m!r}")
        if not (0 <= nu1 < 1 and 0 <= nu2 < 1):
            raise DomainError(f"TorusFlatConnection requires nu in [0, 1)^2, got ({nu1}, {nu2})")
        trivial = nu1 == 0 and nu2 == 0
        if gauge_lambda is not None:
            if not (_is_rational(gauge_lambda) and 0 <= gauge_lambda < 1):
                raise DomainError(
                    f"TorusFlatConnection requires lambda to be a Fraction or int in [0, 1), got {gauge_lambda!r}"
                )
            if not trivial:
                raise DomainError("gauge phase lambda is only defined when nu is integral")
        self.__dict__.update(nu=nu, m=m, gauge_lambda=gauge_lambda, restriction_trivial=trivial)


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
    """Is m in the image of (Id - M^t) acting on Z^2?

    Decided through U A V = diag(d1, d2): m = A z has an integer solution
    iff each component of U m is divisible by the matching d (zero d
    demands a zero component).
    """
    U, S, _ = smith_normal_form(_one_minus_mt(M))
    (u00, u01), (u10, u11) = U
    w = (u00 * m[0] + u01 * m[1], u10 * m[0] + u11 * m[1])
    for i in range(2):
        if S[i][i] == 0:
            if w[i] != 0:
                return False
        elif w[i] % S[i][i] != 0:
            return False
    return True


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
    if not all(_is_rational(v) for v in (nu1, nu2, gauge_lambda) if v is not None):
        raise DomainError(f"connection_from_nu requires Fraction or int nu and lambda, got {nu!r}, {gauge_lambda!r}")
    nu1, nu2 = _reduce_mod1(nu1), _reduce_mod1(nu2)
    q1, q2 = nu1.denominator, nu2.denominator
    return TorusFlatConnection(
        nu=(nu1, nu2),
        m=_admissible_m(M, nu1.numerator * q2, nu2.numerator * q1, q1 * q2),
        gauge_lambda=None if gauge_lambda is None else _reduce_mod1(gauge_lambda),
    )


def enumerate_torus_connections(M: SL2ZMatrix) -> TorusModuliSet:
    """All gauge classes of flat U(1) connections on the mapping torus of M.

    For tr M != 2 the classes are the |det(Id - M^t)| = |2 - tr M|
    isolated solutions of (Id - M^t) nu in Z^2, enumerated through the
    Smith normal form diag(d1, d2) as integer numerators over d2 and
    listed in [0,1)^2, sorted by nu.  For a parabolic M with trace 2 the
    solution set is a disjoint union of circles; the returned families
    are expressed in the coordinates of the normal form
    eps*[[1, l], [0, 1]] as nu1 = j/|l| with nu2 free, each with its
    class at nu2 = 1/2 moved back by the conjugator classify returned.
    """
    cls = classify(M)
    if isinstance(cls, Identity):
        raise UnsupportedClassError(
            "enumerate_torus_connections requires M != +-Id"
        )
    if isinstance(cls, Parabolic) and cls.epsilon == 1:
        # trace 2: det(Id - M^t) = 2 - tr M = 0
        l = abs(cls.l)
        den = 2 * l
        families = []
        for j in range(l):
            # nu' = (j/l, 1/2) = (2j, l)/den moved back to M's coordinates
            n1, n2 = _from_normal_form(cls.conjugator, 2 * j, l, den)
            rep = TorusFlatConnection((Fraction(n1, den), Fraction(n2, den)), _admissible_m(M, n1, n2, den))
            families.append(ParabolicFamily(Fraction(j, l), rep))
        return TorusModuliSet(isolated=(), families=tuple(families))
    _, S, V = smith_normal_form(_one_minus_mt(M))
    d1, d2 = S[0][0], S[1][1]
    # nu = V (i/d1, j/d2) = n/d2 with n = V (i k, j) mod d2, k = d2/d1
    k = d2 // d1
    (v00, v01), (v10, v11) = V
    nums = sorted({((v00 * i * k + v01 * j) % d2, (v10 * i * k + v11 * j) % d2)
                   for i in range(d1) for j in range(d2)})
    assert len(nums) == abs(2 - M.trace)
    conns = tuple(
        TorusFlatConnection((Fraction(n1, d2), Fraction(n2, d2)), _admissible_m(M, n1, n2, d2))
        for n1, n2 in nums
    )
    return TorusModuliSet(isolated=conns, families=())


def circle_moduli_summary(genus: int, degree_l: int) -> CircleModuliSummary:
    """Moduli of flat U(1) connections on a degree-l circle bundle over a
    genus-g surface: U(1)^{2g} x Z_{|l|} (torsion order 0 encodes the
    extra free circle factor at l = 0)."""
    if genus < 0:
        raise DomainError("circle_moduli_summary requires genus >= 0")
    return CircleModuliSummary(torus_rank=2 * genus, torsion_order=abs(degree_l))


def transport_nu_from_normal_form(
    M: SL2ZMatrix, nu_prime: Tuple[Fraction, Fraction]
) -> Tuple[Fraction, Fraction]:
    """Transport nu' from the normal-form coordinates of parabolic M back to
    M's: with g the conjugator (g^{-1} M g = N the normal form), constant
    1-forms pull back through the transpose, so nu = g^{-t} nu' mod Z^2."""
    (p1, q1), (p2, q2) = (Fraction(v).as_integer_ratio() for v in nu_prime)
    den = q1 * q2
    n1, n2 = _from_normal_form(parabolic_normal_form(M)[2], p1 * q2, p2 * q1, den)
    return Fraction(n1, den), Fraction(n2, den)


def _from_normal_form(conj: SL2ZMatrix, n1: int, n2: int, den: int) -> Tuple[int, int]:
    """Numerators over den of nu = g^{-t} nu' mod Z^2, for nu' = (n1, n2)/den
    and g the conjugator of the normal form."""
    return (conj.d * n1 - conj.c * n2) % den, (conj.a * n2 - conj.b * n1) % den
