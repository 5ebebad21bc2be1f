"""Floating-point lattice series and end-to-end numeric checks.

Covers the theta-type series E_nu and F_nu, the Kronecker-limit identity
tying the u-integral of F_nu to the sigma-derivative of E_nu, classical
and generalized log Dedekind-eta functions with their modular
transformation defects, the flat-torus Laplace spectrum, and numeric
re-derivations of the hyperbolic Eta/Rho quantities whose exact values
the rest of the package computes in rational arithmetic.  The package's
float code lives here, the op-action of SL(2, Z) on the upper half-plane,
the invariant path of a hyperbolic M and the finite Fourier toolkit of
the Dedekind sums included.

Conventions: sigma = sigma1 + i sigma2 with sigma2 > 0; q_sigma =
e^{2 pi i sigma}; z = nu1 sigma - nu2 and q_z = e^{2 pi i z}.  E_nu, its
sigma-derivative, log eta_{g,h} and log eta share one series
S2 = sum_{n>=1} (q_z^n + q_z^{-n}) q_sigma^n / (n (1 - q_sigma^n)), summed
in capped numpy blocks, and one truncation rule: E_nu = S2 - Log(1 - q_z)
(S2 alone for nu1 = 0), E_nu = pi i sigma P_2(nu1) - log eta_{nu1,-nu2}
for nu1 not in Z, and log eta = pi i sigma/12 - S2/2 at q_z = 1.
1 - q_z is formed without subtracting, so a small |z| keeps its digits.
All series terms are evaluated in forms whose factors stay bounded (for
example e^{i s}/sin(s) is rewritten as -2i q/(1-q) with q = e^{2 i s}),
so no intermediate overflows even far along the tail.  Logarithms take
the principal branch on the plane cut along the negative real axis, and
every argument is checked to stay off the cut.

numpy, the only dependency, is imported inside the functions that use
it, so importing this module (and with it the package) does not load
it.  The one quadrature, the Kronecker integral's, uses the package's
batched adaptive Gauss-Kronrod rule (`_quadrature`), loaded with it, so
no path loads scipy; the arc integral of the untwisted Eta is closed.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from ._record import Record
from .bernoulli import RationalLike, _fraction, _reduce_mod1, _require_ints, periodic_bernoulli, sgn
from .dedekind import CoprimePair, classical_sum, generalized_sum
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    DomainError,
    QuadratureError,
    UnsupportedClassError,
)
from .moduli import connection_from_nu
from .sl2z import Hyperbolic, SL2ZMatrix, UpperHalfPoint, classify

__all__ = [
    "SeriesParams",
    "ComplexValue",
    "e_series",
    "e_series_with_count",
    "f_series",
    "f_series_direct",
    "f_series_poisson",
    "kronecker_integral",
    "kronecker_integral_info",
    "kronecker_closed",
    "log_eta",
    "log_eta_gen",
    "transform_defect",
    "transform_defect_gen",
    "torus_spectrum",
    "rho_form_hyp_numeric",
    "eta_untwisted_numeric",
    "moebius_op_action",
    "invariant_path_sigma",
    "PeriodicFunctionTable",
    "finite_fourier_transform",
    "p1_closed_fourier",
]

_TWO_PI = 2.0 * math.pi


class SeriesParams(Record):
    """Truncation and quadrature policy for every series in this module."""

    tail_tolerance: float
    max_terms: int
    quad_tolerance: float
    poisson_switch_u: float

    def __init__(
        self,
        tail_tolerance: float = 1e-14,
        max_terms: int = 10**6,
        quad_tolerance: float = 1e-9,
        poisson_switch_u: float = 1.0,
    ) -> None:
        self.__dict__.update(
            tail_tolerance=tail_tolerance,
            max_terms=max_terms,
            quad_tolerance=quad_tolerance,
            poisson_switch_u=poisson_switch_u,
        )
        for name in self._fields:
            # also rejects nan, and never converts a huge max_terms to float
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"SeriesParams.{name} must be positive and finite")


DEFAULT_SERIES_PARAMS = SeriesParams()


class ComplexValue(Record):
    re: float
    im: float

    def __init__(self, re: float, im: float) -> None:
        if not (math.isfinite(re) and math.isfinite(im)):
            raise DomainError("ComplexValue components must be finite")
        self.__dict__.update(re=re, im=im)

    @classmethod
    def from_complex(cls, value: complex) -> "ComplexValue":
        return cls(float(value.real), float(value.imag))

    def as_complex(self) -> complex:
        return complex(self.re, self.im)


def _nu_floats(nu: Tuple[RationalLike, RationalLike]) -> Tuple[float, float]:
    """nu reduced mod Z^2 exactly, then as floats: every float path here
    depends on nu only mod Z^2, and a huge nu would overflow or lose its
    fractional part in float."""
    return float(_reduce_mod1(nu[0])), float(_reduce_mod1(nu[1]))


def _sigma1_near_zero(sigma: UpperHalfPoint, nu):
    """(sigma - k, (nu1, nu2 - k nu1)) for k = round(sigma1), which leave
    F_nu and E_nu unchanged: F_nu(sigma + k) = F_{(nu1, nu2 - k nu1)}(sigma).
    The lattice windows and q_sigma lose the fraction of a large sigma1;
    sigma1 - k is exact in float, and nu moves exactly."""
    k = round(sigma.sigma1)
    if k == 0:
        return sigma, nu
    return UpperHalfPoint(sigma.sigma1 - k, sigma.sigma2), (nu[0], _fraction(nu[1]) - k * _fraction(nu[0]))


def _qz(sigma: complex, nu1: Fraction, nu2: RationalLike) -> Tuple[complex, complex, complex, complex]:
    """(q_sigma, q_z, q_sigma/q_z, 1 - q_z) with q_z = e^{2 pi i z} for nu1
    in [0, 1).  q_sigma/q_z is e^{2 pi i (sigma - z)}, taken directly, so it
    stays finite when q_z underflows to 0 at a large nu1 Im(sigma).  Raises
    DomainError when a nonzero nu1 is too close to 0 for q_z to differ from
    1 in double precision (the nu1 != 0 branch divides by 1 - q_z and takes
    Log(1 - q_z)), or too close to 1 to differ from 1.0 (the series would
    be summed for nu1 = 1, which is nu1 = 0)."""
    nu1f = float(nu1)
    nu2 = _reduce_mod1(nu2)
    # nu2 mod Z nearest 0, so that z keeps the digits of a nu2 near Z
    nu2f = float(nu2 - 1 if 2 * nu2.numerator > nu2.denominator else nu2)
    z = nu1f * sigma - nu2f
    q_sigma, q_z = cmath.exp(2j * math.pi * sigma), cmath.exp(2j * math.pi * z)
    ratio = cmath.exp(2j * math.pi * (float(1 - nu1) * sigma + nu2f))
    if nu1 != 0 and (q_z == 1 or nu1f == 1.0):
        raise DomainError(f"nu1 = {nu1} is nonzero but rounds to 0 or 1 in double precision")
    # 1 - q_z = -expm1(2 pi i z) from the parts of z: no cancellation at a
    # small |z|, and no overflow since Im z >= 0
    a, b = -_TWO_PI * z.imag, math.pi * z.real
    return q_sigma, q_z, ratio, complex(2.0 * math.sin(b) ** 2 - math.expm1(a) * math.cos(2 * b), -math.exp(a) * math.sin(2 * b))


# -- SL(2, Z) on the upper half-plane ---------------------------------------


def moebius_op_action(M: SL2ZMatrix, sigma: UpperHalfPoint) -> UpperHalfPoint:
    """M^op sigma = (d sigma + b) / (c sigma + a)."""
    z = sigma.as_complex()
    w = (M.d * z + M.b) / (M.c * z + M.a)
    return UpperHalfPoint(w.real, w.imag)


def _kappa_alpha_beta(M: SL2ZMatrix) -> Tuple[float, float, float]:
    """(kappa, alpha, beta) of a hyperbolic M.

    kappa is the eigenvalue with |kappa| > 1, so the invariant path flows
    toward the attracting fixed point; alpha and beta are the fixed points
    (kappa - a)/c and (1/kappa - a)/c of the op-action on the real line.
    Raises DomainError when the matrix is beyond double range.
    """
    tr = M.trace
    try:
        root = math.sqrt(M.discriminant)
        kappa = (tr + root) / 2.0 if tr > 0 else (tr - root) / 2.0
        kappa_inv = tr - kappa  # kappa + 1/kappa = tr, avoids cancellation
        alpha = (kappa - M.a) / M.c
        beta = (kappa_inv - M.a) / M.c
    except OverflowError:  # an int too large to convert to float
        raise DomainError("hyperbolic kappa, alpha and beta exceed double range") from None
    return kappa, alpha, beta


def invariant_path_sigma(M: SL2ZMatrix, t: float) -> UpperHalfPoint:
    """The M-invariant circular path sigma(t) of a hyperbolic M.

    sigma(t) = (alpha |k|^{2t} + beta |k|^{-2t} + i |alpha - beta|)
               / (|k|^{2t} + |k|^{-2t})

    traverses the half-circle over the segment [alpha, beta] and satisfies
    M^op sigma(t) = sigma(t + 1).
    """
    if not isinstance(classify(M), Hyperbolic):
        raise UnsupportedClassError("invariant_path_sigma requires a hyperbolic matrix")
    kappa, alpha, beta = _kappa_alpha_beta(M)
    h = math.exp(2.0 * t * math.log(abs(kappa)))
    denom = h + 1.0 / h
    s1 = (alpha * h + beta / h) / denom
    s2 = abs(alpha - beta) / denom
    return UpperHalfPoint(s1, s2)


# -- E series ---------------------------------------------------------------

#: most terms in one numpy block: a series run to max_terms holds a few
#: hundred kB of arrays at a time
_BLOCK_CAP = 4096


def _q_series(term: Callable[..., complex], q_sigma, q_z, ratio, params, what: str, total=0j):
    """(total + sum_{n>=1} term(n, q_z^n, ratio^n, q_sigma^n), terms), ratio
    being q_sigma/q_z as _qz gives it.

    The one truncation rule of the E, dE/dsigma, log eta_{g,h} and log eta
    series: stop after three consecutive terms below tail_tolerance/10 once
    n >= 8; past max_terms raise ConvergenceError naming `what`.
    ratio^n stays bounded since 0 <= nu1 < 1.

    `term` gets numpy blocks of the powers, running products of the
    scalar recurrence; a run of small terms counts across block edges, so
    the count is a term-by-term loop's.  The first block is sized from the
    slower decay rate max(|q_z q_sigma|, |ratio|), later ones double.
    """
    import numpy as np

    steps = (q_z, ratio, q_sigma)
    cut = params.tail_tolerance * 0.1
    decay = -math.log(max(abs(q_z * q_sigma), abs(steps[1]), 1e-300))
    size = int(min(_BLOCK_CAP, max(10.0, (3.0 - math.log(cut)) / max(decay, 1e-300) + 4.0)))
    tail = b""  # the small-term flags of the last two terms so far
    n = 0
    while True:
        k = min(size, params.max_terms - n)
        if k <= 0:
            raise ConvergenceError(f"{what}: max_terms exceeded before tail bound")
        block = np.empty((3, k), dtype=complex)
        block.T[:] = steps
        if n:
            block[:, 0] *= block_end
        np.multiply.accumulate(block, axis=1, out=block)
        t = term(np.arange(n + 1.0, n + k + 1.0), block[0], block[1], block[2])
        below = np.abs(t) < cut
        below[: max(0, 7 - n)] = False  # terms before n = 8 never count
        flags = tail + below.tobytes()  # one byte, 0 or 1, per term
        end = flags.find(b"\x01\x01\x01")
        if end >= 0:
            used = end + 3 - len(tail)
            return total + complex(t[:used].sum()), n + used
        total += complex(t.sum())
        n += k
        tail, block_end = flags[-2:], block[:, -1]
        size = min(2 * size, _BLOCK_CAP)


def _s2_term(n, qzn, rn, qsn):
    """The n-th terms (q_z^n + q_z^{-n}) q_sigma^n / (n (1 - q_sigma^n)) of S2."""
    return (qzn * qsn + rn) / ((1.0 - qsn) * n)


def e_series_with_count(
    sigma: UpperHalfPoint,
    nu: Tuple[RationalLike, RationalLike],
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
    method: str = "cotangent",
) -> Tuple[ComplexValue, int]:
    """e_series plus the number of terms summed: of S2 for the cotangent
    method, of the single sum and the outer sum for the double sum.  The
    double sum is a literal loop that shares no summation code with S2; it
    stays here, and with it `method`, only because the benchmark
    (`perfbench/workloads.py`) checks the two methods against each other,
    and it moves to the tests with the next change to the benchmark."""
    if method not in ("cotangent", "double-sum"):
        raise DomainError("method must be 'cotangent' or 'double-sum'")
    nu1 = _reduce_mod1(nu[0])
    q_sigma, q_z, ratio, one_minus_qz = _qz(sigma.as_complex(), nu1, nu[1])
    if method == "cotangent":
        # inner geometric sums resummed; S1 = sum q_z^n / n = -Log(1 - q_z)
        total, terms = _q_series(_s2_term, q_sigma, q_z, ratio, params, "e_series cotangent sum")
        if nu1 != 0:
            total -= cmath.log(one_minus_qz)
        return ComplexValue.from_complex(total), terms

    # literal truncation of the defining nested sum
    cut = params.tail_tolerance * 0.1
    total = 0.0 + 0.0j
    terms = 0
    if nu1 != 0:
        abs_qz = abs(q_z)
        qn = q_z
        n = 1
        while True:
            total += qn / n
            terms += 1
            if abs_qz ** (n + 1) / ((n + 1) * (1.0 - abs_qz)) < cut:
                break
            n += 1
            if n > params.max_terms:
                raise ConvergenceError("e_series single sum: max_terms exceeded")
            qn *= q_z

    # outer n-sum, stopped by the rule of _q_series
    qzn = rn = qsn = 1.0 + 0.0j
    small = n = 0
    while small < 3:
        n += 1
        if n > params.max_terms:
            raise ConvergenceError("e_series double sum: max_terms exceeded before tail bound")
        qzn, rn, qsn = qzn * q_z, rn * ratio, qsn * q_sigma
        coeff = (qzn * qsn + rn) / n  # (q_z^n + q_z^{-n}) q_sigma^{n} split
        # inner m-sum done literally: coeff * (1 + q_sigma^n + q_sigma^{2n} + ...)
        inner = 0.0 + 0.0j
        powm = 1.0 + 0.0j
        m = 0
        abs_qsn = abs(qsn)
        while True:
            inner += powm
            m += 1
            if abs_qsn**m / (1.0 - abs_qsn) < cut:
                break
            if m > params.max_terms:
                raise ConvergenceError("e_series inner sum: max_terms exceeded")
            powm *= qsn
        t = coeff * inner
        total += t
        small = small + 1 if (n >= 8 and abs(t) < cut) else 0
    return ComplexValue.from_complex(total), terms + n


def e_series(
    sigma: UpperHalfPoint, nu: Tuple[RationalLike, RationalLike], params: SeriesParams = DEFAULT_SERIES_PARAMS
) -> ComplexValue:
    """E_nu(sigma), with nu1 reduced mod Z; the nu1 = 0 branch omits the
    single sum over q_z."""
    value, _ = e_series_with_count(sigma, nu, params)
    return value


def _e_series_dsigma(
    sigma: UpperHalfPoint,
    nu: Tuple[RationalLike, RationalLike],
    params: SeriesParams,
) -> Tuple[complex, int]:
    """Term-wise d/dsigma of E_nu = S2 - Log(1 - q_z), with the number of
    S2 terms; every term an explicit exponential."""
    nu1 = _reduce_mod1(nu[0])
    nu1f = float(nu1)
    q_sigma, q_z, ratio, one_minus_qz = _qz(sigma.as_complex(), nu1, nu[1])
    total = 2j * math.pi * nu1f * q_z / one_minus_qz if nu1 != 0 else 0j

    def term(n, qzn, rn, qsn):
        # (q_z q_sigma)^n and rn grow in sigma at the rates (1 + nu1) n and (1 - nu1) n
        a = qzn * qsn
        return 2j * math.pi * (nu1f * (a - rn) / (1.0 - qsn) + (a + rn) / (1.0 - qsn) ** 2)

    return _q_series(term, q_sigma, q_z, ratio, params, "e_series derivative", total)


# -- F series and the Kronecker limit identity ------------------------------


def _tail_cut(params: SeriesParams) -> float:
    return max(params.tail_tolerance * 1e-2, 1e-300)


def _rows(centre: float, half: float, params: SeriesParams):
    """Lattice rows floor(centre - half), ..., ceil(centre + half); more
    than params.max_terms raise ConvergenceError before any array is built."""
    import numpy as np

    if half <= params.max_terms:  # else floor(centre - half) may not be an int
        lo, hi = math.floor(centre - half), math.ceil(centre + half)
        if hi - lo < params.max_terms:
            return np.arange(lo, hi + 1)
    raise ConvergenceError(f"f_series lattice of {2.0 * half:.3g} rows exceeds max_terms")


def _row_windows(centres, x_max: float, params: SeriesParams):
    """Lattice rows as one rectangle: row r runs over the integers from
    floor(c_r - x_max - 1) to ceil(c_r + x_max + 1), c_r its centre.

    Returns the cells' second coordinates, each row from its own offset
    and as wide as the widest row, and the mask of the cells inside
    their row's window.  A rectangle of more than params.max_terms cells
    raises ConvergenceError before it is allocated.
    """
    import numpy as np

    lo = np.floor(centres - x_max - 1.0)
    hi = np.ceil(centres + x_max + 1.0)
    width = int(np.max(hi - lo)) + 1
    if centres.size * width > params.max_terms:
        raise ConvergenceError(
            f"f_series lattice of {centres.size} x {width} terms exceeds max_terms"
        )
    cols = lo[:, None] + np.arange(width)
    return cols, cols <= hi[:, None]


#: exponents below this are raised to it before e^x is taken: the terms
#: they scale are under 1e-304 of their coefficients, and numpy's exp
#: takes a slow path for every result that underflows
_EXP_FLOOR = -700.0


def _gaussian_sums(rates, norms, pair, params: SeriesParams, shifts=None):
    """sum_c coeffs[c] e^{rates[k] norms[c] + shifts[k]} for every node k
    (shifts 0 if None), the complex coeffs given as the cells x 2 real
    matrix `pair` of their parts.

    The exponentials form a nodes x cells matrix, built in blocks of whole
    nodes of at most params.max_terms entries, so a batch holds no more
    than one lattice at max_terms does; each block is summed in one real
    matrix product.
    """
    import numpy as np

    out = np.empty((rates.size, 2))
    step = max(1, params.max_terms // max(1, norms.size))
    for start in range(0, rates.size, step):
        block = np.multiply.outer(rates[start : start + step], norms)
        if shifts is not None:
            block += shifts[start : start + step, None]
        np.maximum(block, _EXP_FLOOR, out=block)
        np.matmul(np.exp(block, out=block), pair, out=out[start : start + step])
    return out.view(complex)[:, 0]


def _parts(values):
    """The cells x 2 real matrix of the real and imaginary parts of a
    contiguous complex array, as a view."""
    return values.view(float).reshape(-1, 2)


def _direct_kernel(sigma: UpperHalfPoint, u_min: float, nu1f: float, nu2f: float, params: SeriesParams):
    """F_nu(sigma, u) at an array of u >= u_min by the direct lattice sum
    sum_n (wbar_{n-nu})^2 e^{-u sigma2 |w_{n-nu}|^2}.

    w_m = (pi/sigma2)(m2 - sigma m1); rows n1 within x_max/sigma2 + 1 of
    nu1, and in each row the n2 window of half-width x_max around
    nu2 + sigma1 (n1 - nu1), outside which the Gaussian factor at u_min is
    below the tail cut.  The window is built once, here; a larger u only
    sums cells further below the cut.
    """
    s1, s2 = sigma.sigma1, sigma.sigma2
    gamma = u_min * math.pi * math.pi / s2
    x_max = math.sqrt((-math.log(_tail_cut(params)) + 10.0) / gamma)
    m1 = _rows(nu1f, x_max / s2 + 1.0, params) - nu1f
    n2, inside = _row_windows(nu2f + s1 * m1, x_max, params)
    m1 = m1[:, None]
    w_re = (math.pi / s2) * ((n2 - nu2f) - s1 * m1)
    w_im = -math.pi * m1
    wbar2 = _parts(((w_re * w_re - w_im * w_im) - 2j * w_re * w_im)[inside])
    norms = (w_re * w_re + w_im * w_im)[inside]
    return lambda u: _gaussian_sums(-s2 * u, norms, wbar2, params)


def _poisson_kernel(sigma: UpperHalfPoint, u_max: float, nu1f: float, nu2f: float, params: SeriesParams):
    """F_nu(sigma, u) at an array of 0 < u <= u_max by the Poisson-resummed
    form (1/(pi sigma2^2)) u^-3 sum_{n != 0} e^{-2 pi i <nu, n>} (wbar*_n)^2
    e^{-|w*_n|^2/(u sigma2)} with w*_n = n1 + sigma n2; the n = 0 term is
    absent, so the value vanishes as u -> 0+.  The window is sized at
    u_max and built once, here."""
    import numpy as np

    s1, s2 = sigma.sigma1, sigma.sigma2
    x_max = math.sqrt((-math.log(_tail_cut(params)) + 10.0) * u_max * s2)
    n2 = _rows(0.0, x_max / s2 + 1.0, params)
    n1, inside = _row_windows(-s1 * n2, x_max, params)
    n2 = n2[:, None]
    inside &= (n1 != 0) | (n2 != 0)
    re = n1 + s1 * n2
    im = s2 * n2
    wbar2 = (re * re - im * im) - 2j * re * im
    coeffs = _parts((np.exp(-2j * math.pi * (nu1f * n1 + nu2f * n2)) * wbar2)[inside])
    norms = (re * re + im * im)[inside]

    # u^-3 enters the exponent as -3 log u, so that no u^3 underflows
    return lambda u: _gaussian_sums(-1.0 / (u * s2), norms, coeffs, params, -3.0 * np.log(u)) / (
        math.pi * s2 * s2
    )


def _f_at(kernel, sigma: UpperHalfPoint, u: float, nu, params: SeriesParams) -> ComplexValue:
    """F_nu at the single node u, by the kernel built at u."""
    import numpy as np

    if u <= 0:
        raise DomainError("f_series requires u > 0")
    sigma, nu = _sigma1_near_zero(sigma, nu)
    value = kernel(sigma, u, *_nu_floats(nu), params)(np.array([u], dtype=float))
    return ComplexValue.from_complex(complex(value[0]))


def f_series_direct(
    sigma: UpperHalfPoint,
    u: float,
    nu: Tuple[RationalLike, RationalLike],
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> ComplexValue:
    """Direct lattice sum sum_n (wbar_{n-nu})^2 e^{-u sigma2 |w_{n-nu}|^2}
    with w_m = (pi/sigma2)(m2 - sigma m1), truncated by the Gaussian tail
    bound."""
    return _f_at(_direct_kernel, sigma, u, nu, params)


def f_series_poisson(
    sigma: UpperHalfPoint,
    u: float,
    nu: Tuple[RationalLike, RationalLike],
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> ComplexValue:
    """Poisson-resummed form (1/(pi sigma2^2)) u^-3 sum_{n != 0}
    e^{-2 pi i <nu, n>} (wbar*_n)^2 e^{-|w*_n|^2/(u sigma2)} with
    w*_n = n1 + sigma n2; the n = 0 term is absent, so the value vanishes
    as u -> 0+."""
    return _f_at(_poisson_kernel, sigma, u, nu, params)


def f_series(
    sigma: UpperHalfPoint,
    u: float,
    nu: Tuple[RationalLike, RationalLike],
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> ComplexValue:
    """F_nu(sigma, u): direct lattice sum for u >= poisson_switch_u, the
    Poisson-dual form below it; both truncated by the Gaussian tail bound."""
    return _f_at(_direct_kernel if u >= params.poisson_switch_u else _poisson_kernel, sigma, u, nu, params)


def _min_lattice_dist2(sigma: UpperHalfPoint, nu1f: float, nu2f: float) -> float:
    """min over m in Z^2 - nu, m != 0, of |m2 - sigma m1|^2 (decay rate of
    the direct sum's slowest surviving term)."""
    s1, s2 = sigma.sigma1, sigma.sigma2
    best = 16.0 * s2 * s2  # any |m1| >= 4 row is at least this far out
    for n1 in range(-3, 4):
        m1 = n1 - nu1f
        center = nu2f + s1 * m1
        for n2 in (math.floor(center), math.ceil(center), math.floor(center) - 1, math.ceil(center) + 1):
            m2 = n2 - nu2f
            d2 = (m2 - s1 * m1) ** 2 + s2 * s2 * m1 * m1
            if d2 > 1e-18 and d2 < best:
                best = d2
    return best


def kronecker_integral_info(
    sigma: UpperHalfPoint,
    nu: Tuple[RationalLike, RationalLike],
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> Tuple[ComplexValue, Dict[str, float]]:
    """(1/2 pi) integral_0^inf F_nu(sigma, u) du with quadrature diagnostics.

    The complex F_nu is integrated by the adaptive G10-K21 rule of
    `_quadrature` in one pass on each of [0, poisson_switch_u] (Poisson
    form) and [poisson_switch_u, u_max] (direct form).  Each pass builds
    its lattice window once, at poisson_switch_u, and sums each round's
    nodes in one batch.
    Diagnostics: `neval` is the number of quadrature nodes of the two
    passes; `f_evals` the number of F_nu values computed, neval plus the
    scale probe at poisson_switch_u; `achieved_tolerance` the summed error
    estimate of the passes over 2 pi, and `u_max` the upper cut.
    """
    import numpy as np

    from ._quadrature import gauss_kronrod

    switch = params.poisson_switch_u
    sigma, nu = _sigma1_near_zero(sigma, nu)
    nu1f, nu2f = _nu_floats(nu)
    rate = (math.pi**2 / sigma.sigma2) * _min_lattice_dist2(sigma, nu1f, nu2f)
    direct = _direct_kernel(sigma, switch, nu1f, nu2f, params)
    scale = abs(complex(direct(np.array([switch]))[0])) + 1.0
    u_max = switch + max(1.0, math.log(20.0 * math.pi * scale / (rate * params.quad_tolerance)) / rate)

    total = 0.0 + 0.0j
    achieved = 0.0
    neval = 0
    poisson = _poisson_kernel(sigma, switch, nu1f, nu2f, params)
    for kernel, lo, hi in ((poisson, 0.0, switch), (direct, switch, u_max)):
        piece, abserr, count = gauss_kronrod(kernel, lo, hi, params.quad_tolerance / 4.0, 1e-12)
        total += piece
        achieved += abserr
        neval += count
    total /= _TWO_PI
    achieved /= _TWO_PI
    if achieved > params.quad_tolerance:
        raise QuadratureError(
            f"quadrature achieved only {achieved:.3e}, requested {params.quad_tolerance:.3e}"
        )
    diagnostics = {
        "neval": float(neval),
        "f_evals": float(neval + 1),
        "achieved_tolerance": achieved,
        "u_max": u_max,
    }
    return ComplexValue.from_complex(total), diagnostics


def kronecker_integral(
    sigma: UpperHalfPoint,
    nu: Tuple[RationalLike, RationalLike],
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> ComplexValue:
    value, _ = kronecker_integral_info(sigma, nu, params)
    return value


def kronecker_closed(
    sigma: UpperHalfPoint,
    nu: Tuple[RationalLike, RationalLike],
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> ComplexValue:
    """P_2(nu_1) + (i/pi) d/dsigma E_nu(sigma); for nu in Z^2 the constant
    term becomes 1/6 - 1/(2 pi sigma2)."""
    sigma, nu = _sigma1_near_zero(sigma, nu)
    nu1 = _reduce_mod1(nu[0])
    integral_nu = nu1 == 0 and _fraction(nu[1]).denominator == 1
    base = float(periodic_bernoulli(2, nu1))
    if integral_nu:
        base -= 1.0 / (_TWO_PI * sigma.sigma2)
    deriv, _ = _e_series_dsigma(sigma, nu, params)
    value = base + (1j / math.pi) * deriv
    return ComplexValue.from_complex(value)


# -- log Dedekind eta and transformation defects ----------------------------


def log_eta(sigma: UpperHalfPoint, params: SeriesParams = DEFAULT_SERIES_PARAMS) -> ComplexValue:
    """log eta(sigma) = pi i sigma/12 - sum_{n>0} q_sigma^n / (n (1 - q_sigma^n)),
    the sum being S2/2 at q_z = 1."""
    sc = sigma.as_complex()
    q_sigma = cmath.exp(2j * math.pi * sc)
    s2, _ = _q_series(_s2_term, q_sigma, 1.0, q_sigma, params, "log_eta")
    return ComplexValue.from_complex(1j * math.pi * sc / 12.0 - 0.5 * s2)


def log_eta_gen(
    g: RationalLike,
    h: RationalLike,
    sigma: UpperHalfPoint,
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> ComplexValue:
    """Generalized log eta_{g,h}(sigma) for (g, h) not in Z^2, g reduced
    mod Z: pi i phi + pi i sigma P_2(g) + Log(1 - q_z) - S2 with
    z = g sigma + h, phi = -P_1(h) if g = 0 and 0 otherwise, and the
    principal Log(1 - q_z) = -sum q_z^n / n."""
    g, h = _fraction(g), _fraction(h)
    if g.denominator == 1 and h.denominator == 1:
        raise DomainError("log_eta_gen is undefined at lattice points (g, h) in Z^2")
    g = _reduce_mod1(g)
    sc = sigma.as_complex()
    q_sigma, q_z, ratio, one_minus_qz = _qz(sc, g, -h)
    s2, _ = _q_series(_s2_term, q_sigma, q_z, ratio, params, "log_eta_gen")
    phi = -float(periodic_bernoulli(1, h)) if g == 0 else 0.0
    total = 1j * math.pi * phi + 1j * math.pi * sc * float(periodic_bernoulli(2, g))
    return ComplexValue.from_complex(total + cmath.log(one_minus_qz) - s2)


def _dlog_eta(M: SL2ZMatrix, sigma: UpperHalfPoint, params: SeriesParams) -> complex:
    """log eta(M^op sigma) - log eta(sigma)."""
    return log_eta(moebius_op_action(M, sigma), params).as_complex() - log_eta(sigma, params).as_complex()


def transform_defect(
    M: SL2ZMatrix, sigma: UpperHalfPoint, params: SeriesParams = DEFAULT_SERIES_PARAMS
) -> ComplexValue:
    """LHS - RHS of the classical transformation law

    log eta(M^op sigma) - log eta(sigma)
      = (1/2) Log((c sigma + a)/(sgn(c) i)) + pi i ((a+d)/(12c) - sgn(c) s(a,c)).
    """
    if M.c == 0:
        raise DomainError("transform_defect requires c != 0")
    lhs = _dlog_eta(M, sigma, params)
    arg = (M.c * sigma.as_complex() + M.a) / (sgn(M.c) * 1j)
    assert arg.real > 0  # off the branch cut whenever sigma2 > 0
    rhs = 0.5 * cmath.log(arg) + 1j * math.pi * float(
        Fraction(M.a + M.d, 12 * M.c) - sgn(M.c) * classical_sum(M.a, M.c)
    )
    return ComplexValue.from_complex(lhs - rhs)


def transform_defect_gen(
    M: SL2ZMatrix,
    g: RationalLike,
    h: RationalLike,
    sigma: UpperHalfPoint,
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> ComplexValue:
    """LHS - RHS of the generalized transformation law with
    (g', h') = (a g - c h, -b g + d h):

    log eta_{g',h'}(M^op sigma) - log eta_{g,h}(sigma)
      = pi i ((a/c) P_2(g) + (d/c) P_2(g') - 2 sgn(c) s_{g',h'}(d, c)).
    """
    if M.c == 0:
        raise DomainError("transform_defect_gen requires c != 0")
    g, h = _fraction(g), _fraction(h)
    if g.denominator == 1 and h.denominator == 1:
        raise DomainError("transform_defect_gen requires (g, h) not in Z^2")
    gp = M.a * g - M.c * h
    hp = -M.b * g + M.d * h
    lhs = (
        log_eta_gen(gp, hp, moebius_op_action(M, sigma), params).as_complex()
        - log_eta_gen(g, h, sigma, params).as_complex()
    )
    rhs = 1j * math.pi * float(
        Fraction(M.a, M.c) * periodic_bernoulli(2, g)
        + Fraction(M.d, M.c) * periodic_bernoulli(2, gp)
        - 2 * sgn(M.c) * generalized_sum(gp, hp, M.d, M.c)
    )
    return ComplexValue.from_complex(lhs - rhs)


# -- finite Fourier toolkit of the Dedekind sums ----------------------------


class PeriodicFunctionTable(Record):
    """A function on Z/|c| given by its |c| sampled complex values.

    The signed modulus c is retained: the transform below uses the root
    of unity exp(2*pi*i/c), whose orientation depends on sign(c).
    """

    c: int
    values: Tuple[complex, ...]

    def __init__(self, c: int, values: Tuple[complex, ...]) -> None:
        if c == 0:
            raise DomainError("PeriodicFunctionTable requires c != 0")
        vals = tuple(complex(v) for v in values)
        if len(vals) != abs(c):
            raise DomainError(
                "PeriodicFunctionTable requires exactly |c| values"
            )
        self.__dict__.update(c=c, values=vals)

    def __call__(self, k: int) -> complex:
        return self.values[k % abs(self.c)]


def finite_fourier_transform(table: PeriodicFunctionTable) -> PeriodicFunctionTable:
    """Finite Fourier transform: fhat(p) = sum_k f(k) xi^{-kp}, xi = e^{2 pi i/c}.

    The sign of c is honored through xi, so tables on c and -c transform
    with opposite orientation.
    """
    import numpy as np

    m = abs(table.c)
    k = np.arange(m)
    vals = np.asarray(table.values, dtype=np.complex128)
    xi_pow = np.exp(-2j * np.pi * np.outer(k, k) / table.c)
    hat = xi_pow.T @ vals  # row p: sum_k f(k) xi^{-kp}
    return PeriodicFunctionTable(table.c, tuple(hat.tolist()))


def p1_closed_fourier(
    x: RationalLike, y: RationalLike, a: int, c: int, p: int
) -> complex:
    """Closed form of the Fourier transform of k -> P_1(a(k+x)/c + y).

    With x' = a x + c y, d = a^{-1} mod c and xi = exp(2 pi i / c):

        p = 0 (mod c):  sgn(c) * P_1(x')
        otherwise:      sgn(c)/2 * (i cot(pi d p / c) - [x' not in Z]) * xi^{d floor(x') p}
    """
    pair = CoprimePair(a, c)
    _require_ints("p1_closed_fourier", p)
    x, y = _fraction(x), _fraction(y)
    xp = a * x + c * y
    sign = 1.0 if c > 0 else -1.0
    if p % abs(c) == 0:
        return complex(sign * float(periodic_bernoulli(1, xp)))
    delta = 0.0 if xp.denominator == 1 else 1.0
    cot = 1.0 / math.tan(math.pi * pair.d * p / c)
    phase = cmath.exp(2j * math.pi * pair.d * math.floor(xp) * p / c)
    return sign * 0.5 * (1j * cot - delta) * phase


# -- spectrum ---------------------------------------------------------------


def torus_spectrum(
    sigma: UpperHalfPoint,
    nu: Tuple[RationalLike, RationalLike],
    max_lattice_norm: int,
) -> List[Tuple[float, int]]:
    """Sorted 1-form Laplace eigenvalues 4 sigma2 |w_{n-nu}|^2 over lattice
    points |n|_inf <= max_lattice_norm, each with doubled multiplicity,
    for nu reduced mod Z^2 (exactly, before any float is taken).  sigma1
    is first moved to [-1/2, 1/2] as in _sigma1_near_zero, which relabels
    n2 -> n2 - k n1; the window is taken after the move.
    Raises DomainError when an eigenvalue is not finite."""
    if max_lattice_norm < 0:
        raise DomainError("max_lattice_norm must be nonnegative")
    sigma, nu = _sigma1_near_zero(sigma, nu)
    s1, s2 = sigma.sigma1, sigma.sigma2
    nu1f, nu2f = _nu_floats(nu)
    raw: List[float] = []
    for n1 in range(-max_lattice_norm, max_lattice_norm + 1):
        m1 = n1 - nu1f
        for n2 in range(-max_lattice_norm, max_lattice_norm + 1):
            m2 = n2 - nu2f
            t = m2 - s1 * m1
            raw.append((4.0 * math.pi**2 / s2) * (t * t + s2 * s2 * m1 * m1))
    if not all(map(math.isfinite, raw)):
        raise DomainError("torus_spectrum eigenvalues exceed double range at this sigma")
    raw.sort()
    out: List[Tuple[float, int]] = []
    for lam in raw:
        if out and abs(lam - out[-1][0]) <= 1e-9 * max(1.0, abs(lam)):
            out[-1] = (out[-1][0], out[-1][1] + 2)
        else:
            out.append((lam, 2))
    return out


# -- numeric-vs-exact end-to-end paths --------------------------------------


def rho_form_hyp_numeric(
    M: SL2ZMatrix,
    nu: Tuple[RationalLike, RationalLike],
    params: SeriesParams = DEFAULT_SERIES_PARAMS,
) -> float:
    """Eta-form integral along the invariant path, via the primitive
    (1/pi) Re[pi sigma P_2(nu_1) + i E_nu(sigma)] evaluated between
    sigma(0) and sigma(1)."""
    if not isinstance(classify(M), Hyperbolic):
        raise UnsupportedClassError("rho_form_hyp_numeric requires a hyperbolic matrix")
    conn = connection_from_nu(M, nu)
    if conn.restriction_trivial:
        raise AdmissibilityError("rho_form_hyp_numeric requires nu not in Z^2")
    p2 = float(periodic_bernoulli(2, conn.nu[0]))

    def primitive(t: float) -> float:
        point = invariant_path_sigma(M, t)
        e_val = e_series(point, conn.nu, params).as_complex()
        return (math.pi * point.as_complex() * p2 + 1j * e_val).real / math.pi

    return primitive(1.0) - primitive(0.0)


def eta_untwisted_numeric(M: SL2ZMatrix, params: SeriesParams = DEFAULT_SERIES_PARAMS) -> float:
    """Untwisted Eta from the boundary log-eta term and the arc integral
    (1/2 pi) int_0^1 sigma1'/sigma2 dt along the invariant path.  There
    sigma1'/sigma2 = sgn(alpha - beta) 2L/cosh(2Lt) with L = log|kappa|, so
    int_0^1 sigma1'/sigma2 dt = sgn(alpha - beta) 2 atan(tanh L)."""
    if not isinstance(classify(M), Hyperbolic):
        raise UnsupportedClassError("eta_untwisted_numeric requires a hyperbolic matrix")
    dlog = _dlog_eta(M, invariant_path_sigma(M, 0.0), params)
    kappa, alpha, beta = _kappa_alpha_beta(M)
    big_l = math.log(abs(kappa))
    arc = math.copysign(2.0 * math.atan(math.tanh(big_l)), alpha - beta)
    return 2.0 * ((2.0 / math.pi) * dlog.imag - arc / _TWO_PI)
