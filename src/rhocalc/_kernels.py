"""Hot numeric kernels, vectorized with numpy.

Only float verification paths import this module (lazily, from inside
the functions that need it), so exact commands never load numpy.

Summation order is fixed (row-major over the lattice), so repeated calls
are bit-for-bit reproducible.  The Dedekind batch kernel works in int64
throughout: results are exact numerators over the common denominator
4 m^2, never floats.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "dedekind_batch_exact",
    "dedekind_batch_cot",
    "f_direct_sum",
    "f_poisson_sum",
]


def dedekind_batch_exact(a_arr: np.ndarray, m: int) -> np.ndarray:
    """Numerators of 4 m^2 s(a, m) for every a in a_arr (0 <= a < m)."""
    a_arr = np.ascontiguousarray(a_arr, dtype=np.int64)
    # numerator of 4 m^2 s(a, m): sum_k (2((a k) mod m) - m)(2 k - m)
    k = np.arange(1, m, dtype=np.int64)
    lhs = 2 * ((a_arr[:, None] * k[None, :]) % m) - m
    return lhs @ (2 * k - m)


def dedekind_batch_cot(d_arr: np.ndarray, m: int, cotbase: np.ndarray) -> np.ndarray:
    """Cotangent-form sums (1/4m) sum_p cot(pi d p/m) cot(pi p/m), batched.

    cotbase must hold cot(pi p / m) at index p for 1 <= p < m (index 0
    unused); d_arr are residues coprime to m.
    """
    d_arr = np.ascontiguousarray(d_arr, dtype=np.int64)
    cotbase = np.ascontiguousarray(cotbase, dtype=np.float64)
    p = np.arange(1, m, dtype=np.int64)
    gathered = cotbase[(d_arr[:, None] * p[None, :]) % m]
    return (gathered @ cotbase[1:m]) / (4.0 * m)


def f_direct_sum(
    sigma1: float,
    sigma2: float,
    u: float,
    nu1: float,
    nu2: float,
    n1_lo: int,
    n1_hi: int,
    x_max: float,
) -> complex:
    """Direct theta-type lattice sum sum_n (wbar_{n-nu})^2 e^{-u s2 |w|^2}.

    w_m = (pi/sigma2)(m2 - sigma m1); rows n1 in [n1_lo, n1_hi], and for
    each row the n2 window of half-width x_max around nu2 + sigma1 (n1-nu1)
    outside which the Gaussian factor is below the caller's cutoff.
    """
    scale = math.pi / sigma2
    total = 0.0 + 0.0j
    for n1 in range(n1_lo, n1_hi + 1):
        m1 = n1 - nu1
        c2 = nu2 + sigma1 * m1
        n2 = np.arange(math.floor(c2 - x_max - 1.0), math.ceil(c2 + x_max + 1.0) + 1)
        t = (n2 - nu2) - sigma1 * m1
        w_re = scale * t
        w_im = -math.pi * m1
        norm2 = w_re * w_re + w_im * w_im
        wbar2 = (w_re * w_re - w_im * w_im) - 2j * w_re * w_im
        total += np.sum(wbar2 * np.exp(-u * sigma2 * norm2))
    return complex(total)


def f_poisson_sum(
    sigma1: float,
    sigma2: float,
    u: float,
    nu1: float,
    nu2: float,
    n2_lo: int,
    n2_hi: int,
    x_max: float,
) -> complex:
    """Poisson-dual lattice sum sum_{n != 0} e^{-2 pi i <nu, n>} (wbar*_n)^2
    e^{-|w*_n|^2/(u sigma2)} with w*_n = n1 + sigma n2 (u^-3 and 1/(pi s2^2)
    prefactors are applied by the caller)."""
    inv = 1.0 / (u * sigma2)
    total = 0.0 + 0.0j
    for n2 in range(n2_lo, n2_hi + 1):
        c1 = -sigma1 * n2
        n1 = np.arange(math.floor(c1 - x_max - 1.0), math.ceil(c1 + x_max + 1.0) + 1)
        if n2 == 0:
            n1 = n1[n1 != 0]
        re = n1 + sigma1 * n2
        im = sigma2 * n2
        norm2 = re * re + im * im
        wbar2 = (re * re - im * im) - 2j * re * im
        phase = np.exp(-2j * math.pi * (nu1 * n1 + nu2 * n2))
        total += np.sum(phase * wbar2 * np.exp(-norm2 * inv))
    return complex(total)
