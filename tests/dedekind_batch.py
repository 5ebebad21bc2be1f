"""Vectorised Dedekind sums for the test suite's full sweeps.

Both helpers evaluate one modulus m at many residues at once. The test
module of the same pair of names checks them against classical_sum.
"""

from __future__ import annotations

import numpy as np


def dedekind_batch_exact(a_arr: np.ndarray, m: int) -> np.ndarray:
    """Numerators of 4 m^2 s(a, m) for every a in a_arr (0 <= a < m), in int64."""
    # sum_k (2((a k) mod m) - m)(2 k - m)
    k = np.arange(1, m, dtype=np.int64)
    lhs = 2 * ((a_arr[:, None] * k[None, :]) % m) - m
    return lhs @ (2 * k - m)


def dedekind_batch_cot(d_arr: np.ndarray, m: int, cotbase: np.ndarray) -> np.ndarray:
    """(1/4m) sum_p cot(pi d p/m) cot(pi p/m) for every d in d_arr.

    cotbase holds cot(pi p/m) at index p for 1 <= p < m (index 0 unused).
    """
    p = np.arange(1, m, dtype=np.int64)
    gathered = cotbase[(d_arr[:, None] * p[None, :]) % m]
    return (gathered @ cotbase[1:m]) / (4.0 * m)
