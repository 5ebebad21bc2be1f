"""The vectorised Dedekind-sum helpers against the public scalar functions.

The exact batch must reproduce classical_sum as integers over 4 m^2; the
cotangent batch must match it to float precision.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from dedekind_batch import dedekind_batch_cot, dedekind_batch_exact


def coprime_residues(m: int) -> np.ndarray:
    return np.array([a for a in range(1, m) if gcd(a, m) == 1], dtype=np.int64)


def cot_table(m: int) -> np.ndarray:
    return np.concatenate([[0.0], 1.0 / np.tan(np.pi * np.arange(1, m) / m)])


class TestNumpyFallbacks:
    """The batch helpers agree with the scalar Dedekind sums."""

    def test_exact_batch_matches_scalar_sum(self):
        from fractions import Fraction as F

        from rhocalc import classical_sum

        for m in (5, 12, 31):
            arr = coprime_residues(m)
            out = dedekind_batch_exact(arr, m)
            for a, num in zip(arr, out):
                assert F(int(num), 4 * m * m) == classical_sum(int(a), m)

    def test_cot_batch_matches_scalar(self):
        from rhocalc import classical_sum

        for m in (5, 12, 31):
            arr = coprime_residues(m)
            out = dedekind_batch_cot(arr, m, cot_table(m))
            for a, val in zip(arr, out):
                assert abs(val - float(classical_sum(int(a), m))) < 1e-10
