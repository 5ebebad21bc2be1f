"""Shared helpers for the test suite: seeded random SL2(Z) generators, and
the environment of a child interpreter.

All randomness is drawn from explicitly seeded `random.Random` instances so
every run exercises the same matrices.  `random_sl2z` and
`random_hyperbolic` are the library's own, the ones the CLI's verify
suites draw from.
"""

from __future__ import annotations

import os
import random

import rhocalc
from rhocalc.sl2z import SL2ZMatrix, random_hyperbolic, random_sl2z

__all__ = ["random_sl2z", "random_hyperbolic", "random_parabolic", "child_env"]


def random_parabolic(rng: random.Random, shear_bound: int, conj_bound: int) -> SL2ZMatrix:
    """A random parabolic element: a conjugate of +-[[1, l], [0, 1]], l != 0."""
    l = 0
    while l == 0:
        l = rng.randint(-shear_bound, shear_bound)
    eps = rng.choice((1, -1))
    g = random_sl2z(rng, conj_bound)
    n = SL2ZMatrix(eps, eps * l, 0, eps)
    return g @ n @ g.inverse()


def child_env():
    """The environment for a child interpreter that imports the same
    rhocalc as this session, also when pytest's pythonpath setting, not
    PYTHONPATH, put the source tree on the path."""
    src = os.path.dirname(os.path.dirname(rhocalc.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
