"""Adaptive Gauss-Kronrod quadrature over batched integrands.

The float layer's one quadrature, the Kronecker integral, uses this rule:
QUADPACK's 21-point Gauss-Kronrod pair G10-K21, refined adaptively, with
all the nodes of a refinement round passed to the integrand as one
array, so that a vectorized integrand pays its per-call cost once per
round.  `analytic` imports this module inside that integral, so
importing the package does not load it; numpy is imported on first use.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import List, Tuple

from .errors import QuadratureError

#: the 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk21): Kronrod
#: abscissae x >= 0 in decreasing order and their weights, then the
#: weights of the 10-point Gauss rule at x[1], x[3], ..., x[9]
GK21_X = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
GK21_WK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208946734088, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
GK21_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

#: most panels one quadrature may hold
MAX_PANELS = 200

#: least error estimate of a panel, relative to the integral of |f| on it
ROUNDING_FLOOR = 50.0 * sys.float_info.epsilon


@lru_cache(maxsize=None)
def gk21_rule():
    """(nodes, weights): the 21 nodes of G10-K21 on [-1, 1] in increasing
    order, and a 21 x 2 matrix whose columns are the Kronrod weights and
    the Kronrod minus the Gauss weights, so that values @ weights gives
    (K21, K21 - G10) in one product."""
    import numpy as np

    half_g = np.zeros(11)
    half_g[1:10:2] = GK21_WG

    def both_sides(half):
        return np.concatenate((half[:-1], half[::-1]))

    x = np.array(GK21_X)
    wk = both_sides(np.array(GK21_WK))
    return np.concatenate((-x[:-1], x[::-1])), np.stack((wk, wk - both_sides(half_g)), axis=1)


def gauss_kronrod(f, lo: float, hi: float, epsabs: float, epsrel: float) -> Tuple[complex, float, int]:
    """(integral of f over [lo, hi], error estimate, nodes evaluated) by
    adaptive G10-K21 quadrature.

    f maps an array of nodes to an array of real or complex values.  Each
    round evaluates the 21 nodes of every new panel in one call of f; the
    first round's panels are the two halves of [lo, hi].  A panel's error
    estimate is |K21 - G10| on it, but never below 50 eps times the K21
    integral of |f| there (QUADPACK's rounding floor, so that an estimate
    that rounds to 0 does not pass for accuracy); the integral's estimate
    is the sum over panels.  The result is accepted once that sum is at
    most max(epsabs, epsrel |integral|); until then every panel whose
    estimate exceeds its width's share of that tolerance is halved (the
    panel with the largest estimate, if none does).  Raises
    QuadratureError when the panels would exceed MAX_PANELS or an
    estimate is not finite.
    """
    import numpy as np

    nodes, weights = gk21_rule()
    panels: List[Tuple[float, float, complex, float]] = []  # (start, width, K21, estimate)
    new = [(lo, 0.5 * (hi - lo)), (0.5 * (lo + hi), 0.5 * (hi - lo))]  # (start, width)
    neval = 0
    while True:
        starts, widths = np.array(new).T
        half = 0.5 * widths
        u = (starts + half)[:, None] + half[:, None] * nodes
        values = f(u.ravel()).reshape(u.shape)
        rule = (values @ weights) * half[:, None]
        floor = (ROUNDING_FLOOR * half) * (np.abs(values) @ weights[:, 0])
        estimates = np.maximum(np.abs(rule[:, 1]), floor)
        neval += u.size
        panels += zip(starts.tolist(), widths.tolist(), rule[:, 0].tolist(), estimates.tolist())
        total = sum(p[2] for p in panels)
        err = sum(p[3] for p in panels)
        tol = max(epsabs, epsrel * abs(total))
        if err <= tol:
            return complex(total), err, neval
        if not math.isfinite(err):
            raise QuadratureError(f"quadrature failed on [{lo:g}, {hi:g}]: the integrand is not finite")
        share = tol / (hi - lo)
        split = [p for p in panels if p[3] > share * p[1]] or [max(panels, key=lambda p: p[3])]
        if len(panels) + len(split) > MAX_PANELS:
            raise QuadratureError(
                f"quadrature failed on [{lo:g}, {hi:g}]: more than {MAX_PANELS} panels "
                f"(achieved abs error {err:.3e})"
            )
        panels = [p for p in panels if p not in split]
        # the left halves of the split panels, then their right halves
        new = [(start, 0.5 * width) for start, width, _, _ in split]
        new += [(start + width, width) for start, width in new]
