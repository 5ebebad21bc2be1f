"""Exception hierarchy shared by the exact and numerical layers.

Domain violations (bad inputs, inadmissible connections, unsupported
monodromy classes) and numerical failures (series or quadrature not
converging) are kept distinct so the CLI can map them to exit codes.
"""

from __future__ import annotations

import sys

__all__ = [
    "RhoCalcError",
    "DomainError",
    "AdmissibilityError",
    "UnsupportedClassError",
    "ConvergenceError",
    "QuadratureError",
]


class RhoCalcError(Exception):
    """Base class for all library errors."""


class DomainError(RhoCalcError, ValueError):
    """An input violates a documented precondition.

    The message always names the violated precondition.
    """


class AdmissibilityError(DomainError):
    """A connection datum fails its admissibility / gauge condition."""


class UnsupportedClassError(DomainError):
    """The operation is not defined for this monodromy class."""


class ConvergenceError(RhoCalcError, RuntimeError):
    """A series failed to reach the requested tolerance within budget."""


class QuadratureError(ConvergenceError):
    """Adaptive quadrature failed; carries diagnostic detail in args."""


def _past_str_limit() -> str:
    """The words an error message uses for a number that str() refuses."""
    return f"more than {sys.get_int_max_str_digits()} digits, the limit of Python's int-to-str conversion"
