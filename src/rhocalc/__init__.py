"""Exact and numerical Rho, Eta and Chern-Simons invariants.

Rational-arithmetic invariants of flat U(1) connections on circle
bundles over surfaces and on torus mapping tori, with floating-point
verification of the underlying Kronecker-limit and Dedekind-eta
transformation identities.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all.  The float layer's list is the package's
``_ANALYTIC_NAMES``, which ``rhocalc.analytic`` takes as its ``__all__``:
the package binds those names lazily, before it loads the module.
"""

from . import bernoulli, dedekind, errors, moduli, rho, sl2z
from .bernoulli import *
from .dedekind import *
from .errors import *
from .moduli import *
from .rho import *
from .sl2z import *

__version__ = "0.1.0"

# the float layer's names, bound on first use (PEP 562): importing the
# package or running an exact computation never loads analytic
_ANALYTIC_NAMES = (
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
)


def __getattr__(name: str):
    if name == "analytic" or name in _ANALYTIC_NAMES:
        from importlib import import_module

        analytic = import_module(".analytic", __name__)
        return analytic if name == "analytic" else getattr(analytic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    *errors.__all__,
    *bernoulli.__all__,
    *dedekind.__all__,
    *sl2z.__all__,
    *moduli.__all__,
    *rho.__all__,
    *_ANALYTIC_NAMES,
]
