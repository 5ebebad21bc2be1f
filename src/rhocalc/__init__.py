"""Exact and numerical Rho, Eta and Chern-Simons invariants.

Rational-arithmetic invariants of flat U(1) connections on circle
bundles over surfaces and on torus mapping tori, with floating-point
verification of the underlying Kronecker-limit and Dedekind-eta
transformation identities.
"""

from .bernoulli import (
    Rational,
    bernoulli_number,
    bernoulli_poly,
    hurwitz_zeta_nonpos,
    periodic_bernoulli,
    periodic_eta_zero,
    periodic_zeta_at,
)
from .dedekind import (
    CoprimePair,
    PeriodicFunctionTable,
    classical_sum,
    cotangent_sum,
    finite_fourier_transform,
    generalized_sum,
    p1_closed_fourier,
    sum_difference_closed,
)
from .errors import (
    AdmissibilityError,
    ConvergenceError,
    DomainError,
    QuadratureError,
    RhoCalcError,
    UnsupportedClassError,
)
from .moduli import (
    CircleFlatConnection,
    CircleModuliSummary,
    ParabolicFamily,
    TorusFlatConnection,
    TorusModuliSet,
    circle_moduli_summary,
    connection_from_nu,
    enumerate_torus_connections,
    is_bundle_trivial,
    transport_nu_from_normal_form,
)
from .rho import (
    EigenphaseData,
    RhoBranch,
    RhoValue,
    chern_simons_mod1,
    dai_correction_circle,
    eta_truncated_circle,
    eta_untwisted_torus,
    rho_circle,
    rho_finite_order_generic,
    rho_hyperbolic_prep,
    rho_torus,
)
from .sl2z import (
    Elliptic,
    Hyperbolic,
    Identity,
    MonodromyClass,
    Parabolic,
    SL2ZMatrix,
    UpperHalfPoint,
    classify,
    invariant_path_sigma,
    moebius_op_action,
    parabolic_normal_form,
)

__version__ = "0.1.0"

# the float layer's names, bound on first use (PEP 562): importing the
# package or running an exact computation never loads analytic
_ANALYTIC_NAMES = (
    "SeriesParams",
    "ComplexValue",
    "e_series",
    "f_series",
    "kronecker_integral",
    "kronecker_closed",
    "log_eta",
    "log_eta_gen",
    "transform_defect",
    "transform_defect_gen",
    "torus_spectrum",
    "rho_form_hyp_numeric",
    "eta_untwisted_numeric",
)


def __getattr__(name: str):
    if name == "analytic" or name in _ANALYTIC_NAMES:
        from importlib import import_module

        analytic = import_module(".analytic", __name__)
        return analytic if name == "analytic" else getattr(analytic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # errors
    "RhoCalcError",
    "DomainError",
    "AdmissibilityError",
    "UnsupportedClassError",
    "ConvergenceError",
    "QuadratureError",
    # bernoulli
    "Rational",
    "bernoulli_number",
    "bernoulli_poly",
    "periodic_bernoulli",
    "hurwitz_zeta_nonpos",
    "periodic_eta_zero",
    "periodic_zeta_at",
    # dedekind
    "CoprimePair",
    "PeriodicFunctionTable",
    "classical_sum",
    "generalized_sum",
    "cotangent_sum",
    "finite_fourier_transform",
    "p1_closed_fourier",
    "sum_difference_closed",
    # sl2z
    "SL2ZMatrix",
    "UpperHalfPoint",
    "MonodromyClass",
    "Identity",
    "Elliptic",
    "Parabolic",
    "Hyperbolic",
    "classify",
    "parabolic_normal_form",
    "moebius_op_action",
    "invariant_path_sigma",
    # moduli
    "TorusFlatConnection",
    "CircleFlatConnection",
    "ParabolicFamily",
    "TorusModuliSet",
    "CircleModuliSummary",
    "transport_nu_from_normal_form",
    "connection_from_nu",
    "enumerate_torus_connections",
    "is_bundle_trivial",
    "circle_moduli_summary",
    # rho
    "RhoBranch",
    "RhoValue",
    "EigenphaseData",
    "rho_circle",
    "eta_truncated_circle",
    "dai_correction_circle",
    "rho_torus",
    "rho_hyperbolic_prep",
    "eta_untwisted_torus",
    "rho_finite_order_generic",
    "chern_simons_mod1",
    # analytic
    *_ANALYTIC_NAMES,
]
