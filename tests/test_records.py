"""The value records of the package, its public names, and its lazily bound
float-layer names.

Every record class compares by value and only with its own class, hashes
consistently with that, refuses assignment and deletion, and prints as
``Cls(field=...)``.  The package binds the names of ``analytic`` on
first use, so that an exact computation never loads it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest

import rhocalc
from rhocalc import (
    CircleFlatConnection,
    CircleModuliSummary,
    ComplexValue,
    EigenphaseData,
    Elliptic,
    Hyperbolic,
    Identity,
    Parabolic,
    ParabolicFamily,
    PeriodicFunctionTable,
    RhoBranch,
    RhoValue,
    SeriesParams,
    SL2ZMatrix,
    TorusFlatConnection,
    TorusModuliSet,
    UpperHalfPoint,
)

from conftest import child_env

TWIST = TorusFlatConnection((F(1, 3), F(2, 3)), (0, 1))

# per record class: a factory, a factory of an unequal instance of the
# same class, and the repr of the first
CASES = {
    "SL2ZMatrix": (lambda: SL2ZMatrix(2, 1, 1, 1), lambda: SL2ZMatrix(1, 1, 0, 1), "SL2ZMatrix(a=2, b=1, c=1, d=1)"),
    "UpperHalfPoint": (
        lambda: UpperHalfPoint(0.5, 1.0),
        lambda: UpperHalfPoint(0.5, 2.0),
        "UpperHalfPoint(sigma1=0.5, sigma2=1.0)",
    ),
    "Elliptic": (lambda: Elliptic(F(1, 4)), lambda: Elliptic(F(1, 6)), "Elliptic(theta=Fraction(1, 4))"),
    "Parabolic": (
        lambda: Parabolic(1, 3, SL2ZMatrix(1, 0, 0, 1)),
        lambda: Parabolic(-1, 3, SL2ZMatrix(1, 0, 0, 1)),
        "Parabolic(epsilon=1, l=3, conjugator=SL2ZMatrix(a=1, b=0, c=0, d=1))",
    ),
    "Hyperbolic": (
        lambda: Hyperbolic(SL2ZMatrix(2, 1, 1, 1)),
        lambda: Hyperbolic(SL2ZMatrix(3, 2, 4, 3)),
        "Hyperbolic(matrix=SL2ZMatrix(a=2, b=1, c=1, d=1))",
    ),
    "Identity": (lambda: Identity(1), lambda: Identity(-1), "Identity(epsilon=1)"),
    "TorusFlatConnection": (
        lambda: TorusFlatConnection((F(1, 3), F(2, 3)), (0, 1)),
        lambda: TorusFlatConnection((0, 0), (0, 0), gauge_lambda=F(1, 2)),
        "TorusFlatConnection(nu=(Fraction(1, 3), Fraction(2, 3)), m=(0, 1), gauge_lambda=None, "
        "restriction_trivial=False)",
    ),
    "CircleFlatConnection": (
        lambda: CircleFlatConnection(3, 6, is_trivial=True),
        lambda: CircleFlatConnection(3, 6),
        "CircleFlatConnection(degree_l=3, chern_k=6, is_trivial=True)",
    ),
    "ParabolicFamily": (
        lambda: ParabolicFamily(F(1, 2), TWIST),
        lambda: ParabolicFamily(F(0), TWIST),
        f"ParabolicFamily(nu1=Fraction(1, 2), representative={TWIST!r})",
    ),
    "TorusModuliSet": (
        lambda: TorusModuliSet((TWIST,), ()),
        lambda: TorusModuliSet((), ()),
        f"TorusModuliSet(isolated=({TWIST!r},), families=())",
    ),
    "CircleModuliSummary": (
        lambda: CircleModuliSummary(2, 3),
        lambda: CircleModuliSummary(3, 2),
        "CircleModuliSummary(torus_rank=2, torsion_order=3)",
    ),
    "PeriodicFunctionTable": (
        lambda: PeriodicFunctionTable(2, (1, 2j)),
        lambda: PeriodicFunctionTable(-2, (1, 2j)),
        "PeriodicFunctionTable(c=2, values=((1+0j), 2j))",
    ),
    "RhoValue": (
        lambda: RhoValue(F(1, 3), RhoBranch.HYPERBOLIC),
        lambda: RhoValue(F(1, 3), RhoBranch.PARABOLIC),
        "RhoValue(value=Fraction(1, 3), branch=<RhoBranch.HYPERBOLIC: 'hyperbolic'>)",
    ),
    "EigenphaseData": (
        lambda: EigenphaseData([F(1, 3)], [F(2, 3)], [], 1),
        lambda: EigenphaseData([F(1, 3)], [F(2, 3)], [], 2),
        "EigenphaseData(plus_phases=(Fraction(1, 3),), minus_phases=(Fraction(2, 3),), "
        "untwisted_plus_phases=(), rank_k=1)",
    ),
    "SeriesParams": (
        lambda: SeriesParams(max_terms=3),
        lambda: SeriesParams(),
        "SeriesParams(tail_tolerance=1e-14, max_terms=3, quad_tolerance=1e-09, poisson_switch_u=1.0)",
    ),
    "ComplexValue": (lambda: ComplexValue(1.0, -2.0), lambda: ComplexValue(-2.0, 1.0), "ComplexValue(re=1.0, im=-2.0)"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_semantics(name):
    make, make_other, text = CASES[name]
    value, other = make(), make_other()
    assert type(value).__name__ == name
    # equality by value, and a hash that agrees with it
    assert value == make() and not value != make()
    assert hash(value) == hash(make())
    assert value != other and not value == other
    assert len({value, make(), other}) == 2
    # never equal to an instance of another class, even with equal fields
    for other_name, (other_make, _, _) in CASES.items():
        if other_name != name:
            assert value != other_make()
    assert value != tuple(vars(value).values())
    # the dataclass repr
    assert repr(value) == text
    # immutable: no field or new attribute can be set or deleted
    for field in [*vars(value), "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == make()


def test_distinct_classes_with_equal_fields_differ():
    assert Identity(1) != Elliptic(1)
    assert Elliptic(F(1, 4)) != Identity(F(1, 4))


@pytest.mark.parametrize(
    "make,field,changed",
    [
        (lambda: TorusFlatConnection((F(1, 3), F(2, 3)), (0, 1)), "restriction_trivial", True),
    ],
)
def test_derived_fields_take_part_in_equality(make, field, changed):
    value = make()
    vars(value)[field] = changed  # past the constructor that derives it
    assert value != make()


def test_cached_property_leaves_value_semantics_alone():
    mat, fresh = SL2ZMatrix(2, 1, 1, 1), SL2ZMatrix(2, 1, 1, 1)
    assert isinstance(mat._class, Hyperbolic) and "_class" in vars(mat)
    assert mat == fresh and hash(mat) == hash(fresh)
    assert repr(mat) == repr(fresh)


def test_every_public_name_resolves():
    for name in rhocalc.__all__:
        assert getattr(rhocalc, name) is not None, name
    namespace = {}
    exec("from rhocalc import *", namespace)
    assert set(rhocalc.__all__) <= set(namespace)
    assert rhocalc.analytic.SeriesParams is rhocalc.SeriesParams
    assert "transport_nu_to_normal_form" not in rhocalc.__all__
    with pytest.raises(AttributeError):
        rhocalc.no_such_name


def test_each_public_name_is_listed_once_in_its_module():
    # the package's __all__ is its modules' __all__, not a second list
    from rhocalc import analytic

    modules = [rhocalc.errors, rhocalc.bernoulli, rhocalc.dedekind, rhocalc.sl2z, rhocalc.moduli, rhocalc.rho]
    want = {"__version__", *rhocalc._ANALYTIC_NAMES}.union(*(m.__all__ for m in modules))
    assert set(rhocalc.__all__) == want
    assert len(rhocalc.__all__) == len(set(rhocalc.__all__))
    assert set(rhocalc._ANALYTIC_NAMES) <= set(analytic.__all__)
    for module in (*modules, analytic):
        assert [n for n in module.__all__ if n not in vars(module)] == [], module.__name__


def test_analytic_names_load_the_float_layer_on_first_use():
    # a fresh interpreter, since this session has loaded analytic already
    script = textwrap.dedent(
        """
        import json, sys

        import rhocalc

        before = "rhocalc.analytic" in sys.modules
        lazy = rhocalc.e_series
        print(json.dumps({
            "before": before,
            "after": "rhocalc.analytic" in sys.modules,
            "same": lazy is rhocalc.analytic.e_series is sys.modules["rhocalc.analytic"].e_series,
        }))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"before": False, "after": True, "same": True}


#: the float code that left the exact modules for rhocalc.analytic
MOVED_TO_ANALYTIC = (
    "moebius_op_action",
    "invariant_path_sigma",
    "PeriodicFunctionTable",
    "finite_fourier_transform",
    "p1_closed_fourier",
)


@pytest.mark.parametrize("name", MOVED_TO_ANALYTIC)
def test_moved_float_name_is_the_analytic_object(name):
    from rhocalc import analytic

    assert getattr(rhocalc, name) is getattr(analytic, name)
    assert name in rhocalc._ANALYTIC_NAMES
    assert not hasattr(rhocalc.sl2z, name) and not hasattr(rhocalc.dedekind, name)


def test_exact_modules_load_no_float_layer():
    script = (
        "import json, sys\n"
        "import rhocalc.sl2z, rhocalc.dedekind\n"
        "print(json.dumps([m for m in ('numpy', 'rhocalc.analytic') if m in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
