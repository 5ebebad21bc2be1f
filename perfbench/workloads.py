"""The three workloads: seeded inputs, one operation each, and its checks.

Every workload is a closed loop driven by one client: operations run one
after another in a fixed seeded order, and each result is checked before
the next operation starts.  A workload makes ``ROUNDS`` distinct rounds
of inputs at set-up and the loop cycles through them, so that each input
recurs several times in a run and its best time can be taken.  Only names listed in a module's ``__all__``
are called.  Every call into a layer goes through ``tracer.call`` so the
traced run can put a span around it.

* ``cli_oneshot``  -- one ``python -m rhocalc ... --json`` subprocess per
  operation, over a seeded mix of exact commands plus a fixed share of
  robustness inputs (an inadmissible nu; a huge matrix entry with c = +-1).
* ``exact_sweep``  -- one hyperbolic matrix per operation, covering all of
  its flat classes, on a |c| ladder and a many-class ladder.
* ``verify_float`` -- one numerical verification check per operation.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from typing import Dict, List, Optional, Sequence

from spans import decade

#: the huge-entry input: a = 10^160 + k, so float(a) overflows in classify
HUGE = 10**160


@dataclass
class Outcome:
    ok: bool
    values: int = 0
    known_defect: bool = False
    note: str = ""


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


def _hyperbolic(R, rng: random.Random, trace: int, c_lo: int, c_hi: int, tries: int = 0):
    """A matrix of the given trace with c_lo <= |c| < c_hi.

    Draws c, then solves a (trace - a) = 1 (mod |c|) by scanning from a
    random start; d = trace - a and b follow from the determinant.  Some
    traces have no solution for any small |c|: with ``tries`` set, give up
    after that many draws of c and return None.
    """
    drawn = 0
    while not tries or drawn < tries:
        drawn += 1
        c = rng.randrange(c_lo, c_hi) * rng.choice((1, -1))
        m = abs(c)
        a0 = rng.randrange(m)
        for i in range(m):
            a = (a0 + i) % m
            if (a * (trace - a) - 1) % m == 0:
                d = trace - a
                return R.sl2z.SL2ZMatrix(a, (a * d - 1) // c, c, d)


def _small_sl2z(R, rng: random.Random, bound: int, hyperbolic: bool = False):
    """A matrix with entries in [-bound, bound] and a, c != 0.

    Draws coprime a and c, then d from the residue a^-1 mod |c|, and b
    from the determinant; rejects only when b falls out of range.
    """
    while True:
        a, c = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if a == 0 or c == 0 or math.gcd(a, c) != 1:
            continue
        m = abs(c)
        d0 = pow(a, -1, m) if m > 1 else 0
        d = rng.choice(range(d0 - (d0 + bound) // m * m, bound + 1, m))
        b = (a * d - 1) // c
        if abs(b) > bound or (hyperbolic and abs(a + d) <= 2):
            continue
        return R.sl2z.SL2ZMatrix(a, b, c, d)


def _twisted_class(R, rng: random.Random, bound: int):
    """A small hyperbolic matrix and the nu of one of its twisted classes.

    The classes are nu = adj(A) m / det(A) mod 1 for integer m, where
    A = Id - M^t and det(A) = 2 - tr M; nu = 0 is the trivial class.
    """
    while True:
        M = _small_sl2z(R, rng, bound, hyperbolic=True)
        det = 2 - M.trace
        m1, m2 = rng.randrange(abs(det)), rng.randrange(abs(det))
        nu = (Fraction((1 - M.d) * m1 + M.c * m2, det), Fraction(M.b * m1 + (1 - M.a) * m2, det))
        nu = tuple(x - math.floor(x) for x in nu)
        if nu != (0, 0):
            return M, nu


def _sigma(R, rng: random.Random):
    return R.sl2z.UpperHalfPoint(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))


def _interleave(groups: Sequence[List]) -> List:
    """Round-robin merge, so any prefix of a round holds a fair mix."""
    out: List = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        out.extend(g[i] for g in groups if i < len(g))
    return out


# -- exact_sweep ----------------------------------------------------------


class ExactSweep:
    """Hyperbolic matrices on two ladders; one operation = one matrix.

    The |c| ladder uses trace 5 (3 classes, 2 twisted) with |c| drawn from
    [10^K, 2*10^K).  The many-class ladder uses |c| = 7 and |2 - tr M|
    drawn from [D, 1.02 D]; the cost of a class grows with |c|, so a fixed
    |c| keeps the cost of these matrices from varying with the seed.
    One round is 3 x 1e1, 2 x 1e2, 2 x 1e3, 6 x D~50 and one each of
    D~150, D~400 and D~1000.  The 1e1 and 1e2 matrices (1-10 ms) are
    cheaper than the D~50 group (~21 ms) and the rest dearer, but for the
    odd 1e3 matrix (14-110 ms), so the median is the middle of that
    group, and the tail falls among the D~1000 matrices.
    """

    name = "exact_sweep"
    ROUNDS = 1  # ~1.2 s
    C_LADDER = ((1, 3), (2, 2), (3, 2))  # (decade K, matrices per round)
    CLASS_LADDER = ((50, 6), (150, 1), (400, 1), (1000, 1))  # (D, per round)
    CLASS_MODULUS = 7
    #: |c| decades where a whole matrix (0.4-2 s at 10^4) is too slow to
    #: repeat in a run; the traced run visits each once, through
    #: :meth:`decade_probes`
    EXTRA_DECADE = 4
    PROBE_DECADES = (5, 6)

    def __init__(self, R, seed: int) -> None:
        self.R = R
        rng = random.Random(f"exact_sweep/{seed}")
        self.rounds: List[List] = []
        for _ in range(self.ROUNDS):
            groups = []
            for k, n in self.C_LADDER:
                groups.append([_hyperbolic(R, rng, 5, 10**k, 2 * 10**k) for _ in range(n)])
            for dd, n in self.CLASS_LADDER:
                mats = []
                while len(mats) < n:
                    dist = rng.randrange(dd, dd + dd // 50 + 1)
                    trace = 2 + dist if rng.random() < 0.5 else 2 - dist
                    M = _hyperbolic(R, rng, trace, self.CLASS_MODULUS, self.CLASS_MODULUS + 1, tries=4)
                    if M is not None:
                        mats.append(M)
                groups.append(mats)
            self.rounds.append(_interleave(groups))
        self.extra = _hyperbolic(R, rng, 5, 10**self.EXTRA_DECADE, 2 * 10**self.EXTRA_DECADE)
        self.probes = []
        for k in self.PROBE_DECADES:
            c = rng.randrange(10**k, 2 * 10**k)
            a = rng.choice([a for a in range(2, 50) if math.gcd(a, c) == 1])
            self.probes.append((a, c))
        self.warm = [_hyperbolic(R, rng, 5, 10, 20), _hyperbolic(R, rng, 5, 100, 200)]

    def decade_probes(self, tr) -> Outcome:
        """One whole matrix at |c| ~ 10^4, then single Dedekind sums at
        |c| ~ 10^5 and 10^6 (generalized: 10^5 only)."""
        out = self.run(self.extra, tr)
        D = self.R.dedekind
        for a, c in self.probes:
            tr.call("dedekind.classical_sum", D.classical_sum, a, c, tag=decade(c))
            if c < 10**6:
                tr.call("dedekind.generalized_sum", D.generalized_sum, Fraction(1, 3), Fraction(1, 5), a, c, tag=decade(c))
        return out

    def run(self, M, tr) -> Outcome:
        R = self.R
        cls = tr.call("sl2z.classify", R.sl2z.classify, M)
        if not isinstance(cls, R.sl2z.Hyperbolic):
            return Outcome(False, note=f"{M} classified as {cls}")
        mod = tr.call("moduli.enumerate_torus_connections", R.moduli.enumerate_torus_connections, M)
        tr.count("moduli.classes", len(mod.isolated))
        if len(mod.isolated) != abs(2 - M.trace):
            return Outcome(False, note=f"{M}: {len(mod.isolated)} classes")
        a, c = M.a, M.c
        tag = decade(c)
        values = 0
        classical = tr.call("dedekind.classical_sum", R.dedekind.classical_sum, a, c, tag=tag)
        tr.count("dedekind.modulus_total", abs(c))
        for conn in mod.isolated:
            if conn.restriction_trivial:
                continue
            nu1, nu2 = conn.nu
            direct = tr.call("rho.rho_torus", R.rho.rho_torus, M, conn, tag=tag).value
            prep = tr.call("rho.rho_hyperbolic_prep", R.rho.rho_hyperbolic_prep, M, conn, tag=tag).value
            cs = tr.call("rho.chern_simons_mod1", R.rho.chern_simons_mod1, M, conn)
            closed = tr.call(
                "dedekind.sum_difference_closed", R.dedekind.sum_difference_closed, nu1, nu2, M
            )
            general = tr.call(
                "dedekind.generalized_sum", R.dedekind.generalized_sum, nu1, nu2, a, c, tag=tag
            )
            tr.count("dedekind.modulus_total", 2 * abs(c))
            if direct != prep:
                return Outcome(False, note=f"{M} nu={conn.nu}: rho {direct} != prep {prep}")
            if (direct - cs).denominator != 1 or not 0 <= cs < 1:
                return Outcome(False, note=f"{M} nu={conn.nu}: rho {direct} vs cs {cs}")
            if closed != general - classical:
                return Outcome(False, note=f"{M} nu={conn.nu}: sum difference {closed}")
            values += 2
        eta = tr.call("rho.eta_untwisted_torus", R.rho.eta_untwisted_torus, M)
        expected = Fraction(a + M.d, 3 * c) - 4 * _sgn(c) * classical - _sgn(c * (a + M.d))
        if eta != expected:
            return Outcome(False, note=f"{M}: eta {eta} != {expected}")
        return Outcome(True, values + 1)


# -- verify_float ---------------------------------------------------------

#: the 12-point (sigma1, sigma2, u) grid of the f-sum kernels, nu = (1/2, 1/4)
F_GRID = [(s1, s2, u) for s1 in (0.0, 0.3) for s2 in (0.7, 1.5) for u in (0.6, 1.0, 1.8)]
F_NU = (Fraction(1, 2), Fraction(1, 4))
#: modulus of the cotangent-vs-exact Dedekind sweep
COT_MODULUS = 499
#: nu of the Kronecker checks, in sixths
KRONECKER_NU = ((1, 2), (1, 4), (2, 1), (2, 5), (4, 1), (4, 5), (5, 2), (5, 4))


class VerifyFloat:
    """Numerical checks of the closed forms; one operation = one check.

    One round holds 1 Kronecker quadrature (~0.1 s), 1 cotangent sweep
    over the residues mod 499, 12 f-sum grid points, 2 untwisted eta
    quadratures, 32 each of the classical and generalized transformation
    defects and of ``rho_form_hyp_numeric``, and 16 ``e_series`` method
    comparisons.  The quadrature and the series checks then take similar
    shares of the time, and as many checks are cheaper than the
    generalized defects (~0.4 ms) as dearer, so the median is the middle
    of that group.
    """

    name = "verify_float"
    ROUNDS = 2  # ~0.35 s each
    FAST = 32
    MIN_IMAG = 0.01

    def __init__(self, R, seed: int) -> None:
        self.R = R
        # the CLI's own pass/fail tolerances
        self.tol_kronecker = R.cli.KRONECKER_TOL
        self.tol_eta = R.cli.ETA_TRANSFORM_TOL
        self.tol_eta_gen = R.cli.ETA_TRANSFORM_GEN_TOL
        rng = random.Random(f"verify_float/{seed}")
        self.rounds = [self._round(rng) for _ in range(self.ROUNDS)]
        self.warm = [op for op in self.rounds[0] if op[0] in ("kronecker", "eta_numeric", "f_grid")][:3]

    def _round(self, rng: random.Random) -> List:
        R = self.R
        groups: Dict[str, List] = {k: [] for k in ("td", "tdg", "rho_form", "e_methods", "f_grid")}
        for _ in range(self.FAST):
            groups["td"].append(("td", self._transform_input(rng)))
            while True:
                g = Fraction(rng.randint(0, 11), rng.randint(1, 12))
                h = Fraction(rng.randint(-11, 11), rng.randint(1, 12))
                if g.denominator != 1 or h.denominator != 1:
                    break
            M, sigma = self._transform_input(rng)
            groups["tdg"].append(("tdg", (M, g, h, sigma)))
            groups["rho_form"].append(("rho_form", _twisted_class(R, rng, 12)))
        for _ in range(self.FAST // 2):
            nu = (Fraction(rng.randint(0, 5), 6), Fraction(rng.randint(0, 5), 6))
            sigma = R.sl2z.UpperHalfPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.8))
            groups["e_methods"].append(("e_methods", (sigma, nu)))
        groups["f_grid"] = [("f_grid", point) for point in F_GRID]
        # a narrow family: this check is the tail of the workload, and the
        # quadrature's evaluation count jumps (252-882) with sigma and nu;
        # for these nu and sigma it stays within 546-630
        nu = tuple(Fraction(k, 6) for k in rng.choice(KRONECKER_NU))
        sigma = R.sl2z.UpperHalfPoint(rng.uniform(-0.05, 0.05), rng.uniform(0.97, 1.03))
        slow = [
            ("kronecker", (sigma, nu)),
            ("cotangent", (COT_MODULUS,)),
            ("eta_numeric", (_small_sl2z(R, rng, 12, hyperbolic=True),)),
            ("eta_numeric", (_small_sl2z(R, rng, 12, hyperbolic=True),)),
        ]
        return _interleave([slow] + list(groups.values()))

    def _transform_input(self, rng: random.Random):
        """M and sigma for a transformation-law check.

        The log-eta series at M^op sigma needs about 1/Im(M^op sigma)
        terms, and Im(M^op sigma) = sigma2 / |c sigma + a|^2 can be tiny, so
        a few draws would dominate a seed's cost; points below
        MIN_IMAG are drawn again.
        """
        while True:
            M, sigma = _small_sl2z(self.R, rng, 20), _sigma(self.R, rng)
            if sigma.sigma2 / abs(M.c * sigma.as_complex() + M.a) ** 2 >= self.MIN_IMAG:
                return M, sigma

    def run(self, op, tr) -> Outcome:
        kind, args = op
        err = getattr(self, f"_check_{kind}")(tr, *args)
        if err is None:
            return Outcome(True, 1)
        return Outcome(False, note=f"{kind}{args}: {err}")

    def _check_td(self, tr, M, sigma) -> Optional[str]:
        defect = tr.call("analytic.transform_defect", self.R.analytic.transform_defect, M, sigma)
        err = abs(defect.as_complex())
        return None if err < self.tol_eta else f"defect {err:.3e}"

    def _check_tdg(self, tr, M, g, h, sigma) -> Optional[str]:
        defect = tr.call(
            "analytic.transform_defect_gen", self.R.analytic.transform_defect_gen, M, g, h, sigma
        )
        err = abs(defect.as_complex())
        return None if err < self.tol_eta_gen else f"defect {err:.3e}"

    def _check_kronecker(self, tr, sigma, nu) -> Optional[str]:
        A = self.R.analytic
        value, info = tr.call("analytic.kronecker_integral_info", A.kronecker_integral_info, sigma, nu)
        tr.count("analytic.kronecker.neval", info["neval"])
        closed = tr.call("analytic.kronecker_closed", A.kronecker_closed, sigma, nu)
        err = abs(value.as_complex() - closed.as_complex())
        return None if err < self.tol_kronecker else f"|integral - closed| {err:.3e}"

    def _check_f_grid(self, tr, s1, s2, u) -> Optional[str]:
        A = self.R.analytic
        sigma = self.R.sl2z.UpperHalfPoint(s1, s2)
        direct = tr.call("analytic.f_series_direct", A.f_series_direct, sigma, u, F_NU)
        poisson = tr.call("analytic.f_series_poisson", A.f_series_poisson, sigma, u, F_NU)
        err = abs(direct.as_complex() - poisson.as_complex())
        return None if err < self.tol_eta else f"|direct - poisson| {err:.3e}"

    def _check_e_methods(self, tr, sigma, nu) -> Optional[str]:
        e_count = self.R.analytic.e_series_with_count
        fast, terms = tr.call("analytic.e_series_with_count", e_count, sigma, nu, method="cotangent")
        slow, slow_terms = tr.call("analytic.e_series_with_count", e_count, sigma, nu, method="double-sum")
        tr.count("analytic.e_series.terms", terms + slow_terms)
        err = abs(fast.as_complex() - slow.as_complex())
        return None if err < self.tol_eta else f"|cotangent - double-sum| {err:.3e}"

    def _check_rho_form(self, tr, M, nu) -> Optional[str]:
        R = self.R
        numeric = tr.call("analytic.rho_form_hyp_numeric", R.analytic.rho_form_hyp_numeric, M, nu)
        general = tr.call(
            "dedekind.generalized_sum", R.dedekind.generalized_sum, nu[0], nu[1], M.a, M.c, tag=decade(M.c)
        )
        exact = Fraction(M.a + M.d, M.c) * R.bernoulli.periodic_bernoulli(2, nu[0]) - 2 * _sgn(M.c) * general
        err = abs(numeric - float(exact))
        return None if err < self.tol_kronecker else f"|numeric - exact| {err:.3e}"

    def _check_eta_numeric(self, tr, M) -> Optional[str]:
        R = self.R
        numeric = tr.call("analytic.eta_untwisted_numeric", R.analytic.eta_untwisted_numeric, M)
        exact = tr.call("rho.eta_untwisted_torus", R.rho.eta_untwisted_torus, M)
        err = abs(numeric - float(exact))
        return None if err < self.tol_kronecker else f"|numeric - exact| {err:.3e}"

    def _check_cotangent(self, tr, m) -> Optional[str]:
        D = self.R.dedekind
        tag = decade(m)
        worst = 0.0
        for a in range(1, m):
            if math.gcd(a, m) != 1:
                continue
            approx = tr.call("dedekind.cotangent_sum", D.cotangent_sum, a, m, tag=tag)
            exact = tr.call("dedekind.classical_sum", D.classical_sum, a, m, tag=tag)
            worst = max(worst, abs(approx - float(exact)))
        return None if worst < self.tol_eta else f"worst |cotangent - exact| {worst:.3e}"


# -- cli_oneshot ----------------------------------------------------------


def _fstr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class CliOneshot:
    """One fresh ``python -m rhocalc ... --json`` per operation.

    One round holds the eight exact commands (rho circle, rho torus with
    --nu and with --enumerate, eta torus, dedekind classic and general,
    moduli torus and circle) plus one inadmissible nu, which must exit 2
    without a traceback, and one matrix with a 161-digit entry and c = +-1,
    which must print the exact eta (a+d)/(3c) - sgn(c(a+d)) or exit 2.
    Expected rows come from the library in process, at set-up.
    """

    name = "cli_oneshot"
    ROUNDS = 1  # ~10 s

    def __init__(self, R, seed: int, root: str) -> None:
        self.R = R
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        rng = random.Random(f"cli_oneshot/{seed}")
        self.rounds = []
        for _ in range(self.ROUNDS):
            ops = self._round(rng)
            rng.shuffle(ops)
            self.rounds.append(ops)
        self.warm = [self.rounds[0][0]]

    def _round(self, rng: random.Random) -> List:
        R = self.R
        rho, moduli, ded = R.rho, R.moduli, R.dedekind
        ops = []

        def mat_arg(M) -> str:
            return f"{M.a},{M.b},{M.c},{M.d}"

        degree = rng.choice([l for l in range(-24, 25) if l])
        chern = rng.randint(-50, 50)
        conn = moduli.CircleFlatConnection(degree, chern)
        value = rho.rho_circle(conn)
        ops.append((
            ["rho", "circle", "--degree", str(degree), "--chern", str(chern)],
            {"rho_circle": value.value, "eta_truncated": rho.eta_truncated_circle(conn),
             "dai_correction": Fraction(rho.dai_correction_circle(degree, False))},
        ))
        M, nu = _twisted_class(R, rng, 20)
        conn = moduli.connection_from_nu(M, nu)
        ops.append((
            ["rho", "torus", "--matrix", mat_arg(M), "--nu", f"{_fstr(conn.nu[0])},{_fstr(conn.nu[1])}"],
            {"rho_torus": rho.rho_torus(M, conn).value, "cs_mod1": rho.chern_simons_mod1(M, conn)},
        ))
        # |2 - tr M| = 6 classes, so every round checks the same number of rows
        M = _hyperbolic(R, rng, rng.choice((8, -4)), 2, 10)
        expected = {}
        for conn in moduli.enumerate_torus_connections(M).isolated:
            tag = f"{_fstr(conn.nu[0])},{_fstr(conn.nu[1])}"
            # the trivial class is out of scope: a row without an exact value
            expected[f"rho_torus[{tag}]"] = None if conn.restriction_trivial else rho.rho_torus(M, conn).value
            expected[f"cs_mod1[{tag}]"] = rho.chern_simons_mod1(M, conn)
        ops.append((["rho", "torus", "--matrix", mat_arg(M), "--enumerate"], expected))
        M = _small_sl2z(R, rng, 20, hyperbolic=True)
        ops.append((["eta", "torus", "--matrix", mat_arg(M)], {"eta_untwisted": rho.eta_untwisted_torus(M)}))
        while True:
            c = rng.randint(2, 1000) * rng.choice((1, -1))
            a = rng.randint(-1000, 1000)
            if math.gcd(a, c) == 1:
                break
        ops.append((["dedekind", "classic", "--a", str(a), "--c", str(c)], {"classical_sum": ded.classical_sum(a, c)}))
        x = Fraction(rng.randint(0, 11), rng.randint(1, 12))
        y = Fraction(rng.randint(-11, 11), rng.randint(1, 12))
        ops.append((
            ["dedekind", "general", "--x", _fstr(x), "--y", _fstr(y), "--a", str(a), "--c", str(c)],
            {"generalized_sum": ded.generalized_sum(x, y, a, c)},
        ))
        M = _hyperbolic(R, rng, rng.choice((8, -4)), 2, 10)
        expected = {"isolated_count": Fraction(abs(2 - M.trace))}
        for i, conn in enumerate(moduli.enumerate_torus_connections(M).isolated):
            expected.update({f"conn[{i}].nu1": conn.nu[0], f"conn[{i}].nu2": conn.nu[1],
                             f"conn[{i}].m1": Fraction(conn.m[0]), f"conn[{i}].m2": Fraction(conn.m[1])})
        ops.append((["moduli", "torus", "--matrix", mat_arg(M)], expected))
        genus, degree = rng.randint(0, 9), rng.randint(-30, 30)
        ops.append((
            ["moduli", "circle", "--genus", str(genus), "--degree", str(degree)],
            {"torus_rank": Fraction(2 * genus), "torsion_order": Fraction(abs(degree))},
        ))
        # robustness: (Id - M^t)(1/p, 0) = ((1 - a)/p, -b/p) is not integral
        # once p exceeds |1 - a| and |b|, which are not both 0 for hyperbolic M
        M = _small_sl2z(R, rng, 20, hyperbolic=True)
        p = max(abs(M.a - 1), abs(M.b)) + 1
        ops.append((["rho", "torus", "--matrix", mat_arg(M), "--nu", f"1/{p},0"], "exit2"))
        c = rng.choice((1, -1))
        a, d = HUGE + rng.randint(1, 10**6), rng.randint(3, 9)
        b = (a * d - 1) // c
        eta = Fraction(a + d, 3 * c) - _sgn(c * (a + d))
        ops.append((["eta", "torus", "--matrix", f"{a},{b},{c},{d}"], ("huge", {"eta_untwisted": eta})))
        return ops

    def run(self, op, tr) -> Outcome:
        argv, expected = op
        with tr.span("cli.subprocess"):
            proc = subprocess.run(
                [sys.executable, "-m", "rhocalc", *argv, "--json"],
                cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
            )
        return self.judge(argv, expected, proc.returncode, proc.stdout, proc.stderr)

    def run_in_process(self, op, tr) -> Outcome:
        """The same command through ``cli.run_command``, stdout captured."""
        argv, expected = op
        out, err = StringIO(), StringIO()
        code = 1
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = tr.call("cli.run_command", self.R.cli.run_command, [*argv, "--json"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 -- an uncaught error is a traceback
            err.write(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n")
        return self.judge(argv, expected, code, out.getvalue(), err.getvalue())

    @staticmethod
    def judge(argv, expected, code: int, stdout: str, stderr: str) -> Outcome:
        huge = isinstance(expected, tuple)
        if huge:
            expected = expected[1]
        if "Traceback" in stderr:
            last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
            return Outcome(False, known_defect=huge, note=f"{' '.join(argv)[:80]}: traceback {last}")
        if expected == "exit2" or (huge and code == 2):
            ok = code == 2 and "error:" in stderr
            return Outcome(ok, note="" if ok else f"{argv[:2]}: exit {code}, stderr {stderr[:80]!r}")
        if code != 0:
            return Outcome(False, known_defect=huge, note=f"{' '.join(argv)[:80]}: exit {code}")
        rows = {row["name"]: row for row in json.loads(stdout)["results"]}
        if set(rows) != set(expected):
            return Outcome(False, note=f"{argv[:2]}: rows {sorted(rows)} != {sorted(expected)}")
        for name, value in expected.items():
            row = rows[name]
            if value is None:
                if "exact" in row or not row.get("branch", "").startswith("out-of-scope"):
                    return Outcome(False, note=f"{argv[:2]}: {name} should be out of scope: {row}")
                continue
            if "exact" not in row or Fraction(row["exact"]) != value:
                return Outcome(False, note=f"{argv[:2]}: {name} = {row.get('exact')}, expected {value}")
            if "float" in row and row["float"] != float(value):
                return Outcome(False, note=f"{argv[:2]}: {name} float {row['float']} != {float(value)}")
        return Outcome(True, len(rows))


def make(name: str, R, seed: int, root: str):
    if name == "cli_oneshot":
        return CliOneshot(R, seed, root)
    if name == "exact_sweep":
        return ExactSweep(R, seed)
    if name == "verify_float":
        return VerifyFloat(R, seed)
    raise ValueError(f"unknown workload {name!r}")
