"""Self-test of the benchmark itself, in a short smoke run.

    python3 perfbench/selftest.py

Checks that

* every end-to-end metric BENCHMARK.json names, and ``error_rate``, comes
  out of a short untraced run of every workload;
* every per-layer metric BENCHMARK.json names comes out of a short traced
  run;
* a planted wrong value is caught and counted in ``error_rate``: one
  ``rho_torus`` shifted by 1/7 in ``exact_sweep``, one transformation
  defect off by 1e-3 in ``verify_float``, and one expected CLI row
  shifted by 1/7 in ``cli_oneshot``.

Exits 0 when all hold.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402

SEED = 3
SMOKE_SECONDS = 2.0
TRACE_SECONDS = 4.0


def _module_with(module, **overrides) -> SimpleNamespace:
    """The public names of ``module``, some replaced."""
    return SimpleNamespace(**{**{k: getattr(module, k) for k in module.__all__}, **overrides})


def _once(fn, wrong):
    """``fn`` whose first result is passed through ``wrong``."""
    state = {"planted": False}

    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        if not state["planted"]:
            state["planted"] = True
            return wrong(out)
        return out

    return wrapped


def planted(name: str, R) -> dict:
    """Run a few operations of ``name`` with one wrong value planted."""
    if name == "exact_sweep":
        rho = R.rho
        shifted = _once(rho.rho_torus, lambda v: rho.RhoValue(v.value + Fraction(1, 7), v.branch))
        R = SimpleNamespace(**{**vars(R), "rho": _module_with(rho, rho_torus=shifted)})
        wl = workloads.make(name, R, SEED, worker.ROOT)
        rounds = [wl.rounds[0][:6]]
    elif name == "verify_float":
        A = R.analytic
        off = _once(A.transform_defect, lambda v: A.ComplexValue(v.re + 1e-3, v.im))
        R = SimpleNamespace(**{**vars(R), "analytic": _module_with(A, transform_defect=off)})
        wl = workloads.make(name, R, SEED, worker.ROOT)
        rounds = [[op for op in wl.rounds[0] if op[0] == "td"][:4]]
    else:
        wl = workloads.make(name, R, SEED, worker.ROOT)
        argv, expected = next(
            (argv, exp) for argv, exp in wl.rounds[0] if isinstance(exp, dict) and "rho_torus" in exp
        )
        wrong = dict(expected, rho_torus=expected["rho_torus"] + Fraction(1, 7))
        rounds = [[(argv, wrong), (argv, expected)]]
    loop = worker.closed_loop(wl, rounds, 0, NullTracer(), limit=len(rounds[0]))
    return worker.summarize(loop, children=False)


def main() -> int:
    spec = run.load_spec()
    problems = []
    for name in run.WORKLOADS:
        res = run.measure(name, SEED, SMOKE_SECONDS, trace=False)
        wanted = [m["name"] for m in spec["end_to_end"]] + ["error_rate"]
        missing = [m for m in wanted if m not in res["metrics"]]
        if missing or res["failed"]:
            problems.append(f"{name}: missing {missing}, {res['failed']} failed {res['detail'].get('notes')}")
        print(f"smoke {name}: {len(wanted) - len(missing)}/{len(wanted)} end-to-end metrics, "
              f"{res['attempted']} ops, {res['failed']} failed")
    res = run.measure(run.WORKLOADS[0], SEED, TRACE_SECONDS, trace=True)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in res["metrics"]]
    if missing:
        problems.append(f"traced run: missing {missing}")
    print(f"traced: {len(spec['per_layer']) - len(missing)}/{len(spec['per_layer'])} per-layer metrics")

    R = worker.load_package()
    for name in run.WORKLOADS:
        res = planted(name, R)
        caught = res["failed"] == 1 and res["metrics"]["error_rate"] == 1 / res["attempted"]
        if not caught:
            problems.append(f"{name}: planted wrong value gave {res['failed']} failures of {res['attempted']}")
        print(f"planted {name}: {res['failed']} of {res['attempted']} failed, "
              f"error_rate {res['metrics']['error_rate']:.3f} -- {res['notes'][:1]}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
